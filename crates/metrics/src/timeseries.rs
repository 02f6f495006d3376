//! Time series of scalar measurements.

use flowcon_sim::time::{SimDuration, SimTime};

/// Consecutive sample times `start, start + step, …`, `len` of them.
#[derive(Debug, Clone, Copy)]
struct TimeRun {
    start: SimTime,
    step: SimDuration,
    len: usize,
}

impl TimeRun {
    /// The run's `i`-th time; `i == len` is the time that would extend it.
    fn at(&self, i: usize) -> SimTime {
        self.start + self.step.saturating_mul(i as u64)
    }
}

/// An append-only series of `(time, value)` points, stored by change.
///
/// The series a recorder keeps are step functions sampled on a fixed
/// tick: a container's CPU usage is its water-fill rate, which moves only
/// when the pool or a soft limit moves, and its limit moves only when the
/// policy issues an update.  So the series stores each point exactly but
/// pays per change, not per sample: times as arithmetic runs
/// (`start`, `step`, `len`), and a `(sample index, value)` change point
/// only where a value's bits differ from the sample before.  A series
/// sampled at 1 Hz with a constant value costs the same at any length.
///
/// [`TimeSeries::points`] iterates the rebuilt points, and `==` compares
/// them as a `Vec<(f64, f64)>` would (`-0.0 == 0.0`, NaN never equal).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Sample times, as arithmetic runs in push order.
    runs: Vec<TimeRun>,
    /// `(sample index, value)` wherever the value's bits differ from the
    /// sample before; the first sample always opens one.
    changes: Vec<(usize, f64)>,
    /// Number of samples.
    len: usize,
}

impl TimeSeries {
    /// An empty series.
    pub const fn new() -> Self {
        TimeSeries {
            runs: Vec::new(),
            changes: Vec::new(),
            len: 0,
        }
    }

    /// Append a point; time must be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.last_time().map_or(true, |last| at >= last),
            "time went backwards: {at:?} after {:?}",
            self.last_time()
        );
        match self.runs.last_mut() {
            Some(run) if run.len == 1 && at >= run.start => {
                run.step = at - run.start;
                run.len = 2;
            }
            Some(run) if run.len > 1 && run.at(run.len) == at => run.len += 1,
            _ => self.runs.push(TimeRun {
                start: at,
                step: SimDuration::ZERO,
                len: 1,
            }),
        }
        if self
            .changes
            .last()
            .map_or(true, |&(_, last)| last.to_bits() != value.to_bits())
        {
            self.changes.push((self.len, value));
        }
        self.len += 1;
    }

    /// All points as `(seconds, value)` pairs, in push order; each is the
    /// pushed `(at.as_secs_f64(), value)` bit for bit.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let times = self
            .runs
            .iter()
            .flat_map(|run| (0..run.len).map(move |i| run.at(i)));
        let mut changes = self.changes.iter().peekable();
        // Sample 0 always opens a change point, so this is never yielded.
        let mut value = f64::NAN;
        times.enumerate().map(move |(i, at)| {
            if let Some(&(_, v)) = changes.next_if(|&&(start, _)| start == i) {
                value = v;
            }
            (at.as_secs_f64(), value)
        })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no points recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Latest value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        let at = self.last_time()?;
        let &(_, value) = self.changes.last()?;
        Some((at.as_secs_f64(), value))
    }

    /// Maximum value over the series.
    pub fn max_value(&self) -> Option<f64> {
        // The change points hold every value minus bit-identical repeats,
        // which `max` ignores.
        self.changes
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    fn last_time(&self) -> Option<SimTime> {
        self.runs.last().map(|run| run.at(run.len - 1))
    }
}

impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.points().eq(other.points())
    }
}

/// A set of labelled series sharing a time axis (one per job, typically).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiSeries {
    series: Vec<(String, TimeSeries)>,
}

impl MultiSeries {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get (or create) the series with `label`.
    pub fn series_mut(&mut self, label: &str) -> &mut TimeSeries {
        self.series_from(0, label).1
    }

    /// The series with `label` and its index, created at the end if
    /// absent.
    ///
    /// The search starts at index `from` and wraps around.  Labels are
    /// unique, so every start finds the series a scan from 0 finds; a
    /// caller that asks for labels in creation order and starts just past
    /// its previous hit pays one comparison per lookup, plus one per
    /// series it skips.
    pub(crate) fn series_from(&mut self, from: usize, label: &str) -> (usize, &mut TimeSeries) {
        let (head, tail) = self.series.split_at(from.min(self.series.len()));
        let found = tail
            .iter()
            .position(|(l, _)| l == label)
            .map(|i| head.len() + i)
            .or_else(|| head.iter().position(|(l, _)| l == label));
        let index = found.unwrap_or_else(|| {
            self.series.push((label.to_string(), TimeSeries::new()));
            self.series.len() - 1
        });
        (index, &mut self.series[index].1)
    }

    /// The series at `index` (as `series_from` returned
    /// it); panics if out of range.
    pub(crate) fn series_at_mut(&mut self, index: usize) -> &mut TimeSeries {
        &mut self.series[index].1
    }

    /// Borrow a series by label.
    pub fn get(&self, label: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|(l, _)| l == label).map(|(_, s)| s)
    }

    /// Iterate `(label, series)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(l, s)| (l.as_str(), s))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if no series exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_accessors() {
        let mut s = TimeSeries::new();
        s.push(t(1), 0.5);
        s.push(t(2), 0.7);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((2.0, 0.7)));
        assert_eq!(s.max_value(), Some(0.7));
    }

    #[test]
    fn series_from_wraps_and_creates_once() {
        let mut m = MultiSeries::new();
        for label in ["a", "b", "c"] {
            m.series_mut(label);
        }
        // Every start, including past the end, finds the one "a".
        for from in 0..5 {
            assert_eq!(m.series_from(from, "a").0, 0);
            assert_eq!(m.series_from(from, "c").0, 2);
        }
        assert_eq!(m.series_from(2, "d").0, 3, "a new label is appended");
        assert_eq!(m.series_from(1, "d").0, 3);
        let labels: Vec<&str> = m.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["a", "b", "c", "d"]);
    }

    #[test]
    fn multiseries_round_trip() {
        let mut m = MultiSeries::new();
        m.series_mut("a").push(t(1), 0.1);
        m.series_mut("b").push(t(1), 0.2);
        m.series_mut("a").push(t(2), 0.3);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a").unwrap().len(), 2);
        assert!(m.get("missing").is_none());
        let labels: Vec<&str> = m.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["a", "b"]);
    }
}
