//! Time series of scalar measurements.

use flowcon_sim::time::{SimDuration, SimTime};

/// Consecutive sample times `start, start + step, …`, `len` of them
/// (never empty): how a [`TimeSeries`] stores its times, and what
/// [`TimeSeries::repeat_last`] takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeRun {
    start: SimTime,
    step: SimDuration,
    len: usize,
}

impl TimeRun {
    /// The run of the one time `at`.
    pub fn new(at: SimTime) -> Self {
        TimeRun {
            start: at,
            step: SimDuration::ZERO,
            len: 1,
        }
    }

    /// Append `at` if it continues the run, and say whether it did: a
    /// second time (not before the first) fixes the step, and every later
    /// one must come one step after the last.
    pub fn extend(&mut self, at: SimTime) -> bool {
        if self.len == 1 && at >= self.start {
            self.step = at - self.start;
        } else if self.len == 1 || self.at(self.len) != at {
            return false;
        }
        self.len += 1;
        true
    }

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
        if !self.runs.last_mut().is_some_and(|run| run.extend(at)) {
            self.runs.push(TimeRun::new(at));
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

    /// Append a point at each time of `times`, each repeating the last
    /// value: exactly the runs and change points that many
    /// [`TimeSeries::push`] calls store, in O(1) when the last run
    /// continues.  The series must have a last point, and `times` must not
    /// precede it.
    pub fn repeat_last(&mut self, times: TimeRun) {
        let &(_, value) = self.changes.last().expect("repeat_last on an empty series");
        self.push(times.start, value);
        let rest = times.len - 1;
        if rest == 0 {
            return;
        }
        // The last run now ends at `times.start`.  A run `push` just opened
        // takes its step from the second time, and a run of the same step
        // goes on; any other step starts a run at the second time.
        let run = self.runs.last_mut().expect("push leaves a run");
        if run.len == 1 || run.step == times.step {
            run.step = times.step;
            run.len += rest;
        } else {
            self.runs.push(TimeRun {
                start: times.start + times.step,
                step: if rest == 1 {
                    SimDuration::ZERO
                } else {
                    times.step
                },
                len: rest,
            });
        }
        self.len += rest;
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
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// `series` after `repeat_last` of the `n` times `start + i·step`
    /// (`n >= 1`: a run is never empty), checked against the same series
    /// after `n` pushes of its last value: equal runs, change points
    /// (value bits) and length, not only equal points.
    fn assert_repeat_matches_pushes(
        series: &TimeSeries,
        start: SimTime,
        step: SimDuration,
        n: usize,
    ) {
        let mut repeated = series.clone();
        repeated.repeat_last(TimeRun {
            start,
            step,
            len: n,
        });
        let mut pushed = series.clone();
        let &(_, value) = series.changes.last().expect("a last value");
        for i in 0..n {
            pushed.push(start + step.saturating_mul(i as u64), value);
        }
        let bits = |s: &TimeSeries| -> Vec<(usize, u64)> {
            s.changes.iter().map(|&(i, v)| (i, v.to_bits())).collect()
        };
        let case = format!("{:?} + {n} repeats from {start:?} by {step:?}", series.runs);
        assert_eq!(repeated.runs, pushed.runs, "runs of {case}");
        assert_eq!(bits(&repeated), bits(&pushed), "change points of {case}");
        assert_eq!(repeated.len, pushed.len, "length of {case}");
    }

    #[test]
    fn repeat_last_stores_what_pushes_store_in_every_run_shape() {
        let s = SimDuration::from_secs;
        // Last runs of length 1 (alone, and after a longer run), of stride
        // 1 s, and at one instant (stride 0).
        let prefixes: [&[u64]; 4] = [&[5], &[1, 2, 3, 10], &[1, 2, 3], &[4, 4, 4]];
        for times in prefixes {
            let mut series = TimeSeries::new();
            for (i, &at) in times.iter().enumerate() {
                series.push(t(at), if i % 2 == 0 { 0.5 } else { -0.0 });
            }
            let last = t(*times.last().unwrap());
            // At the last point's instant, one stride on, and further.
            for start in [last, last + s(1), last + s(7)] {
                // No stride, the last run's stride, and another one.
                for step in [SimDuration::ZERO, s(1), s(3)] {
                    for n in 1..5 {
                        assert_repeat_matches_pushes(&series, start, step, n);
                    }
                }
            }
        }
    }

    proptest! {
        /// Any series built by pushes (same-instant points, strides that
        /// change, one-off gaps, values whose bits differ but compare
        /// equal), extended from its last instant or later by any stride,
        /// for any count from 1 up.
        #[test]
        fn repeat_last_stores_what_pushes_store(
            prefix in prop::collection::vec((0u8..6, 0u64..3_000_000, 0u8..6), 1..40),
            offset in (0u8..3, 0u64..3_000_000),
            step in (0u8..3, 0u64..3_000_000),
            n in 1usize..12,
        ) {
            const VALUES: [f64; 6] = [0.0, -0.0, f64::NAN, 0.25, 1.0, 1.0 + f64::EPSILON];
            let mut series = TimeSeries::new();
            let (mut at, mut stride) = (0, 1_000_000);
            for &(time_move, micros, pick) in &prefix {
                match time_move {
                    0 => {}
                    1..=3 => at += stride,
                    4 => {
                        stride = micros;
                        at += stride;
                    }
                    _ => at += micros,
                }
                series.push(SimTime::from_micros(at), VALUES[usize::from(pick)]);
            }
            // None, the last push's stride, or any other.
            let pick = |(kind, micros): (u8, u64)| match kind {
                0 => 0,
                1 => stride,
                _ => micros,
            };
            let start = SimTime::from_micros(at + pick(offset));
            let step = SimDuration::from_micros(pick(step));
            assert_repeat_matches_pushes(&series, start, step, n);
        }
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
