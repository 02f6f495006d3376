//! Time series of scalar measurements.

use flowcon_sim::time::SimTime;

/// An append-only series of `(time, value)` points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point; time must be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        let t = at.as_secs_f64();
        debug_assert!(
            self.points.last().map_or(true, |&(lt, _)| t >= lt),
            "time went backwards: {t} after {:?}",
            self.points.last()
        );
        self.points.push((t, value));
    }

    /// Append a point with a raw seconds timestamp.
    pub fn push_secs(&mut self, t: f64, value: f64) {
        self.points.push((t, value));
    }

    /// All points as `(seconds, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Latest value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }

    /// Maximum value over the series.
    pub fn max_value(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }

    /// Mean of values with `since < t <= until`.
    pub fn mean_over(&self, since: f64, until: f64) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u32;
        for &(t, v) in &self.points {
            if t > since && t <= until {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Piecewise-constant integral (left-continuous) over the full span.
    pub fn integral(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].1 * (w[1].0 - w[0].0))
            .sum()
    }

    /// Resample onto a fixed `step`-second grid by last-observation-carried-
    /// forward; used when rendering CPU traces at uniform resolution.
    pub fn resample(&self, step: f64) -> TimeSeries {
        assert!(step > 0.0);
        let mut out = TimeSeries::new();
        let Some(&(t0, _)) = self.points.first() else {
            return out;
        };
        let (tn, _) = *self.points.last().expect("non-empty");
        let mut idx = 0;
        let mut t = t0;
        while t <= tn + 1e-9 {
            while idx + 1 < self.points.len() && self.points[idx + 1].0 <= t {
                idx += 1;
            }
            out.push_secs(t, self.points[idx].1);
            t += step;
        }
        out
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
    fn mean_over_window() {
        let mut s = TimeSeries::new();
        for i in 1..=5 {
            s.push(t(i), i as f64);
        }
        // (1, 4]: values at t=2,3,4 -> mean 3.
        assert_eq!(s.mean_over(1.0, 4.0), Some(3.0));
        assert_eq!(s.mean_over(10.0, 20.0), None);
    }

    #[test]
    fn integral_is_piecewise_constant() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(2), 0.5);
        s.push(t(4), 0.0);
        // 1.0 for 2s + 0.5 for 2s = 3.0.
        assert!((s.integral() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn resample_carries_last_observation_forward() {
        let mut s = TimeSeries::new();
        s.push(t(0), 1.0);
        s.push(t(3), 2.0);
        let r = s.resample(1.0);
        let vals: Vec<f64> = r.points().iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![1.0, 1.0, 1.0, 2.0]);
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
