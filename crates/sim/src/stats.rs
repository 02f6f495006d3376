//! Time-weighted accumulation of piecewise-constant signals.
//!
//! A fluid simulation advances in irregular steps between events, and most
//! of its state (pool size, allocated CPU rates) is piecewise constant
//! between those steps.  Steady-state metrics over such a signal — mean
//! queue depth, utilization — are time integrals, not sample averages: a
//! value that held for 100 s must weigh 100× more than one that held for
//! 1 s.  [`TimeWeighted`] is the accumulator for exactly that pattern; the
//! FlowCon worker threads one through its `advance_to` integration step to
//! produce open-loop steady-state statistics without retaining any series.

/// Accumulates `∫ value · dt` over a piecewise-constant signal.
///
/// The caller reports each constant segment as `(value, dt)`; the
/// accumulator keeps only the running area, so it costs two `f64`
/// operations per segment and no allocation — fit for the simulation hot
/// path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeWeighted {
    area: f64,
}

impl TimeWeighted {
    /// An empty accumulator (zero area).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one constant segment: the signal held `value` for `dt_secs`
    /// seconds.  Non-positive durations contribute nothing (events at the
    /// same instant advance no time).
    pub fn accumulate(&mut self, value: f64, dt_secs: f64) {
        if dt_secs > 0.0 {
            self.area += value * dt_secs;
        }
    }

    /// The accumulated `∫ value · dt` in value-seconds.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Reset to zero (for accumulator reuse across runs).
    pub fn reset(&mut self) {
        self.area = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_integrates_piecewise_segments() {
        let mut acc = TimeWeighted::new();
        acc.accumulate(2.0, 10.0); // 20
        acc.accumulate(0.5, 4.0); // 2
        acc.accumulate(0.0, 100.0); // idle contributes nothing
        assert!((acc.area() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_durations_are_ignored() {
        let mut acc = TimeWeighted::new();
        acc.accumulate(5.0, 0.0);
        acc.accumulate(5.0, -1.0);
        assert_eq!(acc.area(), 0.0);
    }

    #[test]
    fn reset_clears_the_area() {
        let mut acc = TimeWeighted::new();
        acc.accumulate(1.0, 3.0);
        acc.reset();
        assert_eq!(acc.area(), 0.0);
        assert_eq!(acc, TimeWeighted::new());
    }
}
