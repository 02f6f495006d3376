//! Virtual time.
//!
//! The simulation clock counts integer **microseconds** from the start of an
//! experiment.  Integer time gives a total order (no NaN, no float drift in
//! comparisons) which keeps event dispatch deterministic across platforms,
//! while one-microsecond resolution is far below anything the FlowCon
//! executor (intervals of tens of seconds) can observe.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant on the simulation clock (microseconds since t=0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime(0);
        }
        SimTime((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating doubling — used by the executor's exponential back-off.
    pub fn saturating_double(self) -> SimDuration {
        SimDuration(self.0.saturating_mul(2))
    }

    /// Multiply by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_micros(42).as_micros(), 42);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_millis(250).as_micros(), 250_000);
    }

    #[test]
    fn negative_seconds_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(SimTime::from_secs(14) - t, d);
        // Saturating subtraction: earlier - later == 0.
        assert_eq!(t - SimTime::from_secs(14), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn backoff_doubling_saturates() {
        let mut d = SimDuration::from_secs(20);
        for _ in 0..100 {
            d = d.saturating_double();
        }
        assert_eq!(d.as_micros(), u64::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
    }
}
