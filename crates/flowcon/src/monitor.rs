//! The Container Monitor (§3.2.1).
//!
//! Tracks, per container, the last evaluation-function sample and the last
//! cumulative resource-time reading, and turns the deltas into
//! [`GrowthMeasurement`]s at each algorithm tick: Eq. 1 from the evaluation
//! samples, Eq. 2 dividing by the *exact* average usage over the interval
//! (cumulative CPU-seconds delta / elapsed time — what `docker stats`
//! integration would yield).
//!
//! The state is one plain [`MonitorSlot`] per container.  The node kernel
//! ([`crate::kernel`]), which the worker simulation and the cluster
//! scheduler's nodes both run, keeps the policy's slots in a column
//! indexed by container id; the worker keeps a second column for the
//! growth-efficiency traces and hands it to the kernel's measure loop.
//! The real-thread runtime (`flowcon-rt`) keeps one slot in each
//! container it runs.

use flowcon_container::ContainerId;
use flowcon_sim::time::SimTime;
use flowcon_sim::{ResourceVec, RESOURCE_KINDS};

use crate::metric::{progress_score, GrowthMeasurement};

/// Intervals shorter than this carry too little signal; the monitor then
/// reuses its previous measurement instead of rebasing.
const MIN_INTERVAL_SECS: f64 = 0.1;

/// One container's measurement state across algorithm ticks.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSlot {
    tracked: bool,
    last_tick: SimTime,
    last_eval: Option<f64>,
    last_cumulative: ResourceVec,
    cached_progress: Option<f64>,
    cached_avg_usage: ResourceVec,
}

impl MonitorSlot {
    /// The state of a container the monitor has not observed yet.
    pub const UNTRACKED: MonitorSlot = MonitorSlot {
        tracked: false,
        last_tick: SimTime::ZERO,
        last_eval: None,
        last_cumulative: ResourceVec::ZERO,
        cached_progress: None,
        cached_avg_usage: ResourceVec::ZERO,
    };

    /// Measure container `id` at `now` and update its baseline.
    ///
    /// `eval_now` is the job's evaluation-function value (`None` while it
    /// warms up), `cumulative` its resource-time integral, `cpu_limit` its
    /// current limit.  The first observation only establishes the
    /// baseline (`growth: None`); an observation less than 0.1 s after the
    /// last one repeats the previous measurement.
    pub fn measure(
        &mut self,
        id: ContainerId,
        now: SimTime,
        eval_now: Option<f64>,
        cumulative: ResourceVec,
        cpu_limit: f64,
    ) -> GrowthMeasurement {
        if !self.tracked {
            *self = MonitorSlot {
                tracked: true,
                last_tick: now,
                last_eval: eval_now,
                last_cumulative: cumulative,
                cached_progress: None,
                cached_avg_usage: ResourceVec::ZERO,
            };
            return GrowthMeasurement {
                id,
                progress: None,
                avg_usage: ResourceVec::ZERO,
                cpu_limit,
            };
        }
        let dt = now.saturating_since(self.last_tick).as_secs_f64();
        if dt >= MIN_INTERVAL_SECS {
            // Average usage per resource: cumulative delta / dt.
            let mut avg_usage = ResourceVec::ZERO;
            for kind in RESOURCE_KINDS {
                avg_usage.set(
                    kind,
                    (cumulative.get(kind) - self.last_cumulative.get(kind)) / dt,
                );
            }
            self.cached_progress = match (eval_now, self.last_eval) {
                (Some(e), Some(p)) => progress_score(e, p, dt),
                _ => None,
            };
            self.cached_avg_usage = avg_usage;
            self.last_tick = now;
            self.last_eval = eval_now.or(self.last_eval);
            self.last_cumulative = cumulative;
        }
        GrowthMeasurement {
            id,
            progress: self.cached_progress,
            avg_usage: self.cached_avg_usage,
            cpu_limit,
        }
    }

    /// Drop the state of a finished container (resource release,
    /// Algorithm 2 line 15).
    pub fn forget(&mut self) {
        *self = MonitorSlot::UNTRACKED;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn id() -> ContainerId {
        ContainerId::from_raw(0)
    }

    #[test]
    fn first_measurement_is_fresh() {
        let mut slot = MonitorSlot::UNTRACKED;
        let m = slot.measure(id(), t(0), Some(1.0), ResourceVec::ZERO, 1.0);
        assert_eq!(m.id, id());
        assert_eq!(m.growth(), None);
        // The baseline is set: the next observation measures growth.
        let next = slot.measure(id(), t(20), Some(0.9), ResourceVec::cpu(10.0), 1.0);
        assert!(next.growth().is_some());
    }

    #[test]
    fn second_measurement_computes_growth_from_deltas() {
        let mut slot = MonitorSlot::UNTRACKED;
        slot.measure(id(), t(0), Some(1.0), ResourceVec::ZERO, 1.0);
        // 20 s at rate 0.5: the loss falls 1.0 -> 0.9 over 10 cpu-s.
        let m = slot.measure(id(), t(20), Some(0.9), ResourceVec::cpu(10.0), 1.0);
        // P = |0.9 - 1.0| / 20 = 0.005; R = 10 cpu-s / 20 s = 0.5; G = 0.01.
        let g = m.growth().expect("growth available");
        assert!((g - 0.01).abs() < 1e-9, "G = {g}");
        assert!((m.avg_cpu() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tiny_interval_reuses_cached_measurement() {
        let mut slot = MonitorSlot::UNTRACKED;
        slot.measure(id(), t(0), Some(1.0), ResourceVec::ZERO, 1.0);
        let first = slot.measure(id(), t(20), Some(0.9), ResourceVec::cpu(10.0), 1.0);
        // An interrupt 1 ms later must not rebase onto a 1 ms interval.
        let again = slot.measure(
            id(),
            SimTime::from_micros(20_001_000),
            Some(0.8),
            ResourceVec::cpu(10.0005),
            0.5,
        );
        assert_eq!(again.growth(), first.growth());
        assert_eq!(again.avg_cpu(), first.avg_cpu());
        assert_eq!(again.cpu_limit, 0.5, "the limit is always current");
    }

    #[test]
    fn forget_drops_state() {
        let mut slot = MonitorSlot::UNTRACKED;
        slot.measure(id(), t(0), Some(1.0), ResourceVec::ZERO, 1.0);
        slot.forget();
        // A forgotten container starts over from a fresh baseline.
        let again = slot.measure(id(), t(20), Some(0.9), ResourceVec::cpu(10.0), 1.0);
        assert_eq!(again.growth(), None);
    }
}
