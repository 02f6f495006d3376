//! Steady-state statistics of open-loop runs.
//!
//! A closed (plan-driven) run is summarized by its makespan and per-job
//! completion times.  An **open-loop** run — jobs arriving while the
//! policy reconfigures, terminated by a horizon — asks a different
//! question: *does the node keep up?*  The answer lives in rates and
//! time-weighted occupancies, not in a makespan:
//!
//! * **arrival vs. completion rate** — a stable system completes as fast
//!   as it admits; a persistent gap means the queue is growing;
//! * **mean queue depth** — the time-weighted average number of jobs in
//!   the container pool (`∫ pool·dt / T`);
//! * **utilization** — the fraction of node CPU capacity actually
//!   allocated (`∫ Σrates·dt / (capacity · T)`).
//!
//! The worker simulation accumulates the two integrals with
//! `flowcon_sim::stats::TimeWeighted` during its fluid `advance_to` step
//! (no series retained, no allocation) and the session layer packages them
//! as a [`StreamStats`] next to whatever the run's `Recorder` produced.

/// Steady-state accounting of one open-loop run (one worker, or a whole
/// cluster after [`StreamStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Jobs admitted before the horizon.
    pub submitted: u64,
    /// Jobs that exited (including injected failures).
    pub completed: u64,
    /// Simulated end of the run in seconds: the drain point, when the last
    /// admitted job exited (0 when nothing exited).  Policy ticks or
    /// completion checks that fire after the pool drained do not extend
    /// it.  After a merge: the latest worker's end.
    pub duration_secs: f64,
    /// `∫ Σ allocated CPU rates · dt` in CPU-seconds.
    pub busy_cpu_secs: f64,
    /// `∫ pool size · dt` in job-seconds.
    pub queue_job_secs: f64,
    /// `Σ capacity · duration` in CPU-seconds — each worker's CPU supply
    /// over its own active window (the utilization denominator).
    pub capacity_cpu_secs: f64,
}

impl StreamStats {
    /// Jobs admitted per simulated second over the run.
    pub fn arrival_rate(&self) -> f64 {
        per_sec(self.submitted, self.duration_secs)
    }

    /// Jobs completed per simulated second over the run.
    ///
    /// An open-loop run drains after its horizon, so over the full run
    /// this approaches [`StreamStats::arrival_rate`] exactly when the
    /// system is stable; it can never exceed it.
    pub fn completion_rate(&self) -> f64 {
        per_sec(self.completed, self.duration_secs)
    }

    /// Time-weighted mean number of jobs in the pool.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.queue_job_secs / self.duration_secs
        } else {
            0.0
        }
    }

    /// Fraction of CPU supply actually allocated, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_cpu_secs > 0.0 {
            self.busy_cpu_secs / self.capacity_cpu_secs
        } else {
            0.0
        }
    }

    /// Fold another worker's stats into this one (cluster aggregation):
    /// counts and integrals add, the observation window extends to the
    /// latest worker's end.
    pub fn merge(&mut self, other: &StreamStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.duration_secs = self.duration_secs.max(other.duration_secs);
        self.busy_cpu_secs += other.busy_cpu_secs;
        self.queue_job_secs += other.queue_job_secs;
        self.capacity_cpu_secs += other.capacity_cpu_secs;
    }
}

fn per_sec(count: u64, duration_secs: f64) -> f64 {
    if duration_secs > 0.0 {
        count as f64 / duration_secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(submitted: u64, completed: u64, dur: f64, busy: f64, queue: f64) -> StreamStats {
        StreamStats {
            submitted,
            completed,
            duration_secs: dur,
            busy_cpu_secs: busy,
            queue_job_secs: queue,
            capacity_cpu_secs: dur, // capacity-1 node
        }
    }

    #[test]
    fn rates_and_occupancies_follow_their_definitions() {
        let s = worker(10, 10, 200.0, 150.0, 380.0);
        assert!((s.arrival_rate() - 0.05).abs() < 1e-12);
        assert!((s.completion_rate() - 0.05).abs() < 1e-12);
        assert!((s.mean_queue_depth() - 1.9).abs() < 1e-12);
        assert!((s.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_runs_report_zero_not_nan() {
        let s = StreamStats::default();
        assert_eq!(s.arrival_rate(), 0.0);
        assert_eq!(s.completion_rate(), 0.0);
        assert_eq!(s.mean_queue_depth(), 0.0);
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn merge_sums_counts_and_extends_the_window() {
        let mut total = worker(4, 4, 100.0, 80.0, 120.0);
        total.merge(&worker(6, 5, 250.0, 100.0, 300.0));
        assert_eq!(total.submitted, 10);
        assert_eq!(total.completed, 9);
        assert_eq!(total.duration_secs, 250.0);
        assert!((total.busy_cpu_secs - 180.0).abs() < 1e-12);
        // Utilization denominator is per-worker supply, not max-window.
        assert!((total.utilization() - 180.0 / 350.0).abs() < 1e-12);
        // System-wide mean depth over the full window.
        assert!((total.mean_queue_depth() - 420.0 / 250.0).abs() < 1e-12);
    }
}
