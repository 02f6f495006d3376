//! The workload contract between containers and the payloads they run.
//!
//! FlowCon is framework-agnostic: it only assumes each job exposes "its own
//! evaluation function" E(t) (§3.3).  The node simulation drives a workload
//! with the CPU time the allocator granted; the workload reports demand,
//! progress and the evaluation-function value FlowCon samples.
//! `flowcon-dl` provides the deep-learning implementations.

use flowcon_sim::resources::ResourceVec;
use flowcon_sim::time::SimTime;

/// Completion status of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadStatus {
    /// Still training.
    Running,
    /// Converged / finished; the container should exit with code 0.
    Finished,
    /// Crashed; the container should exit with the given nonzero code.
    Failed(i32),
}

/// The container exit code a workload status implies: `None` while it
/// runs, 0 once finished, the crash code once failed.
pub fn exit_code_for(status: WorkloadStatus) -> Option<i32> {
    match status {
        WorkloadStatus::Running => None,
        WorkloadStatus::Finished => Some(0),
        WorkloadStatus::Failed(code) => Some(code),
    }
}

/// A payload that consumes CPU and exposes an evaluation function.
pub trait Workload {
    /// Human-readable label, e.g. `MNIST (Tensorflow)`.
    fn label(&self) -> &str;

    /// The largest CPU fraction this workload can exploit right now.
    ///
    /// Real DL jobs rarely scale to a full node (paper Fig. 11, 0–50 s); the
    /// allocator treats this as a demand ceiling.
    fn demand(&self) -> f64;

    /// Consume `cpu_seconds` of effective CPU time ending at `now`.
    fn advance(&mut self, now: SimTime, cpu_seconds: f64);

    /// Current value of the job's evaluation function (loss, accuracy, ...).
    ///
    /// `None` models jobs that have not yet emitted a measurement (e.g.
    /// still importing data) — FlowCon must tolerate this.
    fn eval(&self, now: SimTime) -> Option<f64>;

    /// Completion status.
    fn status(&self) -> WorkloadStatus;

    /// Remaining effective CPU-seconds until completion, if predictable.
    ///
    /// The fluid simulation uses this to locate the next completion event
    /// exactly; workloads without a closed form may return `None` and the
    /// simulation will fall back to fixed-step integration.
    fn remaining_cpu_seconds(&self) -> Option<f64>;

    /// Steady non-CPU resource usage rates while running (memory fraction
    /// held, block-I/O and network-I/O bandwidth fractions).  The CPU
    /// component is ignored — the allocator decides CPU.
    ///
    /// Defaults to zero; `flowcon-dl` models override it so the Container
    /// Monitor's four-resource accounting (§3.2.1) has real data.
    fn footprint(&self) -> ResourceVec {
        ResourceVec::ZERO
    }
}

/// A trivial fixed-size workload used by substrate tests.
///
/// Consumes a fixed number of CPU-seconds and exposes a linearly decreasing
/// "loss" so monitor plumbing can be exercised without `flowcon-dl`.
#[derive(Debug, Clone)]
pub struct FixedWork {
    label: String,
    total: f64,
    done: f64,
    demand: f64,
}

impl FixedWork {
    /// A workload needing `total` effective CPU-seconds with demand ceiling.
    pub fn new(label: impl Into<String>, total: f64, demand: f64) -> Self {
        assert!(total > 0.0 && demand > 0.0);
        FixedWork {
            label: label.into(),
            total,
            done: 0.0,
            demand,
        }
    }

    /// Fraction of work completed in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        (self.done / self.total).min(1.0)
    }
}

impl Workload for FixedWork {
    fn label(&self) -> &str {
        &self.label
    }

    fn demand(&self) -> f64 {
        self.demand
    }

    fn advance(&mut self, _now: SimTime, cpu_seconds: f64) {
        debug_assert!(cpu_seconds >= 0.0);
        self.done = (self.done + cpu_seconds).min(self.total);
    }

    fn eval(&self, _now: SimTime) -> Option<f64> {
        // A synthetic "loss" falling linearly from 1 to 0.
        Some(1.0 - self.progress())
    }

    fn status(&self) -> WorkloadStatus {
        if self.done >= self.total {
            WorkloadStatus::Finished
        } else {
            WorkloadStatus::Running
        }
    }

    fn remaining_cpu_seconds(&self) -> Option<f64> {
        Some((self.total - self.done).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_work_runs_to_completion() {
        let mut w = FixedWork::new("toy", 10.0, 0.8);
        assert_eq!(w.status(), WorkloadStatus::Running);
        assert_eq!(w.remaining_cpu_seconds(), Some(10.0));
        w.advance(SimTime::from_secs(1), 4.0);
        assert!((w.progress() - 0.4).abs() < 1e-12);
        assert_eq!(w.eval(SimTime::from_secs(1)), Some(0.6));
        w.advance(SimTime::from_secs(2), 7.0); // overshoot clamps
        assert_eq!(w.status(), WorkloadStatus::Finished);
        assert_eq!(w.remaining_cpu_seconds(), Some(0.0));
    }

    #[test]
    fn demand_is_reported() {
        let w = FixedWork::new("toy", 1.0, 0.65);
        assert_eq!(w.demand(), 0.65);
        assert_eq!(w.label(), "toy");
    }

    #[test]
    #[should_panic]
    fn zero_total_rejected() {
        FixedWork::new("bad", 0.0, 1.0);
    }
}
