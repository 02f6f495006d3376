//! Result carriers of the dense headless cluster path.
//!
//! The `Manager` façade that used to live here is gone: its ten `run_*`
//! entry points shipped one release as `#[deprecated]` shims over
//! [`ClusterSession`](crate::session::ClusterSession) (bit-compared
//! against the builder while they lived) and have been **removed** along
//! with the façade itself.  The migration table in [`crate::session`]
//! maps every removed entry point onto the builder.
//!
//! What remains are the two result types the builder's headless path
//! still produces: [`PlacedHeadless`] (a placed-but-unsimulated cluster,
//! the stage boundary `repro profile` clocks) and [`ClusterRun`] (the
//! per-worker results of driving it).

use flowcon_core::config::NodeConfig;
use flowcon_core::dense::{run_headless_dense, QueueKind};
use flowcon_core::session::SessionResult;
use flowcon_dl::workload::JobRequest;
use flowcon_metrics::summary::{makespan_over, CompletionStats};

use crate::policy_kind::PolicyKind;
use crate::session::drive_dense;

/// Result of a recorder-generic cluster run.
///
/// The assignment log stores worker indices only (`placements[job]` in
/// plan order) — no label clones, so a headless run holds O(completions)
/// memory in total.
#[derive(Debug)]
pub struct ClusterRun<T> {
    /// Per-worker session results, indexed by worker.
    pub workers: Vec<SessionResult<T>>,
    /// Worker index of each job, in plan (arrival) order.
    pub placements: Vec<usize>,
}

impl<T> ClusterRun<T> {
    /// Total simulated events across all workers.
    pub fn events_processed(&self) -> u64 {
        self.workers.iter().map(|w| w.events_processed).sum()
    }
}

impl ClusterRun<CompletionStats> {
    /// Cluster makespan (canonical [`makespan_over`] fold).
    pub fn makespan_secs(&self) -> f64 {
        makespan_over(self.workers.iter().map(|w| w.output.makespan_secs()))
    }

    /// Total number of completed jobs.
    pub fn completed_jobs(&self) -> usize {
        self.workers.iter().map(|w| w.output.len()).sum()
    }

    /// Mean per-job completion time over the whole cluster.
    pub fn mean_completion_secs(&self) -> Option<f64> {
        let n = self.completed_jobs();
        if n == 0 {
            return None;
        }
        let sum: f64 = self
            .workers
            .iter()
            .flat_map(|w| w.output.completions.iter())
            .map(|c| c.completion_secs())
            .sum();
        Some(sum / n as f64)
    }
}

/// A headless cluster with every job already placed, ready to simulate.
///
/// Produced by [`ClusterSession::place`](crate::session::ClusterSession::place);
/// [`PlacedHeadless::run`] drives the dense per-worker simulations.
/// Splitting the run at this boundary exists for profiling
/// (`repro profile` clocks the two stages separately).
#[derive(Debug)]
pub struct PlacedHeadless {
    pub(crate) nodes: Vec<NodeConfig>,
    pub(crate) policy: PolicyKind,
    /// All jobs in one arena, sorted by worker (CSR layout).
    pub(crate) flat: Vec<JobRequest>,
    /// `offsets[w]..offsets[w + 1]` slices worker `w`'s jobs out of `flat`.
    pub(crate) offsets: Vec<usize>,
    pub(crate) placements: Vec<usize>,
}

impl PlacedHeadless {
    /// Simulate every worker on the sharded executor through the dense
    /// headless path, with the given event-queue implementation.
    pub fn run(self, queue: QueueKind) -> ClusterRun<CompletionStats> {
        let policy = self.policy;
        let flat = &self.flat[..];
        let offsets = &self.offsets[..];
        let workers = drive_dense(&self.nodes, |scratch, idx, node| {
            let jobs = &flat[offsets[idx]..offsets[idx + 1]];
            run_headless_dense(node, jobs, policy.build(), queue, scratch)
        });
        ClusterRun {
            workers,
            placements: self.placements,
        }
    }
}
