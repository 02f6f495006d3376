//! Streaming plan sources: one workload description feeding a whole
//! cluster, one worker at a time.
//!
//! A 10k-worker cluster must not materialize 10k `WorkloadPlan`s up front —
//! that is O(jobs) labels and vectors held live at once, and it puts plan
//! construction on the manager's critical path.  A [`PlanSource`] instead
//! answers `next_plan(worker_id)` on demand: each executor shard pulls the
//! plan for the worker it is about to simulate, the plan lives only for
//! that simulation, and the per-worker slice is a **pure function of
//! `worker_id`** — so results are identical whether workers run
//! sequentially, sharded, or in any interleaving.

use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::rng::SimRng;

use crate::catalog::BoundTrace;
use crate::synthetic::{ArrivalProcess, Synthetic};

/// A deterministic, concurrently-pollable source of per-worker plans.
///
/// Implementations must derive the plan from `worker_id` alone (plus
/// immutable configuration): `next_plan(w)` called twice, in any order,
/// from any thread, returns the same plan.  That is what lets the sharded
/// cluster executor drive workers in arbitrary interleavings while staying
/// bit-identical to a sequential loop.
pub trait PlanSource: Sync {
    /// The plan for worker `worker_id` (0-based).
    fn next_plan(&self, worker_id: usize) -> WorkloadPlan;
}

/// Closures work as one-off sources (handy in tests).
impl<F: Fn(usize) -> WorkloadPlan + Sync> PlanSource for F {
    fn next_plan(&self, worker_id: usize) -> WorkloadPlan {
        self(worker_id)
    }
}

/// Slices one bound trace across `workers` workers, round-robin by row
/// index: worker `w` replays rows `w, w+workers, w+2·workers, …` of the
/// arrival-ordered trace.
///
/// The slice preserves arrival order (the trace is sorted and the stride
/// is monotone), so each per-worker plan's constructor sort is a near
/// no-op pass (it only reorders equal-arrival ties by label).  With an
/// unlabeled bound trace
/// ([`TraceCatalog::unlabeled`](crate::TraceCatalog::unlabeled)), a
/// `next_plan` call allocates exactly one `Vec` — the ≤ 10 allocs/worker
/// headless budget survives trace-driven runs.
#[derive(Debug, Clone)]
pub struct TraceSource {
    bound: BoundTrace,
    workers: usize,
}

impl TraceSource {
    /// Slice `bound` across `workers` workers.
    pub fn new(bound: BoundTrace, workers: usize) -> Self {
        assert!(workers > 0, "a trace source needs at least one worker");
        TraceSource { bound, workers }
    }

    /// The cluster size this source slices for.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl PlanSource for TraceSource {
    fn next_plan(&self, worker_id: usize) -> WorkloadPlan {
        assert!(
            worker_id < self.workers,
            "worker {worker_id} out of range for {} workers",
            self.workers
        );
        let rows = &self.bound.jobs;
        // Exact slice size: rows w, w+k, w+2k, ... below len.
        let count = rows.len().saturating_sub(worker_id).div_ceil(self.workers);
        let mut jobs = Vec::with_capacity(count);
        let mut i = worker_id;
        while i < rows.len() {
            jobs.push(rows[i].clone());
            i += self.workers;
        }
        WorkloadPlan::new(jobs)
    }
}

/// Generates an independent synthetic plan per worker from one base seed:
/// worker `w` draws from `SimRng::new(seed ⊕ mix(w))`, so plans are
/// deterministic per worker and uncorrelated across workers.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    template: Synthetic,
    labeled: bool,
}

impl SyntheticSource {
    /// `jobs_per_worker` jobs per worker from `process`, Table-1 model
    /// mix, seeded by `seed`.
    pub fn new(process: ArrivalProcess, jobs_per_worker: usize, seed: u64) -> Self {
        SyntheticSource {
            template: Synthetic::new(process, jobs_per_worker, seed),
            labeled: true,
        }
    }

    /// Generate label-free plans (no label `String` allocations — the
    /// headless-cluster configuration).
    pub fn unlabeled(mut self) -> Self {
        self.labeled = false;
        self
    }

    /// The per-worker RNG: the base seed mixed with the worker id by the
    /// same golden-ratio stride the cluster manager uses for node seeds.
    fn rng_for(&self, worker_id: usize) -> SimRng {
        SimRng::new(
            self.template
                .seed
                .wrapping_add((worker_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }
}

impl PlanSource for SyntheticSource {
    fn next_plan(&self, worker_id: usize) -> WorkloadPlan {
        self.template
            .plan_with(&mut self.rng_for(worker_id), self.labeled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TraceCatalog;
    use crate::trace::ArrivalTrace;
    use flowcon_dl::models::ModelId;
    use flowcon_dl::workload::JobRequest;
    use flowcon_sim::time::SimTime;

    fn bound_of(n: usize) -> BoundTrace {
        let doc: String = (0..n).map(|i| format!("j{i},gru,{i}\n")).collect();
        TraceCatalog::table1()
            .bind(&ArrivalTrace::parse(&doc).unwrap())
            .unwrap()
    }

    #[test]
    fn trace_slices_partition_the_trace() {
        let source = TraceSource::new(bound_of(23), 4);
        let plans: Vec<WorkloadPlan> = (0..4).map(|w| source.next_plan(w)).collect();
        let total: usize = plans.iter().map(WorkloadPlan::len).sum();
        assert_eq!(total, 23, "every row lands on exactly one worker");
        let mut labels: Vec<String> = plans
            .iter()
            .flat_map(|p| p.jobs.iter().map(|j| j.label.clone()))
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 23, "no row is duplicated");
        // Worker 1 gets rows 1, 5, 9, ... in arrival order.
        let w1: Vec<&str> = plans[1].jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(w1, ["j1", "j5", "j9", "j13", "j17", "j21"]);
    }

    #[test]
    fn next_plan_is_a_pure_function_of_worker_id() {
        let source = TraceSource::new(bound_of(40), 7);
        for w in [0usize, 3, 6] {
            assert_eq!(source.next_plan(w), source.next_plan(w));
        }
        let synth = SyntheticSource::new(ArrivalProcess::poisson(0.1), 5, 11);
        for w in [0usize, 1, 9] {
            assert_eq!(synth.next_plan(w), synth.next_plan(w));
        }
    }

    #[test]
    fn synthetic_workers_draw_uncorrelated_streams() {
        let synth = SyntheticSource::new(ArrivalProcess::poisson(0.1), 5, 11);
        assert_ne!(synth.next_plan(0), synth.next_plan(1));
    }

    #[test]
    fn unlabeled_synthetic_plans_have_empty_labels() {
        let synth = SyntheticSource::new(ArrivalProcess::poisson(0.5), 3, 2).unlabeled();
        let plan = synth.next_plan(4);
        assert_eq!(plan.len(), 3);
        assert!(plan.jobs.iter().all(|j| j.label.is_empty()));
    }

    #[test]
    fn closure_sources_work() {
        let source = |w: usize| {
            WorkloadPlan::new(vec![JobRequest::new(
                format!("w{w}"),
                ModelId::Gru,
                SimTime::ZERO,
            )])
        };
        assert_eq!(PlanSource::next_plan(&source, 3).jobs[0].label, "w3");
    }

    #[test]
    fn empty_and_undersized_traces_yield_empty_tail_plans() {
        let source = TraceSource::new(bound_of(2), 5);
        assert_eq!(source.next_plan(0).len(), 1);
        assert_eq!(source.next_plan(1).len(), 1);
        assert!(source.next_plan(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_worker_is_rejected() {
        TraceSource::new(bound_of(2), 2).next_plan(2);
    }
}
