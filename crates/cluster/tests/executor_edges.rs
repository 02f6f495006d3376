//! Executor edge cases: clusters smaller than the shard count, a single
//! worker, and empty plans/plan sources — each asserted **bit-identical**
//! to a plain sequential loop over `Session::run` (no executor, no
//! sharding, one fresh scratch per worker) or to a golden digest.
//!
//! The dense headless path reuses shard-owned arenas across workers, so
//! these shapes are exactly where recycling bugs would show up: a shard
//! that drives 0 or 1 workers, shards that outnumber workers, and workers
//! whose plans are empty.

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use flowcon_cluster::{
    ClusterOutcome, ClusterSession, ClusterSessionBuilder, PolicyKind, TraceSource,
};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::recorder::CompletionsOnly;
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_metrics::summary::CompletionStats;

fn node() -> NodeConfig {
    NodeConfig::default().with_seed(0xF10C)
}

fn base(workers: usize) -> ClusterSessionBuilder<'static> {
    ClusterSession::builder()
        .nodes(workers, node())
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
}

/// The reference: given the placements a cluster run reports, rebuild each
/// worker's plan and run it through a plain `Session` loop — one worker at
/// a time, no executor.  Seeds replicate the builder's stride.
fn sequential_reference(
    workers: usize,
    plan: &WorkloadPlan,
    placements: &[usize],
) -> Vec<SessionResult<CompletionStats>> {
    (0..workers)
        .map(|w| {
            let jobs: Vec<JobRequest> = plan
                .jobs
                .iter()
                .enumerate()
                .filter(|&(job, _)| placements[job] == w)
                .map(|(_, job)| job.clone())
                .collect();
            let seeded = node().with_seed(node().seed.wrapping_add(w as u64 * 0x9E37_79B9));
            Session::builder()
                .node(seeded)
                .plan(WorkloadPlan::new(jobs))
                .policy_box(PolicyKind::FlowCon(FlowConConfig::default()).build())
                .recorder(CompletionsOnly::new())
                .build()
                .run()
        })
        .collect()
}

fn assert_bit_identical(
    run: &ClusterOutcome<CompletionStats>,
    reference: &[SessionResult<CompletionStats>],
) {
    assert_eq!(run.workers.len(), reference.len());
    for (w, (a, b)) in run.workers.iter().zip(reference).enumerate() {
        assert_eq!(a.output, b.output, "worker {w} stats diverged");
        assert_eq!(
            a.events_processed, b.events_processed,
            "worker {w} event count diverged"
        );
    }
}

#[test]
fn fewer_workers_than_shards_matches_the_sequential_path() {
    // 2–3 workers on a multi-core machine: `shard_count` is capped by the
    // item count, so some executor shapes collapse while others don't.
    for workers in [2usize, 3] {
        let plan = WorkloadPlan::random_n(workers * 4, 17);
        let run = base(workers).plan(plan.clone()).build().run();
        let reference = sequential_reference(workers, &plan, &run.placements);
        assert_bit_identical(&run, &reference);
    }
}

/// The digest is that of a single object-path session on the same plan,
/// computed before the dense simulation replaced it.
#[test]
fn single_worker_cluster_matches_a_single_session() {
    let plan = WorkloadPlan::random_n(6, 23);
    let run = base(1).plan(plan).build().run();
    assert!(run.placements.iter().all(|&w| w == 0));
    assert_eq!(run.completed_jobs(), 6);
    let mut h = fnv::Fnv::new();
    h.stats(&run.workers[0].output);
    h.word(run.workers[0].events_processed);
    let got = h.0;
    assert_eq!(
        got, 0xed62_eb14_6c17_d0f0,
        "single worker drifted: digest {got:#018x}"
    );
}

#[test]
fn empty_plan_runs_every_worker_to_an_instant_drain() {
    let run = base(5).plan(WorkloadPlan::new(Vec::new())).build().run();
    assert_eq!(run.workers.len(), 5);
    assert_eq!(run.completed_jobs(), 0);
    assert!(run.placements.is_empty());
    for w in &run.workers {
        assert_eq!(w.events_processed, 0, "no events without arrivals");
        assert_eq!(w.output.algorithm_runs, 0);
    }
}

#[test]
fn empty_plan_source_matches_the_empty_placed_run() {
    let source = TraceSource::new(
        flowcon_workload::BoundTrace::from_plan(WorkloadPlan::new(Vec::new())),
        4,
    );
    let placed = base(4).plan(WorkloadPlan::new(Vec::new())).build().run();
    let streamed = base(4).source(&source).build().run();
    assert_eq!(streamed.completed_jobs(), 0);
    for (a, b) in placed.workers.iter().zip(&streamed.workers) {
        assert_eq!(a.output, b.output);
        assert_eq!(a.events_processed, b.events_processed);
    }
}
