//! Cluster-scale properties of the sharded executor.
//!
//! The bounded pool must change *how* worker simulations are driven, never
//! *what* they compute: job conservation and makespan monotonicity must
//! hold at hundreds of workers, and the sharded path must be bit-identical
//! to a naive thread-per-worker reference loop (`spawn_per_worker` below).

use flowcon_cluster::{ClusterSession, PolicyKind, Spread};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::recorder::FullRecorder;
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_metrics::summary::RunSummary;

fn node(seed: u64) -> NodeConfig {
    NodeConfig::default().with_seed(seed)
}

/// Run a full-observability cluster session and return per-worker results
/// plus the placement log.
fn run_full(
    workers: usize,
    seed: u64,
    policy: PolicyKind,
    plan: &WorkloadPlan,
) -> (Vec<SessionResult<RunSummary>>, Vec<usize>) {
    let out = ClusterSession::builder()
        .nodes(workers, node(seed))
        .policy(policy)
        .plan(plan.clone())
        .recorder(|_| FullRecorder::new())
        .build()
        .run();
    (out.workers, out.placements)
}

/// The legacy execution path, reconstructed from public APIs: one OS
/// thread per worker, round-robin placement, the same per-worker seed
/// stride the builder applies.  This is the reference the sharded
/// executor is bit-compared against — don't "optimize" it.
fn spawn_per_worker(
    workers: usize,
    seed: u64,
    policy: PolicyKind,
    plan: &WorkloadPlan,
) -> Vec<SessionResult<RunSummary>> {
    let template = node(seed);
    let nodes: Vec<NodeConfig> = (0..workers)
        .map(|i| template.with_seed(template.seed.wrapping_add(i as u64 * 0x9E37_79B9)))
        .collect();
    // Round-robin placement of the arrival-ordered plan.
    let mut per_worker: Vec<Vec<JobRequest>> = vec![Vec::new(); workers];
    for (i, job) in plan.jobs.iter().cloned().enumerate() {
        per_worker[i % workers].push(job);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .zip(&nodes)
            .map(|(jobs, &node)| {
                scope.spawn(move || {
                    Session::builder()
                        .node(node)
                        .plan(WorkloadPlan::new(jobs))
                        .policy_box(policy.build())
                        .build()
                        .run()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker simulation panicked"))
            .collect()
    })
}

#[test]
fn jobs_are_conserved_at_256_workers() {
    let plan = WorkloadPlan::random_n(512, 7);
    let (workers, placements) =
        run_full(256, 7, PolicyKind::FlowCon(FlowConConfig::default()), &plan);

    // Every job placed exactly once and completed exactly once.
    assert_eq!(placements.len(), 512);
    let completed: usize = workers.iter().map(|w| w.output.completions.len()).sum();
    assert_eq!(completed, 512);
    for job in &plan.jobs {
        assert!(
            workers
                .iter()
                .find_map(|w| w.output.completion_of(&job.label))
                .is_some(),
            "job {} lost by the sharded executor",
            job.label
        );
    }
    // Round-robin over 256 workers: exactly 2 jobs per worker.
    for w in 0..256 {
        let assigned = placements.iter().filter(|&&t| t == w).count();
        assert_eq!(assigned, 2, "worker {w} got {assigned} jobs");
    }
    // All workers' completions are clean exits.
    assert!(workers
        .iter()
        .flat_map(|w| &w.output.completions)
        .all(|c| c.exit_code == 0));
}

#[test]
fn makespan_is_monotone_in_worker_count() {
    let plan = WorkloadPlan::random_n(512, 7);
    let makespan = |workers: usize| {
        ClusterSession::builder()
            .nodes(workers, node(7))
            .placement(Spread)
            .plan(plan.clone())
            .build()
            .run()
            .makespan_secs()
    };
    let m16 = makespan(16);
    let m64 = makespan(64);
    let m256 = makespan(256);
    assert!(
        m64 < m16,
        "64 workers ({m64:.0}s) should beat 16 ({m16:.0}s)"
    );
    assert!(
        m256 < m64,
        "256 workers ({m256:.0}s) should beat 64 ({m64:.0}s)"
    );
}

#[test]
fn sharded_executor_is_bit_identical_to_spawn_per_worker() {
    let plan = WorkloadPlan::random_n(24, 0xF10C);
    let policy = PolicyKind::FlowCon(FlowConConfig::default());
    let spawned = spawn_per_worker(8, 0xF10C, policy, &plan);
    let (sharded, placements) = run_full(8, 0xF10C, policy, &plan);

    // The reference loop places round-robin by construction; the builder's
    // default strategy must agree.
    for (i, &target) in placements.iter().enumerate() {
        assert_eq!(target, i % 8, "placement diverged at job {i}");
    }
    assert_eq!(spawned.len(), sharded.len());
    for (i, (a, b)) in spawned.iter().zip(&sharded).enumerate() {
        assert_eq!(
            a.output.completions, b.output.completions,
            "worker {i} completions diverge"
        );
        assert_eq!(
            a.events_processed, b.events_processed,
            "worker {i} event counts diverge"
        );
        assert_eq!(
            a.output.makespan_secs().to_bits(),
            b.output.makespan_secs().to_bits(),
            "worker {i} makespan diverges at the bit level"
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let plan = WorkloadPlan::random_n(12, 3);
    let run = || run_full(4, 3, PolicyKind::FlowCon(FlowConConfig::default()), &plan);
    let (a_workers, a_placements) = run();
    let (b_workers, b_placements) = run();
    assert_eq!(a_placements, b_placements);
    for (a, b) in a_workers.iter().zip(&b_workers) {
        assert_eq!(a.output.completions, b.output.completions);
        assert_eq!(
            a.output.makespan_secs().to_bits(),
            b.output.makespan_secs().to_bits()
        );
    }
}
