//! Determinism contract of trace replay: same seed + same trace ⇒
//! bit-identical `CompletionStats`, whether the workers run on the sharded
//! executor (`ClusterSession` with a `source` workload) or in a plain
//! sequential loop, and however the `PlanSource` slices are pulled.

use flowcon_cluster::{ClusterSession, PolicyKind};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::recorder::CompletionsOnly;
use flowcon_core::session::Session;
use flowcon_metrics::summary::CompletionStats;
use flowcon_workload::{
    ArrivalProcess, ArrivalTrace, PlanSource, SyntheticSource, TraceCatalog, TraceSource,
};

const WORKERS: usize = 7;
const NODE_SEED: u64 = 0xF10C;

/// The same per-worker node seeds the builder derives from a uniform set.
fn nodes() -> Vec<NodeConfig> {
    let base = NodeConfig::default().with_seed(NODE_SEED);
    (0..WORKERS)
        .map(|i| base.with_seed(base.seed.wrapping_add(i as u64 * 0x9E37_79B9)))
        .collect()
}

/// The reference: drive every worker one after another on this thread,
/// with a fresh session each (no scratch recycling) — the
/// simplest possible execution of the same source.
fn run_sequential<S: PlanSource>(source: &S) -> Vec<CompletionStats> {
    nodes()
        .into_iter()
        .enumerate()
        .map(|(idx, node)| {
            Session::builder()
                .node(node)
                .plan(source.next_plan(idx))
                .policy(flowcon_core::policy::FlowConPolicy::new(
                    FlowConConfig::default(),
                ))
                .recorder(CompletionsOnly::new())
                .build()
                .run()
                .output
        })
        .collect()
}

fn assert_sharded_matches_sequential<S: PlanSource>(source: &S, jobs: usize) {
    let run = || {
        ClusterSession::builder()
            .node_configs(nodes())
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .source(source)
            .build()
            .run()
    };
    let sharded = run();
    let again = run();
    let sequential = run_sequential(source);

    assert_eq!(sharded.completed_jobs(), jobs);
    for (w, (shard, seq)) in sharded.workers.iter().zip(&sequential).enumerate() {
        // CompletionStats holds SimTime (integer ticks): equality is
        // bit-identity, not an epsilon compare.
        assert_eq!(&shard.output, seq, "worker {w}: sharded vs sequential");
        assert_eq!(
            shard.output, again.workers[w].output,
            "worker {w}: two sharded runs"
        );
        assert_eq!(shard.events_processed, again.workers[w].events_processed);
    }
}

#[test]
fn trace_replay_is_bit_identical_across_execution_paths() {
    // 41 jobs (not a multiple of 7): slices are uneven, some workers get
    // one more row than others.
    let doc: String = (0..41)
        .map(|i| format!("j{i},{},{}\n", ["gru", "mnist-tf", "vae"][i % 3], i * 3))
        .collect();
    let trace = ArrivalTrace::parse(&doc).unwrap();
    let bound = TraceCatalog::table1().unlabeled().bind(&trace).unwrap();
    let source = TraceSource::new(bound, WORKERS);
    assert_sharded_matches_sequential(&source, 41);
}

#[test]
fn synthetic_source_is_bit_identical_across_execution_paths() {
    let source =
        SyntheticSource::new(ArrivalProcess::bursty(0.5, 0.0, 20.0, 40.0), 3, 99).unlabeled();
    assert_sharded_matches_sequential(&source, WORKERS * 3);
}

#[test]
fn per_worker_slices_do_not_depend_on_poll_order() {
    let source = SyntheticSource::new(ArrivalProcess::poisson(0.02), 4, 123);
    // Pull plans in scrambled order, twice; a slice is a pure function of
    // the worker id, so order cannot matter.
    let scrambled: Vec<_> = [5usize, 0, 6, 2, 4, 1, 3]
        .iter()
        .map(|&w| (w, source.next_plan(w)))
        .collect();
    for (w, plan) in scrambled {
        assert_eq!(plan, source.next_plan(w), "worker {w}");
    }
}
