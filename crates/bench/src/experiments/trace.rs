//! The trace-replay experiment: arrival traces and synthetic arrival
//! processes run through the same session/cluster harness as every paper
//! figure.
//!
//! `repro trace` is the CLI front; this module holds the reusable pieces —
//! the committed example traces, replay helpers for the single-worker
//! (full observability) and cluster (headless, `PlanSource`-driven)
//! configurations, and the synthetic-process presets the CLI and the perf
//! suite share.

use flowcon_cluster::{ClusterOutcome, ClusterSession, PolicyKind};
use flowcon_core::config::NodeConfig;
use flowcon_core::session::{Session, SessionResult};
use flowcon_metrics::summary::{CompletionStats, RunSummary};
use flowcon_workload::{
    ArrivalProcess, ArrivalTrace, BoundTrace, PlanSource, Synthetic, TraceCatalog, TraceError,
};

/// The committed paper-faithful example trace (§5.3's fixed schedule as a
/// CSV arrival trace).
pub const PAPER_FIXED_CSV: &str = include_str!("../../../../traces/paper_fixed.csv");

/// The committed large bursty example trace (600 arrivals from the
/// `bursty` [`preset`]'s MMPP, emitted as JSONL by `repro trace --emit`).
pub const BURSTY_LARGE_JSONL: &str = include_str!("../../../../traces/bursty_large.jsonl");

/// Parse + bind a trace document with the default Table-1 catalog.
pub fn bind_default(doc: &str) -> Result<BoundTrace, TraceError> {
    let trace = ArrivalTrace::parse(doc)?;
    TraceCatalog::table1().bind(&trace)
}

/// [`bind_default`] with a caller-owned catalog and output buffer: parsing
/// is zero-copy and binding recycles `out`'s jobs (label `String`s keep
/// their capacity), so a warm re-parse+rebind of the same document
/// allocates only the transient row vector.  This is the shape the
/// `trace/parse_bind/bursty600` bench row measures — a long-running replay
/// service rebinding arriving trace documents.
pub fn bind_default_into(
    doc: &str,
    catalog: &TraceCatalog,
    out: &mut BoundTrace,
) -> Result<(), TraceError> {
    let trace = ArrivalTrace::parse(doc)?;
    catalog.bind_into(&trace, out)
}

/// Replay a bound trace on one worker under `policy`, with full
/// observability.
pub fn replay_session(
    bound: &BoundTrace,
    node: NodeConfig,
    policy: PolicyKind,
) -> SessionResult<RunSummary> {
    Session::builder()
        .node(node)
        .plan(bound)
        .policy_box(policy.build())
        .build()
        .run()
}

/// Replay a plan source on a headless cluster of `workers` nodes.
pub fn replay_cluster(
    source: &dyn PlanSource,
    workers: usize,
    node: NodeConfig,
    policy: PolicyKind,
) -> ClusterOutcome<CompletionStats> {
    ClusterSession::builder()
        .nodes(workers, node)
        .policy(policy)
        .source(source)
        .build()
        .run()
}

/// The CLI presets' arrival process `name` at long-run mean rate `rate`
/// jobs/s, before any check (`None` for an unknown name):
///
/// * `poisson`: `rate` jobs/s;
/// * `bursty`: bursts at 4× `rate`, on 25% of the time (25 s on / 75 s
///   off), silent between bursts;
/// * `diurnal`: mean `rate`, 80% swing, 200 s period (the paper's
///   submission window as one "day").
fn preset_process(name: &str, rate: f64) -> Option<ArrivalProcess> {
    match name {
        "poisson" => Some(ArrivalProcess::Poisson { rate }),
        "bursty" => Some(ArrivalProcess::Bursty {
            rate_on: 4.0 * rate,
            rate_off: 0.0,
            mean_on_secs: 25.0,
            mean_off_secs: 75.0,
        }),
        "diurnal" => Some(ArrivalProcess::Diurnal {
            mean_rate: rate,
            amplitude: 0.8,
            period_secs: 200.0,
        }),
        _ => None,
    }
}

/// Resolve a preset by CLI name, over the Table-1 mix.  Panics on a rate
/// the preset's process cannot be sampled at (see
/// [`presets_run_at`]).
pub fn preset(name: &str, rate: f64, jobs: usize, seed: u64) -> Option<Synthetic> {
    let process = preset_process(name, rate)?.checked();
    Some(Synthetic::new(process, jobs, seed))
}

/// Whether every preset's process can be sampled at mean rate `rate`
/// ([`ArrivalProcess::validate`]).  The bursty preset bursts at 4×
/// `rate`, so `rate` may be at most a quarter of
/// [`flowcon_workload::synthetic::MAX_RATE`].
pub fn presets_run_at(rate: f64) -> bool {
    ["poisson", "bursty", "diurnal"]
        .iter()
        .all(|name| preset_process(name, rate).is_some_and(|p| p.validate().is_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::default_node;
    use flowcon_core::config::FlowConConfig;
    use flowcon_dl::workload::WorkloadPlan;

    #[test]
    fn paper_trace_replays_like_the_fixed_three_plan() {
        let bound = bind_default(PAPER_FIXED_CSV).expect("committed trace parses");
        let plan: WorkloadPlan = (&bound).into();
        let reference = WorkloadPlan::fixed_three();
        assert_eq!(plan.jobs.len(), reference.jobs.len());
        for (a, b) in plan.jobs.iter().zip(&reference.jobs) {
            assert_eq!(
                (a.label.as_str(), a.model, a.arrival),
                (b.label.as_str(), b.model, b.arrival)
            );
        }
        // And the replay itself is bit-identical to running fixed_three().
        let via_trace = replay_session(
            &bound,
            default_node(),
            PolicyKind::FlowCon(FlowConConfig::default()),
        );
        let direct = Session::builder()
            .node(default_node())
            .plan(reference)
            .policy_box(PolicyKind::FlowCon(FlowConConfig::default()).build())
            .build()
            .run();
        assert_eq!(via_trace.output.completions, direct.output.completions);
        assert_eq!(via_trace.events_processed, direct.events_processed);
    }

    #[test]
    fn bursty_large_trace_is_committed_and_replayable() {
        let bound = bind_default(BURSTY_LARGE_JSONL).expect("committed trace parses");
        assert_eq!(bound.len(), 600, "the committed trace holds 600 arrivals");
        // Replay a thinned, compressed slice across a small headless
        // cluster to keep the test fast.
        let trace = ArrivalTrace::parse(BURSTY_LARGE_JSONL).unwrap();
        let thinned = TraceCatalog::table1()
            .unlabeled()
            .thin(0.1, 7)
            .compress(4.0)
            .bind(&trace)
            .unwrap();
        let jobs = thinned.len();
        assert!(jobs > 20, "thinning kept {jobs}");
        let source = flowcon_workload::TraceSource::new(thinned, 8);
        let run = replay_cluster(
            &source,
            8,
            default_node(),
            PolicyKind::FlowCon(FlowConConfig::default()),
        );
        assert_eq!(run.completed_jobs(), jobs);
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in ["poisson", "bursty", "diurnal"] {
            let s = preset(name, 0.1, 10, 1).unwrap();
            assert_eq!(s.process.name(), name);
            assert_eq!(s.plan().len(), 10);
        }
        assert!(preset("weibull", 0.1, 10, 1).is_none());
    }
}
