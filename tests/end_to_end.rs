//! End-to-end integration: every layer of the stack working together —
//! worker simulation + allocator + policies + cluster + metrics.

use flowcon_cluster::{ClusterSession, PolicyKind, Spread};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy};
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::models::{ModelSpec, ALL_MODELS};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::export::{completions_csv, series_csv};
use flowcon_metrics::summary::RunSummary;

fn run_flowcon(
    node: NodeConfig,
    plan: &WorkloadPlan,
    config: FlowConConfig,
) -> SessionResult<RunSummary> {
    Session::builder()
        .node(node)
        .plan(plan.clone())
        .policy(FlowConPolicy::new(config))
        .build()
        .run()
}

fn run_baseline(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<RunSummary> {
    Session::builder()
        .node(node)
        .plan(plan.clone())
        .policy(FairSharePolicy::new())
        .build()
        .run()
}

#[test]
fn every_catalog_model_trains_to_completion() {
    for &model in &ALL_MODELS {
        let plan = WorkloadPlan::random_from(&[model], 5);
        let result = run_baseline(NodeConfig::default(), &plan);
        assert_eq!(result.output.completions.len(), 1, "{model:?}");
        let c = &result.output.completions[0];
        assert_eq!(c.exit_code, 0, "{model:?}");
        // Alone, completion ≈ total_work / demand (no contention).
        let spec = ModelSpec::of(model);
        let expected = spec.total_work / spec.demand;
        let got = c.completion_secs();
        assert!(
            (got - expected).abs() < expected * 0.08,
            "{model:?}: completion {got:.1}s vs expected ≈{expected:.1}s"
        );
    }
}

#[test]
fn all_policies_complete_the_same_workload() {
    let plan = WorkloadPlan::random_n(8, 21);
    for policy in [
        PolicyKind::Baseline,
        PolicyKind::FlowCon(FlowConConfig::default()),
        PolicyKind::StaticEqual,
        PolicyKind::QualityProportional {
            interval_secs: 30,
            floor: 0.05,
        },
    ] {
        let result = Session::builder()
            .plan(plan.clone())
            .policy_box(policy.build())
            .build()
            .run();
        assert_eq!(
            result.output.completions.len(),
            8,
            "{} dropped jobs",
            policy.name()
        );
        assert!(
            result.output.completions.iter().all(|c| c.exit_code == 0),
            "{} had failures",
            policy.name()
        );
    }
}

#[test]
fn cluster_spread_balances_and_finishes() {
    let plan = WorkloadPlan::random_n(12, 5);
    let result = ClusterSession::builder()
        .nodes(3, NodeConfig::default())
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .placement(Spread)
        .plan(plan.clone())
        .build()
        .run();
    assert_eq!(result.completed_jobs(), 12);
    // Spread: 4 jobs per worker.
    for w in 0..3 {
        let count = result.placements.iter().filter(|&&i| i == w).count();
        assert_eq!(count, 4, "worker {w} got {count} jobs");
    }
    // Cluster makespan beats the single-worker run of the same plan.
    let single = ClusterSession::builder()
        .nodes(1, NodeConfig::default())
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .plan(plan)
        .build()
        .run();
    assert!(result.makespan_secs() < single.makespan_secs());
}

#[test]
fn csv_exports_are_well_formed() {
    let plan = WorkloadPlan::fixed_three();
    let fc = run_flowcon(
        NodeConfig::default(),
        &plan,
        FlowConConfig::with_params(0.05, 20),
    )
    .output;
    let csv = completions_csv(&[&fc]);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 3, "header + one row per job");
    assert_eq!(lines[0].split(',').count(), 6);
    for row in &lines[1..] {
        assert_eq!(row.split(',').count(), 6, "bad row: {row}");
    }

    let usage_csv = series_csv("cpu", &fc.cpu_usage);
    assert!(
        usage_csv.lines().count() > 100,
        "usage trace should be dense"
    );
    assert!(usage_csv.starts_with("series,label,t_s,value\n"));
}

#[test]
fn overhead_counters_track_backoff() {
    // With a lone long job, FlowCon converges to all-CL and backs off: the
    // number of algorithm runs must be far below naive itval ticking.
    let plan = WorkloadPlan::random_from(&[flowcon_dl::ModelId::Vae], 3);
    let fc = run_flowcon(NodeConfig::default(), &plan, FlowConConfig::default());
    let makespan = fc.output.makespan_secs();
    let naive_ticks = (makespan / 20.0) as u64;
    assert!(
        fc.output.algorithm_runs < naive_ticks,
        "back-off should cut runs: {} vs naive {naive_ticks}",
        fc.output.algorithm_runs
    );
    assert!(fc.scheduler_overhead_cpu_secs >= 0.0);
}
