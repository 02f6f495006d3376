//! Edge cases of the worker-node simulation: degenerate plans, bursts of
//! simultaneous arrivals, and scheduling pathologies.

use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy};
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_dl::ModelId;
use flowcon_metrics::summary::RunSummary;
use flowcon_sim::contention::ContentionModel;
use flowcon_sim::time::{SimDuration, SimTime};

fn node() -> NodeConfig {
    NodeConfig::default()
}

fn run_policy(
    node: NodeConfig,
    plan: &WorkloadPlan,
    policy: impl ResourcePolicy + 'static,
) -> SessionResult<RunSummary> {
    Session::builder()
        .node(node)
        .plan(plan.clone())
        .policy(policy)
        .build()
        .run()
}

fn run_flowcon(
    node: NodeConfig,
    plan: &WorkloadPlan,
    config: FlowConConfig,
) -> SessionResult<RunSummary> {
    run_policy(node, plan, FlowConPolicy::new(config))
}

fn run_baseline(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<RunSummary> {
    run_policy(node, plan, FairSharePolicy::new())
}

#[test]
fn empty_plan_terminates_immediately() {
    let plan = WorkloadPlan::new(vec![]);
    let result = run_flowcon(node(), &plan, FlowConConfig::default());
    assert!(result.output.completions.is_empty());
    assert_eq!(result.output.makespan_secs(), 0.0);
}

#[test]
fn simultaneous_arrivals_all_complete() {
    // Eight jobs land at the exact same instant: one listener interrupt per
    // arrival, all in the same event timestamp.
    let jobs: Vec<JobRequest> = (0..8)
        .map(|i| {
            JobRequest::new(
                format!("burst-{i}"),
                ModelId::MnistTf,
                SimTime::from_secs(5),
            )
        })
        .collect();
    let plan = WorkloadPlan::new(jobs);
    let result = run_flowcon(node(), &plan, FlowConConfig::default());
    assert_eq!(result.output.completions.len(), 8);
    assert!(result.output.completions.iter().all(|c| c.exit_code == 0));
    // Identical models, identical arrivals: completions are clustered.
    let times: Vec<f64> = result
        .output
        .completions
        .iter()
        .map(|c| c.completion_secs())
        .collect();
    let spread = times.iter().cloned().fold(0.0f64, f64::max)
        - times.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 120.0, "spread {spread}");
}

#[test]
fn back_to_back_arrivals_reset_the_executor_each_time() {
    // Arrivals 1 s apart repeatedly interrupt the interval; the executor
    // must keep functioning and every job must finish.
    let jobs: Vec<JobRequest> = (0..6)
        .map(|i| JobRequest::new(format!("rapid-{i}"), ModelId::Gru, SimTime::from_secs(i)))
        .collect();
    let plan = WorkloadPlan::new(jobs);
    let result = run_flowcon(node(), &plan, FlowConConfig::with_params(0.05, 20));
    assert_eq!(result.output.completions.len(), 6);
    assert!(result.output.algorithm_runs >= 6, "one run per interrupt");
}

#[test]
fn tiny_interval_does_not_spin_the_simulation() {
    let plan = WorkloadPlan::fixed_three();
    let config = FlowConConfig {
        initial_interval: SimDuration::from_secs(1),
        ..FlowConConfig::default()
    };
    let result = run_flowcon(node(), &plan, config);
    assert_eq!(result.output.completions.len(), 3);
    // 1 s ticks over a ~390 s run: hundreds of runs, but bounded.
    assert!(result.output.algorithm_runs < 1_000);
}

#[test]
fn ideal_node_is_work_conserving_wash() {
    // Without interference, FlowCon and NA makespans must be close: the
    // fluid system conserves work (the κ sweep of
    // `flowcon_bench::experiments::ablation`).
    let ideal = NodeConfig {
        contention: ContentionModel::ideal(),
        ..node()
    };
    let plan = WorkloadPlan::fixed_three();
    let fc = run_flowcon(ideal, &plan, FlowConConfig::default());
    let na = run_baseline(ideal, &plan);
    let delta = fc.output.makespan_improvement_vs(&na.output);
    assert!(delta.abs() < 3.0, "ideal-node makespan delta {delta:.2}%");
}

#[test]
fn capacity_scales_completion_times() {
    // Doubling node capacity roughly halves a lone job's completion.
    let plan = WorkloadPlan::random_from(&[ModelId::MnistTorch], 1);
    let slow = run_baseline(node(), &plan);
    let fast = run_baseline(
        NodeConfig {
            capacity: 2.0,
            ..node()
        },
        &plan,
    );
    let s = slow.output.completions[0].completion_secs();
    let f = fast.output.completions[0].completion_secs();
    // A lone job is demand-limited (0.8 < 1.0), so capacity 2 leaves its
    // rate at the demand ceiling — completion unchanged.  Check instead
    // with three concurrent jobs where capacity binds.
    assert!((s - f).abs() < s * 0.05, "lone job is demand-bound");

    let plan3 = WorkloadPlan::fig1_concurrent();
    let slow3 = run_baseline(node(), &plan3);
    let fast3 = run_baseline(
        NodeConfig {
            capacity: 2.0,
            ..node()
        },
        &plan3,
    );
    // The gain is bounded by the demand-limited straggler (LSTM-CFC can
    // only ever use 22% of the node: ~590 s of wall time no matter what),
    // so expect a clear but not 2x improvement.
    assert!(
        fast3.output.makespan_secs() < slow3.output.makespan_secs() * 0.92,
        "capacity 2 should cut the 5-job makespan: {:.0} vs {:.0}",
        fast3.output.makespan_secs(),
        slow3.output.makespan_secs()
    );
    let cfc_floor = 130.0 / 0.22 * 0.95;
    assert!(
        fast3.output.makespan_secs() > cfc_floor,
        "makespan cannot beat the demand-limited straggler"
    );
}

#[test]
fn policies_can_be_reused_across_runs_via_fresh_instances() {
    let plan = WorkloadPlan::random_five(9);
    let a = run_policy(node(), &plan, FlowConPolicy::new(FlowConConfig::default()));
    let b = run_policy(node(), &plan, FlowConPolicy::new(FlowConConfig::default()));
    assert_eq!(a.output.completions, b.output.completions);
}

#[test]
fn na_issues_no_updates_ever() {
    let plan = WorkloadPlan::random_n(10, 2);
    let result = run_policy(node(), &plan, FairSharePolicy::new());
    assert_eq!(result.output.update_calls, 0);
    assert_eq!(result.output.completions.len(), 10);
}
