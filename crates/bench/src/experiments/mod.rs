//! Experiment definitions, one module per figure group.

pub mod ablation;
pub mod fidelity;
pub mod fig1;
pub mod fixed;
pub mod frontier;
pub mod random;
pub mod scale;
pub mod stream;
pub mod trace;

use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy};
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::summary::RunSummary;

/// The seed every headline experiment uses (results in EXPERIMENTS.md were
/// produced with this seed; change it to check robustness).
pub const DEFAULT_SEED: u64 = 0xF10C;

/// The default simulated node for all experiments.
pub fn default_node() -> NodeConfig {
    NodeConfig::default().with_seed(DEFAULT_SEED)
}

/// Harness shorthand: one full-observability session under an arbitrary
/// policy (the experiments need every paper trace, so they always record
/// with the default `FullRecorder`).
pub fn policy_run(
    node: NodeConfig,
    plan: &WorkloadPlan,
    policy: Box<dyn ResourcePolicy>,
) -> SessionResult<RunSummary> {
    Session::builder()
        .node(node)
        .plan(plan.clone())
        .policy_box(policy)
        .build()
        .run()
}

/// Harness shorthand: one FlowCon session with the given parameters.
pub fn flowcon_run(
    node: NodeConfig,
    plan: &WorkloadPlan,
    config: FlowConConfig,
) -> SessionResult<RunSummary> {
    policy_run(node, plan, Box::new(FlowConPolicy::new(config)))
}

/// Harness shorthand: one NA-baseline session.
pub fn baseline_run(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<RunSummary> {
    policy_run(node, plan, Box::new(FairSharePolicy::new()))
}

/// Run closures on parallel OS threads, preserving input order of results.
///
/// Parameter sweeps (Figs. 3–6 sweep five itval values × several α) are
/// embarrassingly parallel: each cell is an independent deterministic
/// simulation.  Delegates to the sharded cluster executor
/// ([`flowcon_cluster::executor::map_bounded`]), whose threads claim the
/// cells in blocks, so parallelism stays bounded by
/// [`std::thread::available_parallelism`]: a 100-cell sweep on an 8-way
/// machine spawns 8 threads, not 100.
pub fn parallel_map<T, O, F>(inputs: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    flowcon_cluster::executor::map_bounded(inputs, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..32).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_many_more_cells_than_cores() {
        // 500 cells must not spawn 500 threads; with the bounded pool this
        // completes with at most `available_parallelism` workers.
        let out = parallel_map((0..500).collect(), |x: u64| x * x);
        assert_eq!(out.len(), 500);
        assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u64).pow(2)));
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert!(parallel_map(Vec::<u8>::new(), |x: u8| x).is_empty());
        assert_eq!(parallel_map(vec![7], |x: u8| x + 1), vec![8]);
    }
}
