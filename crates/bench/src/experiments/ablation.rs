//! Ablations beyond the paper.
//!
//! * **back-off** — does disabling the exponential back-off change outcomes
//!   and how much scheduler work does it add?
//! * **β sweep** — starvation behaviour of the CL lower bound.
//! * **κ sweep** — sensitivity of the makespan win to contention strength.
//! * **policy zoo** — FlowCon vs NA vs static 1/n vs SLAQ-like
//!   quality-proportional.

use super::{baseline_run, flowcon_run, policy_run};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::{
    FairSharePolicy, FlowConPolicy, QualityProportionalPolicy, StaticEqualPolicy,
};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::contention::ContentionModel;
use flowcon_sim::time::SimDuration;

use super::parallel_map;

/// Back-off ablation result.
#[derive(Debug, Clone)]
pub struct BackoffAblation {
    /// Algorithm-1 invocations with back-off on.
    pub runs_with: u64,
    /// Algorithm-1 invocations with back-off off.
    pub runs_without: u64,
    /// Makespan with back-off on (seconds).
    pub makespan_with: f64,
    /// Makespan with back-off off (seconds).
    pub makespan_without: f64,
}

/// Run the back-off ablation on the fixed three-job schedule.
pub fn backoff(node: NodeConfig) -> BackoffAblation {
    let plan = WorkloadPlan::fixed_three();
    let with = flowcon_run(node, &plan, FlowConConfig::default());
    let without = flowcon_run(
        node,
        &plan,
        FlowConConfig {
            backoff: false,
            ..FlowConConfig::default()
        },
    );
    BackoffAblation {
        runs_with: with.output.algorithm_runs,
        runs_without: without.output.algorithm_runs,
        makespan_with: with.output.makespan_secs(),
        makespan_without: without.output.makespan_secs(),
    }
}

/// β sweep on the five-job random workload: per-β makespan and the worst
/// per-job completion-time regression vs NA.
pub fn beta_sweep(node: NodeConfig, seed: u64, betas: &[f64]) -> Vec<(f64, f64, f64)> {
    let plan = WorkloadPlan::random_five(seed);
    let baseline = baseline_run(node, &plan).output;
    parallel_map(betas.to_vec(), move |beta: f64| {
        let cfg = FlowConConfig {
            beta,
            ..FlowConConfig::default()
        };
        let s = flowcon_run(node, &plan, cfg).output;
        let worst_regression = plan
            .jobs
            .iter()
            .filter_map(|j| s.reduction_vs(&baseline, &j.label))
            .fold(f64::INFINITY, f64::min);
        (beta, s.makespan_secs(), worst_regression)
    })
}

/// κ sweep: `(kappa, flowcon makespan improvement % vs NA)` on the fixed
/// schedule — shows the makespan win needs real contention to exist.
pub fn kappa_sweep(node: NodeConfig, kappas: &[f64]) -> Vec<(f64, f64)> {
    let plan = WorkloadPlan::fixed_three();
    parallel_map(kappas.to_vec(), move |kappa: f64| {
        let node = NodeConfig {
            contention: ContentionModel::with_kappa(kappa),
            ..node
        };
        let na = baseline_run(node, &plan).output;
        let fc = flowcon_run(node, &plan, FlowConConfig::default()).output;
        (kappa, fc.makespan_improvement_vs(&na))
    })
}

/// Drive Algorithm 1 by a different resource's growth efficiency (Eq. 2 is
/// defined per resource; the paper evaluates CPU).  Returns `(resource,
/// makespan, wins vs NA)` on the five-job random workload.
pub fn resource_sweep(node: NodeConfig, seed: u64) -> Vec<(String, f64, usize)> {
    use flowcon_sim::ResourceKind;
    let plan = WorkloadPlan::random_five(seed);
    let baseline = baseline_run(node, &plan).output;
    [ResourceKind::Cpu, ResourceKind::Memory, ResourceKind::BlkIo]
        .into_iter()
        .map(|resource| {
            let cfg = FlowConConfig {
                resource,
                ..FlowConConfig::default()
            };
            let s = flowcon_run(node, &plan, cfg).output;
            let (wins, _) = s.wins_losses_vs(&baseline);
            (resource.name().to_string(), s.makespan_secs(), wins)
        })
        .collect()
}

/// Policy-zoo comparison on the five-job random workload: `(policy,
/// makespan, mean completion)` per policy.
pub fn policy_zoo(node: NodeConfig, seed: u64) -> Vec<(String, f64, f64)> {
    let plan = WorkloadPlan::random_five(seed);
    let policies: Vec<Box<dyn flowcon_core::policy::ResourcePolicy>> = vec![
        Box::new(FlowConPolicy::new(FlowConConfig::default())),
        Box::new(FairSharePolicy::new()),
        Box::new(StaticEqualPolicy::new()),
        Box::new(QualityProportionalPolicy::new(
            SimDuration::from_secs(30),
            0.05,
        )),
    ];
    policies
        .into_iter()
        .map(|policy| {
            let s = policy_run(node, &plan, policy).output;
            let mean = flowcon_metrics::stats::mean(
                &s.completions
                    .iter()
                    .map(|c| c.completion_secs())
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(f64::NAN);
            (s.policy.clone(), s.makespan_secs(), mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{default_node, DEFAULT_SEED};

    #[test]
    fn backoff_reduces_scheduler_work_without_hurting_makespan() {
        let ab = backoff(default_node());
        assert!(
            ab.runs_with <= ab.runs_without,
            "back-off should not increase algorithm runs: {} vs {}",
            ab.runs_with,
            ab.runs_without
        );
        let delta = (ab.makespan_with - ab.makespan_without).abs() / ab.makespan_without;
        assert!(delta < 0.05, "makespans diverged by {:.1}%", delta * 100.0);
    }

    #[test]
    fn beta_bound_prevents_starvation() {
        let rows = beta_sweep(default_node(), DEFAULT_SEED, &[1.0, 2.0, 8.0]);
        // Larger beta -> smaller guaranteed floor -> throttled jobs can lose
        // more.  The worst regression should be (weakly) worse at beta=8.
        let worst_beta2 = rows.iter().find(|r| r.0 == 2.0).unwrap().2;
        let worst_beta8 = rows.iter().find(|r| r.0 == 8.0).unwrap().2;
        assert!(
            worst_beta8 <= worst_beta2 + 5.0,
            "beta=8 worst {worst_beta8:.1}% vs beta=2 worst {worst_beta2:.1}%"
        );
    }

    #[test]
    fn makespan_win_vanishes_without_contention() {
        let rows = kappa_sweep(default_node(), &[0.0, 0.05]);
        let ideal = rows[0].1;
        // On an interference-free node the fluid system is work-conserving:
        // FlowCon cannot beat NA's makespan by much (it may tie or lose a
        // hair to tail-extension of throttled jobs).
        assert!(
            ideal.abs() < 6.0,
            "kappa=0 should give a near-zero makespan delta, got {ideal:.2}%"
        );
    }

    #[test]
    fn resource_sweep_cpu_is_at_least_as_good() {
        let rows = resource_sweep(default_node(), DEFAULT_SEED);
        assert_eq!(rows.len(), 3);
        let cpu = rows.iter().find(|r| r.0 == "cpu").unwrap();
        // CPU-driven scheduling (the paper's choice for compute-bound jobs)
        // should win at least as many jobs as I/O-driven scheduling.
        let blkio = rows.iter().find(|r| r.0 == "blkio").unwrap();
        assert!(cpu.2 >= blkio.2.saturating_sub(1), "{rows:?}");
        // Every variant still completes the workload.
        assert!(rows.iter().all(|r| r.1 > 0.0));
    }

    #[test]
    fn policy_zoo_runs_all_four() {
        let rows = policy_zoo(default_node(), DEFAULT_SEED);
        assert_eq!(rows.len(), 4);
        let names: Vec<&str> = rows.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"NA"));
        assert!(names.contains(&"Static-1/n"));
    }
}
