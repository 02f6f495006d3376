//! The worker node's vocabulary: the events one worker simulation
//! dispatches and the faults a session can schedule.
//!
//! A worker is a single node (capacity 1.0) running containerized DL jobs
//! under a [`ResourcePolicy`](crate::policy::ResourcePolicy).  Between
//! events the node is a fluid processor-sharing system — the
//! water-filling allocator (with Docker-soft-limit semantics) fixes every
//! container's CPU rate, and workloads advance linearly — so the
//! simulation only needs events at:
//!
//! * job **arrivals** (from the workload plan or an open-loop stream),
//! * projected job **completions** (recomputed whenever rates change),
//! * **policy ticks** (the Executor's interval, with back-off/reset),
//! * **sample ticks** (1 s usage/limit traces) and **trace ticks**
//!   (growth-efficiency traces at a fixed interval for Figs. 13–14) —
//!   scheduled only when the session's [`Recorder`](crate::recorder::Recorder)
//!   wants them,
//! * **injected failures** ([`FailureInjection`]).
//!
//! The simulation itself is [`crate::dense`]; every run is reproducible
//! from `NodeConfig::seed`.  Workers are built and run through
//! [`crate::session::Session`].

use flowcon_sim::time::{SimDuration, SimTime};

/// Interval between growth-efficiency trace measurements (Figs. 13–14).
pub(crate) const TRACE_INTERVAL: SimDuration = SimDuration::from_secs(20);

/// A scheduled fault: crash the job with `label` at `at` with `exit_code`.
#[derive(Debug, Clone)]
pub struct FailureInjection {
    /// Label of the job to crash (the first live container carrying it).
    pub label: String,
    /// When the crash happens.
    pub at: SimTime,
    /// Exit code the container reports (e.g. 137 for OOM-kill).
    pub exit_code: i32,
}

#[cfg(test)]
mod tests {
    use crate::config::{FlowConConfig, NodeConfig};
    use crate::policy::{FairSharePolicy, FlowConPolicy};
    use crate::session::{Session, SessionResult};
    use flowcon_dl::workload::WorkloadPlan;
    use flowcon_metrics::summary::RunSummary;

    fn node() -> NodeConfig {
        NodeConfig::default()
    }

    fn flowcon(
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

    fn baseline(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<RunSummary> {
        Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy(FairSharePolicy::new())
            .build()
            .run()
    }

    #[test]
    fn single_job_runs_to_completion_under_na() {
        let plan = WorkloadPlan::random_from(&[flowcon_dl::ModelId::MnistTf], 1);
        let result = baseline(node(), &plan);
        assert_eq!(result.output.completions.len(), 1);
        let c = &result.output.completions[0];
        assert_eq!(c.exit_code, 0);
        // Alone at demand 0.75, ~27 cpu-s of work: completion ≈ 36 s (±jitter).
        let secs = c.completion_secs();
        assert!((30.0..45.0).contains(&secs), "completion {secs}");
    }

    #[test]
    fn fixed_three_under_na_matches_paper_scale() {
        let plan = WorkloadPlan::fixed_three();
        let result = baseline(node(), &plan);
        let s = &result.output;
        assert_eq!(s.completions.len(), 3);
        let makespan = s.makespan_secs();
        // §5.3: NA makespan ≈ 394 s.  Allow the fluid model ±10%.
        assert!((354.0..434.0).contains(&makespan), "NA makespan {makespan}");
        let mnist_tf = s.completion_of("MNIST (Tensorflow)").unwrap();
        // §5.3: ≈ 84.7 s under NA.
        assert!((70.0..100.0).contains(&mnist_tf), "MNIST-TF {mnist_tf}");
    }

    #[test]
    fn flowcon_speeds_up_the_late_short_job() {
        let plan = WorkloadPlan::fixed_three();
        let na = baseline(node(), &plan);
        let fc = flowcon(node(), &plan, FlowConConfig::with_params(0.05, 20));
        let red = fc
            .output
            .reduction_vs(&na.output, "MNIST (Tensorflow)")
            .unwrap();
        assert!(
            red > 10.0,
            "expected a double-digit completion-time reduction, got {red:.1}%"
        );
        // Makespan must not regress materially (§5.3: FlowCon improves 1-5%).
        let makespan_impr = fc.output.makespan_improvement_vs(&na.output);
        assert!(makespan_impr > -3.0, "makespan change {makespan_impr:.1}%");
    }

    #[test]
    fn runs_are_deterministic() {
        let plan = WorkloadPlan::random_five(11);
        let a = flowcon(node(), &plan, FlowConConfig::default());
        let b = flowcon(node(), &plan, FlowConConfig::default());
        assert_eq!(a.output.completions, b.output.completions);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn all_jobs_complete_cleanly_at_scale() {
        let plan = WorkloadPlan::random_n(15, 3);
        let result = flowcon(node(), &plan, FlowConConfig::with_params(0.10, 40));
        assert_eq!(result.output.completions.len(), 15);
        assert!(result.output.completions.iter().all(|c| c.exit_code == 0));
    }

    #[test]
    fn traces_are_recorded() {
        let plan = WorkloadPlan::fixed_three();
        let fc = flowcon(node(), &plan, FlowConConfig::default());
        assert_eq!(fc.output.cpu_usage.len(), 3, "one usage series per job");
        assert!(!fc.output.growth_efficiency.is_empty());
        assert!(fc.output.update_calls > 0);
        assert!(fc.output.algorithm_runs > 0);
    }
}
