//! Scalability experiments (§5.5): Figs. 12–17.
//!
//! 10 and 15 jobs drawn from the Table 1 catalog, random arrivals in
//! 0–200 s.  Fig. 12/17 compare per-job completion times; Figs. 13–14 dig
//! into growth-efficiency traces of one "loser" and one "winner"; Figs.
//! 15–16 show the CPU traces.

use super::{baseline_run, flowcon_run};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::export::policy_series_csv;
use flowcon_metrics::summary::RunSummary;
use flowcon_metrics::timeseries::TimeSeries;

/// What a job that never measured a growth efficiency plots.
static NO_TRACE: TimeSeries = TimeSeries::new();

/// Results of a scalability comparison.
#[derive(Debug, Clone)]
pub struct ScaleComparison {
    /// FlowCon run.
    pub flowcon: RunSummary,
    /// NA baseline.
    pub baseline: RunSummary,
    /// The workload.
    pub plan: WorkloadPlan,
}

impl ScaleComparison {
    /// Job labels in arrival order.
    pub fn labels(&self) -> Vec<String> {
        self.plan.jobs.iter().map(|j| j.label.clone()).collect()
    }

    /// Wins/losses vs the baseline.
    pub fn wins_losses(&self) -> (usize, usize) {
        self.flowcon.wins_losses_vs(&self.baseline)
    }

    /// The job with the largest completion-time reduction.
    pub fn biggest_winner(&self) -> Option<(String, f64)> {
        self.labels()
            .into_iter()
            .filter_map(|l| {
                self.flowcon
                    .reduction_vs(&self.baseline, &l)
                    .map(|r| (l, r))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite reductions"))
    }

    /// Pick the Fig. 13/14 exemplars: the biggest loser (or the smallest
    /// winner if FlowCon wins everywhere) and the biggest winner.
    pub fn exemplars(&self) -> (String, String) {
        let mut rows: Vec<(String, f64)> = self
            .labels()
            .into_iter()
            .filter_map(|l| {
                self.flowcon
                    .reduction_vs(&self.baseline, &l)
                    .map(|r| (l, r))
            })
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite reductions"));
        let loser = rows.first().map(|(l, _)| l.clone()).unwrap_or_default();
        let winner = rows.last().map(|(l, _)| l.clone()).unwrap_or_default();
        (loser, winner)
    }

    /// Job `label`'s growth-efficiency trace under FlowCon and under NA
    /// (empty where it has none): what Figs. 13–14 plot for an exemplar.
    pub fn growth_traces(&self, label: &str) -> [(&'static str, &TimeSeries); 2] {
        [("FlowCon", &self.flowcon), ("NA", &self.baseline)].map(|(policy, run)| {
            (
                policy,
                run.growth_efficiency.get(label).unwrap_or(&NO_TRACE),
            )
        })
    }

    /// The CSV of [`ScaleComparison::growth_traces`]: one series per
    /// policy, all of job `label` (`fig13.csv` for the loser, `fig14.csv`
    /// for the winner).
    pub fn growth_csv(&self, label: &str) -> String {
        policy_series_csv(label, &self.growth_traces(label))
    }
}

/// Fig. 12 (and Figs. 13–16): 10 jobs, FlowCon α = 10%, itval = 20 vs NA.
pub fn fig12(node: NodeConfig, workload_seed: u64) -> ScaleComparison {
    let plan = WorkloadPlan::random_n(10, workload_seed);
    compare(node, plan, FlowConConfig::with_params(0.10, 20))
}

/// Fig. 17: 15 jobs, FlowCon α = 10%, itval = 40 vs NA.
pub fn fig17(node: NodeConfig, workload_seed: u64) -> ScaleComparison {
    let plan = WorkloadPlan::random_n(15, workload_seed);
    compare(node, plan, FlowConConfig::with_params(0.10, 40))
}

/// Run one FlowCon-vs-NA comparison on a given plan.
pub fn compare(node: NodeConfig, plan: WorkloadPlan, config: FlowConConfig) -> ScaleComparison {
    let (flowcon, baseline) = std::thread::scope(|s| {
        let fc = s.spawn(|| flowcon_run(node, &plan, config).output);
        let na = s.spawn(|| baseline_run(node, &plan).output);
        (
            fc.join().expect("flowcon run panicked"),
            na.join().expect("baseline run panicked"),
        )
    });
    ScaleComparison {
        flowcon,
        baseline,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{default_node, DEFAULT_SEED};

    #[test]
    fn ten_jobs_mostly_win() {
        let cmp = fig12(default_node(), DEFAULT_SEED);
        let (wins, losses) = cmp.wins_losses();
        assert!(
            wins >= 6,
            "expected FlowCon to win most of 10 jobs: {wins} wins, {losses} losses"
        );
        let impr = cmp.flowcon.makespan_improvement_vs(&cmp.baseline);
        assert!(impr > -5.0, "makespan regressed {:.1}%", -impr);
    }

    #[test]
    fn fifteen_jobs_complete_and_mostly_win() {
        let cmp = fig17(default_node(), DEFAULT_SEED);
        assert_eq!(cmp.flowcon.completions.len(), 15);
        assert_eq!(cmp.baseline.completions.len(), 15);
        let (wins, _) = cmp.wins_losses();
        assert!(wins >= 8, "expected ≥8 wins out of 15, got {wins}");
    }

    #[test]
    fn fig13_and_fig14_each_hold_their_job_under_both_policies() {
        let cmp = fig12(default_node(), DEFAULT_SEED);
        let (loser, winner) = cmp.exemplars();
        let (fig13, fig14) = (cmp.growth_csv(&loser), cmp.growth_csv(&winner));
        assert_ne!(fig13, fig14);
        for (csv, job) in [(&fig13, &loser), (&fig14, &winner)] {
            let mut policies = Vec::new();
            for row in csv.lines().skip(1) {
                let cols: Vec<&str> = row.split(',').collect();
                assert_eq!(cols[1], job.as_str(), "a row of another job: {row}");
                if policies.last() != Some(&cols[0]) {
                    policies.push(cols[0]);
                }
            }
            assert_eq!(policies, ["FlowCon", "NA"], "{job}");
        }
    }

    #[test]
    fn exemplars_have_growth_traces() {
        let cmp = fig12(default_node(), DEFAULT_SEED);
        let (loser, winner) = cmp.exemplars();
        assert_ne!(loser, winner);
        for label in [&loser, &winner] {
            assert!(
                cmp.flowcon.growth_efficiency.get(label).is_some(),
                "missing FlowCon growth trace for {label}"
            );
            assert!(
                cmp.baseline.growth_efficiency.get(label).is_some(),
                "missing NA growth trace for {label}"
            );
        }
    }
}
