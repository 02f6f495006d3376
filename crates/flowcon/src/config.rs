//! Configuration of FlowCon and of the simulated worker node.

use flowcon_sim::contention::ContentionModel;
use flowcon_sim::resources::ResourceKind;
use flowcon_sim::time::SimDuration;

/// FlowCon's tunables (§5.2 names them: α and itval; β appears in
/// Algorithm 1's lower bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConConfig {
    /// Threshold α classifying jobs into NL/WL/CL (paper sweeps 1%–15%).
    pub alpha: f64,
    /// β in the Completing-list lower bound `1/(β·|cid|)`.
    ///
    /// The paper never states β numerically, but Fig. 7 shows a
    /// nearly-converged VAE pinned at 0.25 of the node with two containers
    /// present, i.e. `1/(2·2)` — hence the default of 2.
    pub beta: f64,
    /// Initial executor interval `itval` (paper sweeps 20–60 s).
    pub initial_interval: SimDuration,
    /// Enable the exponential back-off of Algorithm 1 line 17.
    pub backoff: bool,
    /// Prior growth efficiency assumed for containers that have not yet
    /// produced two measurements.
    ///
    /// Algorithm 1 needs `ΣG` over all containers, but a fresh container has
    /// no G yet.  The paper's behaviour (Fig. 7: a new job gets limit 1 and
    /// an old slow job drops to the lower bound) implies fresh jobs are
    /// assumed fast; we model that as `Ĝ = max(maxᵢ Gᵢ, fresh_prior)`.
    /// The default (0.2) is the growth efficiency of a healthy young job.
    pub fresh_prior: f64,
    /// Which resource's growth efficiency drives Algorithm 1 (Eq. 2 is
    /// defined per resource; the paper's jobs are compute-bound so its
    /// evaluation — and this default — use CPU).
    pub resource: ResourceKind,
}

impl Default for FlowConConfig {
    fn default() -> Self {
        FlowConConfig {
            alpha: 0.05,
            beta: 2.0,
            initial_interval: SimDuration::from_secs(20),
            backoff: true,
            fresh_prior: 0.2,
            resource: ResourceKind::Cpu,
        }
    }
}

impl FlowConConfig {
    /// Config with the given α (as a fraction) and interval in seconds —
    /// the two knobs every figure sweeps.
    pub fn with_params(alpha: f64, itval_secs: u64) -> Self {
        FlowConConfig {
            alpha,
            initial_interval: SimDuration::from_secs(itval_secs),
            ..Default::default()
        }
    }

    /// Policy display name in the figures' style, e.g. `FlowCon-5%-20`.
    pub fn display_name(&self) -> String {
        format!(
            "FlowCon-{}%-{}",
            (self.alpha * 100.0).round() as u32,
            self.initial_interval.as_secs_f64().round() as u64
        )
    }
}

/// Parameters of the simulated worker node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Total CPU capacity (1.0 = the whole node, the paper's normalization).
    pub capacity: f64,
    /// Interference model (see `flowcon-sim::contention`).
    pub contention: ContentionModel,
    /// Sampling interval for usage/eval traces.
    pub sample_interval: SimDuration,
    /// CPU-seconds consumed by one run of Algorithm 1 (scheduler overhead;
    /// the paper's Remark ties overhead to invocation frequency).
    pub algo_cost_cpu_secs: f64,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            capacity: 1.0,
            contention: ContentionModel::default(),
            sample_interval: SimDuration::from_secs(1),
            algo_cost_cpu_secs: 0.05,
            seed: 0xF10C,
        }
    }
}

impl NodeConfig {
    /// Same node with a different seed (for replicated experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Panic unless `capacity` is finite and > 0.
    ///
    /// A node without usable capacity could never finish a job, so every
    /// simulation of a node (the worker loop and each node of the cluster
    /// scheduler) refuses one up front instead of running forever.
    pub fn assert_usable_capacity(&self) {
        assert!(
            self.capacity.is_finite() && self.capacity > 0.0,
            "NodeConfig::capacity must be finite and > 0, got {}",
            self.capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_sweet_spot() {
        let c = FlowConConfig::default();
        assert_eq!(c.alpha, 0.05);
        assert_eq!(c.beta, 2.0);
        assert_eq!(c.initial_interval, SimDuration::from_secs(20));
        assert!(c.backoff);
    }

    #[test]
    fn display_name_matches_figures() {
        assert_eq!(
            FlowConConfig::with_params(0.10, 20).display_name(),
            "FlowCon-10%-20"
        );
        assert_eq!(
            FlowConConfig::with_params(0.03, 30).display_name(),
            "FlowCon-3%-30"
        );
    }

    #[test]
    fn node_seed_override() {
        let n = NodeConfig::default().with_seed(7);
        assert_eq!(n.seed, 7);
        assert_eq!(n.capacity, 1.0);
    }
}
