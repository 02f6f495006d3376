//! Policy selection for workers.

use flowcon_core::config::FlowConConfig;
use flowcon_core::policy::{
    FairSharePolicy, FlowConPolicy, QualityProportionalPolicy, ResourcePolicy, StaticEqualPolicy,
};
use flowcon_sim::time::SimDuration;

/// A constructible description of a worker-side policy.
///
/// The manager hands one of these to every worker; each worker builds its
/// own policy instance (policies are stateful and worker-local).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// FlowCon with the given configuration.
    FlowCon(FlowConConfig),
    /// The NA baseline (free competition).
    Baseline,
    /// Hard equal 1/n partitioning.
    StaticEqual,
    /// SLAQ-like quality-proportional shares on a fixed interval.
    QualityProportional {
        /// Reconfiguration interval in seconds.
        interval_secs: u64,
        /// Minimum share floor.
        floor: f64,
    },
}

impl PolicyKind {
    /// Build a fresh policy instance.
    pub fn build(&self) -> Box<dyn ResourcePolicy> {
        match *self {
            PolicyKind::FlowCon(config) => Box::new(FlowConPolicy::new(config)),
            PolicyKind::Baseline => Box::new(FairSharePolicy::new()),
            PolicyKind::StaticEqual => Box::new(StaticEqualPolicy::new()),
            PolicyKind::QualityProportional {
                interval_secs,
                floor,
            } => Box::new(QualityProportionalPolicy::new(
                SimDuration::from_secs(interval_secs),
                floor,
            )),
        }
    }

    /// Display name of the built policy.
    pub fn name(&self) -> String {
        self.build().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_distinct_policies() {
        assert_eq!(PolicyKind::Baseline.name(), "NA");
        assert_eq!(
            PolicyKind::FlowCon(FlowConConfig::with_params(0.05, 20)).name(),
            "FlowCon-5%-20"
        );
        assert_eq!(PolicyKind::StaticEqual.name(), "Static-1/n");
        assert!(PolicyKind::QualityProportional {
            interval_secs: 30,
            floor: 0.05
        }
        .name()
        .starts_with("QualityProp"));
    }

    #[test]
    fn each_build_is_fresh_state() {
        let kind = PolicyKind::FlowCon(FlowConConfig::default());
        let a = kind.build();
        let b = kind.build();
        assert_eq!(a.name(), b.name());
    }
}
