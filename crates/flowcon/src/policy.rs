//! Resource-configuration policies.
//!
//! [`ResourcePolicy`] is the contract between the worker-node runtime and a
//! scheduling policy.  Implementations:
//!
//! * [`FlowConPolicy`] — the paper's contribution: Executor + Algorithm 1 +
//!   Algorithm 2 listeners + exponential back-off.
//! * [`FairSharePolicy`] — the paper's baseline ("NA"): no limits ever,
//!   containers compete freely.
//! * [`StaticEqualPolicy`] — ablation: hard equal partition `1/n`,
//!   recomputed only on membership changes (a VM-like static allocation,
//!   §4.1's foil).
//! * [`QualityProportionalPolicy`] — ablation: SLAQ-style quality-driven
//!   proportional shares on a fixed interval, with no real-time listeners,
//!   no lists and no back-off (the related-work §6 comparison point).

use flowcon_container::ContainerId;
use flowcon_sim::time::{SimDuration, SimTime};

use crate::algorithm::run_algorithm1_into;
use crate::config::FlowConConfig;
use crate::listener::Listener;
use crate::lists::Lists;
use crate::metric::GrowthMeasurement;

/// A worker-side resource-configuration policy.
///
/// Policies are `Send`: the cluster scheduler moves each node's policy
/// across executor shards between quanta, and the real-thread backend
/// runs its policy on the coordinator thread.
pub trait ResourcePolicy: Send {
    /// Display name used in figures (e.g. `FlowCon-5%-20`, `NA`).
    fn name(&self) -> String;

    /// Delay until the first periodic reconfiguration after start.
    fn initial_interval(&self) -> Option<SimDuration>;

    /// Periodic tick or listener interrupt: decide new limits from the
    /// Container Monitor's measurements, writing them into the
    /// caller-provided `updates` buffer (`docker update --cpus`) and
    /// returning the delay until the next periodic reconfiguration, or
    /// `None` for a purely event-driven policy.
    ///
    /// `updates` may arrive holding the previous tick's decision (the
    /// worker recycles one buffer across the whole run): implementations
    /// **must** `updates.clear()` before writing, or stale limits would be
    /// re-applied every tick.
    ///
    /// Every node driver threads one reusable buffer through every
    /// reconfiguration, so a steady-state call makes zero heap
    /// allocations (asserted by `crates/flowcon/tests/policy_zero_alloc.rs`).
    fn reconfigure_into(
        &mut self,
        now: SimTime,
        measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration>;

    /// Pool membership changed.  Returns true if the policy wants an
    /// immediate reconfiguration (a listener interrupt).
    fn on_pool_change(&mut self, now: SimTime, pool_ids: &[ContainerId]) -> bool;
}

/// A policy's interval until its next periodic reconfiguration
/// ([`ResourcePolicy::initial_interval`] or what
/// [`ResourcePolicy::reconfigure_into`] returned), checked.
///
/// A zero interval would schedule the next tick at the instant that is
/// running, so the policy would reconfigure at that instant forever.
/// Both node simulations — the worker's (`crate::dense`) and the cluster
/// scheduler's nodes — schedule every policy tick through here, so such a
/// policy fails the same way on each: with this panic.
pub fn checked_interval(interval: Option<SimDuration>) -> Option<SimDuration> {
    assert!(
        interval != Some(SimDuration::ZERO),
        "a policy returned a zero reconfiguration interval; \
         its next tick would fire at the same instant forever"
    );
    interval
}

// ---------------------------------------------------------------------------
// FlowCon
// ---------------------------------------------------------------------------

/// The paper's policy: growth-efficiency-driven elastic limits.
#[derive(Debug, Clone)]
pub struct FlowConPolicy {
    config: FlowConConfig,
    lists: Lists,
    listener: Listener,
    /// Current executor interval (doubles under back-off, resets on
    /// listener interrupts).
    itval: SimDuration,
    /// Number of Algorithm 1 invocations (overhead accounting).
    algorithm_runs: u64,
}

impl FlowConPolicy {
    /// A policy with the given configuration; panics on a zero
    /// `initial_interval` (see [`checked_interval`]).
    pub fn new(config: FlowConConfig) -> Self {
        assert!(
            config.initial_interval > SimDuration::ZERO,
            "FlowConConfig::initial_interval must be > 0"
        );
        FlowConPolicy {
            itval: config.initial_interval,
            config,
            lists: Lists::new(),
            listener: Listener::new(),
            algorithm_runs: 0,
        }
    }

    /// The classification lists (exposed for inspection and tests).
    pub fn lists(&self) -> &Lists {
        &self.lists
    }

    /// Current (possibly backed-off) interval.
    pub fn current_interval(&self) -> SimDuration {
        self.itval
    }

    /// Number of Algorithm 1 invocations so far.
    pub fn algorithm_runs(&self) -> u64 {
        self.algorithm_runs
    }
}

impl ResourcePolicy for FlowConPolicy {
    fn name(&self) -> String {
        self.config.display_name()
    }

    fn initial_interval(&self) -> Option<SimDuration> {
        Some(self.config.initial_interval)
    }

    fn reconfigure_into(
        &mut self,
        _now: SimTime,
        measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration> {
        self.algorithm_runs += 1;
        let backed_off = run_algorithm1_into(&self.config, &mut self.lists, measures, updates);
        if backed_off && self.config.backoff {
            // Algorithm 1 line 17.
            self.itval = self.itval.saturating_double();
        }
        Some(self.itval)
    }

    fn on_pool_change(&mut self, _now: SimTime, pool_ids: &[ContainerId]) -> bool {
        // Allocation-free membership diff (the arrival/departure sets are
        // not needed here, only the interrupt decision).
        let interrupt = self.listener.observe_interrupt(pool_ids, &mut self.lists);
        if interrupt {
            // Algorithm 2 lines 8/16: reset itval, breaking the back-off.
            self.itval = self.config.initial_interval;
        }
        interrupt
    }
}

// ---------------------------------------------------------------------------
// NA baseline
// ---------------------------------------------------------------------------

/// The paper's baseline: the unmodified container platform.  Containers
/// "compete for resources freely and the system maintains fairness among
/// all of them" (§2.2).
#[derive(Debug, Clone, Default)]
pub struct FairSharePolicy;

impl FairSharePolicy {
    /// The baseline policy.
    pub fn new() -> Self {
        FairSharePolicy
    }
}

impl ResourcePolicy for FairSharePolicy {
    fn name(&self) -> String {
        "NA".to_string()
    }

    fn initial_interval(&self) -> Option<SimDuration> {
        None
    }

    fn reconfigure_into(
        &mut self,
        _now: SimTime,
        _measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration> {
        updates.clear();
        None
    }

    fn on_pool_change(&mut self, _now: SimTime, _pool_ids: &[ContainerId]) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Static equal partition (ablation)
// ---------------------------------------------------------------------------

/// Hard `1/n` partitioning recomputed on every membership change — the
/// VM-style fixed allocation the paper argues against in §4.1.
#[derive(Debug, Clone, Default)]
pub struct StaticEqualPolicy {
    n: usize,
    ids: Vec<ContainerId>,
}

impl StaticEqualPolicy {
    /// A fresh static partitioner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResourcePolicy for StaticEqualPolicy {
    fn name(&self) -> String {
        "Static-1/n".to_string()
    }

    fn initial_interval(&self) -> Option<SimDuration> {
        None
    }

    fn reconfigure_into(
        &mut self,
        _now: SimTime,
        _measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration> {
        updates.clear();
        let share = if self.n == 0 {
            1.0
        } else {
            1.0 / self.n as f64
        };
        updates.extend(self.ids.iter().map(|&id| (id, share)));
        None
    }

    fn on_pool_change(&mut self, _now: SimTime, pool_ids: &[ContainerId]) -> bool {
        self.n = pool_ids.len();
        self.ids = pool_ids.to_vec();
        true
    }
}

// ---------------------------------------------------------------------------
// SLAQ-like quality-proportional policy (ablation)
// ---------------------------------------------------------------------------

/// Quality-driven proportional shares on a fixed interval, without FlowCon's
/// lists, lower bound, back-off or real-time listeners — approximating SLAQ,
/// which "fails to allocate the resources at real-time" (§6).
#[derive(Debug, Clone)]
pub struct QualityProportionalPolicy {
    interval: SimDuration,
    floor: f64,
}

impl QualityProportionalPolicy {
    /// Policy reconfiguring every `interval` with the given minimum share;
    /// panics on a zero `interval` (see [`checked_interval`]).
    pub fn new(interval: SimDuration, floor: f64) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "QualityProportionalPolicy's interval must be > 0"
        );
        QualityProportionalPolicy { interval, floor }
    }
}

impl ResourcePolicy for QualityProportionalPolicy {
    fn name(&self) -> String {
        format!("QualityProp-{}", self.interval.as_secs_f64().round() as u64)
    }

    fn initial_interval(&self) -> Option<SimDuration> {
        Some(self.interval)
    }

    fn reconfigure_into(
        &mut self,
        _now: SimTime,
        measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration> {
        updates.clear();
        let sum: f64 = measures.iter().filter_map(|m| m.growth()).sum();
        for m in measures {
            let limit = match m.growth() {
                Some(g) if sum > 0.0 => (g / sum).max(self.floor).min(1.0),
                _ => 1.0,
            };
            if (limit - m.cpu_limit).abs() > 1e-9 {
                updates.push((m.id, limit));
            }
        }
        Some(self.interval)
    }

    fn on_pool_change(&mut self, _now: SimTime, _pool_ids: &[ContainerId]) -> bool {
        false // no real-time reaction — the point of the comparison
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::ListKind;

    fn id(raw: u32) -> ContainerId {
        ContainerId::from_raw(raw)
    }

    /// One reconfiguration into a fresh buffer: the updates and the
    /// interval until the next one.
    fn decide(
        p: &mut dyn ResourcePolicy,
        now: SimTime,
        measures: &[GrowthMeasurement],
    ) -> (Vec<(ContainerId, f64)>, Option<SimDuration>) {
        let mut updates = Vec::new();
        let next = p.reconfigure_into(now, measures, &mut updates);
        (updates, next)
    }

    fn measure(raw: u32, growth: Option<f64>, limit: f64) -> GrowthMeasurement {
        GrowthMeasurement {
            id: id(raw),
            progress: growth.map(|g| g * 0.5),
            avg_usage: flowcon_sim::ResourceVec::cpu(0.5),
            cpu_limit: limit,
        }
    }

    #[test]
    fn flowcon_interrupts_on_pool_change_and_resets_interval() {
        let mut p = FlowConPolicy::new(FlowConConfig::with_params(0.05, 20));
        assert!(p.on_pool_change(SimTime::ZERO, &[id(1)]));
        assert_eq!(p.lists().kind_of(id(1)), Some(ListKind::New));
        // No change -> no interrupt.
        assert!(!p.on_pool_change(SimTime::from_secs(1), &[id(1)]));
    }

    #[test]
    fn flowcon_backoff_doubles_until_listener_resets() {
        let mut p = FlowConPolicy::new(FlowConConfig::with_params(0.05, 20));
        p.on_pool_change(SimTime::ZERO, &[id(1)]);
        // Two low measurements drive the lone container into CL, then the
        // all-CL branch doubles the interval on each subsequent run.
        let m = |g| vec![measure(1, Some(g), 1.0)];
        decide(&mut p, SimTime::from_secs(20), &m(0.01)); // NL -> WL
        assert_eq!(p.current_interval(), SimDuration::from_secs(20));
        decide(&mut p, SimTime::from_secs(40), &m(0.01)); // WL -> CL, all-CL
        assert_eq!(p.current_interval(), SimDuration::from_secs(40));
        decide(&mut p, SimTime::from_secs(80), &m(0.01));
        assert_eq!(p.current_interval(), SimDuration::from_secs(80));
        // A new container interrupts and resets.
        assert!(p.on_pool_change(SimTime::from_secs(90), &[id(1), id(2)]));
        assert_eq!(p.current_interval(), SimDuration::from_secs(20));
    }

    #[test]
    fn flowcon_decision_carries_current_interval() {
        let mut p = FlowConPolicy::new(FlowConConfig::with_params(0.05, 30));
        p.on_pool_change(SimTime::ZERO, &[id(1)]);
        let (_, next) = decide(
            &mut p,
            SimTime::from_secs(30),
            &[measure(1, Some(0.5), 1.0)],
        );
        assert_eq!(next, Some(SimDuration::from_secs(30)));
        assert_eq!(p.algorithm_runs(), 1);
    }

    #[test]
    #[should_panic(expected = "FlowConConfig::initial_interval must be > 0")]
    fn flowcon_rejects_a_zero_interval() {
        FlowConPolicy::new(FlowConConfig {
            initial_interval: SimDuration::ZERO,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "QualityProportionalPolicy's interval must be > 0")]
    fn quality_prop_rejects_a_zero_interval() {
        QualityProportionalPolicy::new(SimDuration::ZERO, 0.05);
    }

    #[test]
    fn na_policy_does_nothing() {
        let mut p = FairSharePolicy::new();
        assert_eq!(p.name(), "NA");
        assert_eq!(p.initial_interval(), None);
        assert!(!p.on_pool_change(SimTime::ZERO, &[id(1)]));
        let (updates, next) = decide(&mut p, SimTime::ZERO, &[measure(1, Some(0.5), 1.0)]);
        assert!(updates.is_empty());
        assert_eq!(next, None);
    }

    #[test]
    fn static_policy_partitions_equally() {
        let mut p = StaticEqualPolicy::new();
        assert!(p.on_pool_change(SimTime::ZERO, &[id(1), id(2), id(3), id(4)]));
        let (updates, _) = decide(&mut p, SimTime::ZERO, &[]);
        assert_eq!(updates.len(), 4);
        for (_, l) in updates {
            assert!((l - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn quality_prop_shares_proportional_with_floor() {
        let mut p = QualityProportionalPolicy::new(SimDuration::from_secs(30), 0.05);
        let (updates, _) = decide(
            &mut p,
            SimTime::ZERO,
            &[
                measure(1, Some(0.9), 1.0),
                measure(2, Some(0.1), 1.0),
                measure(3, Some(0.0), 1.0),
            ],
        );
        let get = |raw| updates.iter().find(|(i, _)| *i == id(raw)).unwrap().1;
        assert!((get(1) - 0.9).abs() < 1e-9);
        assert!((get(2) - 0.1).abs() < 1e-9);
        assert!((get(3) - 0.05).abs() < 1e-9, "floor binds");
        assert!(!p.on_pool_change(SimTime::ZERO, &[id(9)]), "not real-time");
    }
}
