//! The pausable node-local FlowCon simulation driven by the scheduler's
//! quantum barriers.
//!
//! Each [`NodeSim`] is the dense worker sim
//! (`flowcon_core::dense`) reshaped for *online* control: instead of an
//! agenda draining a fixed plan, the node holds a small slot arena
//! of running jobs and exposes three verbs to the engine — `admit`,
//! `preempt`, and `advance_to(barrier)`.  Between barriers the node
//! integrates its fluid state with the dense path's equations
//! (water-filling rates, contention efficiency, FlowCon policy ticks at
//! their own cadence); only job arrival and departure are externally
//! driven.  The runs are not identical, though: every barrier splits the
//! fluid integration, and each split advance draws fresh measurement
//! noise, so the noise FlowCon reads — and with it the completions —
//! differ from a dense run of the same jobs.
//!
//! `advance_to` is a pure function of the node's own state: no shared
//! memory, no RNG outside the node's private stream.  That is what makes
//! the engine's sequential and sharded advance modes bit-identical
//! (pinned by `crates/cluster/tests/sched_determinism.rs`).

use flowcon_container::{ContainerId, ResourceLimits};
use flowcon_core::config::NodeConfig;
use flowcon_core::metric::GrowthMeasurement;
use flowcon_core::monitor::MonitorSlot;
use flowcon_core::policy::{checked_interval, ResourcePolicy};
use flowcon_dl::{ModelId, ModelSpec, TrainingJob};
use flowcon_sim::alloc::NodeShares;
use flowcon_sim::rng::SimRng;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{NoopTracer, TraceKind, Tracer};
use flowcon_sim::{ResourceKind, ResourceVec};

use super::policy::RunningJobView;

/// Remaining work at or below this is "finished" — keeps the inner
/// advance loop from chasing femtosecond tails.
const EPS_REMAINING: f64 = 1e-9;

/// A job completion observed by a node mid-quantum, at its exact time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCompletion {
    pub(crate) gid: u32,
    pub(crate) arrival: SimTime,
    pub(crate) finished: SimTime,
}

/// What `preempt` hands back to the engine: enough to requeue and later
/// resume the job elsewhere.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreemptedJob {
    pub(crate) model: ModelId,
    /// Remaining work as a fraction of the catalog total (becomes the
    /// resumed job's `work_scale`).
    pub(crate) remaining_scale: f64,
    /// Total effective CPU-seconds attained across all placements.
    pub(crate) attained_cpu_secs: f64,
    /// Original submission time.
    pub(crate) arrival: SimTime,
}

/// One occupied job slot.  The slot index is the container id the
/// node-local `ResourcePolicy` sees.
#[derive(Debug)]
struct Slot {
    gid: u32,
    model: ModelId,
    job: TrainingJob,
    limits: ResourceLimits,
    arrival: SimTime,
    placed_at: SimTime,
    rem_at_place: f64,
    base_attained: f64,
    cumulative: ResourceVec,
    /// The Container Monitor's state for this job.
    mon: MonitorSlot,
}

impl Slot {
    fn remaining(&self) -> f64 {
        self.job.remaining_cpu_seconds()
    }

    fn attained(&self) -> f64 {
        self.base_attained + (self.rem_at_place - self.remaining()).max(0.0)
    }
}

/// One node of the scheduled cluster: slot arena + node-local FlowCon
/// policy + private RNG, advanced barrier-to-barrier by the engine.
///
/// Each node owns a **per-shard flight recorder** (`tracer`, forked from
/// the run's tracer): node-local events recorded during a parallel
/// `advance_to` are a pure function of the node's own state, and the
/// engine drains them back in node-index order at every barrier — which
/// is why sharded and sequential traced runs merge to identical
/// sequences.
pub(crate) struct NodeSim<T: Tracer = NoopTracer> {
    cfg: NodeConfig,
    policy: Box<dyn ResourcePolicy>,
    rng: SimRng,
    now: SimTime,
    /// Next node-local policy reconfiguration, if one is scheduled.
    next_tick: Option<SimTime>,
    slots: Vec<Option<Slot>>,
    live: usize,
    /// ∫ allocated CPU rate dt (for utilization).
    pub(crate) busy_cpu_secs: f64,
    /// ∫ live jobs dt (for mean queue depth).
    pub(crate) live_job_secs: f64,
    pub(crate) algorithm_runs: u64,
    pub(crate) update_calls: u64,
    /// Completions since the engine last drained them, in time order.
    pub(crate) completions: Vec<NodeCompletion>,
    /// Per-node flight recorder, drained by the engine at each barrier.
    pub(crate) tracer: T,
    /// This node's index, stamped into its trace events.
    trace_id: u32,
    /// Cumulative water-filling invocations (trace counter payload).
    waterfill_runs: u64,
    // Recycled hot-path buffers.
    /// Occupied slot indices, aligned with `shares`.
    order: Vec<usize>,
    shares: NodeShares,
    measures: Vec<GrowthMeasurement>,
    pool_ids: Vec<ContainerId>,
    updates: Vec<(ContainerId, f64)>,
}

impl<T: Tracer> NodeSim<T> {
    pub(crate) fn new(
        cfg: NodeConfig,
        policy: Box<dyn ResourcePolicy>,
        slots: usize,
        tracer: T,
        trace_id: u32,
    ) -> Self {
        assert!(slots > 0, "a node needs at least one job slot");
        cfg.assert_usable_capacity();
        Self {
            cfg,
            policy,
            rng: SimRng::new(cfg.seed),
            now: SimTime::ZERO,
            next_tick: None,
            slots: (0..slots).map(|_| None).collect(),
            live: 0,
            busy_cpu_secs: 0.0,
            live_job_secs: 0.0,
            algorithm_runs: 0,
            update_calls: 0,
            completions: Vec::new(),
            tracer,
            trace_id,
            waterfill_runs: 0,
            order: Vec::new(),
            shares: NodeShares::new(),
            measures: Vec::new(),
            pool_ids: Vec::new(),
            updates: Vec::new(),
        }
    }

    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.live == 0
    }

    /// Append one [`RunningJobView`] per occupied slot, in slot order.
    pub(crate) fn fill_views(&self, out: &mut Vec<RunningJobView>) {
        for slot in self.slots.iter().flatten() {
            out.push(RunningJobView {
                id: slot.gid,
                attained_cpu_secs: slot.attained(),
                placed_at: slot.placed_at,
            });
        }
    }

    /// Admit a job into the lowest free slot at the node's current time.
    ///
    /// `work_scale` is relative to the catalog spec (1.0 for a fresh
    /// job, the remaining fraction for a resumed one); `base_attained`
    /// carries service from earlier placements.  Panics if the node is
    /// full — the engine validates placements before applying them.
    pub(crate) fn admit(
        &mut self,
        gid: u32,
        model: ModelId,
        work_scale: f64,
        arrival: SimTime,
        base_attained: f64,
    ) {
        let now = self.now;
        let idx = self
            .slots
            .iter()
            .position(|s| s.is_none())
            .expect("scheduler placed a job on a full node");
        let spec = ModelSpec::of(model).scaled_by(work_scale);
        // Same RNG protocol as the worker sim's admission: the ±3% work
        // jitter models checkpoint-restore noise on resume.
        let job = TrainingJob::with_label(spec, String::new(), &mut self.rng);
        let rem = job.remaining_cpu_seconds();
        self.slots[idx] = Some(Slot {
            gid,
            model,
            job,
            limits: ResourceLimits::unlimited(),
            arrival,
            placed_at: now,
            rem_at_place: rem,
            base_attained,
            cumulative: ResourceVec::ZERO,
            mon: MonitorSlot::UNTRACKED,
        });
        self.live += 1;

        self.rebuild_pool_ids();
        let pool_ids = std::mem::take(&mut self.pool_ids);
        let interrupt = self.policy.on_pool_change(now, &pool_ids);
        self.pool_ids = pool_ids;
        if interrupt {
            self.reconfigure(now);
        } else if self.live == 1 {
            self.next_tick = checked_interval(self.policy.initial_interval()).map(|d| now + d);
        }
    }

    /// Checkpoint a running job out of its slot.
    pub(crate) fn preempt(&mut self, gid: u32) -> PreemptedJob {
        let now = self.now;
        let idx = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.gid == gid))
            .expect("scheduler preempted a job this node does not run");
        let slot = self.slots[idx]
            .take()
            .expect("slot occupancy checked above");
        self.live -= 1;

        let rem = slot.remaining();
        let total = ModelSpec::of(slot.model).total_work;
        let out = PreemptedJob {
            model: slot.model,
            remaining_scale: (rem / total).max(f64::MIN_POSITIVE),
            attained_cpu_secs: slot.attained(),
            arrival: slot.arrival,
        };

        self.rebuild_pool_ids();
        let pool_ids = std::mem::take(&mut self.pool_ids);
        let interrupt = self.policy.on_pool_change(now, &pool_ids);
        self.pool_ids = pool_ids;
        if self.live == 0 {
            self.next_tick = None;
        } else if interrupt {
            self.reconfigure(now);
        }
        out
    }

    /// Integrate the node's fluid state forward to `barrier`, completing
    /// jobs at their exact finish times and running policy ticks at
    /// their own cadence.  Pure in the node's own state.
    pub(crate) fn advance_to(&mut self, barrier: SimTime) {
        debug_assert!(barrier >= self.now, "barrier in the past");
        while self.now < barrier {
            if self.live == 0 {
                break;
            }
            self.recompute_rates();

            // Next stop: the barrier, the policy tick, or the earliest
            // projected completion (with the worker sim's 1 µs margin so
            // integration strictly crosses the finish line).
            let mut target = barrier;
            if let Some(tick) = self.next_tick {
                if tick < target {
                    target = tick;
                }
            }
            let window = barrier.saturating_since(self.now).as_secs_f64();
            let mut eta_best: Option<f64> = None;
            for (k, &idx) in self.order.iter().enumerate() {
                let slot = self.slots[idx]
                    .as_ref()
                    .expect("order tracks occupied slots");
                let speed = self.shares.rates()[k] * self.shares.efficiencies()[k];
                if speed > 1e-12 {
                    let eta = slot.remaining() / speed;
                    eta_best = Some(eta_best.map_or(eta, |b: f64| b.min(eta)));
                }
            }
            if let Some(eta) = eta_best {
                if eta <= window {
                    let at =
                        self.now + SimDuration::from_secs_f64(eta) + SimDuration::from_micros(1);
                    if at < target {
                        target = at;
                    }
                }
            }

            let dt = target.saturating_since(self.now).as_secs_f64();
            if dt > 0.0 {
                for (k, &idx) in self.order.iter().enumerate() {
                    let rate = self.shares.rates()[k];
                    let eff = self.shares.efficiencies()[k];
                    let slot = self.slots[idx]
                        .as_mut()
                        .expect("order tracks occupied slots");
                    let mut usage = slot.job.footprint();
                    usage.set(ResourceKind::Cpu, rate);
                    slot.cumulative += usage.scale(dt);
                    slot.job.advance(rate * eff * dt);
                    self.busy_cpu_secs += rate * dt;
                }
                self.live_job_secs += self.live as f64 * dt;
            }
            self.now = target;

            // Collect exact-time completions.
            let mut exited = false;
            for idx in 0..self.slots.len() {
                let done = self.slots[idx]
                    .as_ref()
                    .is_some_and(|s| s.remaining() <= EPS_REMAINING);
                if done {
                    let slot = self.slots[idx].take().expect("occupancy checked above");
                    self.live -= 1;
                    exited = true;
                    self.completions.push(NodeCompletion {
                        gid: slot.gid,
                        arrival: slot.arrival,
                        finished: self.now,
                    });
                }
            }
            if exited {
                self.rebuild_pool_ids();
                let pool_ids = std::mem::take(&mut self.pool_ids);
                let interrupt = self.policy.on_pool_change(self.now, &pool_ids);
                self.pool_ids = pool_ids;
                if self.live == 0 {
                    self.next_tick = None;
                } else if interrupt {
                    self.reconfigure(self.now);
                }
            }
            if self.next_tick.is_some_and(|tick| tick <= self.now) && self.live > 0 {
                self.reconfigure(self.now);
            }
        }
        self.now = barrier;
    }

    /// Share the node capacity over the occupied slots by the dense
    /// worker path's node-share rule ([`NodeShares`]).
    fn recompute_rates(&mut self) {
        self.waterfill_runs += 1;
        if T::ENABLED {
            self.tracer.counter(
                self.now,
                TraceKind::Waterfill,
                self.trace_id,
                self.waterfill_runs as f64,
            );
        }
        self.order.clear();
        self.order
            .extend((0..self.slots.len()).filter(|&idx| self.slots[idx].is_some()));
        let slots = &self.slots;
        self.shares.recompute(
            self.cfg.capacity,
            &self.cfg.contention,
            self.order.iter().map(|&idx| {
                let slot = slots[idx].as_ref().expect("order tracks occupied slots");
                (slot.limits.cpu_limit(), slot.job.demand())
            }),
        );
    }

    fn rebuild_pool_ids(&mut self) {
        self.pool_ids.clear();
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.is_some() {
                self.pool_ids.push(ContainerId::from_raw(idx as u32));
            }
        }
    }

    /// Measure every running job through its Container Monitor slot, in
    /// slot order.
    fn measure_into(&mut self, now: SimTime) {
        self.measures.clear();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else {
                continue;
            };
            self.measures.push(slot.mon.measure(
                ContainerId::from_raw(idx as u32),
                now,
                slot.job.eval(),
                slot.cumulative,
                slot.limits.cpu_limit(),
            ));
        }
    }

    /// Run one node-local policy reconfiguration and reschedule its tick.
    fn reconfigure(&mut self, now: SimTime) {
        if T::ENABLED {
            self.tracer
                .span_begin(now, TraceKind::Reconfigure, self.live as u32, self.trace_id);
        }
        self.measure_into(now);
        self.updates.clear();
        let measures = std::mem::take(&mut self.measures);
        let mut updates = std::mem::take(&mut self.updates);
        let next = self.policy.reconfigure_into(now, &measures, &mut updates);
        self.algorithm_runs += 1;
        for &(id, limit) in updates.iter() {
            let idx = id.index();
            if idx < self.slots.len() {
                if let Some(slot) = self.slots[idx].as_mut() {
                    slot.limits.set(ResourceKind::Cpu, limit);
                    self.update_calls += 1;
                }
            }
        }
        self.measures = measures;
        self.updates = updates;
        self.next_tick = checked_interval(next).map(|d| now + d);
        if T::ENABLED {
            self.tracer
                .span_end(now, TraceKind::Reconfigure, self.live as u32, self.trace_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_kind::PolicyKind;
    use flowcon_core::config::FlowConConfig;
    use flowcon_dl::models::ALL_MODELS;
    use proptest::prelude::*;

    fn node(slots: usize) -> NodeSim {
        NodeSim::new(
            NodeConfig::default().with_seed(0xF10C),
            PolicyKind::FlowCon(FlowConConfig::default()).build(),
            slots,
            NoopTracer,
            0,
        )
    }

    #[test]
    fn an_admitted_job_runs_to_completion_mid_quantum() {
        let mut sim = node(2);
        sim.admit(0, ModelId::MnistTorch, 0.05, SimTime::ZERO, 0.0);
        assert!(!sim.is_idle());
        // A heavily scaled-down job finishes well inside a huge barrier.
        sim.advance_to(SimTime::from_secs(100_000));
        assert!(sim.is_idle());
        assert_eq!(sim.completions.len(), 1);
        let c = sim.completions[0];
        assert_eq!(c.gid, 0);
        assert!(c.finished > SimTime::ZERO);
        assert!(c.finished < SimTime::from_secs(100_000));
        assert!(sim.busy_cpu_secs > 0.0);
    }

    #[test]
    fn preempt_returns_remaining_work_and_attained_service() {
        let mut sim = node(1);
        sim.admit(7, ModelId::MnistTorch, 1.0, SimTime::from_secs(3), 0.0);
        sim.advance_to(SimTime::from_secs(50));
        let p = sim.preempt(7);
        assert!(sim.is_idle());
        assert_eq!(p.arrival, SimTime::from_secs(3));
        assert!(
            p.attained_cpu_secs > 0.0,
            "50 s of solo running attains service"
        );
        assert!(p.remaining_scale > 0.0 && p.remaining_scale < 1.1);
        // Attained + remaining ≈ the jittered total (±3%).
        let total = ModelSpec::of(ModelId::MnistTorch).total_work;
        let recon = p.attained_cpu_secs + p.remaining_scale * total;
        assert!(
            (recon / total - 1.0).abs() < 0.05,
            "recon={recon} total={total}"
        );
    }

    #[test]
    fn advance_is_deterministic_for_the_same_inputs() {
        let run = || {
            let mut sim = node(2);
            sim.admit(0, ModelId::MnistTorch, 0.2, SimTime::ZERO, 0.0);
            sim.admit(1, ModelId::Vae, 0.1, SimTime::ZERO, 0.0);
            sim.advance_to(SimTime::from_secs(200_000));
            (
                sim.completions
                    .iter()
                    .map(|c| (c.gid, c.finished))
                    .collect::<Vec<_>>(),
                sim.busy_cpu_secs.to_bits(),
                sim.algorithm_runs,
            )
        };
        assert_eq!(run(), run());
    }

    /// Ticks first after `first`, then asks for a zero interval.
    struct ZeroTick {
        first: SimDuration,
    }

    impl ResourcePolicy for ZeroTick {
        fn name(&self) -> String {
            "ZeroTick".to_string()
        }

        fn initial_interval(&self) -> Option<SimDuration> {
            Some(self.first)
        }

        fn reconfigure_into(
            &mut self,
            _now: SimTime,
            _measures: &[GrowthMeasurement],
            updates: &mut Vec<(ContainerId, f64)>,
        ) -> Option<SimDuration> {
            updates.clear();
            Some(SimDuration::ZERO)
        }

        fn on_pool_change(&mut self, _now: SimTime, _pool_ids: &[ContainerId]) -> bool {
            false
        }
    }

    /// The message `run` panics with.
    fn panic_message(run: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("a zero policy interval must stop the run");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn a_zero_policy_interval_fails_alike_on_both_node_paths() {
        use flowcon_core::dense::{run_headless_dense, DenseScratch, QueueKind};
        use flowcon_dl::workload::WorkloadPlan;

        // Zero from the start, and zero after a first regular tick.
        for first in [SimDuration::ZERO, SimDuration::from_secs(10)] {
            let plan = WorkloadPlan::random_n(2, 1);
            let worker = panic_message(|| {
                run_headless_dense(
                    NodeConfig::default(),
                    &plan.jobs,
                    Box::new(ZeroTick { first }),
                    QueueKind::Heap,
                    &mut DenseScratch::new(),
                );
            });
            let scheduled = panic_message(|| {
                let mut sim: NodeSim = NodeSim::new(
                    NodeConfig::default(),
                    Box::new(ZeroTick { first }),
                    2,
                    NoopTracer,
                    0,
                );
                sim.admit(0, ModelId::MnistTorch, 1.0, SimTime::ZERO, 0.0);
                sim.advance_to(SimTime::from_secs(100_000));
            });
            assert!(
                worker.contains("a policy returned a zero reconfiguration interval"),
                "first tick after {first:?}: {worker}"
            );
            assert_eq!(worker, scheduled, "first tick after {first:?}");
        }
    }

    #[test]
    fn idle_advance_is_a_no_op() {
        let mut sim = node(2);
        sim.advance_to(SimTime::from_secs(500));
        assert!(sim.is_idle());
        assert_eq!(sim.busy_cpu_secs, 0.0);
        assert!(sim.completions.is_empty());
    }

    /// `(gid, remaining work)` of every running job, in slot order.
    fn remaining_by_gid<T: Tracer>(sim: &NodeSim<T>) -> Vec<(u32, f64)> {
        sim.slots
            .iter()
            .flatten()
            .map(|s| (s.gid, s.remaining()))
            .collect()
    }

    proptest! {
        /// The node's physics on random admit / preempt / resume / advance
        /// sequences: the allocated rates never exceed the capacity, work
        /// only ever shrinks, a resumed job keeps exactly the service it
        /// was preempted with, and no job completes before its placement.
        #[test]
        fn node_physics_hold_under_random_schedules(
            capacity in 0.25f64..4.0,
            slots in 1usize..5,
            flowcon in 0u8..2,
            ops in prop::collection::vec((0u8..4, 0usize..64, 0.05f64..1.0, 1u64..400), 1..48),
        ) {
            let cfg = NodeConfig { capacity, ..NodeConfig::default() };
            let policy = if flowcon == 1 {
                PolicyKind::FlowCon(FlowConConfig::default())
            } else {
                PolicyKind::Baseline
            };
            let mut sim = NodeSim::new(cfg, policy.build(), slots, NoopTracer, 0);
            // Latest placement time per gid, and the preempted jobs
            // waiting to resume.
            let mut placed_at: Vec<SimTime> = Vec::new();
            let mut parked: Vec<(u32, PreemptedJob)> = Vec::new();
            for (op, pick, scale, secs) in ops {
                let full = sim.live == sim.slot_count();
                match op {
                    0 if !full => {
                        let gid = placed_at.len() as u32;
                        let model = ALL_MODELS[pick % ALL_MODELS.len()];
                        sim.admit(gid, model, scale, sim.now, 0.0);
                        placed_at.push(sim.now);
                    }
                    1 if !sim.is_idle() => {
                        let running = remaining_by_gid(&sim);
                        let gid = running[pick % running.len()].0;
                        parked.push((gid, sim.preempt(gid)));
                    }
                    2 if !full && !parked.is_empty() => {
                        let (gid, job) = parked.swap_remove(pick % parked.len());
                        sim.admit(
                            gid,
                            job.model,
                            job.remaining_scale,
                            job.arrival,
                            job.attained_cpu_secs,
                        );
                        placed_at[gid as usize] = sim.now;
                        let mut views = Vec::new();
                        sim.fill_views(&mut views);
                        let view = views.iter().find(|v| v.id == gid).expect("resumed job runs");
                        prop_assert_eq!(
                            view.attained_cpu_secs.to_bits(),
                            job.attained_cpu_secs.to_bits(),
                            "job {} resumed with {} cpu-s attained, preempted with {}",
                            gid,
                            view.attained_cpu_secs,
                            job.attained_cpu_secs
                        );
                    }
                    _ => {
                        let before = remaining_by_gid(&sim);
                        sim.completions.clear();
                        sim.advance_to(sim.now + SimDuration::from_secs(secs));
                        for (gid, left) in remaining_by_gid(&sim) {
                            if let Some(&(_, had)) = before.iter().find(|&&(g, _)| g == gid) {
                                prop_assert!(left <= had, "job {} grew from {} to {}", gid, had, left);
                            }
                        }
                        for c in &sim.completions {
                            prop_assert!(
                                c.finished >= placed_at[c.gid as usize] && c.finished <= sim.now,
                                "job {} completed at {} outside [{}, {}]",
                                c.gid,
                                c.finished,
                                placed_at[c.gid as usize],
                                sim.now
                            );
                        }
                    }
                }
                let ceiling = capacity * sim.now.as_secs_f64();
                prop_assert!(
                    sim.busy_cpu_secs <= ceiling * (1.0 + 1e-12),
                    "{} busy cpu-s over {} s on capacity {}",
                    sim.busy_cpu_secs,
                    sim.now.as_secs_f64(),
                    capacity
                );
            }
        }
    }
}
