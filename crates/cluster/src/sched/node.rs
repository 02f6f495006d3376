//! The pausable node-local FlowCon simulation driven by the scheduler's
//! quantum barriers.
//!
//! Each [`NodeSim`] is the worker simulation's node kernel
//! (`flowcon_core::kernel::NodeKernel`) advanced to barriers: instead of
//! an agenda draining a fixed plan, the node holds a fixed number of job
//! slots and exposes three verbs to the engine — `admit`, `preempt`, and
//! `advance_to(barrier)`.  Between barriers the kernel integrates the
//! node's fluid state (water-filling rates, contention efficiency) and
//! FlowCon ticks at its own cadence; only job arrival and departure are
//! externally driven.  Beside the kernel the node keeps what only the
//! scheduler reads: each slot's job id, model, arrival, placement time and
//! earlier service, its busy and live integrals, its completions and its
//! tracer fork.  The runs are not identical to the worker's, though: every
//! barrier splits the fluid integration, and each split advance draws
//! fresh measurement noise, so the noise FlowCon reads — and with it the
//! completions — differ from a dense run of the same jobs.
//!
//! `advance_to` is a pure function of the node's own state: no shared
//! memory, no RNG outside the node's private stream.  The engine advances
//! its nodes one after another on its own thread, and only the merge of
//! their trace events depends on that order.

use flowcon_container::ContainerId;
use flowcon_core::config::NodeConfig;
use flowcon_core::kernel::NodeKernel;
use flowcon_core::policy::{checked_interval, ResourcePolicy};
use flowcon_dl::{ModelId, ModelSpec};
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::{NoopTracer, Tracer};

use super::policy::RunningJobView;
use super::EngineJob;

/// A job completion observed by a node mid-quantum, at its exact time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCompletion {
    pub(crate) gid: u32,
    pub(crate) arrival: SimTime,
    pub(crate) finished: SimTime,
}

/// The scheduler's record of the job in one occupied slot; the slot index
/// is the container id the kernel and the node-local `ResourcePolicy`
/// see.
#[derive(Debug, Clone, Copy)]
struct Placed {
    gid: u32,
    model: ModelId,
    arrival: SimTime,
    placed_at: SimTime,
    /// The job's remaining work when it was placed here.
    rem_at_place: f64,
    /// Service attained in earlier placements.
    base_attained: f64,
}

impl Placed {
    /// Service attained across all placements, with `remaining` work left.
    fn attained(&self, remaining: f64) -> f64 {
        self.base_attained + (self.rem_at_place - remaining).max(0.0)
    }
}

/// One node of the scheduled cluster: a [`NodeKernel`] with one slot per
/// job the node may run, plus the node-local FlowCon policy, advanced
/// barrier-to-barrier by the engine.
///
/// Each node owns a **forked recorder** (`tracer`, forked from the run's
/// tracer).  It holds the node's events from the barrier's `admit` and
/// `preempt` calls and from its `advance_to`, and the engine drains it
/// right after the node advances, so those events follow the barrier's
/// engine records (placements, queue depth) in the merged timeline.
pub(crate) struct NodeSim<T: Tracer = NoopTracer> {
    kernel: NodeKernel,
    policy: Box<dyn ResourcePolicy>,
    /// Next node-local policy reconfiguration, if one is scheduled.
    next_tick: Option<SimTime>,
    /// One entry per slot: the job placed there, if any.
    placed: Vec<Option<Placed>>,
    /// ∫ allocated CPU rate dt (for utilization).
    pub(crate) busy_cpu_secs: f64,
    /// ∫ live jobs dt (for mean queue depth).
    pub(crate) live_job_secs: f64,
    /// Completions since the engine last drained them, in time order.
    pub(crate) completions: Vec<NodeCompletion>,
    /// Per-node flight recorder, drained by the engine at each barrier.
    pub(crate) tracer: T,
    /// This node's index, stamped into its trace events.
    trace_id: u32,
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
            kernel: NodeKernel::new(cfg),
            policy,
            next_tick: None,
            placed: vec![None; slots],
            busy_cpu_secs: 0.0,
            live_job_secs: 0.0,
            completions: Vec::new(),
            tracer,
            trace_id,
        }
    }

    pub(crate) fn slot_count(&self) -> usize {
        self.placed.len()
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.kernel.live().is_empty()
    }

    /// Policy rounds this node has run.
    pub(crate) fn algorithm_runs(&self) -> u64 {
        self.kernel.algorithm_runs()
    }

    /// Append one [`RunningJobView`] per occupied slot, in slot order.
    pub(crate) fn fill_views(&self, out: &mut Vec<RunningJobView>) {
        for &id in self.kernel.live() {
            let p = self.placed[id.index()].expect("live slots hold a placed job");
            out.push(RunningJobView {
                id: p.gid,
                attained_cpu_secs: p.attained(self.kernel.job(id).remaining_cpu_seconds()),
                placed_at: p.placed_at,
            });
        }
    }

    /// Admit `job` into the lowest free slot at the node's current time.
    ///
    /// Its `work_scale` is relative to the catalog spec (1.0 for a fresh
    /// job, the remaining fraction for a resumed one), and `attained`
    /// carries service from earlier placements.  Panics if the node is
    /// full — the engine validates placements before applying them.
    pub(crate) fn admit(&mut self, job: &EngineJob) {
        let idx = self
            .placed
            .iter()
            .position(Option::is_none)
            .expect("scheduler placed a job on a full node");
        let id = ContainerId::from_raw(idx as u32);
        // Same admission as the worker sim's: the ±3% work jitter models
        // checkpoint-restore noise on resume.
        let spec = ModelSpec::of(job.model).scaled_by(job.work_scale);
        self.kernel.admit(id, spec, String::new());
        let now = self.kernel.now();
        self.placed[idx] = Some(Placed {
            gid: job.id,
            model: job.model,
            arrival: job.arrival,
            placed_at: now,
            rem_at_place: self.kernel.job(id).remaining_cpu_seconds(),
            base_attained: job.attained,
        });
        let interrupt = self.policy.on_pool_change(now, self.kernel.live());
        if interrupt {
            self.reconfigure();
        } else if self.kernel.live().len() == 1 {
            self.next_tick = checked_interval(self.policy.initial_interval()).map(|d| now + d);
        }
    }

    /// Checkpoint a running job out of its slot and hand it back queued
    /// as of now: its remaining work as a fraction of the catalog total
    /// becomes its `work_scale`, and it keeps the service it attained.
    pub(crate) fn preempt(&mut self, gid: u32) -> EngineJob {
        let idx = self
            .placed
            .iter()
            .position(|p| p.is_some_and(|p| p.gid == gid))
            .expect("scheduler preempted a job this node does not run");
        let p = self.placed[idx]
            .take()
            .expect("slot occupancy checked above");
        let id = ContainerId::from_raw(idx as u32);
        let rem = self.kernel.job(id).remaining_cpu_seconds();
        let total = ModelSpec::of(p.model).total_work;
        let out = EngineJob {
            id: gid,
            model: p.model,
            arrival: p.arrival,
            work_scale: (rem / total).max(f64::MIN_POSITIVE),
            attained: p.attained(rem),
            queued_since: self.kernel.now(),
        };
        self.kernel.retire(id);
        self.pool_changed();
        out
    }

    /// Advance the kernel to `barrier`, stopping at each policy tick and
    /// each projected completion (reprojected at every stop), so jobs
    /// complete at their exact finish times and policy ticks run at their
    /// own cadence.  Pure in the node's own state.
    pub(crate) fn advance_to(&mut self, barrier: SimTime) {
        debug_assert!(barrier >= self.kernel.now(), "barrier in the past");
        while self.kernel.now() < barrier && !self.is_idle() {
            self.kernel.reshare(&mut self.tracer, self.trace_id);
            let mut target = barrier;
            if let Some(tick) = self.next_tick {
                target = target.min(tick);
            }
            if let Some(at) = self.kernel.next_completion() {
                target = target.min(at);
            }
            let live = self.kernel.live().len();
            let dt = self.kernel.step_to(target);
            if dt > 0.0 {
                for &rate in self.kernel.rates() {
                    self.busy_cpu_secs += rate * dt;
                }
                self.live_job_secs += live as f64 * dt;
            }
            let now = self.kernel.now();
            if !self.kernel.exited().is_empty() {
                for &(id, _) in self.kernel.exited() {
                    let p = self.placed[id.index()]
                        .take()
                        .expect("live slots hold a placed job");
                    self.completions.push(NodeCompletion {
                        gid: p.gid,
                        arrival: p.arrival,
                        finished: now,
                    });
                }
                self.kernel.release_exited();
                self.pool_changed();
            }
            if self.next_tick.is_some_and(|tick| tick <= now) && !self.is_idle() {
                self.reconfigure();
            }
        }
        // An idle node only moves its clock.
        self.kernel.step_to(barrier);
    }

    /// Tell the policy the pool changed: an emptied node drops its tick,
    /// and an interrupt reconfigures at once.
    fn pool_changed(&mut self) {
        let interrupt = self
            .policy
            .on_pool_change(self.kernel.now(), self.kernel.live());
        if self.is_idle() {
            self.next_tick = None;
        } else if interrupt {
            self.reconfigure();
        }
    }

    /// Run one node-local policy reconfiguration and reschedule its tick.
    fn reconfigure(&mut self) {
        let next = self
            .kernel
            .reconfigure(self.policy.as_mut(), &mut self.tracer, self.trace_id);
        self.next_tick = checked_interval(next).map(|d| self.kernel.now() + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_kind::PolicyKind;
    use flowcon_core::config::FlowConConfig;
    use flowcon_core::metric::GrowthMeasurement;
    use flowcon_dl::models::ALL_MODELS;
    use flowcon_sim::time::SimDuration;
    use proptest::prelude::*;

    /// A job of `model` arriving at `arrival`, never placed before.
    fn job(id: u32, model: ModelId, work_scale: f64, arrival: SimTime) -> EngineJob {
        EngineJob {
            id,
            model,
            arrival,
            work_scale,
            attained: 0.0,
            queued_since: arrival,
        }
    }

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
        sim.admit(&job(0, ModelId::MnistTorch, 0.05, SimTime::ZERO));
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
        sim.admit(&job(7, ModelId::MnistTorch, 1.0, SimTime::from_secs(3)));
        sim.advance_to(SimTime::from_secs(50));
        let p = sim.preempt(7);
        assert!(sim.is_idle());
        assert_eq!(p.arrival, SimTime::from_secs(3));
        assert!(p.attained > 0.0, "50 s of solo running attains service");
        assert!(p.work_scale > 0.0 && p.work_scale < 1.1);
        // Attained + remaining ≈ the jittered total (±3%).
        let total = ModelSpec::of(ModelId::MnistTorch).total_work;
        let recon = p.attained + p.work_scale * total;
        assert!(
            (recon / total - 1.0).abs() < 0.05,
            "recon={recon} total={total}"
        );
    }

    #[test]
    fn advance_is_deterministic_for_the_same_inputs() {
        let run = || {
            let mut sim = node(2);
            sim.admit(&job(0, ModelId::MnistTorch, 0.2, SimTime::ZERO));
            sim.admit(&job(1, ModelId::Vae, 0.1, SimTime::ZERO));
            sim.advance_to(SimTime::from_secs(200_000));
            (
                sim.completions
                    .iter()
                    .map(|c| (c.gid, c.finished))
                    .collect::<Vec<_>>(),
                sim.busy_cpu_secs.to_bits(),
                sim.algorithm_runs(),
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
                sim.admit(&job(0, ModelId::MnistTorch, 1.0, SimTime::ZERO));
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
        sim.kernel
            .live()
            .iter()
            .map(|&id| {
                let p = sim.placed[id.index()].expect("live slots hold a placed job");
                (p.gid, sim.kernel.job(id).remaining_cpu_seconds())
            })
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
            let mut parked: Vec<EngineJob> = Vec::new();
            for (op, pick, scale, secs) in ops {
                let now = sim.kernel.now();
                let full = sim.kernel.live().len() == sim.slot_count();
                match op {
                    0 if !full => {
                        let gid = placed_at.len() as u32;
                        let model = ALL_MODELS[pick % ALL_MODELS.len()];
                        sim.admit(&job(gid, model, scale, now));
                        placed_at.push(now);
                    }
                    1 if !sim.is_idle() => {
                        let running = remaining_by_gid(&sim);
                        let gid = running[pick % running.len()].0;
                        parked.push(sim.preempt(gid));
                    }
                    2 if !full && !parked.is_empty() => {
                        let job = parked.swap_remove(pick % parked.len());
                        let gid = job.id;
                        sim.admit(&job);
                        placed_at[gid as usize] = now;
                        let mut views = Vec::new();
                        sim.fill_views(&mut views);
                        let view = views.iter().find(|v| v.id == gid).expect("resumed job runs");
                        prop_assert_eq!(
                            view.attained_cpu_secs.to_bits(),
                            job.attained.to_bits(),
                            "job {} resumed with {} cpu-s attained, preempted with {}",
                            gid,
                            view.attained_cpu_secs,
                            job.attained
                        );
                    }
                    _ => {
                        let before = remaining_by_gid(&sim);
                        sim.completions.clear();
                        let end = now + SimDuration::from_secs(secs);
                        sim.advance_to(end);
                        for (gid, left) in remaining_by_gid(&sim) {
                            if let Some(&(_, had)) = before.iter().find(|&&(g, _)| g == gid) {
                                prop_assert!(left <= had, "job {} grew from {} to {}", gid, had, left);
                            }
                        }
                        for c in &sim.completions {
                            prop_assert!(
                                c.finished >= placed_at[c.gid as usize] && c.finished <= end,
                                "job {} completed at {} outside [{}, {}]",
                                c.gid,
                                c.finished,
                                placed_at[c.gid as usize],
                                end
                            );
                        }
                    }
                }
                let ceiling = capacity * sim.kernel.now().as_secs_f64();
                prop_assert!(
                    sim.busy_cpu_secs <= ceiling * (1.0 + 1e-12),
                    "{} busy cpu-s over {} s on capacity {}",
                    sim.busy_cpu_secs,
                    sim.kernel.now().as_secs_f64(),
                    capacity
                );
            }
        }
    }
}
