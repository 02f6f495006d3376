//! The node kernel: one node's physics, shared by both node drivers.
//!
//! A [`NodeKernel`] holds a node's fluid state and every rule that moves
//! it: the job arena, the ascending live list, the node shares, the fluid
//! step, the completion projection, the Container Monitor's column and
//! Algorithm 1's measure → decide → `docker update` round.  The worker
//! simulation ([`crate::dense`]) steps it from event to event of its
//! agenda; the cluster scheduler's `NodeSim` steps it from stop to stop
//! between quantum barriers.  Neither computes a rate, moves work or
//! measures a container itself.  They still read different noise for the
//! same jobs: every barrier splits the integration, and each split advance
//! draws fresh measurement noise.
//!
//! Container ids are array indices, and the driver picks each: the worker
//! admits at the arena's end ([`NodeKernel::fresh_id`]), the scheduled
//! node at its lowest vacated slot, because FlowCon's lists iterate in id
//! order.  A job that leaves keeps its slot, not runnable, until an
//! admission overwrites it.
//!
//! The rates of the last reshare stay aligned with the live list *as it
//! was then*: a job that has left keeps its entry (the step skips it)
//! until the next reshare, which recomputes only when the live list or a
//! limit changed.  Reusing a vacated slot drops them, so no job runs at its
//! predecessor's rate.  Admissions, measurements and the projection all
//! happen at the kernel's clock, the time its fluid state describes.

use flowcon_container::{ContainerId, ResourceLimits};
use flowcon_dl::models::ModelSpec;
use flowcon_dl::TrainingJob;
use flowcon_sim::alloc::NodeShares;
use flowcon_sim::contention::ContentionModel;
use flowcon_sim::rng::SimRng;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{TraceKind, Tracer};
use flowcon_sim::{ResourceKind, ResourceVec};

use crate::config::NodeConfig;
use crate::metric::GrowthMeasurement;
use crate::monitor::MonitorSlot;
use crate::policy::ResourcePolicy;

/// One container's POD record: creation time, soft limits, the
/// resource-time integral the monitor reads, and pool membership.  Kept
/// `Copy` and small on purpose — `slot_records_stay_pod` asserts its size
/// so a refactor cannot silently fatten the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContainerSlot {
    created_at: SimTime,
    /// Soft limits, set by `docker update`-style policy decisions.
    limits: ResourceLimits,
    /// The monitor's usage source.
    cumulative: ResourceVec,
    /// Still in the pool; cleared when the job leaves.
    runnable: bool,
}

/// What one [`NodeKernel::step_to`] integrated.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The step's length in seconds.
    pub dt: f64,
    /// The summed CPU rate of the jobs it advanced: those live at its
    /// start, in the order of the last reshare.  Zero for a step of no
    /// length.
    pub cpu: f64,
    /// How many jobs it advanced.
    pub jobs: usize,
}

/// One node's fluid state and the rules that move it (see the module
/// docs).
#[derive(Debug)]
pub struct NodeKernel {
    capacity: f64,
    contention: ContentionModel,
    /// Each admitted job splits its own noise stream off it.
    rng: SimRng,
    /// The time the fluid state describes.
    now: SimTime,
    /// Job arena: index == container id.
    jobs: Vec<TrainingJob>,
    /// Container records, parallel to `jobs`.
    slots: Vec<ContainerSlot>,
    /// The policy monitor's column, parallel to `jobs`.
    mons: Vec<MonitorSlot>,
    /// Ids of the runnable slots, ascending.
    live: Vec<ContainerId>,
    exited: Vec<(ContainerId, i32)>,
    /// The live list as of the last reshare, aligned with `shares`.
    rate_ids: Vec<ContainerId>,
    shares: NodeShares,
    /// The live list or a limit changed since the last reshare.
    stale: bool,
    /// The policy round's recycled buffers.
    measures: Vec<GrowthMeasurement>,
    updates: Vec<(ContainerId, f64)>,
    algorithm_runs: u64,
    /// Limit updates applied to live jobs.
    update_calls: u64,
    /// Reshares requested (the [`TraceKind::Waterfill`] counter).
    waterfill_runs: u64,
}

impl Default for NodeKernel {
    fn default() -> Self {
        NodeKernel::new(NodeConfig::default())
    }
}

impl NodeKernel {
    /// An empty kernel of `node` at time zero.
    pub fn new(node: NodeConfig) -> Self {
        NodeKernel {
            capacity: node.capacity,
            contention: node.contention,
            rng: SimRng::new(node.seed),
            now: SimTime::ZERO,
            jobs: Vec::new(),
            slots: Vec::new(),
            mons: Vec::new(),
            live: Vec::new(),
            exited: Vec::new(),
            rate_ids: Vec::new(),
            shares: NodeShares::new(),
            stale: true,
            measures: Vec::new(),
            updates: Vec::new(),
            algorithm_runs: 0,
            update_calls: 0,
            waterfill_runs: 0,
        }
    }

    /// Empty the kernel for a fresh run of `node` (capacities kept), with
    /// room for `max_jobs` containers.
    pub fn reset(&mut self, node: NodeConfig, max_jobs: usize) {
        fn recycled<T>(buffer: &mut Vec<T>, n: usize) -> Vec<T> {
            let mut buffer = std::mem::take(buffer);
            buffer.clear();
            buffer.reserve(n);
            buffer
        }
        let mut shares = std::mem::take(&mut self.shares);
        shares.clear();
        shares.reserve(max_jobs);
        *self = NodeKernel {
            jobs: recycled(&mut self.jobs, max_jobs),
            slots: recycled(&mut self.slots, max_jobs),
            mons: recycled(&mut self.mons, max_jobs),
            live: recycled(&mut self.live, max_jobs),
            exited: recycled(&mut self.exited, max_jobs),
            rate_ids: recycled(&mut self.rate_ids, max_jobs),
            shares,
            measures: recycled(&mut self.measures, max_jobs),
            updates: recycled(&mut self.updates, max_jobs),
            ..NodeKernel::new(node)
        };
    }

    /// The time the fluid state describes.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The live jobs' ids, ascending: the pool a policy sees.
    pub fn live(&self) -> &[ContainerId] {
        &self.live
    }

    /// The job in slot `id` (live or not).
    pub fn job(&self, id: ContainerId) -> &TrainingJob {
        &self.jobs[id.index()]
    }

    /// When the job in slot `id` was admitted.
    pub fn created_at(&self, id: ContainerId) -> SimTime {
        self.slots[id.index()].created_at
    }

    /// The id one past the arena's end, where an admission grows it.
    pub fn fresh_id(&self) -> ContainerId {
        ContainerId::from_raw(self.jobs.len() as u32)
    }

    /// Policy rounds run so far.
    pub fn algorithm_runs(&self) -> u64 {
        self.algorithm_runs
    }

    /// Limit updates applied so far.
    pub fn update_calls(&self) -> u64 {
        self.update_calls
    }

    /// Admit a job of `spec` as container `id` at the kernel's clock, with
    /// no limits.  `id` is either [`NodeKernel::fresh_id`] or a slot whose
    /// job has left.
    #[inline]
    pub fn admit(&mut self, id: ContainerId, spec: ModelSpec, label: String) {
        let job = TrainingJob::with_label(spec, label, &mut self.rng);
        let slot = ContainerSlot {
            created_at: self.now,
            limits: ResourceLimits::unlimited(),
            cumulative: ResourceVec::ZERO,
            runnable: true,
        };
        let i = id.index();
        if i == self.jobs.len() {
            self.jobs.push(job);
            self.slots.push(slot);
            self.mons.push(MonitorSlot::UNTRACKED);
        } else {
            assert!(!self.slots[i].runnable, "container {id} is still live");
            self.jobs[i] = job;
            self.slots[i] = slot;
            self.mons[i] = MonitorSlot::UNTRACKED;
            // The slot's last rate belonged to the job that left it: drop
            // the shares, so nothing runs until the next reshare.
            self.rate_ids.clear();
            self.shares.clear();
        }
        match self.live.last() {
            Some(&last) if last > id => {
                let at = self.live.partition_point(|&l| l < id);
                self.live.insert(at, id);
            }
            _ => self.live.push(id),
        }
        self.stale = true;
    }

    /// Take live container `id` off the node (a preemption).
    pub fn retire(&mut self, id: ContainerId) {
        let at = self
            .live
            .binary_search(&id)
            .unwrap_or_else(|_| panic!("container {id} is not live"));
        self.live.remove(at);
        let i = id.index();
        self.slots[i].runnable = false;
        self.mons[i].forget();
        self.stale = true;
    }

    /// Crash live container `id` with exit `code`: it becomes the only
    /// pending exit.
    pub fn crash(&mut self, id: ContainerId, code: i32) {
        let i = id.index();
        let job = &mut self.jobs[i];
        job.inject_failure(code);
        let code = job.status().exit_code().expect("a crashed job has exited");
        self.slots[i].runnable = false;
        self.exited.clear();
        self.exited.push((id, code));
    }

    /// `(id, exit code)` of the jobs that left in the last step (or
    /// crash), in live order, still listed live until
    /// [`NodeKernel::release_exited`].
    pub fn exited(&self) -> &[(ContainerId, i32)] {
        &self.exited
    }

    /// Take the exited jobs off the live list and forget their monitor
    /// state.
    #[inline]
    pub fn release_exited(&mut self) {
        if self.exited.is_empty() {
            return;
        }
        for &(id, _) in &self.exited {
            self.mons[id.index()].forget();
        }
        self.exited.clear();
        let slots = &self.slots;
        self.live.retain(|id| slots[id.index()].runnable);
        self.stale = true;
    }

    /// Share the capacity over the live list by the node-share rule
    /// ([`NodeShares`], Docker-style soft limits) if the list or a limit
    /// changed since the last reshare, and return whether it did: the
    /// shares are a pure function of both.  Every call bumps a traced
    /// run's [`TraceKind::Waterfill`] counter, stamped with `trace_id`.
    #[inline]
    pub fn reshare<T: Tracer>(&mut self, tracer: &mut T, trace_id: u32) -> bool {
        self.waterfill_runs += 1;
        if T::ENABLED {
            tracer.counter(
                self.now,
                TraceKind::Waterfill,
                trace_id,
                self.waterfill_runs as f64,
            );
        }
        if !self.stale {
            return false;
        }
        self.stale = false;
        let (jobs, slots) = (&self.jobs, &self.slots);
        self.shares.recompute(
            self.capacity,
            &self.contention,
            self.live.iter().map(|id| {
                let i = id.index();
                (slots[i].limits.cpu_limit(), jobs[i].demand())
            }),
        );
        self.rate_ids.clear();
        self.rate_ids.extend_from_slice(&self.live);
        true
    }

    /// The CPU rates of the last reshare, one per job live then.
    pub fn rates(&self) -> &[f64] {
        self.shares.rates()
    }

    /// `(id, rate, cpu limit)` of each job of the last reshare that is
    /// still live, in id order.
    pub fn live_rates(&self) -> impl Iterator<Item = (ContainerId, f64, f64)> + '_ {
        (self.rate_ids.iter().zip(self.shares.rates())).filter_map(|(&id, &rate)| {
            let slot = &self.slots[id.index()];
            slot.runnable.then(|| (id, rate, slot.limits.cpu_limit()))
        })
    }

    /// Project the earliest completion under the current rates, 1 µs past
    /// the exact finish so the step to it crosses the line; none while a
    /// job of the last reshare has left (the next reshare reprojects).
    #[inline]
    pub fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for i in 0..self.rate_ids.len() {
            let slot = self.rate_ids[i].index();
            if !self.slots[slot].runnable {
                return None;
            }
            let remaining = self.jobs[slot].remaining_cpu_seconds();
            let speed = self.shares.rates()[i] * self.shares.efficiencies()[i];
            if speed > 1e-12 {
                let eta = remaining / speed;
                best = Some(best.map_or(eta, |b| b.min(eta)));
            }
        }
        best.map(|eta| self.now + SimDuration::from_secs_f64(eta) + SimDuration::from_micros(1))
    }

    /// Integrate every live job from the clock to `to` at the rates of the
    /// last reshare and report what the step integrated; the jobs whose
    /// exit status says they are done land in [`NodeKernel::exited`].  A
    /// job's rate goes into its resource-time integral, as `docker stats`
    /// would account it; its progress is the rate times its efficiency.
    #[inline]
    pub fn step_to(&mut self, to: SimTime) -> Step {
        debug_assert!(to >= self.now, "step into the past");
        let mut step = Step {
            dt: to.saturating_since(self.now).as_secs_f64(),
            cpu: 0.0,
            jobs: 0,
        };
        self.now = to;
        self.exited.clear();
        if step.dt <= 0.0 || self.rate_ids.is_empty() {
            return step;
        }
        let dt = step.dt;
        for i in 0..self.rate_ids.len() {
            let id = self.rate_ids[i];
            let rate = self.shares.rates()[i];
            let efficiency = self.shares.efficiencies()[i];
            let slot = id.index();
            if !self.slots[slot].runnable {
                continue;
            }
            step.cpu += rate;
            step.jobs += 1;
            let mut usage = self.jobs[slot].footprint();
            usage.set(ResourceKind::Cpu, rate);
            self.slots[slot].cumulative += usage.scale(dt);
            self.jobs[slot].advance(rate * efficiency * dt);
            if let Some(code) = self.jobs[slot].status().exit_code() {
                self.slots[slot].runnable = false;
                self.exited.push((id, code));
            }
        }
        step
    }

    /// Measure every live job at the clock against its slot in `column`, a
    /// monitor column parallel to the arena, into `out`.
    pub fn measure_into(&self, column: &mut [MonitorSlot], out: &mut Vec<GrowthMeasurement>) {
        measure(self.now, &self.live, &self.jobs, &self.slots, column, out);
    }

    /// One policy round at the clock: measure the live jobs through the
    /// Container Monitor, let `policy` decide, and apply its limits to live
    /// jobs (`docker update` applies to pool members only).  Returns the
    /// policy's next interval.  A traced run brackets the round in a
    /// [`TraceKind::Reconfigure`] span of the live count and `trace_id`.
    pub fn reconfigure<T: Tracer>(
        &mut self,
        policy: &mut dyn ResourcePolicy,
        tracer: &mut T,
        trace_id: u32,
    ) -> Option<SimDuration> {
        let now = self.now;
        if T::ENABLED {
            let live = self.live.len() as u32;
            tracer.span_begin(now, TraceKind::Reconfigure, live, trace_id);
        }
        measure(
            now,
            &self.live,
            &self.jobs,
            &self.slots,
            &mut self.mons,
            &mut self.measures,
        );
        // Policies must clear the recycled buffer themselves; this
        // belt-and-suspenders clear keeps a non-conforming external policy
        // from re-applying last tick's limits.
        self.updates.clear();
        let next = policy.reconfigure_into(now, &self.measures, &mut self.updates);
        self.algorithm_runs += 1;
        for &(id, limit) in &self.updates {
            let slot = id.index();
            if slot < self.slots.len() && self.slots[slot].runnable {
                self.slots[slot].limits.set(ResourceKind::Cpu, limit);
                self.update_calls += 1;
                self.stale = true;
            }
        }
        if T::ENABLED {
            let live = self.live.len() as u32;
            tracer.span_end(now, TraceKind::Reconfigure, live, trace_id);
        }
        next
    }
}

/// Measure every container of `live` against its slot in `column` into
/// `out`.
fn measure(
    now: SimTime,
    live: &[ContainerId],
    jobs: &[TrainingJob],
    slots: &[ContainerSlot],
    column: &mut [MonitorSlot],
    out: &mut Vec<GrowthMeasurement>,
) {
    out.clear();
    for &id in live {
        let i = id.index();
        out.push(column[i].measure(
            id,
            now,
            jobs[i].eval(),
            slots[i].cumulative,
            slots[i].limits.cpu_limit(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_dl::models::ALL_MODELS;
    use flowcon_sim::trace::NoopTracer;
    use proptest::prelude::*;

    /// Step to `to` and release the exits, each of which must have done all
    /// its work; returns how many there were.
    fn step(kernel: &mut NodeKernel, to: SimTime) -> usize {
        kernel.step_to(to);
        for &(id, code) in kernel.exited() {
            let left = kernel.job(id).remaining_cpu_seconds();
            assert_eq!((code, left), (0, 0.0), "container {id} exited");
        }
        let exits = kernel.exited().len();
        kernel.release_exited();
        exits
    }

    proptest! {
        /// The kernel's physics on random admit / retire / step / reshare
        /// sequences, with ids taken at the arena's end or from vacated
        /// slots: the shared rates never exceed the capacity, no job's
        /// remaining work grows, and a step to the projected completion
        /// exits a job while a step to 2 µs before it exits none.
        #[test]
        fn kernel_physics_hold_under_random_sequences(
            capacity in 0.25f64..4.0,
            ops in prop::collection::vec((0u8..5, 0usize..64, 0.05f64..1.0, 1u64..400), 1..64),
        ) {
            let mut kernel = NodeKernel::new(NodeConfig { capacity, ..NodeConfig::default() });
            for (op, pick, scale, secs) in ops {
                let live = kernel.live().to_vec();
                let before: Vec<f64> =
                    live.iter().map(|&id| kernel.job(id).remaining_cpu_seconds()).collect();
                if op >= 3 {
                    kernel.reshare(&mut NoopTracer, 0);
                    let total: f64 = kernel.rates().iter().sum();
                    prop_assert!(total <= capacity * (1.0 + 1e-12), "{} > {}", total, capacity);
                }
                match op {
                    0 => {
                        let free: Vec<ContainerId> = (0..=kernel.fresh_id().as_raw())
                            .map(ContainerId::from_raw)
                            .filter(|id| !live.contains(id))
                            .collect();
                        let spec = ModelSpec::of(ALL_MODELS[pick % ALL_MODELS.len()]);
                        kernel.admit(free[pick % free.len()], spec.scaled_by(scale), String::new());
                    }
                    1 if !live.is_empty() => kernel.retire(live[pick % live.len()]),
                    2 => {
                        let to = kernel.now() + SimDuration::from_secs(secs);
                        step(&mut kernel, to);
                    }
                    4 => {
                        if let Some(at) = kernel.next_completion() {
                            let early = SimTime::from_micros(at.as_micros().saturating_sub(2));
                            if early > kernel.now() {
                                prop_assert_eq!(step(&mut kernel, early), 0, "exit before {}", at);
                            }
                            prop_assert!(step(&mut kernel, at) > 0, "no exit at {}", at);
                        }
                    }
                    _ => {}
                }
                for (id, had) in live.into_iter().zip(before) {
                    if kernel.live().contains(&id) {
                        let left = kernel.job(id).remaining_cpu_seconds();
                        prop_assert!(left <= had, "container {} grew from {} to {}", id, had, left);
                    }
                }
            }
        }
    }
}
