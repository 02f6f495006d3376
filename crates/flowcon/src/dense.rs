//! The dense (structure-of-arrays) headless worker simulation.
//!
//! [`WorkerSim`](crate::worker) models one worker with per-container heap
//! objects: a `Daemon` holding boxed `Container`s in a `BTreeMap` pool, a
//! `BTreeMap`-backed [`ContainerMonitor`](crate::monitor::ContainerMonitor),
//! and an event log.  That layout is right for recorded experiments, but at
//! one million workers the headless cluster path is memory- and cache-bound
//! on exactly those objects.
//!
//! This module is the same simulation over flat arrays.  Container ids are
//! sequential `u32`s (see `flowcon_container::id`), so *the id is the array
//! index*: one `TrainingJob` arena plus two POD slot arrays (container
//! record, monitor record) replace the daemon, pool, stats objects, and
//! monitor map.  The arrays live in a [`DenseScratch`] owned by the
//! executor shard and are recycled across every worker that shard drives —
//! a steady-state worker run performs only the allocations its policy and
//! completion stats need (budgeted well under 10 per worker by
//! `crates/cluster/tests/headless_allocs.rs`).
//!
//! # Plans and streams
//!
//! One simulation serves both workload shapes.  [`run_headless_dense`]
//! runs a placed plan: every job's arrival is queued up front.
//! [`run_stream_dense`] runs **open-loop**: it pulls one job ahead of the
//! clock from a [`JobStream`] (a single scheduled `StreamArrival`, exactly
//! like the object path's `OpenLoopShell`), admits jobs until the
//! [`Horizon`] trips, drains, and returns [`StreamStats`] and sojourn
//! tails beside the completions.  Both go through one `DenseSim` and one
//! dispatch loop; the open-loop state (the lookahead, the busy and queue
//! integrals, the sojourn sketches) sits behind a monomorphized admission
//! type, so a placed plan compiles it all away.
//!
//! # The live list
//!
//! Ids only grow, and exited slots stay in the arena until the worker
//! ends.  The pool is therefore kept as an explicit ascending list of live
//! ids (`DenseScratch::pool_ids`): admission pushes, exits `retain` the
//! runnable slots, and the allocator inputs, the monitor and the listener
//! all iterate the list — O(live) per event however many jobs a stream has
//! admitted.  Ascending order is what `ContainerPool::ids_into` yields on
//! the object path, so the list changes no result.
//!
//! **Bit-identity is the contract.**  For a given `NodeConfig` and job
//! list (or stream and horizon), [`run_headless_dense`]
//! ([`run_stream_dense`]) produces exactly the [`SessionResult`]
//! ([`StreamResult`]) the object path produces with a [`CompletionsOnly`]
//! recorder — same completions, same event count, same stream stats and
//! tails — because every floating-point operation, RNG draw, and event
//! (time, FIFO sequence) is replicated in the same order.  The cluster
//! test `source_run_matches_the_equivalent_placed_run`, the dense-vs-session
//! tests below and `crates/flowcon/tests/dense_stream.rs` pin this.
//!
//! The event queue is chosen per run ([`QueueKind`]): the engine's binary
//! heap or the calendar queue from `flowcon_sim::calendar`, which both
//! order events by `(when, FIFO sequence)` and are bit-compared against
//! each other by a randomized test in `flowcon-sim` and a whole-cluster
//! test in `flowcon-cluster`.

use flowcon_container::daemon::exit_code_for;
use flowcon_container::{ContainerId, ResourceLimits, UpdateOptions, Workload};
use flowcon_dl::models::ModelSpec;
use flowcon_dl::workload::JobRequest;
use flowcon_dl::TrainingJob;
use flowcon_metrics::sojourn::SojournStats;
use flowcon_metrics::stream::StreamStats;
use flowcon_metrics::summary::CompletionStats;
use flowcon_sim::alloc::{waterfill_soft_into, AllocRequest, WaterfillScratch};
use flowcon_sim::calendar::CalendarQueue;
use flowcon_sim::event::EventQueue;
use flowcon_sim::rng::SimRng;
use flowcon_sim::stats::TimeWeighted;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::{ResourceKind, ResourceVec, RESOURCE_KINDS};
use flowcon_workload::stream::{Horizon, JobStream, StreamedJob};

use crate::config::NodeConfig;
use crate::metric::{progress_score, GrowthMeasurement};
use crate::policy::ResourcePolicy;
use crate::recorder::{CompletionsOnly, Recorder, RunMeta};
use crate::session::{SessionResult, StreamResult};
use crate::worker::WorkerEvent;

/// Same run-away guard as `SimEngine`.
const MAX_EVENTS: u64 = 50_000_000;

/// Intervals shorter than this reuse the previous measurement — must match
/// `monitor::MIN_INTERVAL_SECS` exactly (bit-identity).
const MIN_INTERVAL_SECS: f64 = 0.1;

/// Which event queue drives a dense run.
///
/// Both implementations dispatch events in identical `(time, FIFO)` order;
/// the calendar queue trades the heap's `O(log n)` comparisons for `O(1)`
/// bucket pushes in the dense regime where almost all events land within a
/// sliding one-second-bucket year.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The engine's binary-heap `EventQueue` (the default).
    #[default]
    Heap,
    /// The bucket/calendar queue (`flowcon_sim::calendar`).
    Calendar,
}

impl QueueKind {
    /// Parse a CLI-style name (`heap` / `calendar`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "heap" => Some(QueueKind::Heap),
            "calendar" => Some(QueueKind::Calendar),
            _ => None,
        }
    }
}

/// One container's POD record: what the object path keeps in
/// `Container` + `ContainerStats`, minus everything headless runs never
/// read (image, event log, usage window, state timestamps).
///
/// Kept `Copy` and cache-line-small on purpose — `slot_records_stay_pod`
/// asserts the size so a refactor cannot silently fatten the arena.
#[derive(Debug, Clone, Copy)]
struct ContainerSlot {
    /// Arrival/creation time (completion records need it).
    created_at: SimTime,
    /// Soft limits, updated by `docker update`-style policy decisions.
    limits: ResourceLimits,
    /// Cumulative resource-time integral (the monitor's usage source).
    cumulative: ResourceVec,
    /// Still in the pool (running); cleared on exit.
    runnable: bool,
}

/// One container's monitor state: the dense mirror of the object
/// monitor's `PerContainer`, plus a `tracked` flag standing in for map
/// membership.
#[derive(Debug, Clone, Copy)]
struct MonitorSlot {
    tracked: bool,
    last_tick: SimTime,
    last_eval: Option<f64>,
    last_cumulative: ResourceVec,
    cached_progress: Option<f64>,
    cached_avg_usage: ResourceVec,
}

impl MonitorSlot {
    const UNTRACKED: MonitorSlot = MonitorSlot {
        tracked: false,
        last_tick: SimTime::ZERO,
        last_eval: None,
        last_cumulative: ResourceVec::ZERO,
        cached_progress: None,
        cached_avg_usage: ResourceVec::ZERO,
    };
}

/// The recycled arenas and hot-path buffers of the dense worker path.
///
/// One per executor shard; every buffer is cleared (capacity kept) between
/// workers, so arena growth amortizes to zero across a cluster run.
#[derive(Debug, Default)]
pub struct DenseScratch {
    /// Job arena: index == raw container id.
    jobs: Vec<TrainingJob>,
    /// Container records, parallel to `jobs`.
    slots: Vec<ContainerSlot>,
    /// Monitor records, parallel to `jobs`.
    mons: Vec<MonitorSlot>,
    /// `(id, exit code)` of containers that exited in the current step.
    exited: Vec<(ContainerId, i32)>,
    /// Ids with fixed rates since the last recompute, in id order.
    rate_ids: Vec<ContainerId>,
    /// CPU rates aligned with `rate_ids`.
    rate_vals: Vec<f64>,
    /// Contention efficiencies aligned with `rate_ids`.
    efficiencies: Vec<f64>,
    /// Water-filling scratch.
    alloc: WaterfillScratch,
    /// Allocator requests, one per live container in id order.
    requests: Vec<AllocRequest>,
    /// Growth-measurement buffer for policy reconfigurations.
    measures: Vec<GrowthMeasurement>,
    /// The live pool: ids of `runnable` slots in ascending order, pushed
    /// on admission and retained on exit (see the module docs).
    pool_ids: Vec<ContainerId>,
    /// Policy-decision updates buffer.
    updates: Vec<(ContainerId, f64)>,
    /// Recycled binary-heap event queue.
    heap: EventQueue<WorkerEvent>,
    /// Recycled calendar event queue.
    calendar: CalendarQueue<WorkerEvent>,
}

impl DenseScratch {
    /// Fresh scratch with empty arenas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every arena and buffer (capacities kept) and pre-size for a
    /// worker admitting up to `max_jobs` containers.
    fn reset_for(&mut self, max_jobs: usize) {
        self.jobs.clear();
        self.slots.clear();
        self.mons.clear();
        self.exited.clear();
        self.rate_ids.clear();
        self.rate_vals.clear();
        self.efficiencies.clear();
        self.requests.clear();
        self.measures.clear();
        self.pool_ids.clear();
        self.updates.clear();
        self.jobs.reserve(max_jobs);
        self.slots.reserve(max_jobs);
        self.mons.reserve(max_jobs);
        self.exited.reserve(max_jobs);
        self.rate_ids.reserve(max_jobs);
        self.rate_vals.reserve(max_jobs);
        self.efficiencies.reserve(max_jobs);
        self.requests.reserve(max_jobs);
        self.measures.reserve(max_jobs);
        self.pool_ids.reserve(max_jobs);
        self.updates.reserve(max_jobs);
        self.alloc.reserve(max_jobs);
    }
}

/// The queue interface the dense dispatch loop needs; implemented by both
/// the binary heap and the calendar queue, which share `(when, seq)` FIFO
/// ordering semantics.
trait DenseQueue {
    fn schedule(&mut self, when: SimTime, ev: WorkerEvent);
    fn pop_earliest(&mut self) -> Option<(SimTime, WorkerEvent)>;
}

impl DenseQueue for EventQueue<WorkerEvent> {
    fn schedule(&mut self, when: SimTime, ev: WorkerEvent) {
        EventQueue::schedule(self, when, ev);
    }
    fn pop_earliest(&mut self) -> Option<(SimTime, WorkerEvent)> {
        self.pop_if_at_or_before(SimTime::MAX)
    }
}

impl DenseQueue for CalendarQueue<WorkerEvent> {
    fn schedule(&mut self, when: SimTime, ev: WorkerEvent) {
        CalendarQueue::schedule(self, when, ev);
    }
    fn pop_earliest(&mut self) -> Option<(SimTime, WorkerEvent)> {
        self.pop_if_at_or_before(SimTime::MAX)
    }
}

/// The admission side of a dense run beyond the plan's `Arrival` events.
///
/// Monomorphized: [`Placed`] keeps the defaults below, so a placed plan
/// compiles every hook to nothing; [`OpenLoop`] adds the stream lookahead
/// and the steady-state accounting.
trait Admission {
    /// A streamed arrival is scheduled, so the run is not done even while
    /// the pool is empty.
    fn pending(&self) -> bool {
        false
    }

    /// Pull the next admissible streamed job into the lookahead and return
    /// its arrival time.
    fn pull_next(&mut self) -> Option<SimTime> {
        None
    }

    /// Take the job whose `StreamArrival` is firing, counting it as
    /// submitted.
    fn take(&mut self) -> StreamedJob {
        unreachable!("stream arrivals are only scheduled by an open-loop run")
    }

    /// One fluid step: the current `rates` held for `dt` seconds.
    fn advanced(&mut self, _rates: &[f64], _dt: f64) {}

    /// A container admitted at `created_at` exited at `now`.
    fn exited(&mut self, _created_at: SimTime, _now: SimTime) {}
}

/// A placed plan: every arrival is a queued `Arrival` event.
struct Placed;

impl Admission for Placed {}

/// Open-loop admission: the stream, its one-job lookahead, and the
/// accounting the run's [`StreamStats`] and [`SojournStats`] come from —
/// the dense mirror of `OpenLoopShell` plus `WorkerSim`'s open-loop
/// fields.
struct OpenLoop<J> {
    stream: J,
    horizon: Horizon,
    /// The job whose `StreamArrival` is scheduled.
    pending: Option<StreamedJob>,
    submitted: u64,
    exits: u64,
    /// When the latest container exited (the drain point).
    last_exit: SimTime,
    /// `∫ Σrates · dt`, the utilization numerator.
    busy: TimeWeighted,
    /// `∫ pool size · dt`, the mean-queue-depth numerator.
    queue: TimeWeighted,
    /// Sojourn and (always zero on one fluid node) queue-wait tails.
    slo: SojournStats,
}

impl<J: JobStream> Admission for OpenLoop<J> {
    fn pending(&self) -> bool {
        self.pending.is_some()
    }

    /// One pull per admission: a job the horizon rejects is dropped, not
    /// buffered — the run is over at that point by definition.
    fn pull_next(&mut self) -> Option<SimTime> {
        debug_assert!(self.pending.is_none(), "one lookahead job at a time");
        let job = self
            .stream
            .next_job()
            .filter(|job| self.horizon.admits(self.submitted as usize, job.arrival))?;
        let at = job.arrival;
        self.pending = Some(job);
        Some(at)
    }

    /// The object path counts the submission after processing exits;
    /// nothing in between reads the count, so counting here is the same.
    fn take(&mut self) -> StreamedJob {
        self.submitted += 1;
        self.pending.take().expect("a streamed arrival is pending")
    }

    /// `rates.iter().sum()` is the object path's `rate_sum`: the same fold
    /// over the same rates, which only change at a recompute.
    fn advanced(&mut self, rates: &[f64], dt: f64) {
        if dt > 0.0 {
            self.busy.accumulate(rates.iter().sum(), dt);
            self.queue.accumulate(rates.len() as f64, dt);
        }
    }

    fn exited(&mut self, created_at: SimTime, now: SimTime) {
        self.exits += 1;
        self.last_exit = now;
        self.slo
            .record_exit(now.saturating_since(created_at).as_secs_f64(), 0.0);
    }
}

/// Run one worker's plan headless over the dense arenas in `scratch`.
///
/// `plan` must be the worker's jobs in plan order (ascending arrival; the
/// cluster manager's flat placement preserves this).  Labels are ignored —
/// the headless recorder never reads them — so the slice is borrowed, not
/// consumed.  Returns exactly what
/// `Session::builder()...recorder(CompletionsOnly::new()).run()` returns
/// for the same inputs.
pub fn run_headless_dense(
    node: NodeConfig,
    plan: &[JobRequest],
    policy: Box<dyn ResourcePolicy>,
    queue: QueueKind,
    scratch: &mut DenseScratch,
) -> SessionResult<CompletionStats> {
    scratch.reset_for(plan.len());
    run(node, plan, Placed, policy, queue, scratch).0
}

/// Run one worker **open-loop** over the dense arenas in `scratch`: admit
/// jobs pulled from `stream` while `horizon` allows, then drain.
///
/// Returns exactly what
/// `Session::builder()...recorder(CompletionsOnly::new()).build().run_stream(stream, horizon)`
/// returns for the same inputs — completions, event count,
/// [`StreamStats`] and sojourn tails.  Labels are dropped.
///
/// Panics, like the object path, on an unbounded `horizon` and on a
/// stream whose arrivals go back in time.
pub fn run_stream_dense<J: JobStream>(
    node: NodeConfig,
    stream: J,
    horizon: Horizon,
    policy: Box<dyn ResourcePolicy>,
    queue: QueueKind,
    scratch: &mut DenseScratch,
) -> StreamResult<CompletionStats> {
    assert!(
        horizon.is_bounded(),
        "an open-loop run needs a horizon (until and/or max jobs) — \
         an unbounded stream would never terminate"
    );
    scratch.reset_for(0);
    let open = OpenLoop {
        stream,
        horizon,
        pending: None,
        submitted: 0,
        exits: 0,
        last_exit: SimTime::ZERO,
        busy: TimeWeighted::new(),
        queue: TimeWeighted::new(),
        slo: SojournStats::new(),
    };
    let (result, open) = run(node, &[], open, policy, queue, scratch);
    let duration_secs = open.last_exit.as_secs_f64();
    StreamResult {
        output: result.output,
        events_processed: result.events_processed,
        scheduler_overhead_cpu_secs: result.scheduler_overhead_cpu_secs,
        stream: StreamStats {
            submitted: open.submitted,
            completed: open.exits,
            duration_secs,
            busy_cpu_secs: open.busy.area(),
            queue_job_secs: open.queue.area(),
            capacity_cpu_secs: node.capacity * duration_secs,
        },
        tails: open.slo,
    }
}

/// A finished dense run: the session result and the admission state it
/// ended with.
type Finished<A> = (SessionResult<CompletionStats>, A);

/// Run on the recycled queue `queue` selects (the scratch must already be
/// reset).
fn run<A: Admission>(
    node: NodeConfig,
    plan: &[JobRequest],
    admission: A,
    policy: Box<dyn ResourcePolicy>,
    queue: QueueKind,
    scratch: &mut DenseScratch,
) -> Finished<A> {
    match queue {
        QueueKind::Heap => {
            let mut q = std::mem::take(&mut scratch.heap);
            q.clear();
            let (finished, q) = run_with_queue(node, plan, admission, policy, q, scratch);
            scratch.heap = q;
            finished
        }
        QueueKind::Calendar => {
            let mut q = std::mem::take(&mut scratch.calendar);
            q.clear();
            let (finished, q) = run_with_queue(node, plan, admission, policy, q, scratch);
            scratch.calendar = q;
            finished
        }
    }
}

/// The dispatch loop, monomorphized over the queue and the admission.
fn run_with_queue<Q: DenseQueue, A: Admission>(
    node: NodeConfig,
    plan: &[JobRequest],
    admission: A,
    policy: Box<dyn ResourcePolicy>,
    mut queue: Q,
    scratch: &mut DenseScratch,
) -> (Finished<A>, Q) {
    for (idx, job) in plan.iter().enumerate() {
        queue.schedule(job.arrival, WorkerEvent::Arrival(idx));
    }
    let mut sim = DenseSim {
        node,
        plan,
        policy,
        rng: SimRng::new(node.seed),
        now: SimTime::ZERO,
        last_advance: SimTime::ZERO,
        completion_gen: 0,
        tick_gen: 0,
        arrivals_pending: plan.len(),
        rates_stale: true,
        admission,
        recorder: CompletionsOnly::new(),
        update_calls: 0,
        algorithm_runs: 0,
        queue,
        s: scratch,
    };
    if let Some(at) = sim.admission.pull_next() {
        sim.queue.schedule(at, WorkerEvent::StreamArrival);
    }
    // Replicates `SimEngine::run_until(.., SimTime::MAX)`: stale-generation
    // events still count toward `events_processed` (they are popped and
    // dispatched), and the budget guard trips at the same count.
    let mut events_processed: u64 = 0;
    while events_processed < MAX_EVENTS {
        let Some((when, event)) = sim.queue.pop_earliest() else {
            break;
        };
        debug_assert!(when >= sim.now, "event from the past");
        sim.now = when;
        events_processed += 1;
        sim.handle(event);
    }
    let output = sim.recorder.finish(RunMeta {
        policy: sim.policy.as_ref(),
        algorithm_runs: sim.algorithm_runs,
        update_calls: sim.update_calls,
    });
    let result = SessionResult {
        output,
        events_processed,
        scheduler_overhead_cpu_secs: sim.algorithm_runs as f64 * sim.node.algo_cost_cpu_secs,
    };
    ((result, sim.admission), sim.queue)
}

/// One worker simulation over borrowed dense state.
///
/// Method-for-method mirror of `WorkerSim` (and, for streams, its
/// `OpenLoopShell`) specialized to the headless recorder: same event
/// protocol, same floating-point order, same RNG stream, minus the
/// objects.
struct DenseSim<'a, Q, A> {
    node: NodeConfig,
    plan: &'a [JobRequest],
    policy: Box<dyn ResourcePolicy>,
    rng: SimRng,
    now: SimTime,
    last_advance: SimTime,
    completion_gen: u64,
    tick_gen: u64,
    arrivals_pending: usize,
    /// The pool or a limit changed since the rates were last computed.
    rates_stale: bool,
    admission: A,
    recorder: CompletionsOnly,
    update_calls: u64,
    algorithm_runs: u64,
    queue: Q,
    s: &'a mut DenseScratch,
}

impl<Q: DenseQueue, A: Admission> DenseSim<'_, Q, A> {
    fn is_done(&self) -> bool {
        self.arrivals_pending == 0 && !self.admission.pending() && self.s.pool_ids.is_empty()
    }

    /// Mirror of `Scheduler::at` (same cannot-schedule-into-the-past
    /// contract) and `Scheduler::after`.
    fn schedule_at(&mut self, when: SimTime, ev: WorkerEvent) {
        assert!(
            when >= self.now,
            "cannot schedule into the past: now={}, when={}",
            self.now,
            when
        );
        self.queue.schedule(when, ev);
    }

    fn schedule_after(&mut self, delay: SimDuration, ev: WorkerEvent) {
        let when = self.now + delay;
        self.queue.schedule(when, ev);
    }

    /// Integrate the fluid state from `last_advance` to `now`; exited
    /// containers land in `s.exited` (mirror of `advance_to` +
    /// `Daemon::advance`).
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        self.s.exited.clear();
        self.admission.advanced(&self.s.rate_vals, dt);
        if dt <= 0.0 || self.s.rate_ids.is_empty() {
            return;
        }
        for i in 0..self.s.rate_ids.len() {
            let id = self.s.rate_ids[i];
            let rate = self.s.rate_vals[i];
            let efficiency = self.s.efficiencies[i];
            let slot = id.index();
            if !self.s.slots[slot].runnable {
                continue;
            }
            let mut usage = self.s.jobs[slot].footprint();
            usage.set(ResourceKind::Cpu, rate);
            self.s.slots[slot].cumulative += usage.scale(dt);
            self.s.jobs[slot].advance(now, rate * efficiency * dt);
            if let Some(code) = exit_code_for(self.s.jobs[slot].status()) {
                self.s.slots[slot].runnable = false;
                self.s.exited.push((id, code));
            }
        }
    }

    /// Mirror of `WorkerSim::recompute_rates`, reading the allocator's
    /// `(limit, demand)` inputs (`Daemon::alloc_inputs_into`) straight off
    /// the live list.
    ///
    /// Rates and efficiencies are a pure function of the live list and its
    /// limits (demands are fixed per job), so they are only rebuilt when
    /// one of those moved; the completion generation advances either way,
    /// exactly as on the object path.
    fn recompute_rates(&mut self) {
        self.completion_gen += 1;
        if !self.rates_stale {
            return;
        }
        self.rates_stale = false;
        let s = &mut *self.s;
        s.requests.clear();
        s.requests.extend(s.pool_ids.iter().map(|id| AllocRequest {
            limit: s.slots[id.index()].limits.cpu_limit(),
            demand: s.jobs[id.index()].demand(),
            weight: 1.0,
        }));
        waterfill_soft_into(&mut s.alloc, self.node.capacity, &s.requests);
        s.rate_ids.clear();
        s.rate_ids.extend_from_slice(&s.pool_ids);
        s.rate_vals.clear();
        s.rate_vals.extend_from_slice(s.alloc.rates());
        let n = s.rate_ids.len();
        s.efficiencies.clear();
        s.efficiencies.extend(s.requests.iter().map(|q| {
            let shaped = q.limit < 0.999;
            self.node.contention.container_efficiency(n, shaped)
        }));
    }

    /// Mirror of `WorkerSim::next_completion`, including its early-abort on
    /// a rate id that has left the pool.
    fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for i in 0..self.s.rate_ids.len() {
            let slot = self.s.rate_ids[i].index();
            if !self.s.slots[slot].runnable {
                return None;
            }
            let remaining = self.s.jobs[slot].remaining_cpu_seconds()?;
            let speed = self.s.rate_vals[i] * self.s.efficiencies[i];
            if speed > 1e-12 {
                let eta = remaining / speed;
                best = Some(best.map_or(eta, |b| b.min(eta)));
            }
        }
        best.map(|eta| {
            self.last_advance + SimDuration::from_secs_f64(eta) + SimDuration::from_micros(1)
        })
    }

    /// Mirror of `WorkerSim::process_exits` over `s.exited`; drops the
    /// exited ids from the live list.
    fn process_exits(&mut self, now: SimTime) -> bool {
        if self.s.exited.is_empty() {
            return false;
        }
        for k in 0..self.s.exited.len() {
            let (id, code) = self.s.exited[k];
            self.s.mons[id.index()] = MonitorSlot::UNTRACKED;
            let created_at = self.s.slots[id.index()].created_at;
            self.admission.exited(created_at, now);
            self.recorder.record_completion("", created_at, now, code);
        }
        let s = &mut *self.s;
        s.pool_ids.retain(|id| s.slots[id.index()].runnable);
        self.rates_stale = true;
        self.policy.on_pool_change(now, &self.s.pool_ids)
    }

    /// Mirror of `ContainerMonitor::measure_into` over the live list.
    fn measure_into(&mut self, now: SimTime) {
        self.s.measures.clear();
        for k in 0..self.s.pool_ids.len() {
            let id = self.s.pool_ids[k];
            let slot = id.index();
            let eval_now = self.s.jobs[slot].eval(now);
            let cumulative = self.s.slots[slot].cumulative;
            let limit = self.s.slots[slot].limits.cpu_limit();
            let m = &mut self.s.mons[slot];
            let measurement = if !m.tracked {
                *m = MonitorSlot {
                    tracked: true,
                    last_tick: now,
                    last_eval: eval_now,
                    last_cumulative: cumulative,
                    cached_progress: None,
                    cached_avg_usage: ResourceVec::ZERO,
                };
                GrowthMeasurement {
                    id,
                    progress: None,
                    avg_usage: ResourceVec::ZERO,
                    cpu_limit: limit,
                }
            } else {
                let dt = now.saturating_since(m.last_tick).as_secs_f64();
                if dt < MIN_INTERVAL_SECS {
                    GrowthMeasurement {
                        id,
                        progress: m.cached_progress,
                        avg_usage: m.cached_avg_usage,
                        cpu_limit: limit,
                    }
                } else {
                    let mut avg_usage = ResourceVec::ZERO;
                    for kind in RESOURCE_KINDS {
                        avg_usage.set(
                            kind,
                            (cumulative.get(kind) - m.last_cumulative.get(kind)) / dt,
                        );
                    }
                    let progress = match (eval_now, m.last_eval) {
                        (Some(e), Some(p)) => progress_score(e, p, dt),
                        _ => None,
                    };
                    m.last_tick = now;
                    m.last_eval = eval_now.or(m.last_eval);
                    m.last_cumulative = cumulative;
                    m.cached_progress = progress;
                    m.cached_avg_usage = avg_usage;
                    GrowthMeasurement {
                        id,
                        progress,
                        avg_usage,
                        cpu_limit: limit,
                    }
                }
            };
            self.s.measures.push(measurement);
        }
    }

    /// Mirror of `WorkerSim::run_reconfigure`.
    fn run_reconfigure(&mut self, now: SimTime) -> Option<SimDuration> {
        self.measure_into(now);
        self.s.updates.clear();
        let next_interval =
            self.policy
                .reconfigure_into(now, &self.s.measures, &mut self.s.updates);
        self.algorithm_runs += 1;
        for k in 0..self.s.updates.len() {
            let (id, limit) = self.s.updates[k];
            // `Daemon::update` succeeds for any pool member; in this path
            // pool membership is exactly `runnable`.
            let slot = id.index();
            if slot < self.s.slots.len() && self.s.slots[slot].runnable {
                let opts = UpdateOptions::new().cpus(limit);
                self.s.slots[slot].limits = opts.apply_to(self.s.slots[slot].limits);
                self.update_calls += 1;
                self.rates_stale = true;
            }
        }
        next_interval
    }

    /// Mirror of `WorkerSim::schedule_tick`.
    fn schedule_tick(&mut self, interval: Option<SimDuration>) {
        if self.is_done() {
            return;
        }
        if let Some(itval) = interval {
            self.tick_gen += 1;
            self.schedule_after(itval, WorkerEvent::PolicyTick(self.tick_gen));
        }
    }

    /// Mirror of `WorkerSim::schedule_completion`.
    fn schedule_completion(&mut self) {
        if let Some(at) = self.next_completion() {
            self.schedule_at(at, WorkerEvent::CompletionCheck(self.completion_gen));
        }
    }

    /// Mirror of `WorkerSim::admit_job` (headless: the label is dropped).
    fn admit_job(&mut self, now: SimTime, spec: ModelSpec, interrupted_by_exit: bool) {
        // Same RNG protocol as `Daemon::run` + `TrainingJob::with_label`;
        // the empty label allocates nothing and is never read headless.
        let job = TrainingJob::with_label(spec, String::new(), &mut self.rng);
        let id = ContainerId::from_raw(self.s.jobs.len() as u32);
        self.s.jobs.push(job);
        self.s.slots.push(ContainerSlot {
            created_at: now,
            limits: ResourceLimits::unlimited(),
            cumulative: ResourceVec::ZERO,
            runnable: true,
        });
        self.s.mons.push(MonitorSlot::UNTRACKED);
        // Ids only grow, so pushing keeps the live list ascending.
        self.s.pool_ids.push(id);
        self.rates_stale = true;

        let interrupt = self.policy.on_pool_change(now, &self.s.pool_ids);
        if interrupt || interrupted_by_exit {
            let next = self.run_reconfigure(now);
            self.schedule_tick(next);
        } else if self.s.pool_ids.len() == 1 {
            let initial = self.policy.initial_interval();
            self.schedule_tick(initial);
        }
        self.recompute_rates();
        self.schedule_completion();
    }

    /// Mirror of `WorkerSim::handle` (and `OpenLoopShell::handle`)
    /// restricted to the events a headless run can see.
    fn handle(&mut self, event: WorkerEvent) {
        let now = self.now;
        match event {
            WorkerEvent::Arrival(idx) => {
                self.advance_to(now);
                let interrupted_by_exit = self.process_exits(now);
                self.arrivals_pending -= 1;
                self.admit_job(now, self.plan[idx].scaled_spec(), interrupted_by_exit);
            }
            WorkerEvent::StreamArrival => {
                let job = self.admission.take();
                debug_assert!(job.arrival == now, "stream arrival fired off schedule");
                self.advance_to(now);
                let interrupted_by_exit = self.process_exits(now);
                // Schedule the lookahead *before* admitting: admission
                // consults `is_done` (via tick scheduling), which must
                // already know whether more arrivals are coming.  The
                // order also fixes the FIFO sequence numbers that break
                // ties between same-time events.
                if let Some(at) = self.admission.pull_next() {
                    assert!(
                        at >= now,
                        "job streams must yield monotone arrivals ({at} after {now})"
                    );
                    self.schedule_at(at, WorkerEvent::StreamArrival);
                }
                self.admit_job(now, job.scaled_spec(), interrupted_by_exit);
            }
            WorkerEvent::CompletionCheck(gen) => {
                if gen != self.completion_gen {
                    return; // stale projection
                }
                self.advance_to(now);
                let interrupt = self.process_exits(now);
                if interrupt {
                    let next = self.run_reconfigure(now);
                    self.schedule_tick(next);
                }
                self.recompute_rates();
                self.schedule_completion();
            }
            WorkerEvent::PolicyTick(gen) => {
                if gen != self.tick_gen {
                    return; // pre-empted by an interrupt
                }
                self.advance_to(now);
                let _ = self.process_exits(now); // tick reconfigures below
                let next = self.run_reconfigure(now);
                self.schedule_tick(next);
                self.recompute_rates();
                self.schedule_completion();
            }
            WorkerEvent::SampleTick | WorkerEvent::TraceTick | WorkerEvent::InjectFailure(_) => {
                unreachable!("never scheduled on the dense headless path")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConConfig;
    use crate::policy::{FairSharePolicy, FlowConPolicy};
    use crate::session::Session;
    use flowcon_dl::workload::WorkloadPlan;

    fn session_headless(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<CompletionStats> {
        Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy(FlowConPolicy::new(FlowConConfig::default()))
            .recorder(CompletionsOnly::new())
            .build()
            .run()
    }

    fn dense(
        node: NodeConfig,
        plan: &WorkloadPlan,
        queue: QueueKind,
    ) -> SessionResult<CompletionStats> {
        let mut scratch = DenseScratch::new();
        run_headless_dense(
            node,
            &plan.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            queue,
            &mut scratch,
        )
    }

    fn assert_same(a: &SessionResult<CompletionStats>, b: &SessionResult<CompletionStats>) {
        assert_eq!(a.output, b.output);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.scheduler_overhead_cpu_secs, b.scheduler_overhead_cpu_secs);
    }

    #[test]
    fn dense_is_bit_identical_to_the_object_session() {
        for seed in [3_u64, 11, 42] {
            let plan = WorkloadPlan::random_n(12, seed);
            let object = session_headless(NodeConfig::default(), &plan);
            let fast = dense(NodeConfig::default(), &plan, QueueKind::Heap);
            assert_same(&object, &fast);
        }
    }

    #[test]
    fn calendar_queue_matches_the_heap() {
        for seed in [5_u64, 23] {
            let plan = WorkloadPlan::random_n(15, seed);
            let heap = dense(NodeConfig::default(), &plan, QueueKind::Heap);
            let calendar = dense(NodeConfig::default(), &plan, QueueKind::Calendar);
            assert_same(&heap, &calendar);
        }
    }

    #[test]
    fn dense_matches_under_the_na_baseline_too() {
        let plan = WorkloadPlan::random_n(8, 7);
        let object = Session::builder()
            .node(NodeConfig::default())
            .plan(plan.clone())
            .policy(FairSharePolicy::new())
            .recorder(CompletionsOnly::new())
            .build()
            .run();
        let mut scratch = DenseScratch::new();
        let fast = run_headless_dense(
            NodeConfig::default(),
            &plan.jobs,
            Box::new(FairSharePolicy::new()),
            QueueKind::Heap,
            &mut scratch,
        );
        assert_same(&object, &fast);
    }

    #[test]
    fn scratch_is_safely_recyclable_across_workers() {
        let mut scratch = DenseScratch::new();
        let plan_a = WorkloadPlan::random_n(10, 1);
        let plan_b = WorkloadPlan::random_n(6, 2);
        let first = run_headless_dense(
            NodeConfig::default(),
            &plan_a.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Calendar,
            &mut scratch,
        );
        // A different worker in between must not perturb the next run.
        let _ = run_headless_dense(
            NodeConfig::default().with_seed(99),
            &plan_b.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Calendar,
            &mut scratch,
        );
        let again = run_headless_dense(
            NodeConfig::default(),
            &plan_a.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Calendar,
            &mut scratch,
        );
        assert_same(&first, &again);
    }

    #[test]
    fn empty_plan_is_a_no_op_run() {
        let mut scratch = DenseScratch::new();
        let result = run_headless_dense(
            NodeConfig::default(),
            &[],
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        );
        assert_eq!(result.events_processed, 0);
        assert_eq!(result.output.len(), 0);
        assert_eq!(result.output.algorithm_runs, 0);
    }

    #[test]
    fn slot_records_stay_pod() {
        // The arenas are the density story: a fatter record is a silent
        // memory regression at a million workers.
        assert_eq!(std::mem::size_of::<ContainerSlot>(), 80);
        assert_eq!(std::mem::size_of::<MonitorSlot>(), 112);
        assert_eq!(std::mem::size_of::<ContainerId>(), 4);
    }

    #[test]
    fn queue_kind_parses_cli_names() {
        assert_eq!(QueueKind::parse("heap"), Some(QueueKind::Heap));
        assert_eq!(QueueKind::parse("calendar"), Some(QueueKind::Calendar));
        assert_eq!(QueueKind::parse("wheel"), None);
        assert_eq!(QueueKind::default(), QueueKind::Heap);
    }
}
