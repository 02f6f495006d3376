//! The worker simulation: one node over dense, structure-of-arrays state.
//!
//! Every worker run goes through this module — recorded, traced and
//! failure-injected [`Session`](crate::session::Session)s as well as the
//! million-worker headless cluster path.  Container ids are sequential
//! `u32`s (see `flowcon_container::id`), so *the id is the array index*:
//! one `TrainingJob` arena plus POD slot columns (the container record and
//! the Container Monitor's `MonitorSlot`) hold all per-container
//! state, with no per-container object.  The
//! columns live in a [`DenseScratch`] owned by the caller — one per
//! executor shard — and are recycled across every worker that shard
//! drives, so a steady-state headless worker run performs only the
//! allocations its policy and completion stats need (budgeted well under
//! 10 per worker by `crates/cluster/tests/headless_allocs.rs`).
//!
//! # Plans, streams and sessions
//!
//! One dispatch loop serves every workload shape.  [`run_headless_dense`]
//! runs a placed plan: every job's arrival is queued up front.
//! [`run_stream_dense`] runs **open-loop**: it pulls one job ahead of the
//! clock from a [`JobStream`] (a single scheduled `StreamArrival`), admits
//! jobs until the [`Horizon`] trips, drains, and returns [`StreamStats`]
//! and sojourn tails beside the completions.  `Session::run*` drives the
//! same loop with the session's [`Recorder`], [`Tracer`] and failure
//! schedule.  The shape-specific state (the plan or the stream lookahead,
//! the busy and queue integrals, the sojourn sketches) sits behind a
//! monomorphized admission type, and the loop is monomorphized over the
//! recorder and the tracer too: with [`CompletionsOnly`] and a
//! [`NoopTracer`] the sample and trace ticks are never scheduled, the
//! growth-trace monitor column is never filled, and every tracer site
//! compiles away.
//!
//! # The live list
//!
//! Ids only grow, and exited slots stay in the arena until the worker
//! ends.  The pool is therefore kept as an explicit ascending list of live
//! ids (`DenseScratch::pool_ids`): admission pushes, exits `retain` the
//! runnable slots, and the allocator inputs, the monitor and the listener
//! all iterate the list — O(live) per event however many jobs a stream has
//! admitted.
//!
//! # Bit-identity
//!
//! Every floating-point operation, RNG draw, event (time, FIFO
//! sequence), recorder call and tracer event happens in a fixed order, and
//! golden digests pin the result: the recorded, traced and
//! failure-injected sessions in the workspace's `tests/determinism.rs` and
//! `tests/failure_injection.rs`, every case of
//! `crates/flowcon/tests/dense_stream.rs`, and the tests below.  They were
//! computed on the object simulation (a container daemon with a `BTreeMap`
//! pool and a map-backed monitor) this module replaced, and are the
//! reference it is held to.
//!
//! # The agenda
//!
//! A worker never has more than one pending event per source, so it
//! dispatches from a fixed agenda of one `(when, seq)` stamp per
//! source, not from a queue: the plan's next arrival, the stream
//! lookahead, the policy tick, the completion projection, the sample and
//! trace ticks, and the next fault.  Arrivals and faults are sorted once,
//! up front, and walked by a cursor.  Every event goes to the source with
//! the smallest stamp, so same-time events dispatch in the order they were
//! scheduled.  A re-armed policy tick or a reprojected completion
//! overwrites its source's stamp, and the overwritten stamp counts toward
//! `events_processed` at that moment: the count is the number of events
//! scheduled, as if every superseded one had been dispatched and ignored.
//!
//! # Sample ticks
//!
//! A recorded run samples every live container at each 1 Hz tick, but a
//! sample only changes when the rates are rebuilt or a container exits.
//! The loop keeps a flag for that; a tick with the flag clear goes to
//! [`Recorder::repeat_samples`] as one call, and only a tick the recorder
//! declines, or one after a change, is recorded sample by sample.  The
//! flag is stored only under `R::RECORDS_SAMPLES`, so the headless
//! instantiation carries none of it.

use flowcon_container::{ContainerId, ResourceLimits};
use flowcon_dl::models::ModelSpec;
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_dl::TrainingJob;
use flowcon_metrics::sojourn::SojournStats;
use flowcon_metrics::stream::StreamStats;
use flowcon_metrics::summary::CompletionStats;
use flowcon_sim::alloc::NodeShares;
use flowcon_sim::rng::SimRng;
use flowcon_sim::stats::TimeWeighted;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{NoopTracer, TraceKind, Tracer};
use flowcon_sim::{ResourceKind, ResourceVec};
use flowcon_workload::stream::{Horizon, JobStream, StreamedJob};

use crate::config::NodeConfig;
use crate::metric::GrowthMeasurement;
use crate::monitor::MonitorSlot;
use crate::policy::{checked_interval, ResourcePolicy};
use crate::recorder::{CompletionsOnly, Recorder, RunMeta};
use crate::session::{SessionResult, StreamResult};
use crate::worker::{FailureInjection, WorkerEvent, TRACE_INTERVAL};

/// Run-away guard: no worker run on this model needs more events.
const MAX_EVENTS: u64 = 50_000_000;

/// An argument of [`run_headless_dense`] and `PlacedHeadless::run` that
/// selects nothing.
///
/// No worker run has an event queue: each dispatches from its agenda (see
/// the module docs).  The type remains only so that the existing callers
/// of those two functions, the benchmark among them, compile unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The only value.
    Heap,
}

/// A pending event's dispatch key: its time in µs in the high word, its
/// sequence number in the low one, so that one integer compare orders
/// stamps by time, then sequence.
type Stamp = u128;

/// An empty agenda slot, later than every stamp a run makes.
const IDLE: Stamp = u128::MAX;

fn stamp(when: SimTime, seq: u64) -> Stamp {
    (u128::from(when.as_micros()) << 64) | u128::from(seq)
}

/// The sources of a worker's events, one [`Agenda`] slot each.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The plan's next arrival, in `(arrival, plan index)` order.
    Arrival,
    /// The stream's lookahead job.
    Stream,
    /// The Executor's policy tick.
    Tick,
    /// The projected next completion.
    Completion,
    /// The 1 Hz sample tick.
    Sample,
    /// The growth-trace tick.
    Trace,
    /// The next fault, in `(at, listing)` order.
    Failure,
}

impl Source {
    /// Every source, in slot order.
    const ALL: [Source; 7] = [
        Source::Arrival,
        Source::Stream,
        Source::Tick,
        Source::Completion,
        Source::Sample,
        Source::Trace,
        Source::Failure,
    ];
}

/// A worker's pending events: one stamp per [`Source`] (see the module
/// docs), recycled in the [`DenseScratch`].
#[derive(Debug, Default)]
struct Agenda {
    /// Each source's pending stamp, [`IDLE`] when it has none.
    next: [Stamp; 7],
    /// The plan's arrivals stamped `(arrival, plan index)`, ascending.
    arrivals: Vec<Stamp>,
    /// The fault schedule stamped `(at, seq)`, ascending.
    failures: Vec<Stamp>,
    /// Index of the pending arrival in `arrivals`.
    arrival: usize,
    /// Index of the pending fault in `failures`.
    failure: usize,
    /// The first fault's sequence number.
    failure_seq: u64,
    /// The next stamp's sequence number.
    seq: u64,
    /// Stamps overwritten or voided before they were dispatched.
    superseded: u64,
}

impl Agenda {
    /// Empty the agenda and stamp the plan's arrivals: the `i`-th job gets
    /// sequence number `i`.
    fn reset(&mut self, plan: &[JobRequest]) {
        self.next = [IDLE; 7];
        self.arrivals.clear();
        self.arrivals.extend(
            plan.iter()
                .zip(0..)
                .map(|(job, seq)| stamp(job.arrival, seq)),
        );
        self.arrivals.sort_unstable();
        self.arrival = 0;
        self.next[Source::Arrival as usize] = self.arrivals.first().copied().unwrap_or(IDLE);
        self.failures.clear();
        self.failure = 0;
        self.seq = plan.len() as u64;
        self.superseded = 0;
    }

    /// Stamp the fault schedule, one sequence number per entry in listing
    /// order.
    fn stamp_failures(&mut self, failures: &[FailureInjection]) {
        self.failure_seq = self.seq;
        self.failures.extend(
            failures
                .iter()
                .zip(self.seq..)
                .map(|(f, seq)| stamp(f.at, seq)),
        );
        self.failures.sort_unstable();
        self.seq += failures.len() as u64;
        self.next[Source::Failure as usize] = self.failures.first().copied().unwrap_or(IDLE);
    }

    /// Stamp `source`'s next event at `when`, superseding a pending one.
    fn schedule(&mut self, source: Source, when: SimTime) {
        self.void(source);
        self.next[source as usize] = stamp(when, self.seq);
        self.seq += 1;
    }

    /// Drop `source`'s pending event, if any, as superseded.
    fn void(&mut self, source: Source) {
        let slot = &mut self.next[source as usize];
        if *slot != IDLE {
            self.superseded += 1;
            *slot = IDLE;
        }
    }

    /// Take the pending event with the smallest stamp.
    fn pop(&mut self) -> Option<(SimTime, WorkerEvent)> {
        let k =
            (1..self.next.len()).fold(0, |k, i| if self.next[i] < self.next[k] { i } else { k });
        if self.next[k] == IDLE {
            return None;
        }
        let (when, seq) = (
            SimTime::from_micros((self.next[k] >> 64) as u64),
            self.next[k] as u64,
        );
        self.next[k] = IDLE;
        let event = match Source::ALL[k] {
            Source::Arrival => {
                self.arrival += 1;
                self.next[k] = self.arrivals.get(self.arrival).copied().unwrap_or(IDLE);
                WorkerEvent::Arrival(seq as usize)
            }
            Source::Failure => {
                self.failure += 1;
                self.next[k] = self.failures.get(self.failure).copied().unwrap_or(IDLE);
                WorkerEvent::InjectFailure((seq - self.failure_seq) as usize)
            }
            Source::Stream => WorkerEvent::StreamArrival,
            Source::Tick => WorkerEvent::PolicyTick,
            Source::Completion => WorkerEvent::CompletionCheck,
            Source::Sample => WorkerEvent::SampleTick,
            Source::Trace => WorkerEvent::TraceTick,
        };
        Some((when, event))
    }
}

/// One container's POD record: creation time, soft limits, the
/// resource-time integral the monitor reads, and pool membership.
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

/// The recycled arenas and hot-path buffers of the worker simulation.
///
/// One per executor shard (or per [`Session`](crate::session::Session));
/// every buffer is cleared (capacity kept) between workers, so arena
/// growth amortizes to zero across a cluster run.
#[derive(Debug, Default)]
pub struct DenseScratch {
    /// Job arena: index == raw container id.  Each job carries its label,
    /// moved out of the plan or stream (empty on the headless plan path).
    jobs: Vec<TrainingJob>,
    /// Container records, parallel to `jobs`.
    slots: Vec<ContainerSlot>,
    /// The policy monitor's column, parallel to `jobs`.
    mons: Vec<MonitorSlot>,
    /// The growth-trace monitor's column, parallel to `jobs` when the
    /// recorder records growth traces, empty otherwise.
    growth_mons: Vec<MonitorSlot>,
    /// `(id, exit code)` of containers that exited in the current step.
    exited: Vec<(ContainerId, i32)>,
    /// Ids with fixed rates since the last recompute, in id order.
    rate_ids: Vec<ContainerId>,
    /// CPU rates and contention efficiencies aligned with `rate_ids`.
    shares: NodeShares,
    /// Growth-measurement buffer (policy reconfigurations and growth
    /// traces; each use consumes it before the next).
    measures: Vec<GrowthMeasurement>,
    /// The live pool: ids of `runnable` slots in ascending order, pushed
    /// on admission and retained on exit (see the module docs).
    pool_ids: Vec<ContainerId>,
    /// Policy-decision updates buffer.
    updates: Vec<(ContainerId, f64)>,
    /// Recycled agenda.
    agenda: Agenda,
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
        self.growth_mons.clear();
        self.exited.clear();
        self.rate_ids.clear();
        self.shares.clear();
        self.measures.clear();
        self.pool_ids.clear();
        self.updates.clear();
        self.jobs.reserve(max_jobs);
        self.slots.reserve(max_jobs);
        self.mons.reserve(max_jobs);
        self.exited.reserve(max_jobs);
        self.rate_ids.reserve(max_jobs);
        self.shares.reserve(max_jobs);
        self.measures.reserve(max_jobs);
        self.pool_ids.reserve(max_jobs);
        self.updates.reserve(max_jobs);
    }
}

/// Where a run's jobs come from: a plan's stamped `Arrival` events, or an
/// open-loop stream.
///
/// Monomorphized: the defaults below compile every stream hook to nothing
/// for a plan; [`OpenLoop`] adds the stream lookahead and the
/// steady-state accounting.
trait Admission {
    /// The plan's jobs, stamped as `Arrival` events before the run starts.
    fn plan(&self) -> &[JobRequest] {
        &[]
    }

    /// The spec and label of the plan's `idx`-th job as it arrives.
    fn arrive(&mut self, _idx: usize) -> (ModelSpec, String) {
        unreachable!("plan arrivals are only scheduled for a plan")
    }

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

/// A placed plan, borrowed: the headless path never reads labels, so each
/// job is admitted with an empty one.
struct Placed<'p>(&'p [JobRequest]);

impl Admission for Placed<'_> {
    fn plan(&self) -> &[JobRequest] {
        self.0
    }

    fn arrive(&mut self, idx: usize) -> (ModelSpec, String) {
        (self.0[idx].scaled_spec(), String::new())
    }
}

/// A session's plan, owned: each job arrives exactly once, so its label is
/// moved into the job instead of cloned.
struct Owned(WorkloadPlan);

impl Admission for Owned {
    fn plan(&self) -> &[JobRequest] {
        &self.0.jobs
    }

    fn arrive(&mut self, idx: usize) -> (ModelSpec, String) {
        let job = &mut self.0.jobs[idx];
        (job.scaled_spec(), std::mem::take(&mut job.label))
    }
}

/// Open-loop admission: the stream, its one-job lookahead, and the
/// accounting the run's [`StreamStats`] and [`SojournStats`] come from.
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
    /// Sojourn and queue-wait tails.  On one fluid node every pool member
    /// holds a rate from its admission event on, so queue-wait is always
    /// zero here; it becomes informative in the cluster scheduler, where
    /// jobs wait for slots.
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

    fn take(&mut self) -> StreamedJob {
        self.submitted += 1;
        self.pending.take().expect("a streamed arrival is pending")
    }

    /// `rates` only change at a recompute, so each step contributes one
    /// rectangle to each integral.
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

/// What one worker run needs besides its jobs: the node, the policy, the
/// recorder and the fault schedule.
pub(crate) struct Worker<'f, R> {
    pub(crate) node: NodeConfig,
    pub(crate) policy: Box<dyn ResourcePolicy>,
    pub(crate) recorder: R,
    pub(crate) failures: &'f [FailureInjection],
}

impl Worker<'_, CompletionsOnly> {
    /// A headless worker: completions only, no faults.
    fn headless(
        node: NodeConfig,
        policy: Box<dyn ResourcePolicy>,
        recorder: CompletionsOnly,
    ) -> Self {
        Worker {
            node,
            policy,
            recorder,
            failures: &[],
        }
    }
}

/// Run one worker's plan headless over the dense arenas in `scratch`.
///
/// `plan` must be the worker's jobs in plan order (ascending arrival; the
/// cluster manager's flat placement preserves this).  Labels are ignored —
/// the headless recorder never reads them — so the slice is borrowed, not
/// consumed.  Returns exactly what
/// `Session::builder()...recorder(CompletionsOnly::new()).run()` returns
/// for the same inputs, with room reserved for exactly `plan.len()`
/// completions (every placed job completes once).  `_queue` selects
/// nothing (see [`QueueKind`]).
pub fn run_headless_dense(
    node: NodeConfig,
    plan: &[JobRequest],
    policy: Box<dyn ResourcePolicy>,
    _queue: QueueKind,
    scratch: &mut DenseScratch,
) -> SessionResult<CompletionStats> {
    scratch.reset_for(plan.len());
    let recorder = CompletionsOnly::with_capacity(plan.len());
    let worker = Worker::headless(node, policy, recorder);
    run(worker, Placed(plan), &mut NoopTracer, scratch).0
}

/// Run one worker **open-loop** over the dense arenas in `scratch`: admit
/// jobs pulled from `stream` while `horizon` allows, then drain.
///
/// Returns exactly what
/// `Session::builder()...recorder(CompletionsOnly::new()).build().run_stream(stream, horizon)`
/// returns for the same inputs — completions, event count,
/// [`StreamStats`] and sojourn tails.
///
/// Panics on an unbounded `horizon` and on a stream whose arrivals go
/// back in time.
pub fn run_stream_dense<J: JobStream>(
    node: NodeConfig,
    stream: J,
    horizon: Horizon,
    policy: Box<dyn ResourcePolicy>,
    scratch: &mut DenseScratch,
) -> StreamResult<CompletionStats> {
    let worker = Worker::headless(node, policy, CompletionsOnly::new());
    run_stream(worker, stream, horizon, &mut NoopTracer, scratch)
}

/// Run a session's plan to completion.
pub(crate) fn run_plan<R: Recorder, T: Tracer>(
    worker: Worker<'_, R>,
    plan: WorkloadPlan,
    tracer: &mut T,
    scratch: &mut DenseScratch,
) -> SessionResult<R::Output> {
    scratch.reset_for(plan.len());
    run(worker, Owned(plan), tracer, scratch).0
}

/// Run a worker open-loop (see [`run_stream_dense`]) with any recorder,
/// tracer and fault schedule.
pub(crate) fn run_stream<J: JobStream, R: Recorder, T: Tracer>(
    worker: Worker<'_, R>,
    stream: J,
    horizon: Horizon,
    tracer: &mut T,
    scratch: &mut DenseScratch,
) -> StreamResult<R::Output> {
    assert!(
        horizon.is_bounded(),
        "an open-loop run needs a horizon (until and/or max jobs) — \
         an unbounded stream would never terminate"
    );
    scratch.reset_for(0);
    let capacity = worker.node.capacity;
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
    let (result, open) = run(worker, open, tracer, scratch);
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
            capacity_cpu_secs: capacity * duration_secs,
        },
        tails: open.slo,
    }
}

/// A finished run: the session result and the admission state it ended
/// with.
type Finished<O, A> = (SessionResult<O>, A);

/// The dispatch loop, monomorphized over the admission, the recorder and
/// the tracer, on the scratch's recycled agenda (the scratch must already
/// be reset).
///
/// Every worker run enters here, so this is where a node that could
/// never finish a job is refused.
fn run<A: Admission, R: Recorder, T: Tracer>(
    worker: Worker<'_, R>,
    admission: A,
    tracer: &mut T,
    scratch: &mut DenseScratch,
) -> Finished<R::Output, A> {
    worker.node.assert_usable_capacity();
    assert!(
        worker.node.sample_interval > SimDuration::ZERO,
        "NodeConfig::sample_interval must be > 0"
    );
    let mut agenda = std::mem::take(&mut scratch.agenda);
    // Priming order fixes the sequence numbers that break ties between
    // same-time events: plan arrivals, the first sample and trace ticks,
    // the fault schedule, then the stream lookahead.
    agenda.reset(admission.plan());
    if R::RECORDS_SAMPLES {
        agenda.schedule(Source::Sample, SimTime::ZERO);
    }
    if R::RECORDS_GROWTH {
        agenda.schedule(Source::Trace, SimTime::ZERO + TRACE_INTERVAL);
    }
    agenda.stamp_failures(worker.failures);
    let mut sim = DenseSim {
        node: worker.node,
        policy: worker.policy,
        rng: SimRng::new(worker.node.seed),
        now: SimTime::ZERO,
        last_advance: SimTime::ZERO,
        rates_stale: true,
        samples_changed: true,
        admission,
        recorder: worker.recorder,
        tracer,
        failures: worker.failures,
        update_calls: 0,
        algorithm_runs: 0,
        waterfill_runs: 0,
        agenda,
        s: scratch,
    };
    if let Some(at) = sim.admission.pull_next() {
        sim.agenda.schedule(Source::Stream, at);
    }
    // Superseded stamps count toward `events_processed` as they are
    // superseded (see the module docs).
    let mut dispatched: u64 = 0;
    while let Some((when, event)) = sim.agenda.pop() {
        let events_processed = dispatched + sim.agenda.superseded;
        assert!(
            events_processed < MAX_EVENTS,
            "worker run exceeded its budget of {MAX_EVENTS} events at sim time {when}"
        );
        debug_assert!(when >= sim.now, "event from the past");
        if T::ENABLED {
            if when > sim.now {
                sim.tracer
                    .span_begin(sim.now, TraceKind::EngineAdvance, 0, 0);
                sim.tracer.span_end(when, TraceKind::EngineAdvance, 0, 0);
            }
            sim.tracer
                .instant(when, TraceKind::EngineEvent, events_processed as u32, 0);
        }
        sim.now = when;
        dispatched += 1;
        sim.handle(event);
    }
    let output = sim.recorder.finish(RunMeta {
        policy: sim.policy.as_ref(),
        algorithm_runs: sim.algorithm_runs,
        update_calls: sim.update_calls,
    });
    let result = SessionResult {
        output,
        events_processed: dispatched + sim.agenda.superseded,
        scheduler_overhead_cpu_secs: sim.algorithm_runs as f64 * sim.node.algo_cost_cpu_secs,
    };
    sim.s.agenda = sim.agenda;
    (result, sim.admission)
}

/// Measure every container of `pool` against its slot in `column`, the
/// monitor column the measurement serves, into `out`.
fn measure_pool(
    now: SimTime,
    pool: &[ContainerId],
    jobs: &[TrainingJob],
    slots: &[ContainerSlot],
    column: &mut [MonitorSlot],
    out: &mut Vec<GrowthMeasurement>,
) {
    out.clear();
    for &id in pool {
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

/// One worker simulation over borrowed dense state.
struct DenseSim<'a, A, R, T> {
    node: NodeConfig,
    policy: Box<dyn ResourcePolicy>,
    rng: SimRng,
    now: SimTime,
    last_advance: SimTime,
    /// The pool or a limit changed since the rates were last computed.
    rates_stale: bool,
    /// Something a sample reads (the rates, the live set, a limit) changed
    /// since the last sample tick; stored only when the recorder takes
    /// samples.
    samples_changed: bool,
    admission: A,
    recorder: R,
    tracer: &'a mut T,
    failures: &'a [FailureInjection],
    update_calls: u64,
    algorithm_runs: u64,
    /// Rate recomputations so far (the cumulative count behind the
    /// [`TraceKind::Waterfill`] counter events; traced runs only).
    waterfill_runs: u64,
    agenda: Agenda,
    s: &'a mut DenseScratch,
}

impl<A: Admission, R: Recorder, T: Tracer> DenseSim<'_, A, R, T> {
    /// True once every job has arrived (plan and stream) and the pool is
    /// empty.
    fn is_done(&self) -> bool {
        self.agenda.next[Source::Arrival as usize] == IDLE
            && !self.admission.pending()
            && self.s.pool_ids.is_empty()
    }

    /// Schedule at an absolute time; causality must hold.
    fn schedule_at(&mut self, when: SimTime, source: Source) {
        assert!(
            when >= self.now,
            "cannot schedule into the past: now={}, when={}",
            self.now,
            when
        );
        self.agenda.schedule(source, when);
    }

    fn schedule_after(&mut self, delay: SimDuration, source: Source) {
        self.agenda.schedule(source, self.now + delay);
    }

    /// Integrate the fluid state from `last_advance` to `now`; exited
    /// containers land in `s.exited`.
    ///
    /// Each container's raw CPU occupancy (its rate) goes into its
    /// resource-time integral, as `docker stats` would account it; useful
    /// progress is the rate times its contention efficiency.
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        self.s.exited.clear();
        self.admission.advanced(self.s.shares.rates(), dt);
        if dt <= 0.0 || self.s.rate_ids.is_empty() {
            return;
        }
        for i in 0..self.s.rate_ids.len() {
            let id = self.s.rate_ids[i];
            let rate = self.s.shares.rates()[i];
            let efficiency = self.s.shares.efficiencies()[i];
            let slot = id.index();
            if !self.s.slots[slot].runnable {
                continue;
            }
            let mut usage = self.s.jobs[slot].footprint();
            usage.set(ResourceKind::Cpu, rate);
            self.s.slots[slot].cumulative += usage.scale(dt);
            self.s.jobs[slot].advance(rate * efficiency * dt);
            if let Some(code) = self.s.jobs[slot].status().exit_code() {
                self.s.slots[slot].runnable = false;
                self.s.exited.push((id, code));
                if R::RECORDS_SAMPLES {
                    self.samples_changed = true;
                }
            }
        }
    }

    /// Recompute allocator rates and contention for the live pool through
    /// the node-share rule ([`NodeShares`]).
    ///
    /// Limits are Docker-style **soft caps** (§4.1): a limit bounds the
    /// share a container may claim while others contend, but capacity
    /// that would otherwise idle is redistributed up to demand.  A
    /// container is "shaped" when a policy gave it an explicit limit; free
    /// competitors (limit 1.0, i.e. NA and fresh jobs) pay the jitter tax
    /// on top of the shared contention factor.
    ///
    /// Rates and efficiencies are a pure function of the live list and its
    /// limits (demands are fixed per job), so they are only rebuilt when
    /// one of those moved; the pending completion projection is voided
    /// either way.
    fn recompute_rates(&mut self) {
        if T::ENABLED {
            self.waterfill_runs += 1;
            self.tracer.counter(
                self.last_advance,
                TraceKind::Waterfill,
                0,
                self.waterfill_runs as f64,
            );
        }
        self.agenda.void(Source::Completion);
        if !self.rates_stale {
            return;
        }
        self.rates_stale = false;
        if R::RECORDS_SAMPLES {
            // Every limit update marks the rates stale, so this covers
            // limits too.
            self.samples_changed = true;
        }
        let s = &mut *self.s;
        s.shares.recompute(
            self.node.capacity,
            &self.node.contention,
            s.pool_ids.iter().map(|id| {
                let i = id.index();
                (s.slots[i].limits.cpu_limit(), s.jobs[i].demand())
            }),
        );
        s.rate_ids.clear();
        s.rate_ids.extend_from_slice(&s.pool_ids);
    }

    /// Project the earliest completion under current rates (none while a
    /// rate id has left the pool: the next recompute reprojects).
    fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for i in 0..self.s.rate_ids.len() {
            let slot = self.s.rate_ids[i].index();
            if !self.s.slots[slot].runnable {
                return None;
            }
            let remaining = self.s.jobs[slot].remaining_cpu_seconds();
            let speed = self.s.shares.rates()[i] * self.s.shares.efficiencies()[i];
            if speed > 1e-12 {
                let eta = remaining / speed;
                best = Some(best.map_or(eta, |b| b.min(eta)));
            }
        }
        best.map(|eta| {
            // One microsecond of margin so the projected event lands
            // strictly after the workload's exact finish (it clamps).
            self.last_advance + SimDuration::from_secs_f64(eta) + SimDuration::from_micros(1)
        })
    }

    /// Handle the exits in `s.exited`: record completions, drop the exited
    /// ids from the live list, and notify the policy (returning whether it
    /// wants an immediate reconfiguration).
    fn process_exits(&mut self, now: SimTime) -> bool {
        if self.s.exited.is_empty() {
            return false;
        }
        for k in 0..self.s.exited.len() {
            let (id, code) = self.s.exited[k];
            let i = id.index();
            self.s.mons[i].forget();
            if R::RECORDS_GROWTH {
                self.s.growth_mons[i].forget();
            }
            if T::ENABLED {
                self.tracer.span_end(now, TraceKind::JobRun, id.as_raw(), 0);
                self.tracer
                    .instant(now, TraceKind::JobComplete, id.as_raw(), code as u32);
            }
            let created_at = self.s.slots[i].created_at;
            self.admission.exited(created_at, now);
            self.recorder
                .record_completion(self.s.jobs[i].label(), created_at, now, code);
        }
        let s = &mut *self.s;
        s.pool_ids.retain(|id| s.slots[id.index()].runnable);
        self.rates_stale = true;
        self.policy.on_pool_change(now, &self.s.pool_ids)
    }

    /// Run the policy (Executor tick or listener interrupt), apply its
    /// updates, and return its next interval.
    fn run_reconfigure(&mut self, now: SimTime) -> Option<SimDuration> {
        if T::ENABLED {
            let live = self.s.pool_ids.len() as u32;
            self.tracer.span_begin(now, TraceKind::Reconfigure, live, 0);
        }
        let s = &mut *self.s;
        measure_pool(
            now,
            &s.pool_ids,
            &s.jobs,
            &s.slots,
            &mut s.mons,
            &mut s.measures,
        );
        // Policies must clear the recycled buffer themselves; this
        // belt-and-suspenders clear keeps a non-conforming external policy
        // from re-applying last tick's limits.
        s.updates.clear();
        let next_interval = self
            .policy
            .reconfigure_into(now, &s.measures, &mut s.updates);
        self.algorithm_runs += 1;
        for k in 0..self.s.updates.len() {
            let (id, limit) = self.s.updates[k];
            // `docker update` applies to pool members only.
            let slot = id.index();
            if slot < self.s.slots.len() && self.s.slots[slot].runnable {
                self.s.slots[slot].limits.set(ResourceKind::Cpu, limit);
                self.update_calls += 1;
                self.rates_stale = true;
            }
        }
        if T::ENABLED {
            let live = self.s.pool_ids.len() as u32;
            self.tracer.span_end(now, TraceKind::Reconfigure, live, 0);
        }
        next_interval
    }

    /// Reschedule the policy tick after a reconfiguration, superseding a
    /// pending one.
    fn schedule_tick(&mut self, interval: Option<SimDuration>) {
        let interval = checked_interval(interval);
        if self.is_done() {
            return;
        }
        if let Some(itval) = interval {
            self.schedule_after(itval, Source::Tick);
        }
    }

    /// Schedule the next projected completion check.
    fn schedule_completion(&mut self) {
        if let Some(at) = self.next_completion() {
            self.schedule_at(at, Source::Completion);
        }
    }

    /// Reconfigure, then reshare and reproject.
    fn reconfigure_and_reshare(&mut self, now: SimTime) {
        let next = self.run_reconfigure(now);
        self.schedule_tick(next);
        self.recompute_rates();
        self.schedule_completion();
    }

    /// Each live rate's usage/limit sample, keyed by container.
    ///
    /// Reads the rates (`rate_ids`, `shares`), each slot's `runnable`
    /// flag and limit, and each job's label (fixed for its run): whatever
    /// changes one of them sets `samples_changed`.
    fn record_samples(&mut self, now: SimTime) {
        let s = &*self.s;
        for (&id, &rate) in s.rate_ids.iter().zip(s.shares.rates()) {
            let slot = &s.slots[id.index()];
            if slot.runnable {
                self.recorder.record_sample_by_id(
                    now,
                    id,
                    s.jobs[id.index()].label(),
                    rate,
                    slot.limits.cpu_limit(),
                );
            }
        }
    }

    /// Each live container's growth efficiency, once it has one.
    fn record_growth_traces(&mut self, now: SimTime) {
        let s = &mut *self.s;
        let column = &mut s.growth_mons;
        measure_pool(now, &s.pool_ids, &s.jobs, &s.slots, column, &mut s.measures);
        for m in &s.measures {
            if let Some(g) = m.growth() {
                self.recorder
                    .record_growth(now, s.jobs[m.id.index()].label(), g);
            }
        }
    }

    /// Admit one job into the pool at `now` and run the arrival protocol:
    /// notify the policy, start (or pre-empt) the executor chain, recompute
    /// rates, and reproject the next completion.
    fn admit_job(
        &mut self,
        now: SimTime,
        spec: ModelSpec,
        label: String,
        interrupted_by_exit: bool,
    ) {
        let job = TrainingJob::with_label(spec, label, &mut self.rng);
        let id = ContainerId::from_raw(self.s.jobs.len() as u32);
        self.s.jobs.push(job);
        self.s.slots.push(ContainerSlot {
            created_at: now,
            limits: ResourceLimits::unlimited(),
            cumulative: ResourceVec::ZERO,
            runnable: true,
        });
        self.s.mons.push(MonitorSlot::UNTRACKED);
        if R::RECORDS_GROWTH {
            self.s.growth_mons.push(MonitorSlot::UNTRACKED);
        }
        // Ids only grow, so pushing keeps the live list ascending.
        self.s.pool_ids.push(id);
        self.rates_stale = true;
        if T::ENABLED {
            self.tracer
                .instant(now, TraceKind::JobAdmit, id.as_raw(), 0);
            self.tracer
                .span_begin(now, TraceKind::JobRun, id.as_raw(), 0);
        }

        let interrupt = self.policy.on_pool_change(now, &self.s.pool_ids);
        if interrupt || interrupted_by_exit {
            let next = self.run_reconfigure(now);
            self.schedule_tick(next);
        } else if self.s.pool_ids.len() == 1 {
            // The first job under a tick-less policy still needs the
            // executor chain started (if the policy has one).
            let initial = self.policy.initial_interval();
            self.schedule_tick(initial);
        }
        self.recompute_rates();
        self.schedule_completion();
    }

    /// Crash the first live container labelled as the `idx`-th fault says.
    fn inject_failure(&mut self, now: SimTime, idx: usize) -> bool {
        let failures = self.failures;
        let injection = &failures[idx];
        let s = &mut *self.s;
        let target = s
            .pool_ids
            .iter()
            .copied()
            .find(|id| s.jobs[id.index()].label() == injection.label);
        let Some(id) = target else {
            return false;
        };
        let job = &mut s.jobs[id.index()];
        job.inject_failure(injection.exit_code);
        let code = job.status().exit_code().expect("a crashed job has exited");
        s.slots[id.index()].runnable = false;
        s.exited.clear();
        s.exited.push((id, code));
        if R::RECORDS_SAMPLES {
            self.samples_changed = true;
        }
        self.process_exits(now)
    }

    fn handle(&mut self, event: WorkerEvent) {
        let now = self.now;
        match event {
            WorkerEvent::Arrival(idx) => {
                self.advance_to(now);
                let interrupted_by_exit = self.process_exits(now);
                let (spec, label) = self.admission.arrive(idx);
                self.admit_job(now, spec, label, interrupted_by_exit);
            }
            WorkerEvent::StreamArrival => {
                let job = self.admission.take();
                debug_assert!(job.arrival == now, "stream arrival fired off schedule");
                self.advance_to(now);
                let interrupted_by_exit = self.process_exits(now);
                // Schedule the lookahead *before* admitting: admission
                // consults `is_done` (via tick scheduling), which must
                // already know whether more arrivals are coming.  The
                // order also fixes the sequence numbers that break ties
                // between same-time events.
                if let Some(at) = self.admission.pull_next() {
                    assert!(
                        at >= now,
                        "job streams must yield monotone arrivals ({at} after {now})"
                    );
                    self.schedule_at(at, Source::Stream);
                }
                self.admit_job(now, job.scaled_spec(), job.label, interrupted_by_exit);
            }
            WorkerEvent::CompletionCheck => {
                self.advance_to(now);
                if self.process_exits(now) {
                    let next = self.run_reconfigure(now);
                    self.schedule_tick(next);
                }
                self.recompute_rates();
                self.schedule_completion();
            }
            WorkerEvent::PolicyTick => {
                self.advance_to(now);
                let _ = self.process_exits(now); // the tick reconfigures below
                self.reconfigure_and_reshare(now);
            }
            // Ticks are scheduled only for recorders that take them; the
            // guards let every other recorder compile both arms away.
            WorkerEvent::SampleTick if R::RECORDS_SAMPLES => {
                self.advance_to(now);
                if self.process_exits(now) {
                    self.reconfigure_and_reshare(now);
                }
                if self.samples_changed || !self.recorder.repeat_samples(now) {
                    self.samples_changed = false;
                    if self.recorder.sample_tick(now) {
                        self.record_samples(now);
                    }
                }
                if !self.is_done() {
                    self.schedule_after(self.node.sample_interval, Source::Sample);
                }
            }
            WorkerEvent::TraceTick if R::RECORDS_GROWTH => {
                self.advance_to(now);
                if self.process_exits(now) {
                    self.reconfigure_and_reshare(now);
                }
                if self.recorder.growth_tick(now) {
                    self.record_growth_traces(now);
                }
                if !self.is_done() {
                    self.schedule_after(TRACE_INTERVAL, Source::Trace);
                }
            }
            WorkerEvent::SampleTick | WorkerEvent::TraceTick => {
                unreachable!("this recorder takes no sample or trace ticks")
            }
            WorkerEvent::InjectFailure(idx) => {
                self.advance_to(now);
                let mut interrupt = self.process_exits(now);
                interrupt |= self.inject_failure(now, idx);
                if interrupt {
                    let next = self.run_reconfigure(now);
                    self.schedule_tick(next);
                }
                self.recompute_rates();
                self.schedule_completion();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConConfig;
    use crate::policy::{FairSharePolicy, FlowConPolicy};
    use flowcon_dl::workload::WorkloadPlan;

    fn dense(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<CompletionStats> {
        let mut scratch = DenseScratch::new();
        run_headless_dense(
            node,
            &plan.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        )
    }

    fn assert_same(a: &SessionResult<CompletionStats>, b: &SessionResult<CompletionStats>) {
        assert_eq!(a.output, b.output);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.scheduler_overhead_cpu_secs, b.scheduler_overhead_cpu_secs);
    }

    /// FNV-1a over everything the headless runs in `results` return.
    fn digest<'r>(results: impl IntoIterator<Item = &'r SessionResult<CompletionStats>>) -> u64 {
        fn word(h: &mut u64, w: u64) {
            for b in w.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        for r in results {
            word(&mut h, r.output.len() as u64);
            for c in &r.output.completions {
                word(&mut h, c.arrival.as_micros());
                word(&mut h, c.finished.as_micros());
                word(&mut h, c.exit_code as u64);
            }
            word(&mut h, r.output.algorithm_runs);
            word(&mut h, r.output.update_calls);
            word(&mut h, r.events_processed);
            word(&mut h, r.scheduler_overhead_cpu_secs.to_bits());
        }
        h
    }

    /// Golden digests of the object simulation this module replaced, run
    /// with a `CompletionsOnly` recorder on the same inputs.
    #[test]
    fn dense_is_bit_identical_to_the_object_session() {
        let runs: Vec<_> = [3_u64, 11, 42]
            .into_iter()
            .map(|seed| {
                let plan = WorkloadPlan::random_n(12, seed);
                dense(NodeConfig::default(), &plan)
            })
            .collect();
        let got = digest(&runs);
        assert_eq!(got, 0x1600_1b10_3485_9d06, "digest {got:#018x}");
    }

    #[test]
    fn dense_matches_under_the_na_baseline_too() {
        let plan = WorkloadPlan::random_n(8, 7);
        let mut scratch = DenseScratch::new();
        let fast = run_headless_dense(
            NodeConfig::default(),
            &plan.jobs,
            Box::new(FairSharePolicy::new()),
            QueueKind::Heap,
            &mut scratch,
        );
        let got = digest([&fast]);
        assert_eq!(got, 0xc95f_8c9f_5fd2_53ce, "digest {got:#018x}");
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
            QueueKind::Heap,
            &mut scratch,
        );
        // A different worker in between must not perturb the next run.
        let _ = run_headless_dense(
            NodeConfig::default().with_seed(99),
            &plan_b.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        );
        let again = run_headless_dense(
            NodeConfig::default(),
            &plan_a.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
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
}
