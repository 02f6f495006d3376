//! The worker simulation: one node driven from event to event.
//!
//! Every worker run goes through this module — recorded, traced and
//! failure-injected [`Session`](crate::session::Session)s as well as the
//! million-worker headless cluster path.  The node's physics is a
//! [`NodeKernel`] (see [`crate::kernel`]); this module drives it: the
//! agenda, admission (each job takes the arena's next container id, so
//! ids only grow), the recorder and tracer calls, the growth-trace monitor
//! column and fault injection.  The kernel lives in a [`DenseScratch`]
//! owned by the caller — one per executor shard — and is recycled across
//! every worker that shard drives, so a steady-state headless worker run
//! performs only the allocations its policy and completion stats need
//! (budgeted well under 10 per worker by
//! `crates/cluster/tests/headless_allocs.rs`).
//!
//! # Plans, streams and sessions
//!
//! One dispatch loop serves every workload shape.  [`run_headless_dense`]
//! runs a placed plan: every job's arrival is queued up front.
//! [`run_stream_dense`] runs **open-loop**: it pulls one job ahead of the
//! clock from a [`JobStream`] (a single scheduled stream arrival), admits
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

use flowcon_dl::models::ModelSpec;
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_metrics::sojourn::SojournStats;
use flowcon_metrics::stream::StreamStats;
use flowcon_metrics::summary::CompletionStats;
use flowcon_sim::stats::TimeWeighted;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{NoopTracer, TraceKind, Tracer};
use flowcon_workload::stream::{Horizon, JobStream, StreamedJob};

use crate::config::NodeConfig;
use crate::kernel::{NodeKernel, Step};
use crate::metric::GrowthMeasurement;
use crate::monitor::MonitorSlot;
use crate::policy::{checked_interval, ResourcePolicy};
use crate::recorder::{CompletionsOnly, Recorder, RunMeta};
use crate::session::{SessionResult, StreamResult};
use crate::worker::{FailureInjection, TRACE_INTERVAL};

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

/// The sources of a worker's events, one [`Agenda`] slot each (see
/// [`crate::worker`] for what each event does).
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The plan's next arrival, in `(arrival, plan index)` order.
    Arrival,
    /// The stream's lookahead job.
    Stream,
    /// The Executor's policy tick; an interrupt that re-arms the interval
    /// supersedes it.
    Tick,
    /// The projected next completion; a reprojection supersedes it.
    Completion,
    /// The 1 Hz usage/limit sample tick.
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

    /// Take the pending event with the smallest stamp: its time, its
    /// source, and for an arrival or a fault its plan or listing index.
    fn pop(&mut self) -> Option<(SimTime, Source, usize)> {
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
        let source = Source::ALL[k];
        let idx = match source {
            Source::Arrival => {
                self.arrival += 1;
                self.next[k] = self.arrivals.get(self.arrival).copied().unwrap_or(IDLE);
                seq
            }
            Source::Failure => {
                self.failure += 1;
                self.next[k] = self.failures.get(self.failure).copied().unwrap_or(IDLE);
                seq - self.failure_seq
            }
            _ => 0,
        };
        Some((when, source, idx as usize))
    }
}

/// The recycled arenas and hot-path buffers of the worker simulation.
///
/// One per executor shard (or per [`Session`](crate::session::Session));
/// every buffer is cleared (capacity kept) between workers, so arena
/// growth amortizes to zero across a cluster run.
#[derive(Debug, Default)]
pub struct DenseScratch {
    /// The node's physics.  Each job carries its label, moved out of the
    /// plan or stream (empty on the headless plan path).
    kernel: NodeKernel,
    /// The growth-trace monitor's column, parallel to the kernel's arena
    /// when the recorder records growth traces, empty otherwise.
    growth_mons: Vec<MonitorSlot>,
    /// The growth traces' measurement buffer.
    growth: Vec<GrowthMeasurement>,
    /// Recycled agenda.
    agenda: Agenda,
}

impl DenseScratch {
    /// Fresh scratch with empty arenas.
    pub fn new() -> Self {
        Self::default()
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

    /// Take the job whose stream arrival is firing, counting it as
    /// submitted.
    fn take(&mut self) -> StreamedJob {
        unreachable!("stream arrivals are only scheduled by an open-loop run")
    }

    /// One fluid step of the node, as the kernel integrated it.
    fn advanced(&mut self, _step: Step) {}

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
    /// The job whose stream arrival is scheduled.
    pending: Option<StreamedJob>,
    submitted: u64,
    exits: u64,
    /// When the latest container exited (the drain point).
    last_exit: SimTime,
    /// `∫ Σrates · dt` over the jobs each step advanced, the utilization
    /// numerator.
    busy: TimeWeighted,
    /// `∫ pool size · dt` over the same jobs, the mean-queue-depth
    /// numerator.
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

    /// Rates only change at a reshare, so each step contributes one
    /// rectangle to each integral: the rates and the count of the jobs it
    /// advanced.  A job that left since the last reshare (at a sample tick,
    /// under a policy that does not interrupt on exits) adds nothing.
    fn advanced(&mut self, step: Step) {
        if step.dt > 0.0 {
            self.busy.accumulate(step.cpu, step.dt);
            self.queue.accumulate(step.jobs as f64, step.dt);
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

/// The dispatch loop, monomorphized over the admission, the recorder and
/// the tracer, on the scratch's recycled kernel and agenda.
///
/// Every worker run enters here, so this is where a node that could
/// never finish a job is refused.
fn run<A: Admission, R: Recorder, T: Tracer>(
    worker: Worker<'_, R>,
    admission: A,
    tracer: &mut T,
    scratch: &mut DenseScratch,
) -> (SessionResult<R::Output>, A) {
    worker.node.assert_usable_capacity();
    assert!(
        worker.node.sample_interval > SimDuration::ZERO,
        "NodeConfig::sample_interval must be > 0"
    );
    scratch.kernel.reset(worker.node, admission.plan().len());
    scratch.growth_mons.clear();
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
        now: SimTime::ZERO,
        samples_changed: true,
        admission,
        recorder: worker.recorder,
        tracer,
        failures: worker.failures,
        agenda,
        s: scratch,
    };
    if let Some(at) = sim.admission.pull_next() {
        sim.agenda.schedule(Source::Stream, at);
    }
    // Superseded stamps count toward `events_processed` as they are
    // superseded (see the module docs).
    let mut dispatched: u64 = 0;
    while let Some((when, source, idx)) = sim.agenda.pop() {
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
        sim.handle(source, idx);
    }
    let algorithm_runs = sim.s.kernel.algorithm_runs();
    let output = sim.recorder.finish(RunMeta {
        policy: sim.policy.as_ref(),
        algorithm_runs,
        update_calls: sim.s.kernel.update_calls(),
    });
    let result = SessionResult {
        output,
        events_processed: dispatched + sim.agenda.superseded,
        scheduler_overhead_cpu_secs: algorithm_runs as f64 * sim.node.algo_cost_cpu_secs,
    };
    sim.s.agenda = sim.agenda;
    (result, sim.admission)
}

/// One worker simulation over borrowed dense state.
struct DenseSim<'a, A, R, T> {
    node: NodeConfig,
    policy: Box<dyn ResourcePolicy>,
    now: SimTime,
    /// Something a sample reads (the rates, the live set, a limit) changed
    /// since the last sample tick; stored only when the recorder takes
    /// samples.
    samples_changed: bool,
    admission: A,
    recorder: R,
    tracer: &'a mut T,
    failures: &'a [FailureInjection],
    agenda: Agenda,
    s: &'a mut DenseScratch,
}

impl<A: Admission, R: Recorder, T: Tracer> DenseSim<'_, A, R, T> {
    /// True once every job has arrived (plan and stream) and the pool is
    /// empty.
    fn is_done(&self) -> bool {
        self.agenda.next[Source::Arrival as usize] == IDLE
            && !self.admission.pending()
            && self.s.kernel.live().is_empty()
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

    /// Handle the kernel's exits: mark the samples changed, record
    /// completions, release the exited ids from the live list, and notify
    /// the policy (returning whether it wants an immediate
    /// reconfiguration).
    fn process_exits(&mut self, now: SimTime) -> bool {
        let s = &mut *self.s;
        if s.kernel.exited().is_empty() {
            return false;
        }
        if R::RECORDS_SAMPLES {
            self.samples_changed = true;
        }
        for &(id, code) in s.kernel.exited() {
            if R::RECORDS_GROWTH {
                s.growth_mons[id.index()].forget();
            }
            if T::ENABLED {
                self.tracer.span_end(now, TraceKind::JobRun, id.as_raw(), 0);
                self.tracer
                    .instant(now, TraceKind::JobComplete, id.as_raw(), code as u32);
            }
            let created_at = s.kernel.created_at(id);
            self.admission.exited(created_at, now);
            self.recorder
                .record_completion(s.kernel.job(id).label(), created_at, now, code);
        }
        s.kernel.release_exited();
        self.policy.on_pool_change(now, s.kernel.live())
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

    /// Run the policy (Executor tick or listener interrupt) if
    /// `reconfigure`, then reshare the node if the live list or a limit
    /// moved and reproject the next completion, superseding the pending
    /// projection either way.
    fn settle(&mut self, reconfigure: bool) {
        if reconfigure {
            let next = self
                .s
                .kernel
                .reconfigure(self.policy.as_mut(), self.tracer, 0);
            self.schedule_tick(next);
        }
        self.agenda.void(Source::Completion);
        if self.s.kernel.reshare(self.tracer, 0) && R::RECORDS_SAMPLES {
            // Every limit update marks the kernel stale, so this covers
            // limits too.
            self.samples_changed = true;
        }
        if let Some(at) = self.s.kernel.next_completion() {
            self.schedule_at(at, Source::Completion);
        }
    }

    /// Each live rate's usage/limit sample, keyed by container.
    ///
    /// Reads the rates of the last reshare, the live list, each live
    /// job's limit, and each job's label (fixed for its run): whatever
    /// changes one of them sets `samples_changed`.
    fn record_samples(&mut self, now: SimTime) {
        let k = &self.s.kernel;
        for (id, rate, limit) in k.live_rates() {
            self.recorder
                .record_sample_by_id(now, id, k.job(id).label(), rate, limit);
        }
    }

    /// Each live container's growth efficiency, once it has one.
    fn record_growth_traces(&mut self, now: SimTime) {
        let s = &mut *self.s;
        s.kernel.measure_into(&mut s.growth_mons, &mut s.growth);
        for m in &s.growth {
            if let Some(g) = m.growth() {
                self.recorder
                    .record_growth(now, s.kernel.job(m.id).label(), g);
            }
        }
    }

    /// Admit one job into the pool at `now` and run the arrival protocol:
    /// notify the policy, start (or pre-empt) the executor chain, reshare,
    /// and reproject the next completion.
    fn admit_job(
        &mut self,
        now: SimTime,
        (spec, label): (ModelSpec, String),
        interrupted_by_exit: bool,
    ) {
        // Ids only grow: each job takes the arena's next slot.
        let id = self.s.kernel.fresh_id();
        self.s.kernel.admit(id, spec, label);
        if R::RECORDS_GROWTH {
            self.s.growth_mons.push(MonitorSlot::UNTRACKED);
        }
        if T::ENABLED {
            self.tracer
                .instant(now, TraceKind::JobAdmit, id.as_raw(), 0);
            self.tracer
                .span_begin(now, TraceKind::JobRun, id.as_raw(), 0);
        }

        let interrupt =
            self.policy.on_pool_change(now, self.s.kernel.live()) || interrupted_by_exit;
        if !interrupt && self.s.kernel.live().len() == 1 {
            // The first job under a tick-less policy still needs the
            // executor chain started (if the policy has one).
            let initial = self.policy.initial_interval();
            self.schedule_tick(initial);
        }
        self.settle(interrupt);
    }

    /// Crash the first live container labelled as the `idx`-th fault says.
    fn inject_failure(&mut self, now: SimTime, idx: usize) -> bool {
        let failures = self.failures;
        let injection = &failures[idx];
        let k = &mut self.s.kernel;
        let target = k
            .live()
            .iter()
            .copied()
            .find(|&id| k.job(id).label() == injection.label);
        let Some(id) = target else {
            return false;
        };
        k.crash(id, injection.exit_code);
        self.process_exits(now)
    }

    /// Dispatch one event of `source` (`idx` indexes an arrival's plan or
    /// a fault's listing): step the node to it, hand the exits it finds to
    /// the policy (which may ask for an interrupt), then run the event's
    /// own protocol.
    fn handle(&mut self, source: Source, idx: usize) {
        let now = self.now;
        let step = self.s.kernel.step_to(now);
        self.admission.advanced(step);
        let interrupt = self.process_exits(now);
        match source {
            Source::Arrival => {
                let job = self.admission.arrive(idx);
                self.admit_job(now, job, interrupt);
            }
            Source::Stream => {
                let job = self.admission.take();
                debug_assert!(job.arrival == now, "stream arrival fired off schedule");
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
                self.admit_job(now, (job.scaled_spec(), job.label), interrupt);
            }
            Source::Completion => self.settle(interrupt),
            // The tick reconfigures whatever the exits asked for.
            Source::Tick => self.settle(true),
            // Ticks are scheduled only for recorders that take them; the
            // guards let every other recorder compile both arms away.
            Source::Sample if R::RECORDS_SAMPLES => {
                if interrupt {
                    self.settle(true);
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
            Source::Trace if R::RECORDS_GROWTH => {
                if interrupt {
                    self.settle(true);
                }
                if self.recorder.growth_tick(now) {
                    self.record_growth_traces(now);
                }
                if !self.is_done() {
                    self.schedule_after(TRACE_INTERVAL, Source::Trace);
                }
            }
            Source::Sample | Source::Trace => {
                unreachable!("this recorder takes no sample or trace ticks")
            }
            Source::Failure => {
                let crashed = self.inject_failure(now, idx);
                self.settle(interrupt | crashed);
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
    fn open_loop_areas_stop_at_each_exit() {
        use crate::recorder::FullRecorder;
        use crate::session::Session;
        use flowcon_dl::models::ModelId;
        // Under the NA baseline an exit found at a sample tick does not
        // reshare, so the exited job's rate stays listed until the
        // completion stamp fires; it must not count as busy or queued.
        let node = NodeConfig {
            sample_interval: SimDuration::from_micros(1),
            ..NodeConfig::default()
        };
        for model in [
            ModelId::Vae,
            ModelId::Gru,
            ModelId::MnistTf,
            ModelId::LstmCfc,
        ] {
            for scale in [1e-7, 2e-7, 3e-7, 5e-7, 7e-7, 1e-6] {
                let mut job = Some(StreamedJob {
                    label: "Job-1".into(),
                    model,
                    arrival: SimTime::from_micros(3),
                    work_scale: scale,
                });
                let r = Session::builder()
                    .node(node)
                    .policy(FairSharePolicy::new())
                    .recorder(FullRecorder::new())
                    .build()
                    .run_stream(move || job.take(), Horizon::jobs(1));
                let c = &r.output.completions[0];
                let secs = c.finished.saturating_since(c.arrival).as_secs_f64();
                let demand = ModelSpec::of(model).demand;
                let what = format!("{model:?} at work scale {scale}");
                assert!(
                    r.stream.busy_cpu_secs <= demand * secs * (1.0 + 1e-12),
                    "{what}: {} busy CPU-s over a {secs} s run at demand {demand}",
                    r.stream.busy_cpu_secs
                );
                assert!(
                    r.stream.queue_job_secs <= secs * (1.0 + 1e-12),
                    "{what}: {} queued job-s over a {secs} s run",
                    r.stream.queue_job_secs
                );
            }
        }
    }

    #[test]
    fn slot_records_stay_pod() {
        // The arenas are the density story: a fatter record is a silent
        // memory regression at a million workers.
        assert_eq!(std::mem::size_of::<crate::kernel::ContainerSlot>(), 80);
        assert_eq!(std::mem::size_of::<MonitorSlot>(), 112);
        assert_eq!(std::mem::size_of::<flowcon_container::ContainerId>(), 4);
    }
}
