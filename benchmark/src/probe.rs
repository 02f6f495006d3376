//! Benchmark-owned probes that time calls into each layer from outside,
//! through hooks the library already has:
//!
//! * [`WallTracer`] implements the simulator's [`Tracer`] and reads the
//!   host clock at span boundaries;
//! * [`TimedPolicy`] wraps a `ResourcePolicy`, [`TimedRecorder`] a
//!   `Recorder`, [`TimedDiscipline`] a scheduler `ClusterPolicy`;
//! * [`timed_map`] drives the cluster executor and times every item.
//!
//! The wrappers write into a per-thread [`Layers`] accumulator.  The
//! tracer subtracts the wrapped time from the spans it sits in, so a
//! span's self time excludes both nested spans and wrapped calls.
//! Nothing here feeds back into the simulation: a traced run must produce
//! the same simulated output as an untraced one, and the benchmark checks
//! that it does.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use flowcon_cluster::{executor, ClusterPolicy, ClusterView, SchedAction};
use flowcon_container::ContainerId;
use flowcon_core::metric::GrowthMeasurement;
use flowcon_core::policy::ResourcePolicy;
use flowcon_core::recorder::{Recorder, RunMeta};
use flowcon_metrics::sketch::QuantileSketch;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{TraceEvent, TraceKind, TracePhase, Tracer};

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The cost of reading the clock, as the median gap between two
/// back-to-back reads.  Wrapped calls subtract it, so calls that take about
/// as long as a clock read are not inflated by the reads around them.
fn timer_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut gaps: Vec<u64> = (0..1001)
            .map(|_| {
                let a = now_ns();
                now_ns() - a
            })
            .collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    })
}

/// Host ns since `start`, less the clock-read floor.
fn lap(start: u64) -> u64 {
    (now_ns() - start).saturating_sub(timer_floor_ns())
}

/// A small integer naming the calling OS thread (unique per thread for the
/// life of the process; cheaper than `std::thread::current().id()`).
pub fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Per-thread wrapper accumulators
// ---------------------------------------------------------------------------

/// Timed calls of one kind.
#[derive(Debug, Clone, Default)]
pub struct Calls {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub ns: u64,
    /// Calls that did something (changed a limit, emitted an action).
    pub useful: u64,
    /// Per-call host microseconds (where a metric reports a percentile).
    pub us: QuantileSketch,
}

impl Calls {
    fn count(&mut self, ns: u64, useful: bool) {
        self.calls += 1;
        self.ns += ns;
        self.useful += u64::from(useful);
    }

    fn record(&mut self, ns: u64, useful: bool) {
        self.count(ns, useful);
        self.us.insert(ns as f64 / 1e3);
    }

    fn merge(&mut self, other: &Calls) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.useful += other.useful;
        self.us.merge(&other.us);
    }
}

/// What the wrappers on one thread measured.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Host nanoseconds inside any wrapped call on this thread so far.
    /// Monotonic between [`take_layers`] calls; the tracer snapshots it at
    /// span boundaries.  Per thread only, so [`Layers::merge`] skips it.
    wrapped_ns: u64,
    /// An open recorder tick: its start, closed by the next tracer event.
    tick_open: Option<u64>,
    /// `ResourcePolicy::reconfigure_into` calls (Algorithm 1 runs).
    pub reconfigure: Calls,
    /// `ResourcePolicy::on_pool_change` calls; `useful` counts interrupts.
    pub pool_change: Calls,
    /// Recorder hook invocations.
    pub recorder_calls: u64,
    /// Host nanoseconds in the recorder.
    pub recorder_ns: u64,
    /// Scheduler `ClusterPolicy::schedule` calls; `useful` counts calls
    /// that emitted at least one action.
    pub decide: Calls,
}

impl Layers {
    /// Fold another thread's accumulator in.
    pub fn merge(&mut self, other: &Layers) {
        self.reconfigure.merge(&other.reconfigure);
        self.pool_change.merge(&other.pool_change);
        self.recorder_calls += other.recorder_calls;
        self.recorder_ns += other.recorder_ns;
        self.decide.merge(&other.decide);
    }
}

thread_local!(static LAYERS: RefCell<Layers> = RefCell::new(Layers::default()));

fn with_layers<R>(f: impl FnOnce(&mut Layers) -> R) -> R {
    LAYERS.with(|l| f(&mut l.borrow_mut()))
}

/// Take (and reset) the calling thread's accumulator.
pub fn take_layers() -> Layers {
    with_layers(std::mem::take)
}

/// Close an open recorder tick at `now` (the tick's recording work ran
/// from its hook to the next engine event) and return the thread's
/// wrapped-time counter.
fn close_tick(now: u64) -> u64 {
    with_layers(|l| {
        if let Some(start) = l.tick_open.take() {
            let ns = now.saturating_sub(start);
            l.recorder_ns += ns;
            l.wrapped_ns += ns;
        }
        l.wrapped_ns
    })
}

// ---------------------------------------------------------------------------
// Span bookkeeping
// ---------------------------------------------------------------------------

/// Index of the implicit engine-dispatch span in the per-kind arrays.  The
/// engine's own `EngineAdvance` span opens and closes with no host work in
/// between, so the tracer instead treats each interval from one
/// `EngineEvent` instant to the next as the dispatch of that event.
pub const DISPATCH: usize = TraceKind::ALL.len();
const SLOTS: usize = DISPATCH + 1;

/// `kind`'s index in `TraceKind::ALL`, which lists the `repr(u8)` kinds in
/// declaration order (pinned by a test below).
fn slot(kind: TraceKind) -> usize {
    kind as usize
}

#[derive(Debug, Clone, Copy)]
struct Open {
    slot: usize,
    start: u64,
    /// Host time of closed child spans.
    child: u64,
    /// The thread's wrapped-time counter when the span opened.
    wrapped_at: u64,
    /// Wrapped time that fell inside closed child spans.
    wrapped_in_children: u64,
}

/// A closed span: total and self host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed {
    /// Which kind (a `TraceKind::ALL` index, or [`DISPATCH`]).
    pub slot: usize,
    /// Start, host ns.
    pub start: u64,
    /// End − start.
    pub total: u64,
    /// Total minus nested child spans and wrapped calls made directly in
    /// this span.
    pub self_ns: u64,
}

/// The open-span stack with self-time accounting; clock readings and the
/// wrapped-time counter are passed in, so the arithmetic is testable.
#[derive(Debug, Clone, Default)]
pub struct SpanStack {
    open: Vec<Open>,
}

impl SpanStack {
    /// Open a span of `slot` at `now`; `wrapped` is the thread's
    /// wrapped-time counter.
    pub fn open(&mut self, slot: usize, now: u64, wrapped: u64) {
        self.open.push(Open {
            slot,
            start: now,
            child: 0,
            wrapped_at: wrapped,
            wrapped_in_children: 0,
        });
    }

    /// Close the innermost open span of `slot` (and, defensively, anything
    /// still open inside it), calling `done` for each closed span.
    pub fn close(&mut self, slot: usize, now: u64, wrapped: u64, mut done: impl FnMut(Closed)) {
        let Some(pos) = self.open.iter().rposition(|o| o.slot == slot) else {
            return;
        };
        while self.open.len() > pos {
            let o = self.open.pop().expect("len > pos");
            let total = now.saturating_sub(o.start);
            let wrapped_total = wrapped.saturating_sub(o.wrapped_at);
            let wrapped_direct = wrapped_total.saturating_sub(o.wrapped_in_children);
            let self_ns = total.saturating_sub(o.child + wrapped_direct);
            if let Some(parent) = self.open.last_mut() {
                parent.child += total;
                parent.wrapped_in_children += wrapped_total;
            }
            done(Closed {
                slot: o.slot,
                start: o.start,
                total,
                self_ns,
            });
        }
    }
}

/// Self time per span kind.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: [u64; SLOTS],
    /// Σ self host ns.
    pub self_ns: [u64; SLOTS],
}

impl SpanTotals {
    fn add(&mut self, c: Closed) {
        self.count[c.slot] += 1;
        self.self_ns[c.slot] += c.self_ns;
    }

    fn merge(&mut self, other: &SpanTotals) {
        for i in 0..SLOTS {
            self.count[i] += other.count[i];
            self.self_ns[i] += other.self_ns[i];
        }
    }
}

/// Busy and available time of the cluster executor's shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTotals {
    /// Σ shard busy ns.
    pub busy_ns: u64,
    /// Σ over executor calls of the busiest shard's ns.
    pub max_ns: u64,
    /// Σ over executor calls of the mean shard busy ns.
    pub mean_ns: f64,
    /// Σ over executor calls of shards × wall ns.
    pub capacity_ns: u64,
}

impl ExecTotals {
    fn merge(&mut self, other: &ExecTotals) {
        self.busy_ns += other.busy_ns;
        self.max_ns += other.max_ns;
        self.mean_ns += other.mean_ns;
        self.capacity_ns += other.capacity_ns;
    }

    /// Account one executor call: each shard's busy ns and the call's wall.
    pub fn add_call(&mut self, shard_busy: &[u64], shards: usize, wall: u64) {
        let sum: u64 = shard_busy.iter().sum();
        self.busy_ns += sum;
        self.max_ns += shard_busy.iter().copied().max().unwrap_or(0);
        self.mean_ns += sum as f64 / shards.max(1) as f64;
        self.capacity_ns += shards as u64 * wall;
    }

    /// Busiest shard over mean shard (1 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.mean_ns > 0.0 {
            self.max_ns as f64 / self.mean_ns
        } else {
            0.0
        }
    }

    /// Share of shard time not spent on items.
    pub fn idle_frac(&self) -> f64 {
        if self.capacity_ns > 0 {
            1.0 - self.busy_ns as f64 / self.capacity_ns as f64
        } else {
            0.0
        }
    }
}

/// A boundary span kept in memory and written out when the run ends.
#[derive(Debug, Clone)]
pub struct BoundarySpan {
    /// `stage.*`, `shard` or `barrier`.
    pub name: String,
    /// Thread tag.
    pub tid: u64,
    /// Host ns since process start.
    pub start: u64,
    /// Host ns since process start.
    pub end: u64,
}

/// One thread's activity window inside a scheduler barrier.
#[derive(Debug, Clone, Copy)]
struct Mark {
    tag: u64,
    first: u64,
    last: u64,
}

// ---------------------------------------------------------------------------
// The wall-clock tracer
// ---------------------------------------------------------------------------

/// A [`Tracer`] that measures host time per span kind.
///
/// On a worker session it times the implicit dispatch span (see
/// [`DISPATCH`]) and `Reconfigure` spans; on the scheduler it times
/// `SchedBarrier` spans.  Per-node forks in the scheduler run on executor
/// threads; each remembers, per thread, when it first and last recorded
/// in the current barrier, and the parent turns those windows into shard
/// busy time when the barrier closes.
#[derive(Debug, Clone)]
pub struct WallTracer {
    events: [u64; TraceKind::ALL.len()],
    /// Host time per span kind.
    pub spans: SpanTotals,
    /// Scheduler barrier durations, µs.
    pub barrier_us: QuantileSketch,
    /// Executor shard time measured inside barriers.
    pub exec: ExecTotals,
    /// Barrier spans, in order.
    pub boundary: Vec<BoundarySpan>,
    stack: SpanStack,
    fork: bool,
    main_tag: u64,
    shards: usize,
    marks: Vec<Mark>,
    barrier_marks: Vec<Mark>,
}

impl WallTracer {
    /// A tracer owned by the calling thread; `shards` is how many executor
    /// shards the traced run fans out to.
    pub fn new(shards: usize) -> Self {
        timer_floor_ns();
        WallTracer {
            events: [0; TraceKind::ALL.len()],
            spans: SpanTotals::default(),
            barrier_us: QuantileSketch::new(),
            exec: ExecTotals::default(),
            boundary: Vec::new(),
            stack: SpanStack::default(),
            fork: false,
            main_tag: thread_tag(),
            shards,
            marks: Vec::new(),
            barrier_marks: Vec::new(),
        }
    }

    /// Events of `kind` recorded: span begins, instants and counters.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.events[slot(kind)]
    }

    /// Close the last dispatch span of a worker session (call after each
    /// traced session returns, so time between sessions is not charged to
    /// the engine).
    pub fn end_session(&mut self) {
        let now = now_ns();
        let wrapped = close_tick(now);
        self.close(DISPATCH, now, wrapped);
    }

    fn close(&mut self, slot: usize, now: u64, wrapped: u64) {
        let spans = &mut self.spans;
        let mut barrier = None;
        self.stack.close(slot, now, wrapped, |c| {
            spans.add(c);
            if c.slot == slot_of_barrier() {
                barrier = Some(c);
            }
        });
        if let Some(c) = barrier {
            self.close_barrier(c);
        }
    }

    fn close_barrier(&mut self, c: Closed) {
        self.barrier_us.insert(c.total as f64 / 1e3);
        self.boundary.push(BoundarySpan {
            name: "barrier".into(),
            tid: self.main_tag,
            start: c.start,
            end: c.start + c.total,
        });
        // Each executor thread's busy window is its first-to-last record;
        // the scheduler's own thread (applying actions) is not a shard.
        let mut marks = std::mem::take(&mut self.barrier_marks);
        marks.sort_by_key(|m| m.tag);
        let mut busy: Vec<u64> = Vec::new();
        let mut i = 0;
        while i < marks.len() {
            let tag = marks[i].tag;
            let (mut first, mut last) = (marks[i].first, marks[i].last);
            while i < marks.len() && marks[i].tag == tag {
                first = first.min(marks[i].first);
                last = last.max(marks[i].last);
                i += 1;
            }
            if tag != self.main_tag {
                busy.push(last - first);
            }
        }
        self.exec.add_call(&busy, self.shards, c.total);
        marks.clear();
        self.barrier_marks = marks;
    }

    fn mark(&mut self, now: u64) {
        let tag = thread_tag();
        match self.marks.last_mut() {
            Some(m) if m.tag == tag => m.last = now,
            _ => self.marks.push(Mark {
                tag,
                first: now,
                last: now,
            }),
        }
    }
}

fn slot_of_barrier() -> usize {
    slot(TraceKind::SchedBarrier)
}

impl Tracer for WallTracer {
    const ENABLED: bool = true;

    fn record(&mut self, e: TraceEvent) {
        let now = now_ns();
        let wrapped = close_tick(now);
        if self.fork {
            self.mark(now);
        }
        let s = slot(e.kind);
        if e.phase != TracePhase::End {
            self.events[s] += 1;
        }
        match (e.phase, e.kind) {
            (TracePhase::Instant, TraceKind::EngineEvent) => {
                self.close(DISPATCH, now, wrapped);
                self.stack.open(DISPATCH, now, wrapped);
            }
            (TracePhase::Begin, TraceKind::Reconfigure | TraceKind::SchedBarrier) => {
                self.stack.open(s, now, wrapped)
            }
            (TracePhase::End, TraceKind::Reconfigure | TraceKind::SchedBarrier) => {
                self.close(s, now, wrapped)
            }
            // Job-run spans live in simulated time and cross barriers; the
            // engine-advance span carries no host work (see DISPATCH).
            _ => {}
        }
    }

    fn fork(&self) -> Self {
        WallTracer {
            fork: true,
            main_tag: self.main_tag,
            ..WallTracer::new(self.shards)
        }
    }

    fn absorb(&mut self, other: &mut Self) {
        for (a, b) in self.events.iter_mut().zip(&other.events) {
            *a += b;
        }
        self.spans.merge(&other.spans);
        self.barrier_us.merge(&other.barrier_us);
        self.exec.merge(&other.exec);
        self.boundary.append(&mut other.boundary);
        self.barrier_marks.append(&mut other.marks);
        other.events = [0; TraceKind::ALL.len()];
        other.spans = SpanTotals::default();
        other.barrier_us.reset();
        other.exec = ExecTotals::default();
    }
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

/// Times every call into a worker's resource policy.
pub struct TimedPolicy {
    inner: Box<dyn ResourcePolicy>,
}

impl TimedPolicy {
    /// Wrap `inner`.
    pub fn boxed(inner: Box<dyn ResourcePolicy>) -> Box<dyn ResourcePolicy> {
        Box::new(TimedPolicy { inner })
    }
}

impl ResourcePolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initial_interval(&self) -> Option<SimDuration> {
        self.inner.initial_interval()
    }

    fn reconfigure_into(
        &mut self,
        now: SimTime,
        measures: &[GrowthMeasurement],
        updates: &mut Vec<(ContainerId, f64)>,
    ) -> Option<SimDuration> {
        let start = now_ns();
        let next = self.inner.reconfigure_into(now, measures, updates);
        let ns = lap(start);
        let changed = updates.iter().any(|&(id, limit)| {
            measures
                .iter()
                .find(|m| m.id == id)
                .is_none_or(|m| (m.cpu_limit - limit).abs() > 1e-9)
        });
        with_layers(|l| {
            l.reconfigure.record(ns, changed);
            l.wrapped_ns += ns;
        });
        next
    }

    fn on_pool_change(&mut self, now: SimTime, pool_ids: &[ContainerId]) -> bool {
        let start = now_ns();
        let interrupt = self.inner.on_pool_change(now, pool_ids);
        let ns = lap(start);
        with_layers(|l| {
            l.pool_change.count(ns, interrupt);
            l.wrapped_ns += ns;
        });
        interrupt
    }
}

/// Counts every recorder hook and times the recorder's work.
///
/// A sample or growth tick makes one hook call per live container, each
/// far shorter than a clock read, so ticks are timed as a whole: from the
/// tick hook to the tracer's next event.  Completions are timed per call.
pub struct TimedRecorder<R> {
    inner: R,
    calls: u64,
}

impl<R> TimedRecorder<R> {
    /// Wrap `inner`.
    pub fn new(inner: R) -> Self {
        TimedRecorder { inner, calls: 0 }
    }

    fn open_tick(&mut self) {
        self.calls += 1;
        let now = now_ns();
        with_layers(|l| {
            if l.tick_open.is_none() {
                l.tick_open = Some(now);
            }
        });
    }
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    type Output = R::Output;
    const RECORDS_SAMPLES: bool = R::RECORDS_SAMPLES;
    const RECORDS_GROWTH: bool = R::RECORDS_GROWTH;

    fn record_completion(
        &mut self,
        label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    ) {
        self.calls += 1;
        let start = now_ns();
        self.inner
            .record_completion(label, arrival, finished, exit_code);
        let ns = lap(start);
        with_layers(|l| {
            l.recorder_ns += ns;
            l.wrapped_ns += ns;
        });
    }

    fn sample_tick(&mut self, now: SimTime) -> bool {
        self.open_tick();
        self.inner.sample_tick(now)
    }

    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64) {
        self.calls += 1;
        self.inner.record_sample(now, label, usage, limit);
    }

    fn growth_tick(&mut self, now: SimTime) -> bool {
        self.open_tick();
        self.inner.growth_tick(now)
    }

    fn record_growth(&mut self, now: SimTime, label: &str, growth: f64) {
        self.calls += 1;
        self.inner.record_growth(now, label, growth);
    }

    fn finish(self, meta: RunMeta<'_>) -> R::Output {
        let start = now_ns();
        close_tick(start);
        let out = self.inner.finish(meta);
        let ns = lap(start);
        let calls = self.calls + 1;
        with_layers(|l| {
            l.recorder_calls += calls;
            l.recorder_ns += ns;
            l.wrapped_ns += ns;
        });
        out
    }
}

/// Times every scheduling decision of a cluster discipline.
pub struct TimedDiscipline {
    inner: Box<dyn ClusterPolicy>,
}

impl TimedDiscipline {
    /// Wrap `inner`.
    pub fn boxed(inner: Box<dyn ClusterPolicy>) -> Box<dyn ClusterPolicy> {
        Box::new(TimedDiscipline { inner })
    }
}

impl ClusterPolicy for TimedDiscipline {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        let start = now_ns();
        self.inner.schedule(view, actions);
        let ns = lap(start);
        with_layers(|l| {
            l.decide.record(ns, !actions.is_empty());
            l.wrapped_ns += ns;
        });
    }
}

// ---------------------------------------------------------------------------
// Timed executor calls
// ---------------------------------------------------------------------------

/// Everything a [`timed_map`] call measured, merged over its shards.
#[derive(Debug, Clone)]
pub struct MapTotals {
    /// Wrapper accumulators of every shard thread.
    pub layers: Layers,
    /// Every shard's tracer, absorbed.
    pub tracer: WallTracer,
    /// Per-item host µs.
    pub item_us: QuantileSketch,
    /// Shard busy vs available time.
    pub exec: ExecTotals,
    /// One span per shard.
    pub shard_spans: Vec<BoundarySpan>,
    shard_busy: Vec<u64>,
}

/// One executor shard's probe state, merged into the call's totals when
/// the shard finishes (on its own thread, before the executor returns).
struct Shard<'a, S> {
    scratch: S,
    tracer: WallTracer,
    busy_ns: u64,
    item_us: QuantileSketch,
    start: u64,
    sink: &'a Mutex<MapTotals>,
}

impl<S> Drop for Shard<'_, S> {
    fn drop(&mut self) {
        let layers = take_layers();
        // A poisoned sink means another shard panicked; the run is failing
        // anyway, and Drop must not panic on top of it.
        if let Ok(mut t) = self.sink.lock() {
            t.layers.merge(&layers);
            t.tracer.absorb(&mut self.tracer);
            t.item_us.merge(&self.item_us);
            t.shard_busy.push(self.busy_ns);
            t.shard_spans.push(BoundarySpan {
                name: "shard".into(),
                tid: thread_tag(),
                start: self.start,
                end: now_ns(),
            });
        }
    }
}

/// [`executor::map_sharded`] with every item timed: each shard owns a
/// scratch `S` and a [`WallTracer`], and `f` runs one item with them.
pub fn timed_map<T, S, O>(
    inputs: Vec<T>,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &mut WallTracer, T) -> O + Sync,
) -> (Vec<O>, MapTotals)
where
    T: Send,
    O: Send,
{
    let shards = executor::shard_count(inputs.len());
    let sink = Mutex::new(MapTotals {
        layers: Layers::default(),
        tracer: WallTracer::new(shards),
        item_us: QuantileSketch::new(),
        exec: ExecTotals::default(),
        shard_spans: Vec::new(),
        shard_busy: Vec::new(),
    });
    let start = now_ns();
    let out = executor::map_sharded(
        inputs,
        || Shard {
            scratch: scratch(),
            tracer: WallTracer::new(shards),
            busy_ns: 0,
            item_us: QuantileSketch::new(),
            start: now_ns(),
            sink: &sink,
        },
        |shard, item| {
            let t = now_ns();
            let o = f(&mut shard.scratch, &mut shard.tracer, item);
            let ns = now_ns() - t;
            shard.busy_ns += ns;
            shard.item_us.insert(ns as f64 / 1e3);
            o
        },
    );
    let wall = now_ns() - start;
    let mut totals = sink.into_inner().expect("a shard panicked");
    // Every shard that started has merged its busy time by now.
    let busy = std::mem::take(&mut totals.shard_busy);
    totals.exec.add_call(&busy, busy.len(), wall);
    (out, totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_follow_the_kind_list() {
        for (i, kind) in TraceKind::ALL.into_iter().enumerate() {
            assert_eq!(slot(kind), i);
        }
    }

    #[test]
    fn self_time_excludes_nested_spans_and_wrapped_calls() {
        // dispatch [0, 100) holds a reconfigure [20, 60) which holds a
        // 15 ns wrapped policy call; the dispatch itself makes a 10 ns
        // wrapped recorder call at [70, 80).
        let mut stack = SpanStack::default();
        let mut closed = Vec::new();
        stack.open(DISPATCH, 0, 0);
        stack.open(5, 20, 0);
        stack.close(5, 60, 15, |c| closed.push(c));
        stack.close(DISPATCH, 100, 25, |c| closed.push(c));
        assert_eq!(
            closed,
            vec![
                Closed {
                    slot: 5,
                    start: 20,
                    total: 40,
                    self_ns: 25
                },
                Closed {
                    slot: DISPATCH,
                    start: 0,
                    total: 100,
                    self_ns: 50
                },
            ]
        );
    }

    #[test]
    fn closing_an_outer_span_closes_what_is_still_open_inside() {
        let mut stack = SpanStack::default();
        let mut closed = Vec::new();
        stack.open(1, 0, 0);
        stack.open(2, 10, 0);
        stack.open(3, 20, 0);
        stack.close(1, 50, 0, |c| closed.push((c.slot, c.total, c.self_ns)));
        assert_eq!(closed, vec![(3, 30, 30), (2, 40, 10), (1, 50, 10)]);
        // Nothing is left open, so closing again is a no-op.
        stack.close(1, 60, 0, |_| panic!("nothing to close"));
    }

    #[test]
    fn executor_totals_report_imbalance_and_idle_share() {
        let mut e = ExecTotals::default();
        e.add_call(&[30, 10], 2, 40);
        assert_eq!(e.busy_ns, 40);
        assert!((e.imbalance() - 1.5).abs() < 1e-12);
        assert!((e.idle_frac() - 0.5).abs() < 1e-12);
        assert_eq!(ExecTotals::default().imbalance(), 0.0);
    }

    #[test]
    fn timed_map_returns_results_in_order_and_counts_every_item() {
        let (out, totals) = timed_map(
            (0..100u64).collect(),
            || 0u64,
            |seen, _tracer, x| {
                *seen += 1;
                x * 2
            },
        );
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(totals.item_us.count(), 100);
        assert_eq!(
            totals.shard_spans.len(),
            executor::shard_count(100),
            "one span per shard"
        );
        assert!(totals.exec.capacity_ns >= totals.exec.busy_ns);
    }

    #[test]
    fn wall_tracer_counts_events_and_closes_nested_spans() {
        let _ = take_layers();
        let mut tracer = WallTracer::new(1);
        let at = SimTime::ZERO;
        for _ in 0..3 {
            tracer.instant(at, TraceKind::EngineEvent, 0, 0);
            tracer.span_begin(at, TraceKind::Reconfigure, 1, 0);
            tracer.span_end(at, TraceKind::Reconfigure, 1, 0);
            tracer.counter(at, TraceKind::Waterfill, 0, 1.0);
        }
        tracer.end_session();
        let reconfigure = slot(TraceKind::Reconfigure);
        assert_eq!(tracer.count(TraceKind::EngineEvent), 3);
        assert_eq!(tracer.count(TraceKind::Waterfill), 3);
        assert_eq!(tracer.spans.count[DISPATCH], 3);
        assert_eq!(tracer.spans.count[reconfigure], 3);
        assert!(tracer.stack.open.is_empty(), "every span closed");
    }
}
