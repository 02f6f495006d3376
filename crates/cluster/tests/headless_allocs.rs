//! The headless allocation budget: a `CompletionsOnly` cluster run must
//! cost at most **10 heap allocations per simulated worker** (marginal),
//! whatever its workload — placed plan, plan source or open-loop stream,
//! all of which run on the dense path.
//!
//! A worker run on the dense path (`flowcon_core::dense`) keeps every
//! container's state in arenas recycled per executor shard, moves plan
//! labels instead of cloning them, and (headless) never schedules a
//! sampling event or clones a label — this test is the wire that keeps it
//! that way.
//!
//! The budget is asserted on the *marginal* cost between two cluster sizes
//! so fixed per-run overhead (shard thread spawns, result vectors, the
//! allocator's warm-up) cancels out; counting is process-wide because the
//! executor's shard threads do the actual work.  The same window also
//! keeps the high-water mark of live heap bytes, so the marginal *peak*
//! bytes of a worker are budgeted too.  A scheduled run does all of its
//! work on the thread that runs it, so the scheduler tests count only the
//! test's own thread: the test harness's other threads allocate at will
//! and must not bill an exact comparison.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use flowcon_cluster::{
    ClusterSession, ClusterSessionBuilder, Horizon, PolicyKind, SchedPolicyKind,
};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::time::SimTime;
use flowcon_workload::{ArrivalProcess, SyntheticSource, SyntheticStreamSource, TraceSource};

/// The **dense**-path ceiling: every headless run goes through
/// `flowcon_core::dense` — arena state recycled per shard, no
/// daemon/pool/monitor objects — so the marginal cost per worker is just
/// the policy box, its list buffers, the completion stats, and (sources
/// and streams) the worker's plan or boxed stream and its tail sketches.
const DENSE_ALLOCS_PER_WORKER_BUDGET: f64 = 10.0;

/// Tests in this binary run on parallel threads, but the allocation
/// counter is process-wide: every test that toggles `COUNTING` (or that
/// allocates heavily) holds this lock so no stray allocations bill a
/// counting window.
static COUNT_WINDOW: Mutex<()> = Mutex::new(());

/// Take [`COUNT_WINDOW`], even from a test that failed while holding it:
/// one failure must not cascade into every later test.
fn count_window() -> MutexGuard<'static, ()> {
    COUNT_WINDOW.lock().unwrap_or_else(PoisonError::into_inner)
}

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Live heap bytes, process-wide, whether counting or not.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// The most [`LIVE_BYTES`] reached inside the count window.
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations by this thread inside [`allocs_on_this_thread`].
    static THREAD_ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Move [`LIVE_BYTES`] from `freed` bytes to `taken` bytes, and raise
/// [`PEAK_BYTES`] to it inside the count window.
fn track_live(taken: usize, freed: usize) {
    let (taken, freed) = (taken as u64, freed as u64);
    let live = if taken >= freed {
        LIVE_BYTES.fetch_add(taken - freed, Ordering::Relaxed) + (taken - freed)
    } else {
        LIVE_BYTES.fetch_sub(freed - taken, Ordering::Relaxed) - (freed - taken)
    };
    if COUNTING.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn count_if_enabled() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    let _ = THREAD_ALLOCATIONS.try_with(|n| {
        if let Some(count) = n.get() {
            n.set(Some(count + 1));
        }
    });
}

/// Run `f` and count the allocations it makes on the calling thread only.
fn allocs_on_this_thread<R>(f: impl FnOnce() -> R) -> (u64, R) {
    THREAD_ALLOCATIONS.with(|n| n.set(Some(0)));
    let out = f();
    let allocs = THREAD_ALLOCATIONS.with(|n| n.replace(None)).unwrap_or(0);
    (allocs, out)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        track_live(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        track_live(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_enabled();
        track_live(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_live(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Open the count window's peak at the live bytes of now, run `f`, and
/// return how far the live bytes rose above that start inside `f`.
fn peak_bytes_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(start, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (PEAK_BYTES.load(Ordering::Relaxed) - start, out)
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn base(workers: usize) -> ClusterSessionBuilder<'static> {
    ClusterSession::builder()
        .nodes(workers, NodeConfig::default().with_seed(0xF10C))
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
}

/// Process-wide allocations of one headless run (plan pre-built outside
/// the counting window).
fn allocs_of_headless_run(workers: usize, plan: WorkloadPlan) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = base(workers).plan(plan).build().run();
    assert_eq!(run.completed_jobs(), workers * 2, "jobs conserved");
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn headless_cluster_run_stays_within_the_allocs_per_worker_budget() {
    let _window = count_window();
    const SMALL: usize = 64;
    const LARGE: usize = 320;
    let small_plan = WorkloadPlan::random_n(SMALL * 2, 0xC1A5);
    let large_plan = WorkloadPlan::random_n(LARGE * 2, 0xC1A5);

    // Warm up once: process-wide one-time costs (the shared image
    // registry's OnceLock, thread-local runtime state) must not bill the
    // measured runs.
    base(SMALL).plan(small_plan.clone()).build().run();

    COUNTING.store(true, Ordering::Relaxed);
    let small = allocs_of_headless_run(SMALL, small_plan);
    let large = allocs_of_headless_run(LARGE, large_plan);
    COUNTING.store(false, Ordering::Relaxed);

    let marginal = (large.saturating_sub(small)) as f64 / (LARGE - SMALL) as f64;
    eprintln!("dense headless marginal cost: {marginal:.2} allocs/worker");
    assert!(
        marginal <= DENSE_ALLOCS_PER_WORKER_BUDGET,
        "dense headless marginal cost {marginal:.1} allocs/worker exceeds the \
         {DENSE_ALLOCS_PER_WORKER_BUDGET} budget ({small} allocs at {SMALL} workers, \
         {large} at {LARGE})"
    );
    // Sanity on the absolute number too: fixed overhead (thread spawns,
    // result vectors) must stay small next to the per-worker work.
    let absolute = large as f64 / LARGE as f64;
    assert!(
        absolute <= 3.0 * DENSE_ALLOCS_PER_WORKER_BUDGET,
        "absolute headless cost {absolute:.1} allocs/worker is out of scale"
    );
}

/// Process-wide allocations of one source-driven headless run.
fn allocs_of_source_run(workers: usize, jobs_per_worker: usize) -> u64 {
    // An unlabeled synthetic source: plan construction happens *inside*
    // the measured run (that is the point of a streaming source), so the
    // per-plan vector and arrival draws are part of the budget.
    let source =
        SyntheticSource::new(ArrivalProcess::poisson(0.05), jobs_per_worker, 0xC1A5).unlabeled();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = base(workers).source(&source).build().run();
    assert_eq!(
        run.completed_jobs(),
        workers * jobs_per_worker,
        "jobs conserved"
    );
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn plan_source_driven_cluster_stays_within_the_same_budget() {
    let _window = count_window();
    const SMALL: usize = 64;
    const LARGE: usize = 320;

    allocs_of_source_run(SMALL, 2); // warm-up (OnceLock, thread-locals)

    COUNTING.store(true, Ordering::Relaxed);
    let small = allocs_of_source_run(SMALL, 2);
    let large = allocs_of_source_run(LARGE, 2);
    COUNTING.store(false, Ordering::Relaxed);

    let marginal = (large.saturating_sub(small)) as f64 / (LARGE - SMALL) as f64;
    eprintln!("plan-source marginal cost: {marginal:.2} allocs/worker");
    assert!(
        marginal <= DENSE_ALLOCS_PER_WORKER_BUDGET,
        "source-driven marginal cost {marginal:.1} allocs/worker exceeds the \
         {DENSE_ALLOCS_PER_WORKER_BUDGET} budget ({small} allocs at {SMALL} workers, \
         {large} at {LARGE})"
    );
}

/// Process-wide allocations of one open-loop headless run: each worker
/// pulls an unbounded Poisson stream and admits ~2 jobs before the
/// horizon, so job admission, stream sampling, *and* the one-ahead pull
/// all bill the counting window.
fn allocs_of_open_loop_run(workers: usize) -> u64 {
    let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.0005), 0xC1A5).unlabeled();
    // The `repro stream` acceptance shape: rate × until ≈ 1.8 jobs/worker
    // expected, hard-capped at 2 so the workload is identical per worker
    // count (the marginal math needs equal per-worker work).
    let horizon = Horizon::until(SimTime::from_secs(3600)).and_jobs(2);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let run = base(workers).stream(&source, horizon).build().run();
    assert_eq!(run.completed_jobs(), run.submitted_jobs(), "drained");
    assert!(run.submitted_jobs() > workers, "arrivals actually flow");
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn open_loop_cluster_stays_within_the_same_budget() {
    let _window = count_window();
    const SMALL: usize = 64;
    const LARGE: usize = 320;

    allocs_of_open_loop_run(SMALL); // warm-up (OnceLock, thread-locals)

    COUNTING.store(true, Ordering::Relaxed);
    let small = allocs_of_open_loop_run(SMALL);
    let large = allocs_of_open_loop_run(LARGE);
    COUNTING.store(false, Ordering::Relaxed);

    let marginal = (large.saturating_sub(small)) as f64 / (LARGE - SMALL) as f64;
    eprintln!("open-loop marginal cost: {marginal:.2} allocs/worker");
    assert!(
        marginal <= DENSE_ALLOCS_PER_WORKER_BUDGET,
        "open-loop marginal cost {marginal:.1} allocs/worker exceeds the \
         {DENSE_ALLOCS_PER_WORKER_BUDGET} budget ({small} allocs at {SMALL} workers, \
         {large} at {LARGE})"
    );
}

#[test]
fn ten_k_worker_trace_replay_stays_within_budget() {
    let _window = count_window();
    // The ISSUE-4 acceptance configuration: a 10240-worker headless
    // cluster driven by one shared (unlabeled) arrival trace through a
    // `TraceSource`.  The budget is asserted on the marginal cost between
    // 2048 and 10240 workers so fixed per-run overhead cancels out.
    const SMALL: usize = 2048;
    const LARGE: usize = 10240;
    let make_source = |workers: usize| {
        // Built outside any counting window; `unlabeled` drops the labels
        // so slicing clones are allocation-free.
        let plan = WorkloadPlan::random_n(workers * 2, 0xC1A5);
        TraceSource::new(
            flowcon_workload::BoundTrace::from_plan(plan).unlabeled(),
            workers,
        )
    };
    let small_source = make_source(SMALL);
    let large_source = make_source(LARGE);

    base(SMALL)
        .plan(WorkloadPlan::random_n(SMALL * 2, 0xC1A5))
        .build()
        .run(); // warm-up

    let measure = |workers: usize, source: &TraceSource| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let run = base(workers).source(source).build().run();
        assert_eq!(run.completed_jobs(), workers * 2, "jobs conserved");
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    COUNTING.store(true, Ordering::Relaxed);
    let small = measure(SMALL, &small_source);
    let large = measure(LARGE, &large_source);
    COUNTING.store(false, Ordering::Relaxed);

    let marginal = (large.saturating_sub(small)) as f64 / (LARGE - SMALL) as f64;
    eprintln!("10k trace replay marginal cost: {marginal:.2} allocs/worker");
    assert!(
        marginal <= DENSE_ALLOCS_PER_WORKER_BUDGET,
        "10k trace replay costs {marginal:.1} allocs/worker, budget is \
         {DENSE_ALLOCS_PER_WORKER_BUDGET} ({small} allocs at {SMALL} workers, {large} at {LARGE})"
    );
}

#[test]
fn a_fresh_dense_scratch_allocates_nothing() {
    let _window = count_window();
    // Every executor shard and every `Session::run` without `.scratch(..)`
    // starts from a fresh scratch; its arenas and its agenda grow on
    // first use, so creating one must cost nothing.
    let (allocs, _scratch) = allocs_on_this_thread(flowcon_core::dense::DenseScratch::new);
    assert_eq!(allocs, 0, "DenseScratch::new allocated {allocs} times");
}

#[test]
fn headless_memory_is_o_completions() {
    let _window = count_window();
    // 512 workers × 2 jobs: the retained result is one `Completion` (3
    // words) per job plus one `usize` placement per job — no series, no
    // labels.  This asserts the *shape*, the budget test above asserts the
    // churn.
    let workers = 512;
    let plan = WorkloadPlan::random_n(workers * 2, 9);
    let run = base(workers).plan(plan).build().run();
    assert_eq!(run.workers.len(), workers);
    assert_eq!(run.placements.len(), workers * 2);
    let retained: usize = run.workers.iter().map(|w| w.output.completions.len()).sum();
    assert_eq!(retained, workers * 2);
    // Each worker reserves exactly the completions its placed jobs make.
    for (w, r) in run.workers.iter().enumerate() {
        let completions = &r.output.completions;
        assert_eq!(
            completions.capacity(),
            completions.len(),
            "worker {w} reserved {} completion records for {} jobs",
            completions.capacity(),
            completions.len()
        );
    }
}

/// The ceiling on the marginal peak heap bytes of one placed headless
/// worker with 2 jobs: its node, its two jobs and their placements, the
/// placement offsets and the sort's pairs, and its result with two
/// completion records.  The executor's per-worker input cell and result
/// mutex, an `(index, node)` copy of every node and a four-record
/// completion reserve read 352 B/worker here; without them it is 224.
const PEAK_BYTES_PER_WORKER_BUDGET: f64 = 288.0;

#[test]
fn headless_peak_heap_per_worker_stays_within_budget() {
    let _window = count_window();
    const SMALL: usize = 2_000;
    const LARGE: usize = 20_000;
    let small_plan = WorkloadPlan::random_n(SMALL * 2, 0xC1A5);
    let large_plan = WorkloadPlan::random_n(LARGE * 2, 0xC1A5);
    base(SMALL).plan(small_plan.clone()).build().run(); // warm-up

    let peak_of = |workers: usize, plan: WorkloadPlan| {
        let (peak, run) = peak_bytes_of(|| base(workers).plan(plan).build().run());
        assert_eq!(run.completed_jobs(), workers * 2, "jobs conserved");
        peak
    };
    let small = peak_of(SMALL, small_plan);
    let large = peak_of(LARGE, large_plan);

    let marginal = large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64;
    eprintln!("placed headless marginal peak heap: {marginal:.1} B/worker");
    assert!(
        marginal <= PEAK_BYTES_PER_WORKER_BUDGET,
        "placed headless marginal peak heap {marginal:.1} B/worker exceeds the \
         {PEAK_BYTES_PER_WORKER_BUDGET} B budget ({small} B at {SMALL} workers, \
         {large} B at {LARGE})"
    );
}

/// This thread's allocations in one FIFO scheduler run: the
/// engine's per-quantum decision loop recycles its view buffers and each
/// node recycles its measurement/waterfill scratch, so the cost must
/// scale with the *jobs* (admissions, decisions, completions — plus the
/// labeled plan built inside the window), not with the number of quantum
/// barriers crossed on the way.
fn allocs_of_sched_run(jobs: usize) -> u64 {
    let (allocs, out) = allocs_on_this_thread(|| {
        ClusterSession::builder()
            .nodes(4, NodeConfig::default().with_seed(0xF10C))
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(WorkloadPlan::random_n(jobs, 0xC1A5))
            .scheduler(SchedPolicyKind::Fifo)
            .build()
            .run()
    });
    assert_eq!(out.completed_jobs(), jobs, "jobs conserved");
    allocs
}

#[test]
fn warm_sketch_inserts_are_allocation_free() {
    let _window = count_window();
    // The ISSUE-8 acceptance invariant: once a sketch has seen the value
    // range of its workload, `insert` is a key computation plus a counter
    // bump — zero heap traffic.  This is what lets every worker feed its
    // `SojournStats` on the open-loop hot path without denting the
    // allocs/worker budgets above.
    let mut sketch = flowcon_metrics::sketch::QuantileSketch::new();
    for i in 1..=4096u32 {
        sketch.insert(f64::from(i) * 0.25); // warm the bucket range
    }
    // The inserts run on this thread, so only this thread's allocations
    // are counted: the test harness allocates on its own threads (result
    // reports, thread spawns) whenever another test finishes.
    let (allocs, ()) = allocs_on_this_thread(|| {
        for i in 1..=4096u32 {
            sketch.insert(f64::from(i) * 0.25);
        }
    });
    assert_eq!(sketch.count(), 8192);
    assert_eq!(
        allocs, 0,
        "warm sketch inserts allocated {allocs} times over 4096 samples"
    );
}

/// Like [`allocs_of_sched_run`], but with an explicit tracer `T` threaded
/// through `run_traced` (the counter stops before the recorder is read).
fn allocs_of_traced_sched_run<T: flowcon_sim::trace::Tracer>(jobs: usize, tracer: T) -> (u64, T) {
    let (allocs, (out, tracer)) = allocs_on_this_thread(|| {
        ClusterSession::builder()
            .nodes(4, NodeConfig::default().with_seed(0xF10C))
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(WorkloadPlan::random_n(jobs, 0xC1A5))
            .scheduler(SchedPolicyKind::Fifo)
            .tracer(tracer)
            .build()
            .run_traced()
    });
    assert_eq!(out.completed_jobs(), jobs, "jobs conserved");
    (allocs, tracer)
}

#[test]
fn noop_tracer_is_allocation_neutral_on_the_sched_path() {
    let _window = count_window();
    // `NoopTracer` is the *default* tracer type, so `.tracer(NoopTracer)`
    // selects the very same monomorphization as the plain `.run()` the
    // budget tests above gate — the two must allocate identically, which
    // is what "the tracing layer compiles away" means in numbers.  The
    // dense headless budget (`DENSE_ALLOCS_PER_WORKER_BUDGET`) holds for
    // the same reason: its worker path threads the same `NoopTracer`.
    const JOBS: usize = 64;
    allocs_of_sched_run(JOBS); // warm-up (OnceLock, thread-locals)

    let plain = allocs_of_sched_run(JOBS);
    let (noop, _) = allocs_of_traced_sched_run(JOBS, flowcon_sim::trace::NoopTracer);

    assert_eq!(
        plain, noop,
        "an explicit NoopTracer must cost exactly what the untraced run costs"
    );
}

#[test]
fn flight_recorder_costs_only_its_preallocation() {
    let _window = count_window();
    // Recording into the ring is plain stores into preallocated storage:
    // the whole traced run may add only the recorder's own ring, the
    // per-node forked rings (4 nodes here), and nothing per event.
    const JOBS: usize = 64;
    allocs_of_sched_run(JOBS); // warm-up (OnceLock, thread-locals)

    let plain = allocs_of_sched_run(JOBS);
    let (traced, recorder) = allocs_of_traced_sched_run(
        JOBS,
        flowcon_sim::trace::FlightRecorder::with_capacity(1 << 16),
    );

    assert!(!recorder.is_empty(), "the run must actually be recorded");
    assert_eq!(recorder.dropped(), 0, "capacity covers the whole run");
    let extra = traced.saturating_sub(plain);
    assert!(
        extra <= 16,
        "flight recording added {extra} allocations — recording must cost \
         only the preallocated rings, never per-event heap traffic"
    );
}

#[test]
fn sched_engine_marginal_cost_scales_with_jobs_not_barriers() {
    let _window = count_window();
    const SMALL: usize = 32;
    const LARGE: usize = 128;

    allocs_of_sched_run(SMALL); // warm-up (OnceLock, thread-locals)

    let small = allocs_of_sched_run(SMALL);
    let large = allocs_of_sched_run(LARGE);

    let marginal = (large.saturating_sub(small)) as f64 / (LARGE - SMALL) as f64;
    eprintln!("sched marginal cost: {marginal:.2} allocs/job");
    assert!(
        marginal <= 30.0,
        "scheduler marginal cost {marginal:.1} allocs/job is out of scale \
         ({small} allocs at {SMALL} jobs, {large} at {LARGE}) — the warm \
         per-quantum loop is allocating"
    );
}
