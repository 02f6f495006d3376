//! The perf micro-suite behind `repro bench`.
//!
//! A fixed set of allocator / worker / policy microbenchmarks whose results
//! are written to a machine-readable `BENCH_<date>.json`, populating the
//! repository's performance trajectory.  Every future optimisation PR is
//! judged against the numbers this suite produced before it.
//!
//! The suite is deliberately self-contained (no criterion): plain
//! `Instant`-based sampling with median aggregation, so the `repro` binary
//! can run it anywhere the workspace builds.  Heap-allocation counts come
//! from a caller-provided counter (the `repro` binary installs a counting
//! global allocator; this library stays `forbid(unsafe_code)`).

use std::time::{Duration, Instant};

use flowcon_cluster::{ClusterSession, Horizon, PolicyKind, SchedPolicyKind, TraceSource};
use flowcon_container::ContainerId;
use flowcon_core::algorithm::run_algorithm1;
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::lists::Lists;
use flowcon_core::metric::GrowthMeasurement;
use flowcon_core::policy::FlowConPolicy;
use flowcon_core::session::Session;
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::alloc::{
    waterfill, waterfill_into, waterfill_soft_into, AllocRequest, WaterfillScratch,
};
use flowcon_sim::rng::SimRng;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::FlightRecorder;
use flowcon_workload::{ArrivalProcess, StreamSource, SyntheticStreamSource};

/// One micro-benchmark's aggregated result.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Stable benchmark name (`group/case`).
    pub name: String,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second implied by the median (`1e9 / ns_per_op`).
    pub ops_per_sec: f64,
    /// Heap allocations per operation, when a counter was available.
    pub allocs_per_op: Option<f64>,
    /// Events per second, for engine-throughput benchmarks.
    pub events_per_sec: Option<f64>,
}

/// A heap-allocation counter provided by the binary (reads its counting
/// global allocator).
pub type AllocCounter<'a> = &'a dyn Fn() -> u64;

/// Median ns/op of `op`, with auto-calibrated batching.
fn time_ns<F: FnMut()>(mut op: F, budget: Duration) -> f64 {
    // Calibrate: grow per-sample iterations until a sample is measurable.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        if start.elapsed() >= Duration::from_millis(2) || iters >= 1 << 22 {
            break;
        }
        iters = iters.saturating_mul(4);
    }
    let mut samples = Vec::new();
    let deadline = Instant::now() + budget;
    while samples.len() < 25 {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
        if Instant::now() >= deadline && samples.len() >= 5 {
            break;
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Allocations per op of `op` over a fixed iteration count.
fn allocs_per_op<F: FnMut()>(counter: Option<AllocCounter<'_>>, op: F) -> Option<f64> {
    allocs_per_op_iters(counter, 1_000, op)
}

/// Allocations per op over `iters` iterations (for expensive ops that can't
/// afford the default 1000).
fn allocs_per_op_iters<F: FnMut()>(
    counter: Option<AllocCounter<'_>>,
    iters: u64,
    mut op: F,
) -> Option<f64> {
    let counter = counter?;
    // Warm once so buffer growth is excluded, as in steady state.
    op();
    let before = counter();
    for _ in 0..iters {
        op();
    }
    Some((counter() - before) as f64 / iters as f64)
}

/// The seed repository's `waterfill` (v0), preserved verbatim as the
/// performance baseline: two fresh `Vec`s per call, a stable (allocating)
/// sort, and cap/weight recomputed inside the comparator.  Benchmarked as
/// `waterfill/seed/*` so every future BENCH_*.json measures against the
/// same origin.
pub fn waterfill_seed(capacity: f64, requests: &[AllocRequest]) -> (Vec<f64>, f64, f64) {
    let n = requests.len();
    if n == 0 || capacity <= 0.0 {
        return (vec![0.0; n], 0.0, capacity.max(0.0));
    }
    let mut rates = vec![0.0f64; n];
    let mut order: Vec<usize> = (0..n).collect();
    let cap = |i: usize| {
        let c = requests[i].cap();
        if c.is_finite() && c > 0.0 {
            c
        } else {
            0.0
        }
    };
    let weight = |i: usize| {
        let w = requests[i].weight;
        if w.is_finite() && w > 0.0 {
            w
        } else {
            0.0
        }
    };
    order.retain(|&i| cap(i) > 0.0 && weight(i) > 0.0);
    order.sort_by(|&a, &b| {
        let ka = cap(a) / weight(a);
        let kb = cap(b) / weight(b);
        ka.partial_cmp(&kb)
            .expect("caps and weights sanitized to finite values")
            .then(a.cmp(&b))
    });
    let mut remaining = capacity;
    let mut weight_left: f64 = order.iter().map(|&i| weight(i)).sum();
    let mut start = 0;
    while start < order.len() && remaining > 1e-15 && weight_left > 0.0 {
        let level = remaining / weight_left;
        let i = order[start];
        let per_weight_cap = cap(i) / weight(i);
        if per_weight_cap <= level {
            rates[i] = cap(i);
            remaining -= cap(i);
            weight_left -= weight(i);
            start += 1;
        } else {
            for &j in &order[start..] {
                rates[j] = level * weight(j);
            }
            break;
        }
    }
    let total: f64 = rates.iter().sum();
    let idle = (capacity - total).max(0.0);
    (rates, total, idle)
}

/// The shared allocator-bench workload: random limits in `[0.05, 1.0)`,
/// demands in `[0.2, 1.0)`, unit weights.
pub fn requests(n: usize, seed: u64) -> Vec<AllocRequest> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| AllocRequest {
            limit: rng.range_f64(0.05, 1.0),
            demand: rng.range_f64(0.2, 1.0),
            weight: 1.0,
        })
        .collect()
}

/// Run the fixed allocator / worker / policy micro-suite.
///
/// `counter`, when provided, reports the process-wide heap-allocation count
/// (monotone); allocation rates are attributed to the allocator benches.
pub fn run_micro_suite(counter: Option<AllocCounter<'_>>) -> Vec<PerfResult> {
    let budget = Duration::from_millis(400);
    let mut out = Vec::new();
    let mut push = |name: &str, ns: f64, allocs: Option<f64>, events: Option<f64>| {
        out.push(PerfResult {
            name: name.to_string(),
            ns_per_op: ns,
            ops_per_sec: if ns > 0.0 { 1e9 / ns } else { f64::INFINITY },
            allocs_per_op: allocs,
            events_per_sec: events,
        });
    };

    // --- allocator: the seed (v0) implementation, the trajectory origin ---
    for n in [4usize, 16, 64, 256] {
        let reqs = requests(n, 42);
        let ns = time_ns(
            || {
                std::hint::black_box(waterfill_seed(
                    std::hint::black_box(1.0),
                    std::hint::black_box(&reqs),
                ));
            },
            budget,
        );
        let allocs = allocs_per_op(counter, || {
            std::hint::black_box(waterfill_seed(1.0, std::hint::black_box(&reqs)));
        });
        push(&format!("waterfill/seed/n{n}"), ns, allocs, None);
    }

    // --- allocator: cold (allocating wrapper, fresh sort every call) ---
    for n in [4usize, 16, 64, 256] {
        let reqs = requests(n, 42);
        let ns = time_ns(
            || {
                std::hint::black_box(waterfill(
                    std::hint::black_box(1.0),
                    std::hint::black_box(&reqs),
                ));
            },
            budget,
        );
        let allocs = allocs_per_op(counter, || {
            std::hint::black_box(waterfill(1.0, std::hint::black_box(&reqs)));
        });
        push(&format!("waterfill/cold/n{n}"), ns, allocs, None);
    }

    // --- allocator: warm scratch (order cache engaged, zero alloc) ---
    for n in [4usize, 16, 64, 256] {
        let reqs = requests(n, 42);
        let mut scratch = WaterfillScratch::new();
        waterfill_into(&mut scratch, 1.0, &reqs);
        let ns = time_ns(
            || {
                std::hint::black_box(waterfill_into(
                    &mut scratch,
                    std::hint::black_box(1.0),
                    std::hint::black_box(&reqs),
                ));
            },
            budget,
        );
        let allocs = allocs_per_op(counter, || {
            std::hint::black_box(waterfill_into(
                &mut scratch,
                1.0,
                std::hint::black_box(&reqs),
            ));
        });
        push(&format!("waterfill/warm/n{n}"), ns, allocs, None);
    }

    // --- allocator: O(n) early exit (under-subscribed node) ---
    {
        let mut reqs = requests(64, 42);
        for q in reqs.iter_mut() {
            q.limit = 0.01;
        }
        let mut scratch = WaterfillScratch::new();
        waterfill_into(&mut scratch, 1.0, &reqs);
        let ns = time_ns(
            || {
                std::hint::black_box(waterfill_into(
                    &mut scratch,
                    std::hint::black_box(1.0),
                    std::hint::black_box(&reqs),
                ));
            },
            budget,
        );
        let allocs = allocs_per_op(counter, || {
            std::hint::black_box(waterfill_into(
                &mut scratch,
                1.0,
                std::hint::black_box(&reqs),
            ));
        });
        push("waterfill/early_exit/n64", ns, allocs, None);
    }

    // --- allocator: soft two-stage with active top-up ---
    {
        let mut reqs = requests(64, 42);
        for q in reqs.iter_mut() {
            q.limit = 0.004;
            q.demand = 0.4;
        }
        let mut scratch = WaterfillScratch::new();
        waterfill_soft_into(&mut scratch, 1.0, &reqs);
        let ns = time_ns(
            || {
                std::hint::black_box(waterfill_soft_into(
                    &mut scratch,
                    std::hint::black_box(1.0),
                    std::hint::black_box(&reqs),
                ));
            },
            budget,
        );
        let allocs = allocs_per_op(counter, || {
            std::hint::black_box(waterfill_soft_into(
                &mut scratch,
                1.0,
                std::hint::black_box(&reqs),
            ));
        });
        push("waterfill/soft_warm/n64", ns, allocs, None);
    }

    // --- policy: Algorithm 1 over a measured worker ---
    for n in [15usize, 100] {
        let mut rng = SimRng::new(7);
        let measures: Vec<GrowthMeasurement> = (0..n)
            .map(|i| GrowthMeasurement {
                id: ContainerId::from_raw(i as u32),
                progress: (rng.f64() > 0.1).then(|| rng.range_f64(0.0, 0.4)),
                avg_usage: flowcon_sim::ResourceVec::cpu(rng.range_f64(0.05, 1.0)),
                cpu_limit: rng.range_f64(0.05, 1.0),
            })
            .collect();
        let config = FlowConConfig::default();
        let mut lists = Lists::new();
        for m in &measures {
            lists.insert_new(m.id);
        }
        let ns = time_ns(
            || {
                std::hint::black_box(run_algorithm1(
                    &config,
                    &mut lists,
                    std::hint::black_box(&measures),
                ));
            },
            budget,
        );
        push(&format!("policy/algorithm1/n{n}"), ns, None, None);
    }

    // --- end-to-end: one FlowCon worker run (paper's fixed 3-job plan) ---
    {
        let node = NodeConfig::default().with_seed(0xF10C);
        let plan = WorkloadPlan::fixed_three();
        let mut events = 0u64;
        let ns = time_ns(
            || {
                let result = Session::builder()
                    .node(node)
                    .plan(plan.clone())
                    .policy(FlowConPolicy::new(FlowConConfig::default()))
                    .build()
                    .run();
                events = result.events_processed;
                std::hint::black_box(result.output.completions.len());
            },
            Duration::from_secs(2),
        );
        let events_per_sec = events as f64 / (ns / 1e9);
        push("worker/flowcon_fixed_three", ns, None, Some(events_per_sec));
    }

    // --- cluster: sharded executor scale curve (2 jobs/worker, FlowCon) ---
    // Events/s is cluster-wide simulated throughput; allocs_per_op is heap
    // allocations **per worker** per run (scratch recycling keeps it flat
    // as the cluster grows).
    for workers in [8usize, 64, 256, 1024] {
        let (plan, run) = cluster_case(workers);
        let mut events = 0u64;
        let ns = time_ns(
            || {
                events = std::hint::black_box(run(&plan));
            },
            Duration::from_millis(800),
        );
        let events_per_sec = events as f64 / (ns / 1e9);
        // Expensive op: 3 measured iterations are enough for a per-worker
        // allocation figure (the signal is hundreds of allocs/worker).
        let allocs = allocs_per_op_iters(counter, 3, || {
            std::hint::black_box(run(&plan));
        })
        .map(|per_run| per_run / workers as f64);
        push(
            &format!("cluster/sharded/w{workers}"),
            ns,
            allocs,
            Some(events_per_sec),
        );
    }

    // --- cluster: headless scale (CompletionsOnly recorder) ---
    // The 10k-worker configuration: no sampling events scheduled, no label
    // clones, O(completions) memory.  allocs_per_op is per **worker** and
    // must stay within the ≲20 budget (also pinned by
    // `crates/cluster/tests/headless_allocs.rs`).
    for workers in [4096usize, 10240] {
        let plan = WorkloadPlan::random_n(workers * 2, CLUSTER_BENCH_PLAN_SEED);
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let session = |p: WorkloadPlan| {
            ClusterSession::builder()
                .nodes(workers, node)
                .policy(PolicyKind::FlowCon(FlowConConfig::default()))
                .plan(p)
                .build()
        };
        let mut events = 0u64;
        let ns = time_ns(
            || {
                let run = session(plan.clone()).run();
                events = run.events_processed();
                std::hint::black_box(run.completed_jobs());
            },
            Duration::from_millis(1200),
        );
        let events_per_sec = events as f64 / (ns / 1e9);
        // The timed op clones the plan (negligible wall-clock), but the
        // clone's 2×workers label allocations would swamp the per-worker
        // figure — pre-clone outside the counted window instead (one
        // warm-up + 3 measured iterations).
        let mut plans: Vec<WorkloadPlan> = (0..4).map(|_| plan.clone()).collect();
        let allocs = allocs_per_op_iters(counter, 3, || {
            let p = plans.pop().expect("4 plans pre-cloned");
            std::hint::black_box(session(p).run().completed_jobs());
        })
        .map(|per_run| per_run / workers as f64);
        push(
            &format!("cluster/headless/w{workers}"),
            ns,
            allocs,
            Some(events_per_sec),
        );
    }

    // --- cluster: dense-path density rows (the ISSUE-6 acceptance gate) ---
    // 10⁵ and 10⁶ workers through the dense arena path, one sample each: a
    // single run is seconds of wall clock at this scale, and the gate only
    // reads the machine-independent allocs/worker figure (`cluster/` rows
    // are exempt from the events/s check).  Wall time and allocations come
    // from the *same* run; the plan is built outside the measured window,
    // so the op is placement + simulation — the `repro profile` headline.
    // allocs/worker must stay under the dense budget of 10 (also pinned by
    // `crates/cluster/tests/headless_allocs.rs`).
    for workers in [100_000usize, 1_000_000] {
        let plan = WorkloadPlan::random_n(workers * 2, CLUSTER_BENCH_PLAN_SEED);
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let before = counter.map(|c| c());
        let start = Instant::now();
        let run = ClusterSession::builder()
            .nodes(workers, node)
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(plan)
            .build()
            .run();
        let ns = start.elapsed().as_nanos() as f64;
        let events = run.events_processed();
        std::hint::black_box(run.completed_jobs());
        let allocs = match (before, counter) {
            (Some(b), Some(c)) => Some((c() - b) as f64 / workers as f64),
            _ => None,
        };
        push(
            &format!("cluster/headless/w{workers}"),
            ns,
            allocs,
            Some(events as f64 / (ns / 1e9)),
        );
    }

    // --- trace subsystem: parser + catalog binding ---
    // Parsing is zero-copy (rows borrow the document); binding recycles a
    // warm `BoundTrace` through `bind_into`, so the steady-state op — a
    // replay service rebinding arriving documents — allocates only the
    // transient row vector, not 600 label strings (was 651 allocs/op
    // before buffer reuse).  The committed 600-row bursty JSONL is the
    // realistic case; allocs/op is flat in document size by design.
    {
        use crate::experiments::trace as exp;
        use flowcon_workload::{BoundTrace, TraceCatalog};
        let doc = exp::BURSTY_LARGE_JSONL;
        let catalog = TraceCatalog::table1();
        let mut bound = BoundTrace { jobs: Vec::new() };
        exp::bind_default_into(doc, &catalog, &mut bound).unwrap(); // warm the buffers
        let ns = time_ns(
            || {
                exp::bind_default_into(std::hint::black_box(doc), &catalog, &mut bound).unwrap();
                std::hint::black_box(bound.len());
            },
            budget,
        );
        let allocs = allocs_per_op_iters(counter, 200, || {
            exp::bind_default_into(std::hint::black_box(doc), &catalog, &mut bound).unwrap();
            std::hint::black_box(bound.len());
        });
        push("trace/parse_bind/bursty600", ns, allocs, None);
    }

    // --- trace subsystem: end-to-end replay of the paper trace ---
    // The trace-driven twin of worker/flowcon_fixed_three: parse + bind
    // live outside the loop (measured above); the row times the replay.
    {
        use crate::experiments::trace as exp;
        let bound = exp::bind_default(exp::PAPER_FIXED_CSV).unwrap();
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let mut events = 0u64;
        let ns = time_ns(
            || {
                let result = exp::replay_session(
                    &bound,
                    node,
                    PolicyKind::FlowCon(FlowConConfig::default()),
                );
                events = result.events_processed;
                std::hint::black_box(result.output.completions.len());
            },
            Duration::from_secs(2),
        );
        push(
            "trace/replay/paper_flowcon",
            ns,
            None,
            Some(events as f64 / (ns / 1e9)),
        );
    }

    // --- trace subsystem: synthetic generation + session run ---
    {
        use crate::experiments::trace as exp;
        let synthetic =
            exp::preset("poisson", 0.1, 15, CLUSTER_BENCH_PLAN_SEED).expect("a preset name");
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let mut events = 0u64;
        let ns = time_ns(
            || {
                let result = Session::builder()
                    .node(node)
                    .plan(&synthetic)
                    .policy(FlowConPolicy::new(FlowConConfig::default()))
                    .build()
                    .run();
                events = result.events_processed;
                std::hint::black_box(result.output.completions.len());
            },
            Duration::from_secs(2),
        );
        push(
            "trace/synthetic/poisson_n15",
            ns,
            None,
            Some(events as f64 / (ns / 1e9)),
        );
    }

    // --- cluster: 10k workers streamed off one trace (PlanSource) ---
    // The acceptance configuration of the trace subsystem: a 10240-worker
    // headless cluster pulling per-worker slices of one shared, unlabeled
    // arrival trace.  allocs_per_op is per worker and includes plan
    // construction (that is the point of a streaming source); the ≤ 10
    // budget is also pinned by `crates/cluster/tests/headless_allocs.rs`.
    {
        let workers = 10240usize;
        let plan = WorkloadPlan::random_n(workers * 2, CLUSTER_BENCH_PLAN_SEED);
        let source = TraceSource::new(
            flowcon_workload::BoundTrace::from_plan(plan).unlabeled(),
            workers,
        );
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let session = || {
            ClusterSession::builder()
                .nodes(workers, node)
                .policy(PolicyKind::FlowCon(FlowConConfig::default()))
                .source(&source)
                .build()
        };
        let mut events = 0u64;
        let ns = time_ns(
            || {
                let run = session().run();
                events = run.events_processed();
                std::hint::black_box(run.completed_jobs());
            },
            Duration::from_millis(1200),
        );
        let allocs = allocs_per_op_iters(counter, 3, || {
            std::hint::black_box(session().run().completed_jobs());
        })
        .map(|per_run| per_run / workers as f64);
        push(
            &format!("cluster/trace_source/w{workers}"),
            ns,
            allocs,
            Some(events as f64 / (ns / 1e9)),
        );
    }

    // --- open-loop: one worker session fed by a live Poisson stream ---
    // The open-loop twin of worker/flowcon_fixed_three: arrivals are
    // pulled from the stream and admitted mid-run (full recorder, 10 jobs
    // at 0.05/s), so the row times stream sampling + mid-run admission +
    // the drain, end to end.  Single-threaded, so events/s stays in the
    // relative throughput gate.
    {
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let source =
            SyntheticStreamSource::new(ArrivalProcess::poisson(0.05), CLUSTER_BENCH_PLAN_SEED);
        let horizon = Horizon::jobs(10);
        let mut events = 0u64;
        let ns = time_ns(
            || {
                let result = Session::builder()
                    .node(node)
                    .policy(FlowConPolicy::new(FlowConConfig::default()))
                    .build()
                    .run_stream(source.stream_for(0), horizon);
                events = result.events_processed;
                std::hint::black_box(result.stream.completed);
            },
            Duration::from_secs(2),
        );
        push(
            "stream/session/poisson_j10",
            ns,
            None,
            Some(events as f64 / (ns / 1e9)),
        );
    }

    // --- open-loop: 1024-worker headless cluster (the acceptance row) ---
    // `repro stream --synthetic poisson --workers 1024 --until 3600
    // --headless` exactly: per-worker unbounded Poisson streams at the
    // CLI's default rate (0.0005/s ⇒ ~1.8 jobs/worker over the hour —
    // the same per-worker work as every other cluster row), admitted
    // mid-run on the sharded executor.  allocs_per_op is per worker and
    // must stay within the ≤ 10 headless budget (also pinned by
    // `crates/cluster/tests/headless_allocs.rs`); throughput scales with
    // core count, so the row is excluded from the relative events/s gate
    // like every `cluster/` row.
    {
        let workers = 1024usize;
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let source =
            SyntheticStreamSource::new(ArrivalProcess::poisson(0.0005), CLUSTER_BENCH_PLAN_SEED)
                .unlabeled();
        let horizon = Horizon::until(SimTime::from_secs(3600));
        let session = || {
            ClusterSession::builder()
                .nodes(workers, node)
                .policy(PolicyKind::FlowCon(FlowConConfig::default()))
                .stream(&source, horizon)
                .build()
        };
        let mut events = 0u64;
        let ns = time_ns(
            || {
                let run = session().run();
                events = run.events_processed();
                std::hint::black_box(run.completed_jobs());
            },
            Duration::from_millis(1200),
        );
        let allocs = allocs_per_op_iters(counter, 3, || {
            std::hint::black_box(session().run().completed_jobs());
        })
        .map(|per_run| per_run / workers as f64);
        push(
            &format!("stream/open_loop/w{workers}"),
            ns,
            allocs,
            Some(events as f64 / (ns / 1e9)),
        );
    }

    // --- sched: online cluster scheduler, all three disciplines ---
    // `repro sched --compare` at bench scale: 1024 jobs queued/placed/
    // preempted across a 64-node cluster by the global manager, one row
    // per discipline run back to back (the CLI's --compare shape).  The
    // op is admission + decision rounds + quantum-barrier advances, so
    // events/s tracks core count like every other sharded row — the
    // `sched/` prefix is excluded from the relative throughput gate and
    // the row is held by presence (and wall time in the json for eyeball
    // comparisons across disciplines).
    {
        let nodes = 64usize;
        let jobs = 1024usize;
        let plan = WorkloadPlan::random_n(jobs, CLUSTER_BENCH_PLAN_SEED);
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let mut completed = 0usize;
        let ns = time_ns(
            || {
                for kind in SchedPolicyKind::ALL {
                    let out = ClusterSession::builder()
                        .nodes(nodes, node)
                        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
                        .plan(plan.clone())
                        .scheduler(kind)
                        .build()
                        .run();
                    completed = out.completed_jobs();
                    std::hint::black_box(out.decisions.len());
                }
            },
            Duration::from_millis(1200),
        );
        assert_eq!(completed, jobs, "sched bench must drain its workload");
        push(&format!("sched/compare/w{jobs}"), ns, None, None);
    }

    // --- trace: flight-recorder cost on a 256-node scheduler run ---
    // Two rows over the *same* FIFO sched run: `trace/noop/` is the
    // default `.run()` path (the `NoopTracer` monomorphization — i.e.
    // tracing compiled away, identical to a build without the tracer
    // layer), `trace/flight/` re-runs it through a preallocated
    // `FlightRecorder`.  Comparing the pair in the json is the standing
    // evidence that the abstraction is free and that recording costs only
    // its ring writes.  Sharded rounds make both rows core-count
    // dependent, so `trace/` is excluded from the relative events/s gate.
    {
        let nodes = 256usize;
        let jobs = 1024usize;
        let plan = WorkloadPlan::random_n(jobs, CLUSTER_BENCH_PLAN_SEED);
        let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
        let session = |p: WorkloadPlan| {
            ClusterSession::builder()
                .nodes(nodes, node)
                .policy(PolicyKind::FlowCon(FlowConConfig::default()))
                .plan(p)
                .scheduler(SchedPolicyKind::Fifo)
        };
        let mut completed = 0usize;
        let ns = time_ns(
            || {
                let out = session(plan.clone()).build().run();
                completed = out.completed_jobs();
                std::hint::black_box(out.decisions.len());
            },
            Duration::from_millis(1200),
        );
        assert_eq!(completed, jobs, "noop-traced sched bench must drain");
        push("trace/noop/sched_w256", ns, None, None);

        let mut recorded = 0usize;
        let ns = time_ns(
            || {
                let (out, recorder) = session(plan.clone())
                    .tracer(FlightRecorder::with_capacity(1 << 16))
                    .build()
                    .run_traced();
                completed = out.completed_jobs();
                recorded = recorder.len();
                std::hint::black_box(out.decisions.len());
            },
            Duration::from_millis(1200),
        );
        assert_eq!(completed, jobs, "flight-traced sched bench must drain");
        assert!(recorded > 0, "flight recorder must capture the sched run");
        push("trace/flight/sched_w256", ns, None, None);
    }

    // --- metrics: warm quantile-sketch insert (the SLO hot path) ---
    // One op is one `QuantileSketch::insert` into a sketch whose bucket
    // range already covers the workload — the shape every worker sees on
    // the open-loop exit path after the first few jobs.  allocs_per_op is
    // zero-gated (`metrics/sketch/` is in `ZERO_ALLOC_PREFIXES`): a warm
    // insert is a log-key computation plus a counter bump, nothing else.
    {
        let mut rng = SimRng::new(CLUSTER_BENCH_PLAN_SEED);
        let values: Vec<f64> = (0..4096).map(|_| rng.range_f64(0.5, 5000.0)).collect();
        let mut sketch = flowcon_metrics::sketch::QuantileSketch::new();
        for &v in &values {
            sketch.insert(v); // warm the full bucket range
        }
        let mut i = 0usize;
        let mut op = move || {
            sketch.insert(values[i & 4095]);
            i = i.wrapping_add(1);
            std::hint::black_box(sketch.count());
        };
        let ns = time_ns(&mut op, budget);
        let allocs = allocs_per_op_iters(counter, 100_000, &mut op);
        push("metrics/sketch/insert", ns, allocs, None);
    }

    // --- frontier: capacity sweep, FIFO on a 256-node cluster ---
    // A bench-scale `repro frontier --policy fifo --workers 256`: four
    // geometric rungs bracketing the stability frontier, each a
    // deterministic 512-job scheduler run with tails recorded in the
    // sojourn/queue-wait sketches.  Sharded rounds inside each rung make
    // wall time core-count-dependent, so `frontier/` is excluded from the
    // relative events/s gate; the row is held by presence.
    {
        use crate::experiments::frontier;
        let config = frontier::FrontierConfig {
            nodes: 256,
            jobs: 512,
            ..frontier::FrontierConfig::default()
        };
        let rates = frontier::geometric_ladder(0.032, 4.0, 4);
        let mut rungs = 0usize;
        let ns = time_ns(
            || {
                let curve = frontier::sweep(SchedPolicyKind::Fifo, &config, &rates);
                rungs = curve.points.len();
                std::hint::black_box(curve.frontier_rate());
            },
            Duration::from_millis(1500),
        );
        assert!(rungs >= 2, "frontier bench ladder must measure ≥ 2 rungs");
        push("frontier/sweep/fifo_w256", ns, None, None);
    }

    // --- rt: real threads under the token-bucket governor ---
    // A tiny wall-clock run (two ~40 ms jobs, FlowCon reconfiguring every
    // 100 ms) so real-thread mode is regression-gated beside the sim rows.
    // events/s here is *completions per wall second* and depends on the
    // machine's clock, so `rt/` rows are presence-gated only (excluded
    // from the relative throughput check like `cluster/`).
    {
        use flowcon_rt::{RtConfig, RtJob, RtRuntime};
        use flowcon_sim::time::SimDuration as SimDur;
        let small_job = |label: &str, seed: u64| {
            let mut spec = flowcon_dl::ModelSpec::of(flowcon_dl::ModelId::Gru);
            spec.total_work = 0.04;
            spec.demand = 1.0;
            let mut rng = SimRng::new(seed);
            flowcon_dl::TrainingJob::with_label(spec, label, &mut rng)
        };
        let mut completed = 0usize;
        let ns = time_ns(
            || {
                let config = FlowConConfig {
                    initial_interval: SimDur::from_millis(100),
                    ..FlowConConfig::default()
                };
                let runtime =
                    RtRuntime::new(RtConfig::default(), Box::new(FlowConPolicy::new(config)));
                let summary = runtime.run(vec![
                    RtJob {
                        job: small_job("rt-a", 1),
                        arrival: Duration::ZERO,
                    },
                    RtJob {
                        job: small_job("rt-b", 2),
                        arrival: Duration::from_millis(10),
                    },
                ]);
                completed = summary.completions.len();
                std::hint::black_box(completed);
            },
            Duration::from_millis(600),
        );
        assert_eq!(completed, 2, "rt bench must complete both jobs");
        push(
            "rt/governor/flowcon_tiny",
            ns,
            None,
            Some(completed as f64 / (ns / 1e9)),
        );
    }

    out
}

/// Workload-plan seed of the `cluster/sharded/*` benches (`repro cluster`
/// defaults to the same, so any committed point can be reproduced by hand).
pub const CLUSTER_BENCH_PLAN_SEED: u64 = 0xC1A5;

/// Node seed of the `cluster/sharded/*` benches.
pub const CLUSTER_BENCH_NODE_SEED: u64 = 0xF10C;

/// The fixed cluster benchmark case: `workers` nodes, 2 jobs per worker,
/// FlowCon policy, round-robin placement, sharded execution.  Returns the
/// plan and a runner closure yielding total simulated events.
#[allow(clippy::type_complexity)]
fn cluster_case(workers: usize) -> (WorkloadPlan, impl Fn(&WorkloadPlan) -> u64) {
    let plan = WorkloadPlan::random_n(workers * 2, CLUSTER_BENCH_PLAN_SEED);
    let node = NodeConfig::default().with_seed(CLUSTER_BENCH_NODE_SEED);
    let run = move |plan: &WorkloadPlan| {
        let result = ClusterSession::builder()
            .nodes(workers, node)
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(plan.clone())
            .recorder(|_| flowcon_core::recorder::FullRecorder::new())
            .build()
            .run();
        result.events_processed()
    };
    (plan, run)
}

/// Encode the suite results as the `BENCH_<date>.json` document.
pub fn to_json(results: &[PerfResult], date: &str, mode: &str) -> String {
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x:.2}")
        } else {
            "null".to_string()
        }
    }
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"flowcon-bench/v1\",\n");
    s.push_str(&format!("  \"date\": \"{date}\",\n"));
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"name\": \"{}\", ", r.name));
        s.push_str(&format!("\"ns_per_op\": {}, ", num(r.ns_per_op)));
        s.push_str(&format!("\"ops_per_sec\": {}, ", num(r.ops_per_sec)));
        s.push_str(&format!(
            "\"allocs_per_op\": {}, ",
            r.allocs_per_op.map_or("null".to_string(), num)
        ));
        s.push_str(&format!(
            "\"events_per_sec\": {}",
            r.events_per_sec.map_or("null".to_string(), num)
        ));
        s.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

// ---------------------------------------------------------------------------
// The bench regression gate (`repro bench --check <baseline.json>`)
// ---------------------------------------------------------------------------

/// Benchmark-name prefixes whose warm path is contractually allocation-free
/// (see BENCHMARKS.md): any `allocs_per_op > 0` on these rows fails the
/// gate outright.
pub const ZERO_ALLOC_PREFIXES: [&str; 4] = [
    "waterfill/warm",
    "waterfill/early_exit",
    "waterfill/soft_warm",
    "metrics/sketch/",
];

/// Maximum tolerated events/s regression vs the baseline (25%): throughput
/// below `(1 - EVENTS_REGRESSION_TOLERANCE) × baseline` fails the gate.
pub const EVENTS_REGRESSION_TOLERANCE: f64 = 0.25;

/// Benchmark-name prefixes excluded from the **relative** events/s check:
/// cluster throughput (closed `cluster/` rows and the open-loop
/// `stream/open_loop/` row) scales with the runner's *core count* (the
/// sharded executor uses `available_parallelism` threads), so a baseline
/// committed from an 8-core box would permanently fail a 4-vCPU CI runner
/// on unchanged code.  The scheduler rows (`sched/`, the `frontier/`
/// capacity sweep, whose rungs are scheduler runs, and `trace/`'s
/// headline rows `trace/noop/` and `trace/flight/`) advanced their nodes
/// on shard threads when the committed baselines were taken, and stay
/// excluded until a baseline is re-taken.  These rows stay gated by
/// presence and — where measured — by their machine-independent
/// allocs/worker figure (see [`ALLOCS_REGRESSION_TOLERANCE`]).
///
/// `rt/` rows are **no longer excluded**: since the push-based rewrite,
/// the tiny rt bench's wall time is set by token-bucket rates and timer
/// periods (the spin kernel measures elapsed wall time, not cycles), so
/// completions per wall second is a property of the coordination code,
/// not of the host's clock speed — a real regression there means the
/// governor or completion path got slower.
pub const THROUGHPUT_GATE_EXCLUDE_PREFIXES: [&str; 5] = [
    "cluster/",
    "sched/",
    "stream/open_loop/",
    "frontier/",
    "trace/",
];

/// Maximum tolerated relative growth of `allocs_per_op` vs the baseline
/// (25%), applied to every row measuring allocations in both runs (with a
/// 0.5-alloc absolute slack so tiny integer counts don't flake).  This is
/// what keeps the cluster rows honest on any hardware: allocation counts,
/// unlike throughput, don't depend on the runner's clock or core count —
/// if per-shard scratch recycling ever breaks, allocs/worker jumps from
/// ~10² to ~10⁴ and this wire trips.
pub const ALLOCS_REGRESSION_TOLERANCE: f64 = 0.25;

/// Parse a `BENCH_<date>.json` document produced by [`to_json`] back into
/// results.  Returns `None` when the document is not a flowcon-bench file.
///
/// The format is line-oriented by construction (one result object per
/// line), so this stays dependency-free: no JSON crate is vendored, and
/// the gate only ever reads files this suite wrote.
pub fn parse_results(json: &str) -> Option<Vec<PerfResult>> {
    if !json.contains("\"schema\": \"flowcon-bench/v1\"") {
        return None;
    }
    fn field_f64(line: &str, key: &str) -> Option<f64> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        let raw = rest[..end].trim();
        if raw == "null" {
            None
        } else {
            raw.parse().ok()
        }
    }
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name_start) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_start + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let ns_per_op = field_f64(line, "ns_per_op").unwrap_or(f64::NAN);
        out.push(PerfResult {
            name: rest[..name_end].to_string(),
            ns_per_op,
            ops_per_sec: field_f64(line, "ops_per_sec").unwrap_or(if ns_per_op > 0.0 {
                1e9 / ns_per_op
            } else {
                0.0
            }),
            allocs_per_op: field_f64(line, "allocs_per_op"),
            events_per_sec: field_f64(line, "events_per_sec"),
        });
    }
    Some(out)
}

/// Compare a fresh suite run against a committed baseline.
///
/// Returns the list of violations (empty = gate passes):
///
/// * any current row matching [`ZERO_ALLOC_PREFIXES`] with
///   `allocs_per_op > 0` (the zero-allocation contract is absolute, not
///   relative to the baseline);
/// * any benchmark with `events_per_sec` in **both** runs whose current
///   throughput fell more than [`EVENTS_REGRESSION_TOLERANCE`] below the
///   baseline — except [`THROUGHPUT_GATE_EXCLUDE_PREFIXES`] rows, whose
///   throughput depends on the machine's core count;
/// * any benchmark with `allocs_per_op` in **both** runs that grew more
///   than [`ALLOCS_REGRESSION_TOLERANCE`] (+0.5 allocs absolute slack)
///   over the baseline — allocation counts are machine-independent, so
///   this wire also covers the `cluster/*` rows;
/// * any baseline benchmark that disappeared from the current suite (a
///   silently dropped benchmark would otherwise un-gate itself).
pub fn check_regression(current: &[PerfResult], baseline: &[PerfResult]) -> Vec<String> {
    let mut violations = Vec::new();

    for r in current {
        if ZERO_ALLOC_PREFIXES.iter().any(|p| r.name.starts_with(p)) {
            if let Some(allocs) = r.allocs_per_op {
                // The JSON rounds to 2 decimals; anything at or above 0.005
                // would print as > 0.00.
                if allocs >= 0.005 {
                    violations.push(format!(
                        "{}: warm path allocated ({allocs:.2} allocs/op, contract is 0)",
                        r.name
                    ));
                }
            }
        }
    }

    for b in baseline {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            violations.push(format!("{}: benchmark missing from current run", b.name));
            continue;
        };
        if let (Some(base_allocs), Some(cur_allocs)) = (b.allocs_per_op, c.allocs_per_op) {
            let ceiling = base_allocs * (1.0 + ALLOCS_REGRESSION_TOLERANCE) + 0.5;
            if cur_allocs > ceiling {
                violations.push(format!(
                    "{}: allocs/op grew {:.1}% (baseline {:.2}, current {:.2}, ceiling {:.2})",
                    b.name,
                    100.0 * (cur_allocs / base_allocs.max(1e-9) - 1.0),
                    base_allocs,
                    cur_allocs,
                    ceiling
                ));
            }
        }
        if THROUGHPUT_GATE_EXCLUDE_PREFIXES
            .iter()
            .any(|p| b.name.starts_with(p))
        {
            continue;
        }
        if let (Some(base_eps), Some(cur_eps)) = (b.events_per_sec, c.events_per_sec) {
            let floor = base_eps * (1.0 - EVENTS_REGRESSION_TOLERANCE);
            if base_eps > 0.0 && cur_eps < floor {
                violations.push(format!(
                    "{}: events/s regressed {:.1}% (baseline {:.0}, current {:.0}, floor {:.0})",
                    b.name,
                    100.0 * (1.0 - cur_eps / base_eps),
                    base_eps,
                    cur_eps,
                    floor
                ));
            }
        }
    }

    violations
}

/// Days-since-epoch to `(year, month, day)` — Howard Hinnant's
/// civil-from-days algorithm.
pub fn civil_from_days(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    (y, m, d)
}

/// Today's date (UTC) as `YYYY-MM-DD`, from the system clock.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_is_well_formed_enough() {
        let results = vec![PerfResult {
            name: "a/b".into(),
            ns_per_op: 12.5,
            ops_per_sec: 8e7,
            allocs_per_op: Some(0.0),
            events_per_sec: None,
        }];
        let json = to_json(&results, "2026-01-01", "release");
        assert!(json.contains("\"schema\": \"flowcon-bench/v1\""));
        assert!(json.contains("\"name\": \"a/b\""));
        assert!(json.contains("\"allocs_per_op\": 0.00"));
        assert!(json.contains("\"events_per_sec\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn civil_date_conversion_known_values() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(59), (1970, 3, 1)); // non-leap Feb
        assert_eq!(civil_from_days(789), (1972, 2, 29)); // leap day
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_663), (2026, 7, 29));
    }

    fn result(name: &str, allocs: Option<f64>, events: Option<f64>) -> PerfResult {
        PerfResult {
            name: name.into(),
            ns_per_op: 100.0,
            ops_per_sec: 1e7,
            allocs_per_op: allocs,
            events_per_sec: events,
        }
    }

    #[test]
    fn json_round_trips_through_parse_results() {
        let results = vec![
            result("waterfill/warm/n64", Some(0.0), None),
            result("worker/flowcon_fixed_three", None, Some(2.3e8)),
            result("cluster/sharded/w1024", Some(312.5), Some(1.9e7)),
        ];
        let json = to_json(&results, "2026-07-29", "release");
        let parsed = parse_results(&json).expect("own format parses");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "waterfill/warm/n64");
        assert_eq!(parsed[0].allocs_per_op, Some(0.0));
        assert_eq!(parsed[0].events_per_sec, None);
        assert_eq!(parsed[1].allocs_per_op, None);
        assert!((parsed[1].events_per_sec.unwrap() - 2.3e8).abs() < 1.0);
        assert!((parsed[2].allocs_per_op.unwrap() - 312.5).abs() < 1e-9);
    }

    #[test]
    fn parse_results_rejects_foreign_documents() {
        assert!(parse_results("{\"results\": []}").is_none());
        assert!(parse_results("").is_none());
    }

    #[test]
    fn gate_passes_when_nothing_regressed() {
        let baseline = vec![
            result("worker/flowcon_fixed_three", None, Some(6e6)),
            result("waterfill/warm/n64", Some(0.0), None),
        ];
        let current = vec![
            result("worker/flowcon_fixed_three", None, Some(5.5e6)), // -8%: ok
            result("waterfill/warm/n64", Some(0.0), None),
            result("cluster/sharded/w8", Some(300.0), Some(1e7)), // new row: ok
        ];
        assert_eq!(check_regression(&current, &baseline), Vec::<String>::new());
    }

    #[test]
    fn gate_fails_on_warm_path_allocation() {
        let current = vec![result("waterfill/warm/n64", Some(1.0), None)];
        let violations = check_regression(&current, &[]);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("warm path allocated"),
            "{violations:?}"
        );
    }

    #[test]
    fn gate_fails_on_doctored_throughput_baseline() {
        // A baseline doctored to claim 10x the real throughput must trip
        // the 25% regression wire.
        let baseline = vec![result("worker/flowcon_fixed_three", None, Some(2.4e9))];
        let current = vec![result("worker/flowcon_fixed_three", None, Some(2.4e8))];
        let violations = check_regression(&current, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("events/s regressed"),
            "{violations:?}"
        );
        // Within-tolerance noise does not trip it.
        let ok = vec![result("worker/flowcon_fixed_three", None, Some(1.9e9))];
        assert!(check_regression(&ok, &baseline).is_empty());
    }

    #[test]
    fn gate_ignores_core_count_dependent_cluster_throughput() {
        // Cluster events/s scales with available_parallelism; a multi-core
        // baseline must not fail a fewer-core machine.  Presence is still
        // required, though.
        let baseline = vec![result("cluster/sharded/w1024", Some(113.0), Some(5.6e7))];
        let current = vec![result("cluster/sharded/w1024", Some(113.0), Some(6.7e6))];
        assert!(check_regression(&current, &baseline).is_empty());
        assert_eq!(check_regression(&[], &baseline).len(), 1);
        // The open-loop cluster row rides the same exclusion (it runs on
        // the sharded executor) — but stays gated on allocs/worker.
        let baseline = vec![result("stream/open_loop/w1024", Some(17.0), Some(6.8e6))];
        let slower = vec![result("stream/open_loop/w1024", Some(17.0), Some(9.1e5))];
        assert!(check_regression(&slower, &baseline).is_empty());
        let leaking = vec![result("stream/open_loop/w1024", Some(140.0), Some(6.8e6))];
        assert_eq!(check_regression(&leaking, &baseline).len(), 1);
        // The single-worker open-loop session row is NOT excluded.
        let baseline = vec![result("stream/session/poisson_j10", None, Some(6.0e6))];
        let regressed = vec![result("stream/session/poisson_j10", None, Some(3.0e6))];
        assert_eq!(check_regression(&regressed, &baseline).len(), 1);
    }

    #[test]
    fn gate_fails_when_cluster_allocs_per_worker_balloons() {
        // If per-shard scratch recycling breaks, allocs/worker jumps by orders
        // of magnitude — machine-independent, so gated on every runner.
        let baseline = vec![result("cluster/sharded/w1024", Some(113.0), Some(5.6e7))];
        let broken = vec![result("cluster/sharded/w1024", Some(12_000.0), Some(5.6e7))];
        let violations = check_regression(&broken, &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("allocs/op grew"), "{violations:?}");
        // 25% + 0.5 slack tolerates shard-count jitter.
        let ok = vec![result("cluster/sharded/w1024", Some(130.0), Some(5.6e7))];
        assert!(check_regression(&ok, &baseline).is_empty());
    }

    #[test]
    fn gate_fails_when_a_benchmark_disappears() {
        let baseline = vec![result("worker/flowcon_fixed_three", None, Some(6e6))];
        let violations = check_regression(&[], &baseline);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{violations:?}");
    }

    #[test]
    fn micro_suite_smoke_runs_fast_subset() {
        // Full suite is seconds-long; just verify the timing helper works.
        let ns = time_ns(
            || {
                std::hint::black_box(1 + 1);
            },
            Duration::from_millis(10),
        );
        assert!((0.0..1e6).contains(&ns));
    }
}
