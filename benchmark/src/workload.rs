//! The four workloads, each driven only through the library's public API:
//! an untraced rep (the end-to-end measurement), an independent reference
//! path for a sample of its output, and a traced rep that times calls into
//! each layer through benchmark-owned wrappers.
//!
//! Every workload uses the paper's default FlowCon configuration on every
//! node.  The benchmark derives all inputs (plans, streams, node seeds)
//! from the `--seed` argument; the library only sees the generated inputs.

use std::collections::BTreeMap;
use std::time::Instant;

use flowcon_cluster::{
    executor, ClusterSession, Horizon, PolicyKind, SchedOutcome, SchedPolicyKind, StreamSource,
    SyntheticStreamSource,
};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::dense::{run_headless_dense, DenseScratch, QueueKind};
use flowcon_core::recorder::{CompletionsOnly, FullRecorder};
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::{JobRequest, WorkloadPlan};
use flowcon_metrics::summary::{CompletionStats, RunSummary};
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::TraceKind;
use flowcon_workload::ArrivalProcess;

use crate::check::{SimSummary, Summarizer};
use crate::probe::{
    now_ns, take_layers, thread_tag, timed_map, BoundarySpan, ExecTotals, Layers, MapTotals,
    TimedDiscipline, TimedPolicy, TimedRecorder, WallTracer, DISPATCH,
};

/// The benchmark's workloads (see `benchmark/README.md` for why each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1M nodes × 2 jobs on the dense headless path.
    Headless1m,
    /// 128 nodes × 32 jobs on the object session with a full recorder.
    RecordedDeep,
    /// 256 two-slot nodes under the Tiresias scheduler, one burst.
    SchedTiresias,
    /// 16,384 nodes fed per-node Poisson streams for two simulated hours.
    OpenLoop,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Headless1m,
        Workload::RecordedDeep,
        Workload::SchedTiresias,
        Workload::OpenLoop,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Headless1m => "headless_1m",
            Workload::RecordedDeep => "recorded_deep",
            Workload::SchedTiresias => "sched_tiresias",
            Workload::OpenLoop => "open_loop",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One untraced rep through the public session API.
    pub fn rep(self, seed: u64) -> Rep {
        match self {
            Workload::Headless1m => headless::rep(seed),
            Workload::RecordedDeep => deep::rep(seed),
            Workload::SchedTiresias => sched::rep(seed),
            Workload::OpenLoop => open::rep(seed),
        }
    }

    /// Re-run a sample of the workload through an independent path and
    /// compare it with `base`, the same seed's summary.
    pub fn reference(self, seed: u64, base: &SimSummary) -> Reference {
        match self {
            Workload::Headless1m => headless::reference(seed, base),
            Workload::RecordedDeep => deep::reference(seed, base),
            Workload::SchedTiresias => sched::reference(seed, base),
            Workload::OpenLoop => open::reference(seed, base),
        }
    }

    /// One traced rep: the same inputs, with every layer probed.
    pub fn traced(self, seed: u64) -> Traced {
        let _ = take_layers();
        match self {
            Workload::Headless1m => headless::traced(seed),
            Workload::RecordedDeep => deep::traced(seed),
            Workload::SchedTiresias => sched::traced(seed),
            Workload::OpenLoop => open::traced(seed),
        }
    }
}

/// One untraced rep.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds building the plan or stream source.
    pub plan_s: f64,
    /// Host seconds building the session and placing jobs, where placement
    /// is a separate stage.
    pub place_s: f64,
    /// Host seconds simulating.
    pub run_s: f64,
    /// The output, condensed.
    pub sim: SimSummary,
}

/// The outcome of a reference check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reference {
    /// Jobs re-run through the reference path.
    pub compared: u64,
    /// Of those, jobs whose records differ from the measured run.
    pub mismatched: u64,
}

/// One traced rep.
#[derive(Debug)]
pub struct Traced {
    /// Host seconds simulating, with probes on.
    pub run_s: f64,
    /// The output, condensed (must equal the untraced rep's).
    pub sim: SimSummary,
    /// Per-layer metrics, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Stage, shard and barrier spans.
    pub spans: Vec<BoundarySpan>,
}

fn flowcon() -> PolicyKind {
    PolicyKind::FlowCon(FlowConConfig::default())
}

/// SplitMix64's finalizer: decorrelates seeds derived from one another.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Node `w`'s configuration: the default node with its own seed.
fn node(seed: u64, w: usize) -> NodeConfig {
    NodeConfig::default().with_seed(mix(mix(seed) ^ w as u64))
}

fn nodes(seed: u64, n: usize) -> Vec<NodeConfig> {
    (0..n).map(|w| node(seed, w)).collect()
}

/// Jobs worker `w` receives when `jobs` are placed round-robin on `n`.
fn round_robin(jobs: usize, n: usize, w: usize) -> u64 {
    (jobs / n + usize::from(w < jobs % n)) as u64
}

/// The jobs round-robin placement gives worker `w`, in plan order.
fn jobs_of(plan: &WorkloadPlan, n: usize, w: usize) -> Vec<JobRequest> {
    plan.jobs.iter().skip(w).step_by(n).cloned().collect()
}

/// `k` workers spread evenly over `n`.
fn stride(n: usize, k: usize) -> impl Iterator<Item = usize> {
    (0..k.min(n)).map(move |i| i * n / k.min(n))
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Placements that disagree with round-robin, as failed jobs.
fn misplaced(placements: &[usize], n: usize) -> u64 {
    placements
        .iter()
        .enumerate()
        .filter(|&(i, &w)| w != i % n)
        .count() as u64
}

fn summarize_stats<'a>(
    workers: impl Iterator<Item = (&'a CompletionStats, u64, u64)>,
    jobs: usize,
) -> SimSummary {
    let mut s = Summarizer::with_capacity(jobs);
    for (stats, events, expected) in workers {
        let mut r = s.worker(expected, events);
        for c in &stats.completions {
            r.record("", c.arrival, c.finished, c.exit_code);
        }
        r.finish();
    }
    s.finish()
}

fn summarize_full(
    workers: &[SessionResult<RunSummary>],
    expected: impl Fn(usize) -> u64,
) -> SimSummary {
    let jobs = workers.iter().map(|r| r.output.completions.len()).sum();
    let mut s = Summarizer::with_capacity(jobs);
    for (w, result) in workers.iter().enumerate() {
        let mut r = s.worker(expected(w), result.events_processed);
        for c in &result.output.completions {
            r.record(&c.label, c.arrival, c.finished, c.exit_code);
        }
        r.finish();
    }
    s.finish()
}

/// A reference check of one worker: equal digests, or all its jobs differ.
fn compare_worker(reference: SimSummary, base: &SimSummary, w: usize, out: &mut Reference) {
    out.compared += reference.submitted;
    if reference.digests[0] != base.digests[w] || reference.counts[0] != base.counts[w] {
        out.mismatched += reference.submitted.max(1);
    }
}

/// Per-layer metrics with every name present (0 where a workload bypasses
/// the layer).
fn empty_layers() -> BTreeMap<&'static str, f64> {
    crate::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

fn fill_exec(m: &mut BTreeMap<&'static str, f64>, e: &ExecTotals) {
    m.insert("executor.busy_s", e.busy_ns as f64 / 1e9);
    m.insert("executor.imbalance", e.imbalance());
    m.insert("executor.idle_frac", e.idle_frac());
}

fn fill_policy(m: &mut BTreeMap<&'static str, f64>, l: &Layers) {
    let calls = l.reconfigure.calls;
    m.insert("policy.calls", calls as f64);
    m.insert(
        "policy.s",
        (l.reconfigure.ns + l.pool_change.ns) as f64 / 1e9,
    );
    m.insert(
        "policy.call_us_p99",
        l.reconfigure.us.quantile(0.99).unwrap_or(0.0),
    );
    m.insert("policy.interrupts", l.pool_change.useful as f64);
    m.insert("policy.useful_ratio", share(l.reconfigure.useful, calls));
}

/// `part / whole`, or 0 when nothing happened.
fn share(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        part as f64 / whole as f64
    } else {
        0.0
    }
}

/// Layer metrics of a traced object-session run (recorded or streamed).
fn fill_session(m: &mut BTreeMap<&'static str, f64>, t: &MapTotals, events: u64) {
    fill_exec(m, &t.exec);
    fill_policy(m, &t.layers);
    let tr = &t.tracer;
    let policy_s = m["policy.s"];
    let recorder_s = t.layers.recorder_ns as f64 / 1e9;
    m.insert(
        "session.worker_us_p50",
        t.item_us.quantile(0.5).unwrap_or(0.0),
    );
    m.insert(
        "session.worker_us_p99",
        t.item_us.quantile(0.99).unwrap_or(0.0),
    );
    m.insert("session.events", events as f64);
    m.insert(
        "session.physics_s",
        t.exec.busy_ns as f64 / 1e9 - policy_s - recorder_s,
    );
    m.insert("engine.events", tr.count(TraceKind::EngineEvent) as f64);
    m.insert(
        "engine.advance_self_s",
        tr.spans.self_ns[DISPATCH] as f64 / 1e9,
    );
    m.insert("waterfill.calls", tr.count(TraceKind::Waterfill) as f64);
    m.insert("recorder.calls", t.layers.recorder_calls as f64);
    m.insert("recorder.s", recorder_s);
}

/// Stage spans `(name, start, end)` on this thread, followed by `more`.
fn spans_of(stages: &[(&str, u64, u64)], more: Vec<BoundarySpan>) -> Vec<BoundarySpan> {
    let mut spans: Vec<BoundarySpan> = stages
        .iter()
        .map(|&(name, start, end)| BoundarySpan {
            name: format!("stage.{name}"),
            tid: thread_tag(),
            start,
            end,
        })
        .collect();
    spans.extend(more);
    spans
}

/// 1M nodes × 2 jobs, round-robin, dense headless path, heap queue.
mod headless {
    use super::*;

    const NODES: usize = 1_000_000;
    const JOBS: usize = 2 * NODES;
    /// Workers re-run through the object session.
    const SAMPLE: usize = 1024;

    pub fn rep(seed: u64) -> Rep {
        let t0 = Instant::now();
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let plan_s = secs_since(t0);
        let t1 = Instant::now();
        let placed = ClusterSession::builder()
            .node_configs(nodes(seed, NODES))
            .policy(flowcon())
            .plan(plan)
            .build()
            .place();
        let place_s = secs_since(t1);
        let t2 = Instant::now();
        let run = placed.run(QueueKind::Heap);
        let run_s = secs_since(t2);
        let mut sim = summarize_stats(
            run.workers
                .iter()
                .enumerate()
                .map(|(w, r)| (&r.output, r.events_processed, round_robin(JOBS, NODES, w))),
            JOBS,
        );
        sim.count_errors += misplaced(&run.placements, NODES);
        Rep {
            plan_s,
            place_s,
            run_s,
            sim,
        }
    }

    /// A stride sample of workers through the object `Session` with a
    /// `CompletionsOnly` recorder — the path the dense one must match bit
    /// for bit.
    pub fn reference(seed: u64, base: &SimSummary) -> Reference {
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let mut out = Reference::default();
        for w in stride(NODES, SAMPLE) {
            // The dense path runs jobs in plan order, so the reference
            // keeps it rather than re-sorting through `WorkloadPlan::new`.
            let jobs = jobs_of(&plan, NODES, w);
            let expected = jobs.len() as u64;
            let r = Session::builder()
                .node(node(seed, w))
                .plan(WorkloadPlan { jobs })
                .policy_box(flowcon().build())
                .recorder(CompletionsOnly::new())
                .build()
                .run();
            let sim = summarize_stats([(&r.output, r.events_processed, expected)].into_iter(), 2);
            compare_worker(sim, base, w, &mut out);
        }
        out
    }

    pub fn traced(seed: u64) -> Traced {
        let t0 = now_ns();
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let t1 = now_ns();
        // Round-robin placement as one worker-major arena.
        let mut tagged: Vec<(usize, JobRequest)> = plan
            .jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| (i % NODES, job))
            .collect();
        tagged.sort_by_key(|&(w, _)| w);
        let mut offsets = vec![0usize; NODES + 1];
        for &(w, _) in &tagged {
            offsets[w + 1] += 1;
        }
        for w in 0..NODES {
            offsets[w + 1] += offsets[w];
        }
        let flat: Vec<JobRequest> = tagged.into_iter().map(|(_, job)| job).collect();
        let t2 = now_ns();
        let (workers, totals) = timed_map(
            (0..NODES).collect(),
            DenseScratch::new,
            |scratch, _tracer, w| {
                run_headless_dense(
                    node(seed, w),
                    &flat[offsets[w]..offsets[w + 1]],
                    TimedPolicy::boxed(flowcon().build()),
                    QueueKind::Heap,
                    scratch,
                )
            },
        );
        let t3 = now_ns();
        let sim = summarize_stats(
            workers
                .iter()
                .enumerate()
                .map(|(w, r)| (&r.output, r.events_processed, round_robin(JOBS, NODES, w))),
            JOBS,
        );
        let mut layers = empty_layers();
        fill_exec(&mut layers, &totals.exec);
        fill_policy(&mut layers, &totals.layers);
        layers.insert(
            "dense.worker_us_p50",
            totals.item_us.quantile(0.5).unwrap_or(0.0),
        );
        layers.insert(
            "dense.worker_us_p99",
            totals.item_us.quantile(0.99).unwrap_or(0.0),
        );
        layers.insert(
            "dense.events",
            workers.iter().map(|r| r.events_processed).sum::<u64>() as f64,
        );
        Traced {
            run_s: (t3 - t2) as f64 / 1e9,
            sim,
            layers,
            spans: spans_of(
                &[("plan", t0, t1), ("place", t1, t2), ("run", t2, t3)],
                totals.shard_spans,
            ),
        }
    }
}

/// 128 nodes × 32 jobs through the object session with a full recorder.
mod deep {
    use super::*;

    const NODES: usize = 128;
    const JOBS: usize = 32 * NODES;
    /// Workers re-run on the caller's thread.
    const SAMPLE: usize = 16;

    pub fn rep(seed: u64) -> Rep {
        let t0 = Instant::now();
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let plan_s = secs_since(t0);
        let t1 = Instant::now();
        let session = ClusterSession::builder()
            .node_configs(nodes(seed, NODES))
            .policy(flowcon())
            .plan(plan)
            .recorder(|_| FullRecorder::new())
            .build();
        let place_s = secs_since(t1);
        let t2 = Instant::now();
        let out = session.run();
        let run_s = secs_since(t2);
        let mut sim = summarize_full(&out.workers, |w| round_robin(JOBS, NODES, w));
        sim.count_errors += misplaced(&out.placements, NODES);
        Rep {
            plan_s,
            place_s,
            run_s,
            sim,
        }
    }

    /// A stride sample of workers through a direct `Session` on the
    /// caller's thread.
    pub fn reference(seed: u64, base: &SimSummary) -> Reference {
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let mut out = Reference::default();
        for w in stride(NODES, SAMPLE) {
            let jobs = jobs_of(&plan, NODES, w);
            let expected = jobs.len() as u64;
            let r = Session::builder()
                .node(node(seed, w))
                .plan(WorkloadPlan::new(jobs))
                .policy_box(flowcon().build())
                .build()
                .run();
            compare_worker(summarize_full(&[r], |_| expected), base, w, &mut out);
        }
        out
    }

    pub fn traced(seed: u64) -> Traced {
        let t0 = now_ns();
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let t1 = now_ns();
        let mut per_worker: Vec<(usize, Vec<JobRequest>)> =
            (0..NODES).map(|w| (w, Vec::new())).collect();
        for (i, job) in plan.jobs.into_iter().enumerate() {
            per_worker[i % NODES].1.push(job);
        }
        let t2 = now_ns();
        let (workers, totals) = timed_map(
            per_worker,
            || (),
            |(), tracer, (w, jobs)| {
                let r = Session::builder()
                    .node(node(seed, w))
                    .plan(WorkloadPlan::new(jobs))
                    .policy_box(TimedPolicy::boxed(flowcon().build()))
                    .recorder(TimedRecorder::new(FullRecorder::new()))
                    .build()
                    .run_traced(tracer);
                tracer.end_session();
                r
            },
        );
        let t3 = now_ns();
        let sim = summarize_full(&workers, |w| round_robin(JOBS, NODES, w));
        let mut layers = empty_layers();
        let events = workers.iter().map(|r| r.events_processed).sum();
        fill_session(&mut layers, &totals, events);
        Traced {
            run_s: (t3 - t2) as f64 / 1e9,
            sim,
            layers,
            spans: spans_of(
                &[("plan", t0, t1), ("place", t1, t2), ("run", t2, t3)],
                totals.shard_spans,
            ),
        }
    }
}

/// 256 two-slot nodes, 16,384 jobs in one burst, Tiresias, 10 s quantum.
mod sched {
    use super::*;

    const NODES: usize = 256;
    const JOBS: usize = 16_384;

    fn session(
        seed: u64,
        plan: WorkloadPlan,
    ) -> flowcon_cluster::ClusterSessionBuilder<'static, flowcon_cluster::Sched> {
        ClusterSession::builder()
            .node_configs(nodes(seed, NODES))
            .policy(flowcon())
            .plan(plan)
            .scheduler(SchedPolicyKind::Tiresias)
    }

    pub fn rep(seed: u64) -> Rep {
        let t0 = Instant::now();
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let plan_s = secs_since(t0);
        let t1 = Instant::now();
        let built = session(seed, plan).build();
        let place_s = secs_since(t1);
        let t2 = Instant::now();
        let out = built.run();
        let run_s = secs_since(t2);
        Rep {
            plan_s,
            place_s,
            run_s,
            sim: summarize(&out),
        }
    }

    /// The whole outcome as one "worker": completions in observation order
    /// plus every other field of the outcome, so equal digests mean equal
    /// outcomes.
    fn summarize(out: &SchedOutcome) -> SimSummary {
        let mut s = Summarizer::with_capacity(out.completions.len());
        let mut r = s.worker(JOBS as u64, out.decisions.len() as u64);
        for c in &out.completions {
            r.record("", c.arrival, c.finished, c.exit_code);
        }
        for d in &out.decisions {
            r.extra(d.at.as_micros());
            let (tag, job, node) = match d.action {
                flowcon_cluster::SchedAction::Place { job, node } => (0, job, node),
                flowcon_cluster::SchedAction::Preempt { job } => (1, job, 0),
                flowcon_cluster::SchedAction::Migrate { job, node } => (2, job, node),
            };
            r.extra(tag);
            r.extra(u64::from(job));
            r.extra(node as u64);
        }
        let st = &out.stream;
        for v in [
            st.duration_secs,
            st.busy_cpu_secs,
            st.queue_job_secs,
            st.capacity_cpu_secs,
            out.total_queue_wait_secs,
            out.sojourn_percentiles().p99,
            out.queue_wait_percentiles().p99,
        ] {
            r.extra(v.to_bits());
        }
        for v in [
            st.submitted,
            st.completed,
            out.submitted as u64,
            out.preemptions,
            out.migrations,
            out.algorithm_runs,
        ] {
            r.extra(v);
        }
        r.finish();
        s.finish()
    }

    /// The same run with nodes advanced on the caller's thread must give an
    /// equal outcome.
    pub fn reference(seed: u64, base: &SimSummary) -> Reference {
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let out = session(seed, plan).sequential(true).build().run();
        let sim = summarize(&out);
        let mut r = Reference::default();
        compare_worker(sim, base, 0, &mut r);
        r
    }

    pub fn traced(seed: u64) -> Traced {
        let t0 = now_ns();
        let plan = WorkloadPlan::random_n(JOBS, seed);
        let t1 = now_ns();
        let built = session(seed, plan)
            .discipline(TimedDiscipline::boxed(SchedPolicyKind::Tiresias.build()))
            .tracer(WallTracer::new(executor::shard_count(NODES)))
            .build();
        let t2 = now_ns();
        let (out, tracer) = built.run_traced();
        let t3 = now_ns();
        let decide = take_layers().decide;
        let kind = |k: TraceKind| tracer.count(k) as f64;
        let mut m = empty_layers();
        fill_exec(&mut m, &tracer.exec);
        m.insert("waterfill.calls", kind(TraceKind::Waterfill));
        m.insert("sched.barriers", kind(TraceKind::SchedBarrier));
        m.insert(
            "sched.barrier_us_p50",
            tracer.barrier_us.quantile(0.5).unwrap_or(0.0),
        );
        m.insert(
            "sched.barrier_us_p99",
            tracer.barrier_us.quantile(0.99).unwrap_or(0.0),
        );
        m.insert("sched.decide_s", decide.ns as f64 / 1e9);
        m.insert(
            "sched.decide_us_p99",
            decide.us.quantile(0.99).unwrap_or(0.0),
        );
        m.insert("sched.places", kind(TraceKind::SchedPlace));
        m.insert("sched.preempts", kind(TraceKind::SchedPreempt));
        m.insert("sched.migrations", kind(TraceKind::SchedMigrate));
        m.insert(
            "sched.useful_barrier_ratio",
            share(decide.useful, decide.calls),
        );
        Traced {
            run_s: (t3 - t2) as f64 / 1e9,
            sim: summarize(&out),
            layers: m,
            spans: spans_of(
                &[("plan", t0, t1), ("place", t1, t2), ("run", t2, t3)],
                tracer.boundary,
            ),
        }
    }
}

/// 16,384 nodes, per-node Poisson arrivals at 0.005 jobs/s admitted for
/// 7,200 simulated seconds, headless.
mod open {
    use super::*;

    const NODES: usize = 16_384;
    const RATE: f64 = 0.005;
    const UNTIL_SECS: u64 = 7_200;
    /// Workers re-run through a direct `Session::run_stream`.
    const SAMPLE: usize = 64;
    /// About 36 jobs per node.
    const JOBS_HINT: usize = 36 * NODES;

    fn source(seed: u64) -> SyntheticStreamSource {
        SyntheticStreamSource::new(ArrivalProcess::poisson(RATE), mix(seed ^ 0x5EED)).unlabeled()
    }

    fn horizon() -> Horizon {
        Horizon::until(SimTime::from_secs(UNTIL_SECS))
    }

    pub fn rep(seed: u64) -> Rep {
        let t0 = Instant::now();
        let src = source(seed);
        let plan_s = secs_since(t0);
        let t1 = Instant::now();
        let session = ClusterSession::builder()
            .node_configs(nodes(seed, NODES))
            .policy(flowcon())
            .stream(&src, horizon())
            .build();
        let place_s = secs_since(t1);
        let t2 = Instant::now();
        let out = session.run();
        let run_s = secs_since(t2);
        let mut sim = summarize_stats(
            out.workers
                .iter()
                .zip(&out.streams)
                .map(|(r, st)| (&r.output, r.events_processed, st.submitted)),
            JOBS_HINT,
        );
        sim.count_errors += out
            .streams
            .iter()
            .map(|st| st.submitted.abs_diff(st.completed))
            .sum::<u64>();
        Rep {
            plan_s,
            place_s,
            run_s,
            sim,
        }
    }

    /// A stride sample of workers through a direct `Session::run_stream`.
    pub fn reference(seed: u64, base: &SimSummary) -> Reference {
        let src = source(seed);
        let mut out = Reference::default();
        for w in stride(NODES, SAMPLE) {
            let r = Session::builder()
                .node(node(seed, w))
                .policy_box(flowcon().build())
                .recorder(CompletionsOnly::new())
                .build()
                .run_stream(src.stream_for(w), horizon());
            let sim = summarize_stats(
                [(&r.output, r.events_processed, r.stream.submitted)].into_iter(),
                64,
            );
            compare_worker(sim, base, w, &mut out);
        }
        out
    }

    pub fn traced(seed: u64) -> Traced {
        let t0 = now_ns();
        let src = source(seed);
        let t1 = now_ns();
        let (workers, totals) = timed_map(
            (0..NODES).collect(),
            || (),
            |(), tracer, w| {
                let r = Session::builder()
                    .node(node(seed, w))
                    .policy_box(TimedPolicy::boxed(flowcon().build()))
                    .recorder(CompletionsOnly::new())
                    .build()
                    .run_stream_traced(src.stream_for(w), horizon(), tracer);
                tracer.end_session();
                r
            },
        );
        let t2 = now_ns();
        let sim = summarize_stats(
            workers
                .iter()
                .map(|r| (&r.output, r.events_processed, r.stream.submitted)),
            JOBS_HINT,
        );
        let mut layers = empty_layers();
        let events = workers.iter().map(|r| r.events_processed).sum();
        fill_session(&mut layers, &totals, events);
        Traced {
            run_s: (t2 - t1) as f64 / 1e9,
            sim,
            layers,
            spans: spans_of(&[("plan", t0, t1), ("run", t1, t2)], totals.shard_spans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_are_rejected() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("headless"), None);
    }

    #[test]
    fn round_robin_shares_add_up() {
        assert_eq!((0..3).map(|w| round_robin(10, 3, w)).sum::<u64>(), 10);
        assert_eq!(round_robin(10, 3, 0), 4);
        assert_eq!(round_robin(10, 3, 2), 3);
        assert_eq!(stride(1000, 4).collect::<Vec<_>>(), vec![0, 250, 500, 750]);
        assert_eq!(stride(2, 4).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn node_seeds_differ_per_node_and_per_seed() {
        assert_ne!(node(1, 0).seed, node(1, 1).seed);
        assert_ne!(node(1, 0).seed, node(2, 0).seed);
        assert_eq!(node(7, 3), node(7, 3));
    }
}
