//! The headless open-loop entry point against the session: for every
//! stream shape and horizon, `run_stream_dense` must return exactly
//! what `Session::run_stream` returns with a `CompletionsOnly` recorder —
//! the same completions, event count, `StreamStats` and sojourn tails.
//! Both run the one worker simulation, so each case's results are pinned
//! by a golden digest computed on the object simulation it replaced.

#[path = "../../../tests/support/fnv.rs"]
mod fnv;

use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::dense::{run_headless_dense, run_stream_dense, DenseScratch, QueueKind};
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy};
use flowcon_core::recorder::CompletionsOnly;
use flowcon_core::session::{Session, StreamResult};
use flowcon_dl::models::ModelId;
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::summary::CompletionStats;
use flowcon_sim::time::SimTime;
use flowcon_workload::stream::{Horizon, JobStream, StreamSource, StreamedJob};
use flowcon_workload::{
    ArrivalProcess, ArrivalTrace, SyntheticStreamSource, TraceCatalog, TraceStreamSource,
};
use fnv::Fnv;

fn node(worker: usize) -> NodeConfig {
    NodeConfig::default().with_seed(0xDE25 + worker as u64 * 0x9E37_79B9)
}

fn flowcon() -> Box<dyn ResourcePolicy> {
    Box::new(FlowConPolicy::new(FlowConConfig::default()))
}

fn na() -> Box<dyn ResourcePolicy> {
    Box::new(FairSharePolicy::new())
}

fn session(
    node: NodeConfig,
    stream: impl JobStream,
    horizon: Horizon,
    policy: Box<dyn ResourcePolicy>,
) -> StreamResult<CompletionStats> {
    Session::builder()
        .node(node)
        .policy_box(policy)
        .recorder(CompletionsOnly::new())
        .build()
        .run_stream(stream, horizon)
}

fn assert_same(
    dense: &StreamResult<CompletionStats>,
    session: &StreamResult<CompletionStats>,
    what: &str,
) {
    assert_eq!(dense.output, session.output, "{what}: completions");
    assert_eq!(
        dense.events_processed, session.events_processed,
        "{what}: events"
    );
    assert_eq!(dense.stream, session.stream, "{what}: stream stats");
    assert_eq!(dense.tails, session.tails, "{what}: sojourn tails");
    assert_eq!(
        dense.scheduler_overhead_cpu_secs.to_bits(),
        session.scheduler_overhead_cpu_secs.to_bits(),
        "{what}: scheduler overhead"
    );
}

/// Everything a stream run returns, hashed into `h`.
fn hash(h: &mut Fnv, r: &StreamResult<CompletionStats>) {
    h.stats(&r.output);
    h.word(r.events_processed);
    h.f64(r.scheduler_overhead_cpu_secs);
    let st = &r.stream;
    h.word(st.submitted);
    h.word(st.completed);
    for v in [
        st.duration_secs,
        st.busy_cpu_secs,
        st.queue_job_secs,
        st.capacity_cpu_secs,
    ] {
        h.f64(v);
    }
    h.sketch(&r.tails.sojourn);
    h.sketch(&r.tails.queue_wait);
}

/// Assert a case's digest against its golden value.
fn assert_digest(got: u64, want: u64, what: &str) {
    assert_eq!(got, want, "{what} drifted: digest {got:#018x}");
}

/// Every worker of `source`, under both policies, with
/// one scratch recycled across all the dense runs.  Returns the number of
/// jobs the session admitted in total and the digest of its results.
fn check<S: StreamSource>(source: &S, workers: usize, horizon: Horizon, what: &str) -> (u64, u64) {
    let mut scratch = DenseScratch::new();
    let mut submitted = 0;
    let mut h = Fnv::new();
    for w in 0..workers {
        for (name, policy) in [("flowcon", flowcon as fn() -> _), ("na", na)] {
            let reference = session(node(w), source.stream_for(w), horizon, policy());
            submitted += reference.stream.submitted;
            hash(&mut h, &reference);
            let dense = run_stream_dense(
                node(w),
                source.stream_for(w),
                horizon,
                policy(),
                &mut scratch,
            );
            assert_same(&dense, &reference, &format!("{what}, worker {w}, {name}"));
        }
    }
    (submitted, h.0)
}

fn synthetic(process: ArrivalProcess) -> SyntheticStreamSource {
    SyntheticStreamSource::new(process, 0x5EED).unlabeled()
}

#[test]
fn poisson_streams_match_under_a_time_horizon() {
    let source = synthetic(ArrivalProcess::poisson(0.01));
    let horizon = Horizon::until(SimTime::from_secs(3_600));
    let (submitted, digest) = check(&source, 4, horizon, "poisson");
    assert!(submitted > 40);
    assert_digest(digest, 0x97d0_c5d5_a8ba_96bd, "poisson");
}

#[test]
fn bursty_streams_match_under_a_jobs_horizon() {
    let source = synthetic(ArrivalProcess::bursty(0.5, 0.0, 20.0, 40.0));
    let (submitted, digest) = check(&source, 4, Horizon::jobs(8), "bursty");
    assert_eq!(submitted, 4 * 2 * 8, "every worker admits exactly its cap");
    assert_digest(digest, 0x4fb5_af9a_ce02_0e42, "bursty");
}

#[test]
fn diurnal_streams_match_under_both_bounds() {
    let source = synthetic(ArrivalProcess::diurnal(0.02, 0.8, 1_800.0));
    let horizon = Horizon::until(SimTime::from_secs(2_400)).and_jobs(12);
    let (submitted, digest) = check(&source, 4, horizon, "diurnal");
    assert!(submitted > 0);
    assert_digest(digest, 0x3444_94de_abc8_7f43, "diurnal");
}

#[test]
fn cyclic_hinted_trace_streams_match() {
    // Hinted rows bind with `work_scale != 1`; three workers cycle their
    // slices of a six-row trace well past one replay.
    let doc = "a,vae,0,394\nb,mnist-tf,30,84.7\nc,gru,45\nd,vae,60,200\n\
               e,mnist-tf,90,40\nf,gru,120,160\n";
    let trace = ArrivalTrace::parse(doc).unwrap();
    let bound = TraceCatalog::table1()
        .with_duration_hints()
        .unlabeled()
        .bind(&trace)
        .unwrap();
    assert!(bound.jobs.iter().any(|j| j.work_scale != 1.0));
    let source = TraceStreamSource::new(bound, 3).cyclic();
    let horizon = Horizon::jobs(9).and_until(SimTime::from_secs(1_000));
    let (submitted, digest) = check(&source, 3, horizon, "cyclic trace");
    assert!(submitted > 3 * 2 * 4);
    assert_digest(digest, 0x9c4d_59fd_fe4a_c041, "cyclic trace");
}

/// A stream of explicit arrivals (seconds), fresh on every call.
struct Explicit(Vec<f64>);

struct ExplicitStream<'a> {
    arrivals: &'a [f64],
    next: usize,
}

impl JobStream for ExplicitStream<'_> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        const MODELS: [ModelId; 3] = [ModelId::Vae, ModelId::MnistTf, ModelId::Gru];
        let &secs = self.arrivals.get(self.next)?;
        let model = MODELS[self.next % MODELS.len()];
        self.next += 1;
        Some(StreamedJob {
            label: String::new(),
            model,
            arrival: SimTime::from_secs_f64(secs),
            work_scale: 1.0,
        })
    }
}

impl StreamSource for Explicit {
    type Stream<'a> = ExplicitStream<'a>;

    fn stream_for(&self, _worker: usize) -> ExplicitStream<'_> {
        ExplicitStream {
            arrivals: &self.0,
            next: 0,
        }
    }
}

#[test]
fn same_instant_arrivals_match() {
    let source = Explicit(vec![5.0, 5.0, 5.0, 70.0, 70.0, 300.0]);
    let (submitted, digest) = check(&source, 1, Horizon::jobs(6), "same instant");
    assert_eq!(submitted, 2 * 6);
    assert_digest(digest, 0xa198_bd20_8620_705f, "same instant");
}

#[test]
fn arrivals_tied_with_policy_ticks_match() {
    // FlowCon interrupts on every admission and re-arms its 20 s tick,
    // so arrivals on a 20 s grid land exactly on a pending tick: the
    // lookahead must be queued before the tick (lower FIFO sequence) for
    // the arrival to win the tie.
    let grid: Vec<f64> = (0..12).map(|k| 5.0 + 20.0 * k as f64).collect();
    let source = Explicit(grid);
    let (_, digest) = check(&source, 1, Horizon::jobs(12), "tick ties");
    assert_digest(digest, 0x520a_2877_50b2_6686, "tick ties");
}

#[test]
fn horizons_that_admit_nothing_match() {
    let source = synthetic(ArrivalProcess::poisson(0.01));
    for horizon in [Horizon::until(SimTime::ZERO), Horizon::jobs(0)] {
        let (submitted, digest) = check(&source, 2, horizon, "empty horizon");
        assert_eq!(submitted, 0);
        assert_digest(digest, 0x26cb_7643_0d4c_2325, "empty horizon");
        let dense = run_stream_dense(
            node(0),
            source.stream_for(0),
            horizon,
            flowcon(),
            &mut DenseScratch::new(),
        );
        assert_eq!(dense.events_processed, 0);
        assert_eq!(dense.stream.duration_secs, 0.0);
        assert!(dense.tails.is_empty());
    }
}

#[test]
fn a_scratch_recycled_from_a_plan_run_changes_nothing() {
    let source = synthetic(ArrivalProcess::poisson(0.02));
    let horizon = Horizon::until(SimTime::from_secs(1_800));
    let reference = session(node(1), source.stream_for(1), horizon, flowcon());
    let mut h = Fnv::new();
    hash(&mut h, &reference);
    assert_digest(h.0, 0xfaa8_3aff_b20e_b39c, "after a plan");
    let mut scratch = DenseScratch::new();
    let plan = WorkloadPlan::random_n(9, 4);
    let placed = run_headless_dense(
        node(2),
        &plan.jobs,
        flowcon(),
        QueueKind::Heap,
        &mut scratch,
    );
    assert_eq!(placed.output.len(), 9);
    let dense = run_stream_dense(
        node(1),
        source.stream_for(1),
        horizon,
        flowcon(),
        &mut scratch,
    );
    assert_same(&dense, &reference, "after a plan");
}

#[test]
#[should_panic(expected = "monotone arrivals")]
fn arrivals_going_back_in_time_are_rejected() {
    let source = Explicit(vec![50.0, 10.0]);
    run_stream_dense(
        node(0),
        source.stream_for(0),
        Horizon::jobs(2),
        flowcon(),
        &mut DenseScratch::new(),
    );
}

#[test]
#[should_panic(expected = "needs a horizon")]
fn unbounded_horizons_are_rejected() {
    let source = synthetic(ArrivalProcess::poisson(0.01));
    run_stream_dense(
        node(0),
        source.stream_for(0),
        Horizon {
            until: None,
            max_jobs: None,
        },
        flowcon(),
        &mut DenseScratch::new(),
    );
}

#[test]
fn duration_is_the_drain_point_on_both_paths() {
    // The run ends when the last admitted job exits, not at the last
    // event: FlowCon's tick scheduled before the pool drained still fires
    // afterwards and must not stretch the window.
    let source = synthetic(ArrivalProcess::poisson(0.01));
    let horizon = Horizon::until(SimTime::from_secs(1_800));
    let mut h = Fnv::new();
    for w in 0..4 {
        let reference = session(node(w), source.stream_for(w), horizon, flowcon());
        hash(&mut h, &reference);
        let dense = run_stream_dense(
            node(w),
            source.stream_for(w),
            horizon,
            flowcon(),
            &mut DenseScratch::new(),
        );
        for (path, r) in [("session", &reference), ("dense", &dense)] {
            let last = r.output.completions.iter().map(|c| c.finished).max();
            let drain = last.map_or(0.0, SimTime::as_secs_f64);
            assert_eq!(r.stream.duration_secs, drain, "{path}, worker {w}");
            assert_eq!(
                r.stream.capacity_cpu_secs,
                node(w).capacity * drain,
                "{path}, worker {w}"
            );
        }
    }
    assert_digest(h.0, 0x4193_6dfe_e13a_766c, "drain point");
}
