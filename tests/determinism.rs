//! Reproducibility: identical seeds give bit-identical experiment results,
//! different seeds differ — across every layer.  Golden digests pin the
//! exact output of the non-scheduler paths (the recorded session and its
//! traced timelines, the dense headless cluster, and the open-loop
//! stream), as `crates/cluster/tests/sched_determinism.rs` does for the
//! scheduler.  The recorded and traced digests were computed on the object
//! worker simulation the dense one replaced.

#[path = "support/fnv.rs"]
mod fnv;

use flowcon_bench::experiments::{fixed, flowcon_run as run_flowcon, random, scale};
use flowcon_cluster::{
    ClusterSession, Horizon, PolicyKind, Spread, StreamSource, SyntheticStreamSource,
};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::FlowConPolicy;
use flowcon_core::session::Session;
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::tracelog::chrome_trace_json;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::{FlightRecorder, TraceKind};
use flowcon_workload::ArrivalProcess;
use fnv::Fnv;

fn node(seed: u64) -> NodeConfig {
    NodeConfig::default().with_seed(seed)
}

#[test]
fn worker_runs_reproduce_bitwise() {
    let plan = WorkloadPlan::random_n(10, 9);
    let a = run_flowcon(node(1), &plan, FlowConConfig::default());
    let b = run_flowcon(node(1), &plan, FlowConConfig::default());
    assert_eq!(a.output.completions, b.output.completions);
    assert_eq!(a.output.algorithm_runs, b.output.algorithm_runs);
    assert_eq!(a.output.update_calls, b.output.update_calls);
    assert_eq!(a.events_processed, b.events_processed);
    // Full trace equality, not just summaries.
    for (label, series) in a.output.cpu_usage.iter() {
        assert_eq!(
            Some(series),
            b.output.cpu_usage.get(label),
            "cpu trace of {label} diverged"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let plan = WorkloadPlan::random_n(10, 9);
    let a = run_flowcon(node(1), &plan, FlowConConfig::default());
    let b = run_flowcon(node(2), &plan, FlowConConfig::default());
    // Same plan, different node seed -> different job-size jitter ->
    // different completions.
    assert_ne!(a.output.completions, b.output.completions);
}

#[test]
fn parallel_sweeps_equal_serial_reruns() {
    // The figure sweeps fan out on threads; determinism means a cell run
    // alone is identical to the same cell inside the sweep.
    let sweep = fixed::fig3(node(0xF10C));
    let alone = run_flowcon(
        node(0xF10C),
        &WorkloadPlan::fixed_three(),
        FlowConConfig::with_params(0.05, 30),
    );
    let cell = &sweep.cells[1]; // itval = 30
    assert_eq!(cell.summary.completions, alone.output.completions);
}

#[test]
fn experiments_reproduce_end_to_end() {
    let a = random::fig9(node(7), 7);
    let b = random::fig9(node(7), 7);
    for (x, y) in a.flowcon.iter().zip(&b.flowcon) {
        assert_eq!(x.completions, y.completions);
    }
    let s1 = scale::fig12(node(7), 7);
    let s2 = scale::fig12(node(7), 7);
    assert_eq!(s1.flowcon.completions, s2.flowcon.completions);
    assert_eq!(s1.exemplars(), s2.exemplars());
}

#[test]
fn cluster_runs_reproduce() {
    let plan = WorkloadPlan::random_n(9, 4);
    let run = |seed| {
        ClusterSession::builder()
            .nodes(3, node(seed))
            .policy(PolicyKind::Baseline)
            .placement(Spread)
            .plan(plan.clone())
            .build()
            .run()
            .workers
            .iter()
            .flat_map(|w| w.output.completions.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn recorded_session_matches_its_golden_digest() {
    // One node, 24 jobs, FlowCon and the default full recorder: every
    // completion and every point of the 1 Hz usage and limit traces and
    // the 20 s growth-efficiency traces.  A changed digest means changed
    // dynamics, a changed eval-noise stream, or a changed recording.
    let result = Session::builder()
        .node(node(0xD161))
        .plan(WorkloadPlan::random_n(24, 0xD1))
        .policy(FlowConPolicy::new(FlowConConfig::default()))
        .build()
        .run();
    let summary = &result.output;
    assert_eq!(summary.completions.len(), 24);
    let mut h = Fnv::new();
    for c in &summary.completions {
        h.label(&c.label);
        h.time(c.arrival);
        h.time(c.finished);
        h.word(c.exit_code as u64);
    }
    h.series(&summary.cpu_usage);
    h.series(&summary.limits);
    h.series(&summary.growth_efficiency);
    h.word(summary.algorithm_runs);
    h.word(summary.update_calls);
    h.word(result.events_processed);
    let got = h.0;
    assert_eq!(
        got, 0x9104_22c2_d0a0_8724,
        "recorded session drifted: digest {got:#018x}"
    );
}

#[test]
fn dense_headless_cluster_matches_its_golden_digest() {
    let out = ClusterSession::builder()
        .nodes(64, node(0xD162))
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .plan(WorkloadPlan::random_n(512, 0xD2))
        .build()
        .run();
    assert_eq!(out.completed_jobs(), 512);
    let mut h = Fnv::new();
    for &p in &out.placements {
        h.word(p as u64);
    }
    for w in &out.workers {
        h.stats(&w.output);
        h.word(w.events_processed);
    }
    let got = h.0;
    assert_eq!(
        got, 0x98bc_e14d_07d0_a6ba,
        "dense headless cluster drifted: digest {got:#018x}"
    );
}

/// `duration_secs` (and `capacity_cpu_secs`, which scales it) is the
/// drain point — the last exit — not the last event; the constant below
/// was recomputed when the worker path stopped counting trailing policy
/// ticks, every other field bit-identical to the previous constant's run.
#[test]
fn open_loop_stream_matches_its_golden_digest() {
    let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.01), 0xD3).unlabeled();
    let out = ClusterSession::builder()
        .nodes(32, node(0xD163))
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .stream(&source, Horizon::until(SimTime::from_secs(3_600)))
        .build()
        .run();
    assert!(out.submitted_jobs() > 0);
    assert_eq!(out.completed_jobs(), out.submitted_jobs());
    let mut h = Fnv::new();
    for ((w, st), tails) in out.workers.iter().zip(&out.streams).zip(&out.tails) {
        h.stats(&w.output);
        h.word(w.events_processed);
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
        h.sketch(&tails.sojourn);
        h.sketch(&tails.queue_wait);
    }
    let got = h.0;
    assert_eq!(
        got, 0x3a51_db6c_4eac_f0d2,
        "open-loop stream drifted: digest {got:#018x}"
    );
}

/// The Chrome trace JSON of a traced run, byte for byte.
fn trace_digest(tracer: &FlightRecorder) -> u64 {
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    let mut h = Fnv::new();
    h.bytes(chrome_trace_json(&tracer.events(), tracer.dropped()).as_bytes());
    h.0
}

/// One recorded FlowCon worker with a crash, traced.
fn traced_session() -> FlightRecorder {
    let mut tracer = FlightRecorder::with_capacity(1 << 17);
    let result = Session::builder()
        .node(node(0xD164))
        .plan(WorkloadPlan::random_n(8, 0xD4))
        .policy(FlowConPolicy::new(FlowConConfig::default()))
        .failure("Job-3", SimTime::from_secs(150), 137)
        .build()
        .run_traced(&mut tracer);
    let crashed = result
        .output
        .completions
        .iter()
        .find(|c| c.label == "Job-3");
    assert_eq!(crashed.map(|c| c.exit_code), Some(137));
    tracer
}

/// One open-loop FlowCon worker with a crash, traced.
fn traced_stream_session() -> FlightRecorder {
    let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.01), 0xD5);
    let mut tracer = FlightRecorder::with_capacity(1 << 17);
    let result = Session::builder()
        .node(node(0xD165))
        .policy(FlowConPolicy::new(FlowConConfig::default()))
        .failure("Job-2", SimTime::from_secs(200), 9)
        .build()
        .run_stream_traced(source.stream_for(0), Horizon::jobs(6), &mut tracer);
    assert_eq!(result.stream.completed, 6);
    tracer
}

/// The two full-timeline constants below were recomputed when the worker
/// loop stopped dispatching superseded completion projections and policy
/// ticks: 3,699 → 3,551 and 4,055 → 3,962 records (each such stamp's
/// `EngineEvent` instant, and the `EngineAdvance` split it made where it
/// fell between two dispatches), and the timelines without engine
/// records stayed bit-identical.
#[test]
fn traced_session_matches_its_golden_digest() {
    // Every engine advance and dispatch, job admit/run/complete,
    // reconfigure span and water-fill counter of the timeline, in order.
    let got = trace_digest(&traced_session());
    assert_eq!(
        got, 0x25c9_7695_b0e9_4240,
        "traced session drifted: digest {got:#018x}"
    );
}

#[test]
fn traced_stream_session_matches_its_golden_digest() {
    let got = trace_digest(&traced_stream_session());
    assert_eq!(
        got, 0x2fce_9b8e_c28a_5d0a,
        "traced stream session drifted: digest {got:#018x}"
    );
}

/// Both traced timelines without the engine's own records (the
/// `EngineEvent` instant of each dispatch and the `EngineAdvance` spans
/// between dispatches): what the worker did, however its events were
/// dispatched.
#[test]
fn traced_timelines_without_engine_records_match_their_golden_digests() {
    let stripped = |tracer: FlightRecorder| {
        assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
        let mut events = tracer.events();
        events.retain(|e| !matches!(e.kind, TraceKind::EngineEvent | TraceKind::EngineAdvance));
        let mut h = Fnv::new();
        h.bytes(chrome_trace_json(&events, 0).as_bytes());
        h.0
    };
    let got = [
        stripped(traced_session()),
        stripped(traced_stream_session()),
    ];
    assert_eq!(
        got,
        [0x8716_7c7f_41bb_1668, 0xcb15_c159_0248_866a],
        "worker timelines drifted: digests {:#018x}, {:#018x}",
        got[0],
        got[1]
    );
}
