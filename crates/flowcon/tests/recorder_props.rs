//! Recording paths against each other, bit for bit.
//!
//! * Keyed sample recording against label recording: a `FullRecorder` fed
//!   through `record_sample_by_id` must build exactly the usage and limit
//!   series one fed through `record_sample` builds, point by point — with
//!   duplicate and empty labels, containers exiting, and new ids appearing
//!   mid-run.
//! * Repeated ticks against per-sample ticks: a session recorded by a
//!   `FullRecorder` must return exactly the `RunSummary` the same recorder
//!   returns behind a wrapper that declines `Recorder::repeat_samples`, so
//!   that every tick arrives sample by sample — under every policy, with
//!   shared labels, injected failures and open-loop streams.  And most
//!   ticks of a FlowCon worker must be repeats, or the worker has stopped
//!   telling the recorder so.

use flowcon_container::ContainerId;
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::{
    FairSharePolicy, FlowConPolicy, QualityProportionalPolicy, ResourcePolicy, StaticEqualPolicy,
};
use flowcon_core::recorder::{FullRecorder, Recorder, RunMeta};
use flowcon_core::session::{Session, SessionBuilder, SessionResult};
use flowcon_dl::models::TABLE1_MODELS;
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_metrics::summary::RunSummary;
use flowcon_metrics::timeseries::MultiSeries;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_workload::stream::{Horizon, StreamSource};
use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
use proptest::prelude::*;

/// Labels drawn with repeats; `""` is what unlabeled streams give every
/// job.
const LABELS: [&str; 4] = ["", "Job-1", "Job-2", "VAE (Pytorch)"];

/// One container: its label, the tick it is admitted at, and how many
/// ticks it lives.  Ids follow admission order, as the worker assigns
/// them.
type Container = (usize, u64, u64);

fn arb_value() -> impl Strategy<Value = f64> {
    // Repeated values exercise the change-point storage; -0.0 and 0.0
    // differ in bits, not under `==`.
    (0usize..6, 0.0f64..1.0).prop_map(|(k, x)| match k {
        0 => 0.0,
        1 => -0.0,
        2 => 0.5,
        3 => 1.0,
        _ => x,
    })
}

/// Feed both recorders `ticks` sample ticks of the containers live at
/// each, with usage and limit values cycled from `values`.
fn record(containers: &[Container], ticks: u64, values: &[f64]) -> (RunSummary, RunSummary) {
    let mut containers = containers.to_vec();
    containers.sort_by_key(|&(_, admit, _)| admit);
    let mut by_label = FullRecorder::new();
    let mut by_id = FullRecorder::new();
    let mut k = 0;
    let mut next = || {
        k += 1;
        values[k % values.len()]
    };
    for tick in 0..ticks {
        let now = SimTime::from_secs(tick);
        assert!(by_label.sample_tick(now) && by_id.sample_tick(now));
        for (raw, &(label, admit, life)) in containers.iter().enumerate() {
            if !(admit..admit + life).contains(&tick) {
                continue;
            }
            let label = LABELS[label];
            let (usage, limit) = (next(), next());
            by_label.record_sample(now, label, usage, limit);
            by_id.record_sample_by_id(now, ContainerId::from_raw(raw as u32), label, usage, limit);
        }
    }
    let policy = FairSharePolicy::new();
    let meta = || RunMeta {
        policy: &policy,
        algorithm_runs: 0,
        update_calls: 0,
    };
    (by_label.finish(meta()), by_id.finish(meta()))
}

fn assert_same_series(a: &MultiSeries, b: &MultiSeries) {
    assert_eq!(a.len(), b.len(), "series count");
    for ((la, sa), (lb, sb)) in a.iter().zip(b.iter()) {
        assert_eq!(la, lb, "series order");
        assert_eq!(sa.len(), sb.len(), "points of {la:?}");
        for ((ta, va), (tb, vb)) in sa.points().zip(sb.points()) {
            assert_eq!(ta.to_bits(), tb.to_bits(), "time in {la:?}");
            assert_eq!(va.to_bits(), vb.to_bits(), "value in {la:?} at {ta}");
        }
    }
}

proptest! {
    #[test]
    fn keyed_samples_build_the_label_path_series(
        containers in prop::collection::vec((0usize..4, 0u64..30, 1u64..20), 1..24),
        ticks in 1u64..50,
        values in prop::collection::vec(arb_value(), 1..16),
    ) {
        let (by_label, by_id) = record(&containers, ticks, &values);
        assert_same_series(&by_label.cpu_usage, &by_id.cpu_usage);
        assert_same_series(&by_label.limits, &by_id.limits);
    }
}

#[test]
fn ids_sharing_a_label_share_its_series() {
    // Three containers, two of them unlabeled and alive at once, then a
    // late one reusing a label whose first holder has exited.
    let containers = [(0, 0, 5), (0, 1, 5), (1, 0, 2), (1, 4, 3)];
    let (by_label, by_id) = record(&containers, 8, &[0.25, 0.5, -0.0]);
    assert_eq!(by_id.cpu_usage.len(), 2);
    assert_eq!(by_id.cpu_usage.get("").map(|s| s.len()), Some(10));
    assert_same_series(&by_label.cpu_usage, &by_id.cpu_usage);
    assert_same_series(&by_label.limits, &by_id.limits);
}

/// A `FullRecorder` that counts its sample ticks, and offers it
/// `repeat_samples` only when `repeats` is set: with it clear, every other
/// method is forwarded and every tick arrives sample by sample.
struct Ticks {
    inner: FullRecorder,
    repeats: bool,
    /// Ticks recorded sample by sample.
    full: u64,
    /// Ticks recorded by one `repeat_samples` call.
    repeated: u64,
}

impl Ticks {
    fn new(repeats: bool) -> Self {
        Ticks {
            inner: FullRecorder::new(),
            repeats,
            full: 0,
            repeated: 0,
        }
    }
}

impl Recorder for Ticks {
    type Output = (RunSummary, u64, u64);
    const RECORDS_SAMPLES: bool = true;
    const RECORDS_GROWTH: bool = true;

    fn record_completion(&mut self, label: &str, arrival: SimTime, finished: SimTime, code: i32) {
        self.inner.record_completion(label, arrival, finished, code);
    }

    fn sample_tick(&mut self, now: SimTime) -> bool {
        self.full += 1;
        self.inner.sample_tick(now)
    }

    fn repeat_samples(&mut self, now: SimTime) -> bool {
        let repeated = self.repeats && self.inner.repeat_samples(now);
        self.repeated += u64::from(repeated);
        repeated
    }

    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64) {
        self.inner.record_sample(now, label, usage, limit);
    }

    fn record_sample_by_id(
        &mut self,
        now: SimTime,
        id: ContainerId,
        label: &str,
        usage: f64,
        limit: f64,
    ) {
        self.inner.record_sample_by_id(now, id, label, usage, limit);
    }

    fn growth_tick(&mut self, now: SimTime) -> bool {
        self.inner.growth_tick(now)
    }

    fn record_growth(&mut self, now: SimTime, label: &str, growth: f64) {
        self.inner.record_growth(now, label, growth);
    }

    fn finish(self, meta: RunMeta<'_>) -> (RunSummary, u64, u64) {
        (self.inner.finish(meta), self.full, self.repeated)
    }
}

fn policy(kind: u8) -> Box<dyn ResourcePolicy> {
    match kind {
        0 => Box::new(FlowConPolicy::new(FlowConConfig::default())),
        1 => Box::new(FairSharePolicy::new()),
        2 => Box::new(StaticEqualPolicy::new()),
        _ => Box::new(QualityProportionalPolicy::new(
            SimDuration::from_secs(30),
            0.05,
        )),
    }
}

/// `a` and `b` hold the same completions, counters and points, bit for
/// bit.
fn assert_same_summary(a: &RunSummary, b: &RunSummary) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.algorithm_runs, b.algorithm_runs);
    assert_eq!(a.update_calls, b.update_calls);
    assert_same_series(&a.cpu_usage, &b.cpu_usage);
    assert_same_series(&a.limits, &b.limits);
    assert_same_series(&a.growth_efficiency, &b.growth_efficiency);
}

/// A `FullRecorder`'s summary of a run, `repeated`, equals the one the
/// same recorder built behind `Ticks::new(false)`, and both runs
/// processed `events` alike.
fn assert_same_recording(
    repeated: &RunSummary,
    per_sample: &(RunSummary, u64, u64),
    events: (u64, u64),
) {
    let (summary, _, taken) = per_sample;
    assert_eq!(*taken, 0, "the wrapper takes no tick as a repeat");
    assert_same_summary(repeated, summary);
    assert_eq!(events.0, events.1, "events processed");
}

/// A session on `node` under policy `kind`, with `R` recording.
fn session<R: Recorder>(recorder: R, node: NodeConfig, kind: u8) -> SessionBuilder<R> {
    Session::builder()
        .node(node)
        .policy_box(policy(kind))
        .recorder(recorder)
}

/// `plan` run on `node` under policy `kind` with the given faults.
fn run_plan<R: Recorder>(
    recorder: R,
    plan: &WorkloadPlan,
    node: NodeConfig,
    kind: u8,
    failures: &[(String, SimTime)],
) -> SessionResult<R::Output> {
    let mut builder = session(recorder, node, kind).plan(plan.clone());
    for (label, at) in failures {
        builder = builder.failure(label.clone(), *at, 137);
    }
    builder.build().run()
}

/// `plan` recorded by a `FullRecorder` and sample by sample alike.
fn assert_plan_recorded_alike(
    plan: &WorkloadPlan,
    node: NodeConfig,
    kind: u8,
    failures: &[(String, SimTime)],
) {
    let repeated = run_plan(FullRecorder::new(), plan, node, kind, failures);
    let per_sample = run_plan(Ticks::new(false), plan, node, kind, failures);
    assert_same_recording(
        &repeated.output,
        &per_sample.output,
        (repeated.events_processed, per_sample.events_processed),
    );
}

proptest! {
    /// Random plans under FlowCon, NA, static 1/n and quality-proportional
    /// shares; with every label distinct or drawn from a few shared ones
    /// (containers sharing a label interleave in one series); with up to
    /// three injected failures.
    #[test]
    fn repeated_ticks_record_what_per_sample_ticks_record(
        jobs in 1usize..12,
        seed in 0u64..1_000_000,
        kind in 0u8..4,
        shared_labels in 0usize..3,
        faults in prop::collection::vec((0usize..12, 0u64..400), 0..3),
    ) {
        let mut plan = WorkloadPlan::random_n(jobs, seed);
        if shared_labels > 0 {
            for (i, job) in plan.jobs.iter_mut().enumerate() {
                job.label = LABELS[i % (shared_labels + 1)].to_string();
            }
        }
        let failures: Vec<(String, SimTime)> = faults
            .iter()
            .map(|&(job, at)| (plan.jobs[job % jobs].label.clone(), SimTime::from_secs(at)))
            .collect();
        assert_plan_recorded_alike(&plan, NodeConfig::default().with_seed(seed), kind, &failures);
    }

    /// Microsecond jobs sampled every microsecond: a sample tick then
    /// often lands between a job's exact finish and its projected
    /// completion check, so the tick itself finds the exit, and under a
    /// policy that does not reshare on it the live set changes with no
    /// rate rebuild before the samples are taken.
    #[test]
    fn repeated_ticks_record_exits_a_sample_tick_finds(
        jobs in prop::collection::vec((0usize..8, 0u64..50, 1e-7f64..1e-6), 1..6),
        seed in 0u64..1_000_000,
        kind in 0u8..4,
    ) {
        let plan = WorkloadPlan::new(
            jobs.iter()
                .enumerate()
                .map(|(i, &(model, arrival, scale))| {
                    JobRequest::new(
                        format!("Job-{}", i + 1),
                        TABLE1_MODELS[model % TABLE1_MODELS.len()],
                        SimTime::from_micros(arrival),
                    )
                    .with_work_scale(scale)
                })
                .collect(),
        );
        let node = NodeConfig {
            sample_interval: SimDuration::from_micros(1),
            ..NodeConfig::default().with_seed(seed)
        };
        assert_plan_recorded_alike(&plan, node, kind, &[]);
    }

    /// Open-loop streams, labelled `Job-<k>` or all unlabeled (one shared
    /// `""` series), bounded by a job count or a time horizon.
    #[test]
    fn repeated_ticks_record_streams_as_per_sample_ticks_do(
        seed in 0u64..1_000_000,
        kind in 0u8..4,
        rate in 0.005f64..0.05,
        unlabeled in 0u8..2,
        horizon in (0u8..2, 1usize..10, 30u64..300),
    ) {
        let mut source = SyntheticStreamSource::new(ArrivalProcess::poisson(rate), seed);
        if unlabeled == 1 {
            source = source.unlabeled();
        }
        let horizon = || match horizon {
            (0, jobs, _) => Horizon::jobs(jobs),
            (_, _, secs) => Horizon::until(SimTime::from_secs(secs)),
        };
        let node = NodeConfig::default().with_seed(seed);
        let repeated = session(FullRecorder::new(), node, kind)
            .build()
            .run_stream(source.stream_for(0), horizon());
        let per_sample = session(Ticks::new(false), node, kind)
            .build()
            .run_stream(source.stream_for(0), horizon());
        assert_same_recording(
            &repeated.output,
            &per_sample.output,
            (repeated.events_processed, per_sample.events_processed),
        );
        assert_eq!(repeated.stream, per_sample.stream);
    }
}

/// On a 32-job FlowCon worker the rates and limits stay put between
/// policy decisions and exits, so at most one sample tick in ten may be
/// recorded sample by sample.  A change that marks every tick changed
/// keeps the summaries equal but fails here.
#[test]
fn most_ticks_of_a_flowcon_worker_are_repeats() {
    let plan = WorkloadPlan::random_n(32, 7);
    let run = run_plan(
        Ticks::new(true),
        &plan,
        NodeConfig::default().with_seed(7),
        0,
        &[],
    );
    let (_, full, repeated) = run.output;
    let share = full as f64 / (full + repeated) as f64;
    assert!(repeated > 0, "no tick was repeated");
    assert!(
        share <= 0.10,
        "{full} of {} sample ticks went sample by sample ({:.2}%)",
        full + repeated,
        100.0 * share
    );
}
