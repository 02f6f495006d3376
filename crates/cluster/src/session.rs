//! The cluster front door: one builder covering every run mode.
//!
//! [`ClusterSession`] is one fluent surface for every cluster run.
//! Configure the cluster (`nodes` / `node_configs`, `policy`,
//! `placement`), pick exactly one workload (`plan` / `source` /
//! `stream`), optionally switch the mode (`recorder` for custom
//! observability, `scheduler` for the online cluster scheduler,
//! [`crate::sched`]), then `build().run()`; a headless plan run can also
//! stop at `build().place()`.  Outcomes keep per-worker results in worker
//! order; for a plan workload, `placements` maps each job to its worker.

#![deny(missing_docs)]

use std::marker::PhantomData;

use flowcon_core::config::NodeConfig;
use flowcon_core::dense::{run_headless_dense, run_stream_dense, DenseScratch, QueueKind};
use flowcon_core::recorder::Recorder;
use flowcon_core::session::{Session, SessionResult, StreamResult};
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_metrics::sojourn::SojournStats;
use flowcon_metrics::stream::StreamStats;
use flowcon_metrics::summary::{makespan_over, CompletionStats};
use flowcon_sim::time::SimDuration;
use flowcon_sim::trace::{NoopTracer, Tracer};
use flowcon_workload::source::PlanSource;
use flowcon_workload::stream::{Horizon, JobStream, StreamSource, StreamedJob};

use crate::executor;
use crate::placement::{record_assignment, PlacementStrategy, RoundRobin, WorkerLoad};
use crate::policy_kind::PolicyKind;
use crate::sched::{self, ClusterPolicy, SchedConfig, SchedOutcome, SchedPolicyKind};

// ---------------------------------------------------------------------------
// Dynamic stream sources
// ---------------------------------------------------------------------------

/// A type-erased [`JobStream`], produced by [`DynStreamSource`].
///
/// [`StreamSource::Stream`] is a generic associated type, so the trait is
/// not object safe; this newtype is the boxed bridge that lets the builder
/// hold *any* stream source behind one reference.
pub struct BoxedStream<'a>(Box<dyn JobStream + 'a>);

impl<'a> BoxedStream<'a> {
    /// Box a concrete stream.
    pub fn new(stream: impl JobStream + 'a) -> Self {
        BoxedStream(Box::new(stream))
    }
}

impl JobStream for BoxedStream<'_> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        self.0.next_job()
    }
}

/// Object-safe face of [`StreamSource`]: what
/// [`ClusterSessionBuilder::stream`] actually stores.
///
/// Blanket-implemented for every [`StreamSource`], so passing `&source`
/// of any concrete source type coerces directly; implement it manually
/// only for sources that cannot implement the generic trait.
pub trait DynStreamSource: Sync {
    /// The boxed stream for worker `worker_id` — same purity contract as
    /// [`StreamSource::stream_for`].
    fn dyn_stream_for(&self, worker_id: usize) -> BoxedStream<'_>;
}

impl<S: StreamSource> DynStreamSource for S {
    fn dyn_stream_for(&self, worker_id: usize) -> BoxedStream<'_> {
        BoxedStream::new(self.stream_for(worker_id))
    }
}

// ---------------------------------------------------------------------------
// Builder state
// ---------------------------------------------------------------------------

/// The cluster's node set, materialized lazily at [`ClusterSessionBuilder::build`].
#[derive(Debug)]
enum NodeSet {
    /// No `.nodes()` / `.node_configs()` call yet.
    Unset,
    /// `workers` copies of one template, each re-seeded so workloads
    /// don't correlate (the same stride `Manager::new` used).
    Uniform { workers: usize, node: NodeConfig },
    /// Heterogeneous nodes, used verbatim.
    Explicit(Vec<NodeConfig>),
}

impl NodeSet {
    fn materialize(self) -> Vec<NodeConfig> {
        let nodes = match self {
            NodeSet::Unset => Vec::new(),
            NodeSet::Uniform { workers, node } => (0..workers)
                .map(|i| node.with_seed(node.seed.wrapping_add(i as u64 * 0x9E37_79B9)))
                .collect(),
            NodeSet::Explicit(nodes) => nodes,
        };
        assert!(!nodes.is_empty(), "a cluster needs at least one worker");
        nodes
    }
}

/// Which workload drives the run — exactly one of the three shapes.
enum WorkloadSpec<'w> {
    /// A materialized plan the session places job by job.
    Plan(WorkloadPlan),
    /// A streaming per-worker plan source (placement owned by the source).
    Source(&'w dyn PlanSource),
    /// An open-loop job stream admitted until the horizon trips.
    Stream(&'w dyn DynStreamSource, Horizon),
}

/// Default mode: label-free completions only, O(completions) memory —
/// the million-worker configuration.  Every headless workload (placed
/// plans, plan sources and open-loop streams) runs on the dense path
/// ([`flowcon_core::dense`]).
#[derive(Debug, Clone, Copy)]
pub struct Headless;

/// Mode selected by [`ClusterSessionBuilder::recorder`]: every worker
/// session records through `make(worker_index)`.
pub struct Recorded<R, F> {
    make: F,
    _out: PhantomData<fn() -> R>,
}

/// Mode selected by [`ClusterSessionBuilder::scheduler`]: the online
/// cluster scheduler ([`crate::sched`]) consumes the workload as one
/// shared arrival stream and makes live queueing/placement/preemption
/// decisions at every quantum barrier.
///
/// The tracer defaults to [`NoopTracer`] (compiled away); switch it with
/// [`ClusterSessionBuilder::tracer`] to capture a structured timeline of
/// the run.
pub struct Sched<T: Tracer = NoopTracer> {
    kind: SchedPolicyKind,
    custom: Option<Box<dyn ClusterPolicy>>,
    config: SchedConfig,
    tracer: T,
}

/// Fluent configuration for one cluster run; entry point
/// [`ClusterSession::builder`].
///
/// The type parameter tracks the selected mode ([`Headless`] by default,
/// [`Recorded`] after `.recorder(..)`, [`Sched`] after `.scheduler(..)`),
/// so each mode's `run()` can return its natural result type.
pub struct ClusterSessionBuilder<'w, M = Headless> {
    nodes: NodeSet,
    policy: PolicyKind,
    strategy: Box<dyn PlacementStrategy>,
    workload: WorkloadSpec<'w>,
    mode: M,
}

impl<'w> Default for ClusterSessionBuilder<'w, Headless> {
    fn default() -> Self {
        ClusterSessionBuilder {
            nodes: NodeSet::Unset,
            policy: PolicyKind::Baseline,
            strategy: Box::new(RoundRobin::default()),
            workload: WorkloadSpec::Plan(WorkloadPlan::new(Vec::new())),
            mode: Headless,
        }
    }
}

impl<'w, M> ClusterSessionBuilder<'w, M> {
    /// `workers` identical nodes, each re-seeded from the template so
    /// per-worker randomness doesn't correlate.
    pub fn nodes(mut self, workers: usize, node: NodeConfig) -> Self {
        self.nodes = NodeSet::Uniform { workers, node };
        self
    }

    /// Heterogeneous nodes, used verbatim (no re-seeding).
    pub fn node_configs(mut self, nodes: Vec<NodeConfig>) -> Self {
        self.nodes = NodeSet::Explicit(nodes);
        self
    }

    /// The worker-side resource policy every node builds locally
    /// (defaults to [`PolicyKind::Baseline`]).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The placement strategy for materialized plans (defaults to
    /// [`RoundRobin`]; ignored by `source`/`stream` workloads, where the
    /// source owns the job→worker mapping, and by the scheduler mode,
    /// where the [`crate::sched::ClusterPolicy`] decides placement live).
    pub fn placement(mut self, strategy: impl PlacementStrategy + 'static) -> Self {
        self.strategy = Box::new(strategy);
        self
    }

    /// Drive the cluster from one materialized [`WorkloadPlan`], placed
    /// job by job with the configured strategy.
    pub fn plan(mut self, plan: WorkloadPlan) -> Self {
        self.workload = WorkloadSpec::Plan(plan);
        self
    }

    /// Drive the cluster from a streaming [`PlanSource`]: each executor
    /// shard pulls `source.next_plan(worker)` for the worker it is about
    /// to simulate, so no per-worker plans ever exist at once.  The
    /// [`Sched`] mode refuses it: the scheduler takes one cluster-wide
    /// workload.
    pub fn source(mut self, source: &'w dyn PlanSource) -> Self {
        self.workload = WorkloadSpec::Source(source);
        self
    }

    /// Drive the cluster **open-loop**: every worker pulls its own job
    /// stream off `source` and admits arrivals mid-run until `horizon`
    /// trips, then drains.
    pub fn stream(mut self, source: &'w dyn DynStreamSource, horizon: Horizon) -> Self {
        self.workload = WorkloadSpec::Stream(source, horizon);
        self
    }

    /// Switch to the [`Recorded`] mode: worker `w` records through
    /// `make(w)` and the run returns the recorders' outputs.
    pub fn recorder<R, F>(self, make: F) -> ClusterSessionBuilder<'w, Recorded<R, F>>
    where
        R: Recorder,
        F: Fn(usize) -> R + Sync,
    {
        ClusterSessionBuilder {
            nodes: self.nodes,
            policy: self.policy,
            strategy: self.strategy,
            workload: self.workload,
            mode: Recorded {
                make,
                _out: PhantomData,
            },
        }
    }

    /// Switch to the [`Sched`] mode: run the online cluster scheduler
    /// with the given discipline over the workload's arrival stream.
    pub fn scheduler(self, kind: SchedPolicyKind) -> ClusterSessionBuilder<'w, Sched> {
        ClusterSessionBuilder {
            nodes: self.nodes,
            policy: self.policy,
            strategy: self.strategy,
            workload: self.workload,
            mode: Sched {
                kind,
                custom: None,
                config: SchedConfig::default(),
                tracer: NoopTracer,
            },
        }
    }

    /// Materialize the node set and freeze the configuration.
    ///
    /// Panics if no nodes were configured (`a cluster needs at least one
    /// worker`), matching `Manager::new`.
    pub fn build(self) -> ClusterSession<'w, M> {
        ClusterSession {
            nodes: self.nodes.materialize(),
            policy: self.policy,
            strategy: self.strategy,
            workload: self.workload,
            mode: self.mode,
        }
    }
}

impl<'w, T: Tracer> ClusterSessionBuilder<'w, Sched<T>> {
    /// Barrier spacing of the scheduling engine (default 10 s).
    pub fn quantum(mut self, quantum: SimDuration) -> Self {
        self.mode.config.quantum = quantum;
        self
    }

    /// Concurrent job slots per node (default 2).
    pub fn slots_per_node(mut self, slots: usize) -> Self {
        self.mode.config.slots_per_node = slots;
        self
    }

    /// Selects nothing: the engine always advances its nodes on the
    /// thread that runs the session.  The method remains only so that
    /// its existing callers, the benchmark among them, compile unchanged.
    pub fn sequential(self, _sequential: bool) -> Self {
        self
    }

    /// Replace the built-in discipline selected by
    /// [`scheduler`](ClusterSessionBuilder::scheduler) with a custom
    /// [`ClusterPolicy`] implementation.
    pub fn discipline(mut self, policy: Box<dyn ClusterPolicy>) -> Self {
        self.mode.custom = Some(policy);
        self
    }

    /// Trace the run through `tracer` — e.g. a
    /// [`FlightRecorder`](flowcon_sim::trace::FlightRecorder) — instead of
    /// the default no-op.  Every node records into a fork of this tracer,
    /// drained back in node order at every barrier after the node
    /// advances; every event is recorded on the thread that runs the
    /// session.  Retrieve the tracer with [`ClusterSession::run_traced`].
    pub fn tracer<T2: Tracer>(self, tracer: T2) -> ClusterSessionBuilder<'w, Sched<T2>> {
        ClusterSessionBuilder {
            nodes: self.nodes,
            policy: self.policy,
            strategy: self.strategy,
            workload: self.workload,
            mode: Sched {
                kind: self.mode.kind,
                custom: self.mode.custom,
                config: self.mode.config,
                tracer,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The session and its outcomes
// ---------------------------------------------------------------------------

/// A fully configured cluster run, ready to execute; see
/// [`ClusterSessionBuilder`] for the configuration surface and the module
/// docs for the run modes.
pub struct ClusterSession<'w, M = Headless> {
    nodes: Vec<NodeConfig>,
    policy: PolicyKind,
    strategy: Box<dyn PlacementStrategy>,
    workload: WorkloadSpec<'w>,
    mode: M,
}

impl<'w> ClusterSession<'w, Headless> {
    /// Start configuring a cluster run.
    pub fn builder() -> ClusterSessionBuilder<'w, Headless> {
        ClusterSessionBuilder::default()
    }
}

/// What a [`Headless`] or [`Recorded`] cluster run produces: per-worker
/// recorder outputs, the placement log (plan workloads only), and
/// per-worker steady-state stats (stream workloads only).
#[derive(Debug)]
pub struct ClusterOutcome<T> {
    /// Per-worker session results, indexed by worker.
    pub workers: Vec<SessionResult<T>>,
    /// Worker index of each job in plan (arrival) order; empty for
    /// `source`/`stream` workloads, where the source owns placement.
    pub placements: Vec<usize>,
    /// Per-worker [`StreamStats`], indexed by worker; empty for closed
    /// (`plan`/`source`) workloads.
    pub streams: Vec<StreamStats>,
    /// Per-worker SLO tails (sojourn/queue-wait quantile sketches),
    /// indexed by worker, parallel to `streams`; empty for closed
    /// workloads.
    pub tails: Vec<SojournStats>,
}

impl<T> ClusterOutcome<T> {
    /// Total simulated events across all workers.
    pub fn events_processed(&self) -> u64 {
        self.workers.iter().map(|w| w.events_processed).sum()
    }

    /// Cluster-wide steady-state totals (open-loop runs): per-worker
    /// [`StreamStats`] merged.
    pub fn stream_totals(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for s in &self.streams {
            total.merge(s);
        }
        total
    }

    /// Jobs admitted across the cluster before the horizon (open-loop
    /// runs; 0 for closed workloads, which have no admission control).
    pub fn submitted_jobs(&self) -> usize {
        self.streams.iter().map(|s| s.submitted as usize).sum()
    }

    /// Cluster-wide SLO tails (open-loop runs): per-worker
    /// [`SojournStats`] folded in worker-index order.
    ///
    /// [`executor::map_sharded`] returns results in input order, so this
    /// fold is bit-identical to recording every exit into one aggregate
    /// sequentially, however the run was sharded (pinned in
    /// `crates/cluster/tests/`).
    pub fn tail_totals(&self) -> SojournStats {
        let mut total = SojournStats::new();
        for t in &self.tails {
            total.merge(t);
        }
        total
    }
}

impl ClusterOutcome<CompletionStats> {
    /// Cluster makespan (canonical [`makespan_over`] fold).
    pub fn makespan_secs(&self) -> f64 {
        makespan_over(self.workers.iter().map(|w| w.output.makespan_secs()))
    }

    /// Total number of completed jobs.
    pub fn completed_jobs(&self) -> usize {
        self.workers.iter().map(|w| w.output.len()).sum()
    }

    /// Mean per-job completion time over the whole cluster.
    pub fn mean_completion_secs(&self) -> Option<f64> {
        let n = self.completed_jobs();
        if n == 0 {
            return None;
        }
        let sum: f64 = self
            .workers
            .iter()
            .flat_map(|w| w.output.completions.iter())
            .map(|c| c.completion_secs())
            .sum();
        Some(sum / n as f64)
    }
}

impl<'w> ClusterSession<'w, Headless> {
    /// Run headless: label-free completions and makespan only.
    ///
    /// Every workload runs on the dense path ([`flowcon_core::dense`]),
    /// one recycled [`DenseScratch`] per executor shard, within the
    /// 10-allocation per-worker budget pinned by
    /// `crates/cluster/tests/headless_allocs.rs`.  Results are
    /// bit-identical to sessions with
    /// [`CompletionsOnly`](flowcon_core::recorder::CompletionsOnly)
    /// recorders — the [`Recorded`] mode with `|_| CompletionsOnly::new()`.
    pub fn run(self) -> ClusterOutcome<CompletionStats> {
        let policy = self.policy;
        let nodes = &self.nodes[..];
        match self.workload {
            WorkloadSpec::Plan(_) => self.place().run(QueueKind::Heap),
            WorkloadSpec::Source(source) => ClusterOutcome {
                workers: executor::map_indexed(nodes.len(), DenseScratch::new, |scratch, idx| {
                    let plan = source.next_plan(idx);
                    let policy = policy.build();
                    run_headless_dense(nodes[idx], &plan.jobs, policy, QueueKind::Heap, scratch)
                }),
                placements: Vec::new(),
                streams: Vec::new(),
                tails: Vec::new(),
            },
            WorkloadSpec::Stream(source, horizon) => {
                // The open-loop drive keeps its `(index, node)` copy of
                // the nodes: without that transient buffer glibc trims the
                // heap top between benchmark reps, and `open_loop`'s setup
                // time then measures the page faults of regrowing it, not
                // this code (ROADMAP item 3).
                let work: Vec<(usize, NodeConfig)> = nodes.iter().copied().enumerate().collect();
                split_stream(executor::map_sharded(
                    work,
                    DenseScratch::new,
                    |scratch, (idx, node)| {
                        let stream = source.dyn_stream_for(idx);
                        run_stream_dense(node, stream, horizon, policy.build(), scratch)
                    },
                ))
            }
        }
    }

    /// Place the plan's jobs without simulating anything yet — the
    /// headless run split at its stage boundary so `repro profile` can
    /// clock placement and simulation separately.
    ///
    /// Panics unless the workload is a materialized plan.
    pub fn place(mut self) -> PlacedHeadless {
        let WorkloadSpec::Plan(plan) = self.workload else {
            panic!("place() requires a materialized plan workload");
        };
        let mut placements = Vec::with_capacity(plan.jobs.len());
        let (flat, offsets) = place_flat(
            &mut *self.strategy,
            self.nodes.len(),
            plan.jobs,
            |_, target| placements.push(target),
        );
        PlacedHeadless {
            nodes: self.nodes,
            policy: self.policy,
            flat,
            offsets,
            placements,
        }
    }
}

/// A headless cluster with every job already placed, ready to simulate.
///
/// Produced by [`ClusterSession::place`]; [`PlacedHeadless::run`] drives
/// the dense per-worker simulations.  Splitting the run at this boundary
/// exists for profiling (`repro profile` clocks the two stages
/// separately).
#[derive(Debug)]
pub struct PlacedHeadless {
    nodes: Vec<NodeConfig>,
    policy: PolicyKind,
    /// All jobs in one arena, sorted by worker (CSR layout).
    flat: Vec<JobRequest>,
    /// `offsets[w]..offsets[w + 1]` slices worker `w`'s jobs out of `flat`.
    offsets: Vec<usize>,
    placements: Vec<usize>,
}

impl PlacedHeadless {
    /// Simulate every worker on the sharded executor through the dense
    /// headless path.  `_queue` selects nothing (see [`QueueKind`]).
    pub fn run(self, _queue: QueueKind) -> ClusterOutcome<CompletionStats> {
        let policy = self.policy;
        let (nodes, flat, offsets) = (&self.nodes[..], &self.flat[..], &self.offsets[..]);
        let workers = executor::map_indexed(nodes.len(), DenseScratch::new, |scratch, idx| {
            let jobs = &flat[offsets[idx]..offsets[idx + 1]];
            run_headless_dense(nodes[idx], jobs, policy.build(), QueueKind::Heap, scratch)
        });
        ClusterOutcome {
            workers,
            placements: self.placements,
            streams: Vec::new(),
            tails: Vec::new(),
        }
    }
}

impl<'w, R, F> ClusterSession<'w, Recorded<R, F>>
where
    R: Recorder,
    R::Output: Send,
    F: Fn(usize) -> R + Sync,
{
    /// Run with the custom per-worker [`Recorder`] factory.
    pub fn run(mut self) -> ClusterOutcome<R::Output> {
        let make = &self.mode.make;
        match self.workload {
            WorkloadSpec::Plan(plan) => {
                let mut placements = Vec::with_capacity(plan.jobs.len());
                let (flat, offsets) = place_flat(
                    &mut *self.strategy,
                    self.nodes.len(),
                    plan.jobs,
                    |_, target| placements.push(target),
                );
                // Split the arena at its offsets, moving each worker's
                // jobs into that worker's plan.
                let mut jobs = flat.into_iter();
                let per_worker = offsets
                    .windows(2)
                    .map(|w| jobs.by_ref().take(w[1] - w[0]).collect())
                    .collect();
                ClusterOutcome {
                    workers: drive_plan(&self.nodes, self.policy, per_worker, make),
                    placements,
                    streams: Vec::new(),
                    tails: Vec::new(),
                }
            }
            WorkloadSpec::Source(source) => ClusterOutcome {
                workers: drive_source(&self.nodes, self.policy, source, make),
                placements: Vec::new(),
                streams: Vec::new(),
                tails: Vec::new(),
            },
            WorkloadSpec::Stream(source, horizon) => split_stream(drive_stream(
                &self.nodes,
                self.policy,
                source,
                horizon,
                make,
            )),
        }
    }
}

impl<'w, T: Tracer> ClusterSession<'w, Sched<T>> {
    /// Run the online scheduler: the workload becomes one cluster-wide
    /// arrival stream, and the configured discipline makes live
    /// queueing/placement/preemption decisions at every quantum barrier.
    ///
    /// A `plan` workload contributes its jobs directly; a `stream`
    /// contributes worker 0's stream pulled up to the horizon, which must
    /// be bounded.  A per-worker `source` panics: the scheduler owns
    /// placement, and a source hands out one slice per worker, not the
    /// cluster's workload.
    pub fn run(self) -> SchedOutcome {
        self.run_traced().0
    }

    /// Like [`run`](ClusterSession::run), but also hand back the tracer
    /// configured with [`ClusterSessionBuilder::tracer`], now holding the
    /// merged timeline of the whole run.
    pub fn run_traced(self) -> (SchedOutcome, T) {
        let ClusterSession {
            nodes,
            policy,
            workload,
            mode,
            ..
        } = self;
        let mut arrivals: Vec<sched::ArrivalSpec> = match workload {
            WorkloadSpec::Plan(plan) => plan.jobs.iter().map(arrival_of).collect(),
            WorkloadSpec::Source(_) => panic!(
                "the scheduler takes one cluster-wide workload, a plan or a bounded \
                 stream, not a per-worker plan source"
            ),
            WorkloadSpec::Stream(source, horizon) => {
                assert!(
                    horizon.is_bounded(),
                    "the scheduler materializes the stream, so the horizon must be bounded"
                );
                let mut stream = source.dyn_stream_for(0);
                let mut specs = Vec::new();
                while let Some(job) = stream.next_job() {
                    if !horizon.admits(specs.len(), job.arrival) {
                        break;
                    }
                    specs.push(sched::ArrivalSpec {
                        model: job.model,
                        arrival: job.arrival,
                        work_scale: job.work_scale,
                    });
                }
                specs
            }
        };
        arrivals.sort_by_key(|a| a.arrival);
        let discipline = match mode.custom {
            Some(policy) => policy,
            None => mode.kind.build(),
        };
        let mut tracer = mode.tracer;
        let outcome = sched::run_sched(
            &nodes,
            policy,
            discipline,
            mode.config,
            arrivals,
            &mut tracer,
        );
        (outcome, tracer)
    }
}

fn arrival_of(job: &JobRequest) -> sched::ArrivalSpec {
    sched::ArrivalSpec {
        model: job.model,
        arrival: job.arrival,
        work_scale: job.work_scale,
    }
}

// ---------------------------------------------------------------------------
// Shared placement / drive plumbing (moved here from `Manager`)
// ---------------------------------------------------------------------------

/// Place every job, reporting each `(job, worker)` decision through
/// `on_assign`.  Jobs are moved, never cloned, into a single arena sorted
/// by worker (CSR layout) — not one `Vec` per worker, which would cost a
/// million allocations at a million workers — with
/// `offsets[w]..offsets[w + 1]` slicing worker `w`'s jobs.  The sort is
/// stable, so each worker sees its jobs in plan order.
fn place_flat(
    strategy: &mut dyn PlacementStrategy,
    workers: usize,
    jobs: Vec<JobRequest>,
    mut on_assign: impl FnMut(&JobRequest, usize),
) -> (Vec<JobRequest>, Vec<usize>) {
    let mut loads = vec![WorkerLoad::default(); workers];
    let mut tagged: Vec<(usize, JobRequest)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let target = strategy.place(&job, &loads);
        assert!(
            target < workers,
            "strategy returned worker {target} of {workers}"
        );
        record_assignment(&mut loads[target], &job);
        on_assign(&job, target);
        tagged.push((target, job));
    }
    tagged.sort_by_key(|&(target, _)| target);
    let mut offsets = vec![0usize; workers + 1];
    for &(target, _) in &tagged {
        offsets[target + 1] += 1;
    }
    for i in 0..workers {
        offsets[i + 1] += offsets[i];
    }
    let flat = tagged.into_iter().map(|(_, job)| job).collect();
    (flat, offsets)
}

/// Drive one session per worker on the sharded executor: at most
/// `available_parallelism` OS threads, each recycling one
/// [`DenseScratch`] across the worker sessions it processes.
fn drive_plan<R, F>(
    nodes: &[NodeConfig],
    policy: PolicyKind,
    per_worker: Vec<Vec<JobRequest>>,
    make: &F,
) -> Vec<SessionResult<R::Output>>
where
    R: Recorder,
    R::Output: Send,
    F: Fn(usize) -> R + Sync,
{
    let work: Vec<(usize, NodeConfig, Vec<JobRequest>)> = nodes
        .iter()
        .copied()
        .zip(per_worker)
        .enumerate()
        .map(|(idx, (node, jobs))| (idx, node, jobs))
        .collect();
    executor::map_sharded(work, DenseScratch::new, |scratch, (idx, node, jobs)| {
        // The per-worker job lists are already in arrival order, so
        // WorkloadPlan::new's sort is a no-op pass.
        let session = Session::builder()
            .node(node)
            .plan(WorkloadPlan::new(jobs))
            .policy_box(policy.build())
            .recorder(make(idx))
            .scratch(std::mem::take(scratch))
            .build();
        let (result, recycled) = session.run_recycling();
        *scratch = recycled;
        result
    })
}

/// [`drive_plan`] off a streaming [`PlanSource`]: each shard pulls the
/// plan of the worker it is about to simulate, so at no point do all
/// per-worker plans exist at once.  Recorded mode only; headless sources
/// call [`run_headless_dense`] directly.
fn drive_source<R, F>(
    nodes: &[NodeConfig],
    policy: PolicyKind,
    source: &dyn PlanSource,
    make: &F,
) -> Vec<SessionResult<R::Output>>
where
    R: Recorder,
    R::Output: Send,
    F: Fn(usize) -> R + Sync,
{
    executor::map_indexed(nodes.len(), DenseScratch::new, |scratch, idx| {
        let session = Session::builder()
            .node(nodes[idx])
            .plan(source.next_plan(idx))
            .policy_box(policy.build())
            .recorder(make(idx))
            .scratch(std::mem::take(scratch))
            .build();
        let (result, recycled) = session.run_recycling();
        *scratch = recycled;
        result
    })
}

/// The open-loop drive: every worker pulls its own stream off `source`
/// and admits arrivals until `horizon` trips, then drains.  Recorded mode
/// only; headless streams call [`run_stream_dense`] directly.
fn drive_stream<R, F>(
    nodes: &[NodeConfig],
    policy: PolicyKind,
    source: &dyn DynStreamSource,
    horizon: Horizon,
    make: &F,
) -> Vec<StreamResult<R::Output>>
where
    R: Recorder,
    R::Output: Send,
    F: Fn(usize) -> R + Sync,
{
    executor::map_indexed(nodes.len(), DenseScratch::new, |scratch, idx| {
        let session = Session::builder()
            .node(nodes[idx])
            .policy_box(policy.build())
            .recorder(make(idx))
            .scratch(std::mem::take(scratch))
            .build();
        let (result, recycled) = session.run_stream_recycling(source.dyn_stream_for(idx), horizon);
        *scratch = recycled;
        result
    })
}

/// Split per-worker [`StreamResult`]s into the [`ClusterOutcome`] shape
/// (session results + parallel stats vector).
fn split_stream<T>(results: Vec<StreamResult<T>>) -> ClusterOutcome<T> {
    let mut workers = Vec::with_capacity(results.len());
    let mut streams = Vec::with_capacity(results.len());
    let mut tails = Vec::with_capacity(results.len());
    for r in results {
        streams.push(r.stream);
        tails.push(r.tails);
        workers.push(SessionResult {
            output: r.output,
            events_processed: r.events_processed,
            scheduler_overhead_cpu_secs: r.scheduler_overhead_cpu_secs,
        });
    }
    ClusterOutcome {
        workers,
        placements: Vec::new(),
        streams,
        tails,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Spread;
    use flowcon_core::config::FlowConConfig;
    use flowcon_core::recorder::{CompletionsOnly, FullRecorder};
    use flowcon_workload::stream::Horizon;

    fn node() -> NodeConfig {
        NodeConfig::default()
    }

    fn base<'w>(workers: usize) -> ClusterSessionBuilder<'w, Headless> {
        ClusterSession::builder().nodes(workers, node())
    }

    #[test]
    fn all_jobs_complete_across_two_workers() {
        let plan = WorkloadPlan::random_n(10, 7);
        let out = base(2)
            .plan(plan)
            .recorder(|_| FullRecorder::new())
            .build()
            .run();
        let completed: usize = out.workers.iter().map(|w| w.output.completions.len()).sum();
        assert_eq!(completed, 10);
        assert_eq!(out.placements.len(), 10);
        // Round-robin: 5 jobs each.
        let w0 = out.placements.iter().filter(|&&w| w == 0).count();
        assert_eq!(w0, 5);
    }

    #[test]
    fn two_workers_beat_one_on_makespan() {
        let plan = WorkloadPlan::random_n(10, 7);
        let run = |workers| {
            base(workers)
                .placement(Spread)
                .plan(plan.clone())
                .build()
                .run()
                .makespan_secs()
        };
        let (one, two) = (run(1), run(2));
        assert!(two < one, "2 workers {two:.0}s vs 1 worker {one:.0}s");
    }

    #[test]
    fn flowcon_policy_runs_on_every_worker() {
        let plan = WorkloadPlan::random_n(8, 9);
        let out = base(2)
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .placement(Spread)
            .plan(plan)
            .recorder(|_| FullRecorder::new())
            .build()
            .run();
        assert_eq!(
            out.workers
                .iter()
                .map(|w| w.output.completions.len())
                .sum::<usize>(),
            8
        );
        for w in &out.workers {
            assert_eq!(w.output.policy, "FlowCon-5%-20");
        }
    }

    #[test]
    fn headless_run_matches_recorded_run_under_na() {
        // The NA baseline ignores measurements, so removing the sampling
        // events cannot change the fluid dynamics: headless and full agree
        // to the engine's 1 µs completion-check margin.
        let plan = WorkloadPlan::random_n(12, 5);
        let full = base(3)
            .plan(plan.clone())
            .recorder(|_| FullRecorder::new())
            .build()
            .run();
        let headless = base(3).plan(plan).build().run();
        assert_eq!(headless.completed_jobs(), 12);
        assert_eq!(headless.placements.len(), 12);
        assert_eq!(headless.placements, full.placements);
        let full_makespan = makespan_over(full.workers.iter().map(|w| w.output.makespan_secs()));
        let diff = (headless.makespan_secs() - full_makespan).abs();
        assert!(diff < 1e-3, "makespan diverged by {diff}s");
        // Headless schedules no sampling events at all.
        assert!(headless.events_processed() < full.events_processed());
        assert!(headless.mean_completion_secs().unwrap() > 0.0);
    }

    #[test]
    fn recorded_run_passes_worker_indices_to_the_factory() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let plan = WorkloadPlan::random_n(6, 2);
        let seen = AtomicU64::new(0);
        let out = base(3)
            .plan(plan)
            .recorder(|idx| {
                seen.fetch_or(1 << idx, Ordering::Relaxed);
                CompletionsOnly::new()
            })
            .build()
            .run();
        assert_eq!(out.workers.len(), 3);
        assert_eq!(seen.load(Ordering::Relaxed), 0b111, "every index seen");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = base(0).build();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn unconfigured_nodes_rejected() {
        let _ = ClusterSession::builder().build();
    }

    /// Schedule a small plan on two nodes of the given capacity.
    fn schedule_on_capacity(capacity: f64) {
        let node = NodeConfig {
            capacity,
            ..NodeConfig::default()
        };
        let _ = ClusterSession::builder()
            .nodes(2, node)
            .plan(WorkloadPlan::random_n(4, 1))
            .scheduler(SchedPolicyKind::Fifo)
            .build()
            .run();
    }

    #[test]
    #[should_panic(expected = "NodeConfig::capacity must be finite and > 0")]
    fn scheduler_rejects_a_node_with_zero_capacity() {
        // No job could ever finish, so the barriers would advance forever.
        schedule_on_capacity(0.0);
    }

    #[test]
    #[should_panic(expected = "NodeConfig::capacity must be finite and > 0")]
    fn scheduler_rejects_a_node_with_nan_capacity() {
        schedule_on_capacity(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "a plan or a bounded stream, not a per-worker plan source")]
    fn scheduler_refuses_a_per_worker_plan_source() {
        use flowcon_workload::{BoundTrace, TraceSource};
        // Each of the 3 workers' slices holds 4 of the 12 jobs; feeding the
        // scheduler one slice would lose the other 8.
        let source = TraceSource::new(BoundTrace::from_plan(WorkloadPlan::random_n(12, 5)), 3);
        let _ = base(3)
            .source(&source)
            .scheduler(SchedPolicyKind::Fifo)
            .build()
            .run();
    }

    #[test]
    fn source_run_matches_the_equivalent_placed_run() {
        use flowcon_workload::{BoundTrace, TraceSource};
        // A trace source slicing round-robin is exactly RoundRobin
        // placement of the same arrival-ordered plan, so the two paths
        // must complete the same jobs at the same makespan.
        let plan = WorkloadPlan::random_n(12, 5);
        let source = TraceSource::new(BoundTrace::from_plan(plan.clone()), 3);
        let placed = base(3).plan(plan).build().run();
        let streamed = base(3).source(&source).build().run();
        assert_eq!(streamed.completed_jobs(), 12);
        assert!(streamed.placements.is_empty(), "the source owns placement");
        for (a, b) in placed.workers.iter().zip(&streamed.workers) {
            assert_eq!(a.output, b.output, "per-worker stats diverged");
            assert_eq!(a.events_processed, b.events_processed);
        }
    }

    #[test]
    fn open_loop_cluster_drives_every_worker_to_the_horizon() {
        use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.05), 7).unlabeled();
        let out = base(4).stream(&source, Horizon::jobs(2)).build().run();
        assert_eq!(out.workers.len(), 4);
        assert_eq!(out.streams.len(), 4);
        assert_eq!(out.submitted_jobs(), 8);
        assert_eq!(out.completed_jobs(), 8, "every admitted job drains");
        assert!(out.makespan_secs() > 0.0);
        let totals = out.stream_totals();
        assert_eq!(totals.submitted, 8);
        assert!(totals.utilization() > 0.0 && totals.utilization() <= 1.0);
        assert!(totals.mean_queue_depth() > 0.0);
    }

    #[test]
    fn scheduler_mode_runs_a_plan_to_completion() {
        let plan = WorkloadPlan::random_n(8, 3);
        let out = base(2)
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(plan)
            .scheduler(SchedPolicyKind::Fifo)
            .build()
            .run();
        assert_eq!(out.completed_jobs(), 8);
        assert_eq!(out.policy, "fifo");
        assert!(out.makespan_secs() > 0.0);
    }

    #[test]
    fn completion_lookup_spans_workers_via_placements() {
        // Labels come from zipping the plan's labels with `placements`,
        // lookups from each worker's RunSummary.
        let plan = WorkloadPlan::random_n(4, 3);
        let labels: Vec<String> = plan.jobs.iter().map(|j| j.label.clone()).collect();
        let out = base(2)
            .plan(plan)
            .recorder(|_| FullRecorder::new())
            .build()
            .run();
        assert_eq!(out.placements.len(), labels.len());
        for (label, &worker) in labels.iter().zip(&out.placements) {
            let secs = out.workers[worker].output.completion_of(label);
            assert!(secs.is_some(), "missing {label} on worker {worker}");
            // The placement log is authoritative: no other worker ran it.
            let elsewhere = out
                .workers
                .iter()
                .enumerate()
                .filter(|&(w, _)| w != worker)
                .find_map(|(_, r)| r.output.completion_of(label));
            assert!(elsewhere.is_none(), "{label} completed on two workers");
        }
    }

    #[test]
    fn headless_flowcon_conserves_jobs_at_plausible_makespan() {
        let plan = WorkloadPlan::random_n(12, 5);
        let fc = || base(3).policy(PolicyKind::FlowCon(FlowConConfig::default()));
        let full = fc()
            .plan(plan.clone())
            .recorder(|_| FullRecorder::new())
            .build()
            .run();
        let full_makespan = makespan_over(full.workers.iter().map(|w| w.output.makespan_secs()));
        let headless = fc().plan(plan).build().run();
        assert_eq!(headless.completed_jobs(), 12);
        // Different eval-noise stream, same physics scale: within a few %.
        let rel = (headless.makespan_secs() - full_makespan).abs() / full_makespan;
        assert!(rel < 0.05, "headless makespan off by {:.1}%", rel * 100.0);
    }

    #[test]
    fn open_loop_builder_accepts_cyclic_trace_sources() {
        use flowcon_workload::TraceStreamSource;
        // A 6-job plan cycled across 3 workers: each worker replays its
        // 2-row slice repeatedly until the 5-job-per-worker horizon.
        let plan = WorkloadPlan::random_n(6, 11);
        let source =
            TraceStreamSource::new(flowcon_workload::BoundTrace::from_plan(plan).unlabeled(), 3)
                .cyclic();
        let out = base(3).stream(&source, Horizon::jobs(5)).build().run();
        assert_eq!(out.submitted_jobs(), 15, "cyclic replay is unbounded");
        assert_eq!(out.completed_jobs(), 15);
        assert!(out.makespan_secs() > 0.0);
        assert!(out.stream_totals().utilization() > 0.0);
    }

    #[test]
    fn synthetic_source_drives_every_worker() {
        use flowcon_workload::{ArrivalProcess, SyntheticSource};
        let source = SyntheticSource::new(ArrivalProcess::poisson(0.05), 2, 7).unlabeled();
        let out = base(4).source(&source).build().run();
        assert_eq!(out.workers.len(), 4);
        assert_eq!(out.completed_jobs(), 4 * 2);
        assert!(out.makespan_secs() > 0.0);
    }

    #[test]
    fn open_loop_tails_ride_beside_the_stream_stats() {
        use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.05), 7).unlabeled();
        let out = base(3).stream(&source, Horizon::jobs(4)).build().run();
        assert_eq!(out.tails.len(), 3, "one tail aggregate per worker");
        let totals = out.tail_totals();
        assert_eq!(totals.exits(), 12, "every exit sampled exactly once");
        let p = totals.sojourn_percentiles();
        assert!(p.p50 > 0.0 && p.p50 <= p.p95 && p.p95 <= p.p99);
        // Single-node fluid workers allocate at admission: zero queue-wait.
        assert_eq!(totals.queue_wait_percentiles().p99, 0.0);
    }

    #[test]
    fn scheduler_mode_consumes_a_bounded_stream() {
        use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.05), 7).unlabeled();
        let out = base(2)
            .stream(&source, Horizon::jobs(6))
            .scheduler(SchedPolicyKind::Tiresias)
            .build()
            .run();
        assert_eq!(out.submitted, 6);
        assert_eq!(out.completed_jobs(), 6);
    }
}
