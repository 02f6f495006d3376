//! The deterministic fluid simulation of one worker node.
//!
//! This is the testbed substitute: a single node (capacity 1.0) running
//! containerized DL jobs under a [`ResourcePolicy`].  Between events the
//! node is a fluid processor-sharing system — the water-filling allocator
//! (with Docker-soft-limit semantics) fixes every container's CPU rate, and
//! workloads advance linearly — so the simulation only needs events at:
//!
//! * job **arrivals** (from the workload plan),
//! * projected job **completions** (recomputed whenever rates change),
//! * **policy ticks** (the Executor's interval, with back-off/reset),
//! * **sample ticks** (1 s usage/limit traces) and **trace ticks**
//!   (growth-efficiency traces at a fixed interval for Figs. 13–14) —
//!   scheduled only when the session's [`Recorder`] wants them.
//!
//! Every run is reproducible from `NodeConfig::seed`.
//!
//! `WorkerSim` is monomorphized over its [`Recorder`] and is internal
//! machinery: workers are built and run exclusively through
//! [`crate::session::Session`].  (The pre-session `WorkerSim::*` and
//! `run_flowcon`/`run_baseline` entry points shipped one release as
//! deprecated shims and are gone.)

use std::sync::Arc;

use flowcon_container::{
    ContainerId, Daemon, ImageRegistry, ResourceLimits, UpdateOptions, Workload,
};
use flowcon_dl::models::ModelSpec;
use flowcon_dl::workload::WorkloadPlan;
use flowcon_dl::TrainingJob;
use flowcon_metrics::sojourn::SojournStats;
use flowcon_metrics::stream::StreamStats;
use flowcon_metrics::summary::RunSummary;
use flowcon_sim::alloc::{waterfill_soft_into, AllocRequest, WaterfillScratch};
use flowcon_sim::engine::{Scheduler, SimEngine, Simulation};
use flowcon_sim::event::EventQueue;
use flowcon_sim::rng::SimRng;
use flowcon_sim::stats::TimeWeighted;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{TraceKind, Tracer};
use flowcon_workload::stream::{Horizon, JobStream, StreamedJob};

use crate::config::NodeConfig;
use crate::metric::GrowthMeasurement;
use crate::monitor::ContainerMonitor;
use crate::policy::ResourcePolicy;
use crate::recorder::{FullRecorder, Recorder, RunMeta};
use crate::session::{SessionResult, StreamResult};

/// Interval between growth-efficiency trace measurements (Figs. 13–14).
const TRACE_INTERVAL: SimDuration = SimDuration::from_secs(20);

/// Events driving the worker simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WorkerEvent {
    /// The `idx`-th job of the plan arrives.
    Arrival(usize),
    /// The pending open-loop streamed job arrives (handled by the
    /// [`OpenLoopShell`], which owns the stream; exactly one such event is
    /// in flight at a time).
    StreamArrival,
    /// A projected completion; `gen` invalidates stale projections.
    CompletionCheck(u64),
    /// The Executor's periodic tick; `gen` invalidates pre-empted ticks.
    PolicyTick(u64),
    /// 1 Hz usage/limit sampling.
    SampleTick,
    /// Growth-efficiency trace sampling.
    TraceTick,
    /// Fault injection: crash the `idx`-th entry of the failure schedule.
    InjectFailure(usize),
}

/// A scheduled fault: crash the job with `label` at `at` with `exit_code`.
#[derive(Debug, Clone)]
pub struct FailureInjection {
    /// Label of the job to crash.
    pub label: String,
    /// When the crash happens.
    pub at: SimTime,
    /// Exit code the container reports (e.g. 137 for OOM-kill).
    pub exit_code: i32,
}

/// A full-observability run result: a [`RunSummary`] plus the session's
/// performance counters.
///
/// Sessions return a [`SessionResult`] from
/// [`Session::run`](crate::session::Session::run); this repackaging
/// (`RunResult::from`) is kept for callers that want the summary under
/// its historical field name.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Everything the paper reports: completions, makespan, traces.
    pub summary: RunSummary,
    /// Total simulated events processed (performance accounting).
    pub events_processed: u64,
    /// Estimated scheduler overhead in CPU-seconds
    /// (`algorithm_runs × NodeConfig::algo_cost_cpu_secs`).
    pub scheduler_overhead_cpu_secs: f64,
}

impl From<SessionResult<RunSummary>> for RunResult {
    /// Repackage a full-recorder session result (the cluster manager
    /// translates between the two shapes).
    fn from(result: SessionResult<RunSummary>) -> Self {
        RunResult {
            summary: result.output,
            events_processed: result.events_processed,
            scheduler_overhead_cpu_secs: result.scheduler_overhead_cpu_secs,
        }
    }
}

/// The reusable hot-path buffers of one worker simulation.
///
/// Everything in here is recomputed from scratch by the simulation (rates
/// at every `recompute_rates`, measurement and update buffers at every
/// tick), so only the *capacity* carries meaning between runs.  The sharded
/// cluster executor keeps one `WorkerScratch` per OS thread and recycles it
/// across the hundreds of worker sessions that shard drives, so worker
/// state is reused instead of reallocated per simulation
/// ([`Session::run_recycling`](crate::session::Session::run_recycling)).
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Ids of containers whose rates are fixed since the last recompute,
    /// in pool id order.
    rate_ids: Vec<ContainerId>,
    /// CPU rates aligned with `rate_ids`.
    rate_vals: Vec<f64>,
    /// Per-container contention efficiencies, aligned with `rate_ids`.
    efficiencies: Vec<f64>,
    /// Water-filling scratch (rate buffers + warm sort-order cache).
    alloc: WaterfillScratch,
    /// `(id, limit, demand)` rows from the daemon, reused every recompute.
    alloc_inputs: Vec<(ContainerId, f64, f64)>,
    /// Allocator requests derived from `alloc_inputs`.
    requests: Vec<AllocRequest>,
    /// Growth measurements buffer for policy reconfigurations.
    measures: Vec<GrowthMeasurement>,
    /// Growth measurements buffer for trace sampling.
    trace_measures: Vec<GrowthMeasurement>,
    /// Pool-membership buffer for listener notifications.
    pool_ids: Vec<ContainerId>,
    /// Policy-decision updates buffer ([`ResourcePolicy::reconfigure_into`]).
    updates: Vec<(ContainerId, f64)>,
    /// Recycled engine event heap ([`SimEngine::from_queue`]): the queue is
    /// allocated once per executor shard, not once per simulation.
    queue: EventQueue<WorkerEvent>,
}

impl WorkerScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every buffer (capacities are kept) and make sure at least
    /// `max_jobs` slots are available, so the first tick of the next run is
    /// as allocation-free as its steady state.
    fn reset_for(&mut self, max_jobs: usize) {
        self.rate_ids.clear();
        self.rate_vals.clear();
        self.efficiencies.clear();
        self.alloc_inputs.clear();
        self.requests.clear();
        self.measures.clear();
        self.trace_measures.clear();
        self.pool_ids.clear();
        self.updates.clear();
        self.rate_ids.reserve(max_jobs);
        self.rate_vals.reserve(max_jobs);
        self.efficiencies.reserve(max_jobs);
        self.alloc_inputs.reserve(max_jobs);
        self.requests.reserve(max_jobs);
        self.measures.reserve(max_jobs);
        self.trace_measures.reserve(max_jobs);
        self.pool_ids.reserve(max_jobs);
        self.updates.reserve(max_jobs);
        self.alloc.reserve(max_jobs);
    }
}

/// One simulated worker node executing a workload plan under a policy,
/// observed by a [`Recorder`].
///
/// Crate-internal: construct and run through
/// [`Session::builder`](crate::session::Session::builder).
pub(crate) struct WorkerSim<R: Recorder = FullRecorder> {
    node: NodeConfig,
    plan: WorkloadPlan,
    policy: Box<dyn ResourcePolicy>,

    daemon: Daemon<TrainingJob>,
    rng: SimRng,

    last_advance: SimTime,

    // --- reusable hot-path buffers: the tick loop is allocation-free in
    // --- steady state (asserted by `crates/sim/tests/zero_alloc.rs` for
    // --- the allocator, `crates/flowcon/tests/policy_zero_alloc.rs` for
    // --- the policy layer, and exercised end-to-end by the benches).
    scratch: WorkerScratch,

    completion_gen: u64,
    tick_gen: u64,
    arrivals_pending: usize,

    policy_monitor: ContainerMonitor,
    trace_monitor: ContainerMonitor,

    recorder: R,
    update_calls: u64,
    algorithm_runs: u64,
    /// Water-filling invocations so far (the cumulative count behind the
    /// [`TraceKind::Waterfill`] counter events).
    waterfill_runs: u64,
    failures: Vec<FailureInjection>,

    // --- steady-state accounting (open-loop metrics; two FMAs per fluid
    // --- advance, no allocation, bit-neutral for plan-driven runs) ---
    /// Σ of the current allocator rates (refreshed by `recompute_rates`).
    rate_sum: f64,
    /// `∫ Σrates · dt` — the utilization numerator.
    busy: TimeWeighted,
    /// `∫ pool size · dt` — the mean-queue-depth numerator.
    queue: TimeWeighted,
    /// Containers that exited so far (open-loop completion counter).
    exits_total: u64,
    /// When the latest container exited (the open-loop drain point).
    last_exit: SimTime,
    /// Open-loop mode: a streamed arrival is still pending, so the run is
    /// not done even while the pool is empty.
    stream_active: bool,
    /// SLO tails, recorded once per exit (open-loop runs only — the flag
    /// keeps the plan-driven headless path bit- and allocation-neutral).
    ///
    /// The sim timestamps admission ([`Daemon::run`] stamps
    /// `created_at`), first allocation and exit.  On a single fluid node,
    /// first allocation *coincides* with admission — `admit_job` runs
    /// `recompute_rates` in the same event, so every pool member holds a
    /// rate immediately — hence the per-job queue-wait is exactly zero
    /// here; queue-wait becomes informative at the cluster sched layer,
    /// where jobs wait for slots.  Same recycling shape as the
    /// [`TimeWeighted`] integrals: plain per-session state, moved out with
    /// the result (no end-of-run clone).
    slo: SojournStats,
    /// Whether exits feed the [`SojournStats`] sketches (open-loop only).
    slo_enabled: bool,
}

impl<R: Recorder> WorkerSim<R> {
    /// Assemble a fully-configured worker (the session builder's output).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        node: NodeConfig,
        plan: WorkloadPlan,
        policy: Box<dyn ResourcePolicy>,
        images: Arc<ImageRegistry>,
        recorder: R,
        mut scratch: WorkerScratch,
        failures: Vec<FailureInjection>,
    ) -> Self {
        let arrivals_pending = plan.len();
        // Jobs on a worker never exceed the plan size, so pre-sizing the
        // scratch buffers makes even the first tick allocation-free.
        scratch.reset_for(plan.len());
        let mut daemon = Daemon::with_shared_images(images);
        // The worker's growth math uses cumulative deltas and its usage
        // traces go through the recorder, so the per-container stats sample
        // window would only burn memory: disable it.
        daemon.set_stats_window(0);
        WorkerSim {
            node,
            plan,
            policy,
            daemon,
            rng: SimRng::new(node.seed),
            last_advance: SimTime::ZERO,
            scratch,
            completion_gen: 0,
            tick_gen: 0,
            arrivals_pending,
            policy_monitor: ContainerMonitor::new(),
            trace_monitor: ContainerMonitor::new(),
            recorder,
            update_calls: 0,
            algorithm_runs: 0,
            waterfill_runs: 0,
            failures,
            rate_sum: 0.0,
            busy: TimeWeighted::new(),
            queue: TimeWeighted::new(),
            exits_total: 0,
            last_exit: SimTime::ZERO,
            stream_active: false,
            slo: SojournStats::new(),
            slo_enabled: false,
        }
    }

    /// Run the plan to completion, handing the hot-path scratch back for
    /// the next session.
    ///
    /// Monomorphized over the [`Tracer`]: with the default
    /// [`NoopTracer`](flowcon_sim::trace::NoopTracer) every
    /// instrumentation site compiles away.
    pub(crate) fn run_session<T: Tracer>(
        mut self,
        tracer: &mut T,
    ) -> (SessionResult<R::Output>, WorkerScratch) {
        let mut engine: SimEngine<WorkerShell<R>> =
            SimEngine::from_queue(std::mem::take(&mut self.scratch.queue));
        for (idx, job) in self.plan.jobs.iter().enumerate() {
            engine.prime(job.arrival, WorkerEvent::Arrival(idx));
        }
        if R::RECORDS_SAMPLES {
            engine.prime(SimTime::ZERO, WorkerEvent::SampleTick);
        }
        if R::RECORDS_GROWTH {
            engine.prime(TRACE_INTERVAL.into_time(), WorkerEvent::TraceTick);
        }
        for (idx, f) in self.failures.iter().enumerate() {
            engine.prime(f.at, WorkerEvent::InjectFailure(idx));
        }
        let mut shell = WorkerShell(self);
        engine.run_to_completion_traced(&mut shell, tracer);
        let worker = shell.0;
        let output = worker.recorder.finish(RunMeta {
            policy: worker.policy.as_ref(),
            algorithm_runs: worker.algorithm_runs,
            update_calls: worker.update_calls,
        });
        let result = SessionResult {
            output,
            events_processed: engine.events_processed(),
            scheduler_overhead_cpu_secs: worker.algorithm_runs as f64
                * worker.node.algo_cost_cpu_secs,
        };
        let mut scratch = worker.scratch;
        scratch.queue = engine.into_queue();
        (result, scratch)
    }

    /// Run **open-loop**: admit jobs pulled from `stream` while `horizon`
    /// allows, then drain, handing the scratch back for the next session.
    ///
    /// The simulation pulls exactly one job ahead of the clock: the
    /// pending arrival is a scheduled [`WorkerEvent::StreamArrival`]; when
    /// it fires the job is admitted mid-run and the next one is pulled.
    /// No plan is ever materialized.  Jobs admitted before the horizon run
    /// to completion; the run ends when the stream is exhausted (or the
    /// horizon trips) and the pool drains.
    pub(crate) fn run_session_stream<J: JobStream, T: Tracer>(
        mut self,
        stream: J,
        horizon: Horizon,
        tracer: &mut T,
    ) -> (StreamResult<R::Output>, WorkerScratch) {
        assert!(
            horizon.is_bounded(),
            "an open-loop run needs a horizon (until and/or max jobs) — \
             an unbounded stream would never terminate"
        );
        assert!(
            self.plan.is_empty(),
            "open-loop sessions take jobs from the stream, not a plan"
        );
        self.slo_enabled = true;
        let mut engine: SimEngine<OpenLoopShell<R, J>> =
            SimEngine::from_queue(std::mem::take(&mut self.scratch.queue));
        if R::RECORDS_SAMPLES {
            engine.prime(SimTime::ZERO, WorkerEvent::SampleTick);
        }
        if R::RECORDS_GROWTH {
            engine.prime(TRACE_INTERVAL.into_time(), WorkerEvent::TraceTick);
        }
        for (idx, f) in self.failures.iter().enumerate() {
            engine.prime(f.at, WorkerEvent::InjectFailure(idx));
        }
        let mut shell = OpenLoopShell {
            worker: self,
            stream,
            horizon,
            pending: None,
            submitted: 0,
        };
        if let Some(at) = shell.pull_next() {
            engine.prime(at, WorkerEvent::StreamArrival);
        }
        engine.run_to_completion_traced(&mut shell, tracer);
        let OpenLoopShell {
            worker, submitted, ..
        } = shell;
        let duration_secs = worker.last_exit.as_secs_f64();
        let stream_stats = StreamStats {
            submitted,
            completed: worker.exits_total,
            duration_secs,
            busy_cpu_secs: worker.busy.area(),
            queue_job_secs: worker.queue.area(),
            capacity_cpu_secs: worker.node.capacity * duration_secs,
        };
        let output = worker.recorder.finish(RunMeta {
            policy: worker.policy.as_ref(),
            algorithm_runs: worker.algorithm_runs,
            update_calls: worker.update_calls,
        });
        let result = StreamResult {
            output,
            events_processed: engine.events_processed(),
            scheduler_overhead_cpu_secs: worker.algorithm_runs as f64
                * worker.node.algo_cost_cpu_secs,
            stream: stream_stats,
            tails: worker.slo,
        };
        let mut scratch = worker.scratch;
        scratch.queue = engine.into_queue();
        (result, scratch)
    }

    /// True once every job has arrived (plan *and* stream) and the pool is
    /// empty.
    fn is_done(&self) -> bool {
        self.arrivals_pending == 0 && !self.stream_active && self.daemon.pool().is_empty()
    }

    /// Integrate the fluid state from `last_advance` to `now`.
    ///
    /// The returned `Vec` is empty (and unallocated) unless containers
    /// actually exited in this step.
    fn advance_to(&mut self, now: SimTime) -> Vec<ContainerId> {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        // Steady-state integrals: rates and pool size are constant between
        // events, so each step contributes one rectangle.
        self.busy.accumulate(self.rate_sum, dt);
        self.queue
            .accumulate(self.scratch.rate_ids.len() as f64, dt);
        if dt <= 0.0 || self.scratch.rate_ids.is_empty() {
            return Vec::new();
        }
        self.daemon.advance(
            now,
            &self.scratch.rate_ids,
            &self.scratch.rate_vals,
            &self.scratch.efficiencies,
            dt,
        )
    }

    /// Recompute allocator rates and contention for the current pool.
    ///
    /// Limits are Docker-style **soft caps** (§4.1): a limit bounds the
    /// share a container may claim while others contend, but capacity that
    /// would otherwise idle (every cap satisfied, capacity left) is
    /// redistributed up to demand — "even if the container cannot maximize
    /// its own resource, the unused option will be utilized by others".
    fn recompute_rates<T: Tracer>(&mut self, tracer: &mut T) {
        self.waterfill_runs += 1;
        if T::ENABLED {
            tracer.counter(
                self.last_advance,
                TraceKind::Waterfill,
                0,
                self.waterfill_runs as f64,
            );
        }
        let scratch = &mut self.scratch;
        self.daemon.alloc_inputs_into(&mut scratch.alloc_inputs);
        scratch.requests.clear();
        scratch
            .requests
            .extend(
                scratch
                    .alloc_inputs
                    .iter()
                    .map(|&(_, limit, demand)| AllocRequest {
                        limit,
                        demand,
                        weight: 1.0,
                    }),
            );
        waterfill_soft_into(&mut scratch.alloc, self.node.capacity, &scratch.requests);
        scratch.rate_ids.clear();
        scratch.rate_vals.clear();
        scratch
            .rate_ids
            .extend(scratch.alloc_inputs.iter().map(|&(id, _, _)| id));
        scratch.rate_vals.extend_from_slice(scratch.alloc.rates());
        // A container is "shaped" when a policy gave it an explicit limit;
        // free competitors (limit 1.0, i.e. NA and fresh jobs) pay the
        // jitter tax on top of the shared contention factor.
        let n = scratch.rate_ids.len();
        scratch.efficiencies.clear();
        scratch
            .efficiencies
            .extend(scratch.alloc_inputs.iter().map(|&(_, limit, _)| {
                let shaped = limit < 0.999;
                self.node.contention.container_efficiency(n, shaped)
            }));
        self.rate_sum = self.scratch.rate_vals.iter().sum();
        self.completion_gen += 1;
    }

    /// Project the earliest completion under current rates.
    fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for ((&id, &rate), &eff) in self
            .scratch
            .rate_ids
            .iter()
            .zip(&self.scratch.rate_vals)
            .zip(&self.scratch.efficiencies)
        {
            let c = self.daemon.pool().get(id)?;
            let remaining = c.workload().remaining_cpu_seconds()?;
            let speed = rate * eff;
            if speed > 1e-12 {
                let eta = remaining / speed;
                best = Some(best.map_or(eta, |b| b.min(eta)));
            }
        }
        best.map(|eta| {
            // One microsecond of margin so the projected event lands strictly
            // after the workload's exact finish (the workload clamps).
            self.last_advance + SimDuration::from_secs_f64(eta) + SimDuration::from_micros(1)
        })
    }

    /// Handle exits: record completions and notify the policy.
    fn process_exits<T: Tracer>(
        &mut self,
        now: SimTime,
        exited: &[ContainerId],
        tracer: &mut T,
    ) -> bool {
        if exited.is_empty() {
            return false;
        }
        self.exits_total += exited.len() as u64;
        self.last_exit = now;
        for &id in exited {
            self.policy_monitor.forget(id);
            self.trace_monitor.forget(id);
            if let Some(c) = self.daemon.graveyard().get(id) {
                let code = match c.state() {
                    flowcon_container::ContainerState::Exited(code) => code,
                    _ => 0,
                };
                if T::ENABLED {
                    tracer.span_end(now, TraceKind::JobRun, id.as_raw(), 0);
                    tracer.instant(now, TraceKind::JobComplete, id.as_raw(), code as u32);
                }
                if self.slo_enabled {
                    // Sojourn = exit − admission.  Queue-wait is zero by
                    // construction on a single fluid node (first allocation
                    // happens in the admission event); see the `slo` field
                    // docs.
                    let sojourn = now.saturating_since(c.created_at()).as_secs_f64();
                    self.slo.record_exit(sojourn, 0.0);
                }
                self.recorder
                    .record_completion(c.workload().label(), c.created_at(), now, code);
            }
        }
        self.daemon.pool().ids_into(&mut self.scratch.pool_ids);
        self.policy.on_pool_change(now, &self.scratch.pool_ids)
    }

    /// Run the policy (Executor tick or listener interrupt), apply updates,
    /// and return the policy's next interval.
    ///
    /// Measurements and the decision's updates both land in reusable
    /// scratch buffers — a steady-state reconfiguration is allocation-free
    /// end to end.
    fn run_reconfigure<T: Tracer>(&mut self, now: SimTime, tracer: &mut T) -> Option<SimDuration> {
        if T::ENABLED {
            tracer.span_begin(
                now,
                TraceKind::Reconfigure,
                self.daemon.pool().len() as u32,
                0,
            );
        }
        self.policy_monitor
            .measure_into(now, &self.daemon, &mut self.scratch.measures);
        // Policies must clear the recycled buffer themselves; this belt-and-
        // suspenders clear keeps a non-conforming external policy from
        // re-applying last tick's limits.
        self.scratch.updates.clear();
        let next_interval =
            self.policy
                .reconfigure_into(now, &self.scratch.measures, &mut self.scratch.updates);
        self.algorithm_runs += 1;
        for &(id, limit) in &self.scratch.updates {
            if self
                .daemon
                .update(id, UpdateOptions::new().cpus(limit))
                .is_ok()
            {
                self.update_calls += 1;
            }
        }
        if T::ENABLED {
            tracer.span_end(
                now,
                TraceKind::Reconfigure,
                self.daemon.pool().len() as u32,
                0,
            );
        }
        next_interval
    }

    /// Reschedule the policy tick after a reconfiguration.
    fn schedule_tick<T: Tracer>(
        &mut self,
        sched: &mut Scheduler<'_, WorkerEvent, T>,
        interval: Option<SimDuration>,
    ) {
        if self.is_done() {
            return;
        }
        if let Some(itval) = interval {
            self.tick_gen += 1;
            sched.after(itval, WorkerEvent::PolicyTick(self.tick_gen));
        }
    }

    /// Schedule the next projected completion check.
    fn schedule_completion<T: Tracer>(&mut self, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        if let Some(at) = self.next_completion() {
            sched.at(at, WorkerEvent::CompletionCheck(self.completion_gen));
        }
    }

    fn record_samples(&mut self, now: SimTime) {
        for (&id, &rate) in self.scratch.rate_ids.iter().zip(&self.scratch.rate_vals) {
            if let Some(c) = self.daemon.pool().get(id) {
                // Borrow the label in place: a steady-state sample tick must
                // not allocate (a recorder clones a label only the first
                // time it sees it).  Ids come in ascending order, which is
                // the order `FullRecorder` created the series in, so its
                // search finds each one at its cursor.
                self.recorder.record_sample(
                    now,
                    c.workload().label(),
                    rate,
                    c.limits().cpu_limit(),
                );
            }
        }
    }

    fn record_growth_traces(&mut self, now: SimTime) {
        self.trace_monitor
            .measure_into(now, &self.daemon, &mut self.scratch.trace_measures);
        for m in &self.scratch.trace_measures {
            let Some(g) = m.growth() else { continue };
            if let Some(c) = self.daemon.pool().get(m.id) {
                self.recorder.record_growth(now, c.workload().label(), g);
            }
        }
    }

    /// Admit one job into the pool at `now` and run the shared arrival
    /// protocol: notify the policy, start (or pre-empt) the executor
    /// chain, recompute rates, and reproject the next completion.
    ///
    /// Shared by plan arrivals ([`WorkerEvent::Arrival`], which moves the
    /// job out of the owned plan) and open-loop streamed arrivals
    /// ([`WorkerEvent::StreamArrival`], admitted mid-run by the
    /// [`OpenLoopShell`]).
    fn admit_job<T: Tracer>(
        &mut self,
        now: SimTime,
        spec: ModelSpec,
        label: String,
        interrupted_by_exit: bool,
        sched: &mut Scheduler<'_, WorkerEvent, T>,
    ) {
        let image = spec.framework.image();
        let job = TrainingJob::with_label(spec, label, &mut self.rng);
        let id = self
            .daemon
            .run(image, job, ResourceLimits::unlimited(), now)
            .expect("default registry contains framework images");
        if T::ENABLED {
            let tracer = sched.tracer();
            tracer.instant(now, TraceKind::JobAdmit, id.as_raw(), 0);
            tracer.span_begin(now, TraceKind::JobRun, id.as_raw(), 0);
        }

        self.daemon.pool().ids_into(&mut self.scratch.pool_ids);
        let interrupt = self.policy.on_pool_change(now, &self.scratch.pool_ids);
        if interrupt || interrupted_by_exit {
            let next = self.run_reconfigure(now, sched.tracer());
            self.schedule_tick(sched, next);
        } else if self.daemon.pool().len() == 1 {
            // First job under a tick-less policy still needs the
            // executor chain started (if the policy has one).
            let initial = self.policy.initial_interval();
            self.schedule_tick(sched, initial);
        }
        self.recompute_rates(sched.tracer());
        self.schedule_completion(sched);
    }

    fn handle<T: Tracer>(&mut self, event: WorkerEvent, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        let now = sched.now();
        match event {
            WorkerEvent::Arrival(idx) => {
                let exited = self.advance_to(now);
                let interrupted_by_exit = self.process_exits(now, &exited, sched.tracer());

                // The plan is owned by the simulation and each job arrives
                // exactly once: move the label out instead of cloning it.
                let request = &mut self.plan.jobs[idx];
                let spec = request.scaled_spec();
                let label = std::mem::take(&mut request.label);
                self.arrivals_pending -= 1;
                self.admit_job(now, spec, label, interrupted_by_exit, sched);
            }
            WorkerEvent::StreamArrival => {
                unreachable!("stream arrivals are dispatched by the open-loop shell")
            }
            WorkerEvent::CompletionCheck(gen) => {
                if gen != self.completion_gen {
                    return; // stale projection
                }
                let exited = self.advance_to(now);
                let interrupt = self.process_exits(now, &exited, sched.tracer());
                if interrupt {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                }
                self.recompute_rates(sched.tracer());
                self.schedule_completion(sched);
            }
            WorkerEvent::PolicyTick(gen) => {
                if gen != self.tick_gen {
                    return; // pre-empted by an interrupt
                }
                let exited = self.advance_to(now);
                let interrupt = self.process_exits(now, &exited, sched.tracer());
                let _ = interrupt; // tick already reconfigures below
                let next = self.run_reconfigure(now, sched.tracer());
                self.schedule_tick(sched, next);
                self.recompute_rates(sched.tracer());
                self.schedule_completion(sched);
            }
            WorkerEvent::SampleTick => {
                let exited = self.advance_to(now);
                let interrupt = self.process_exits(now, &exited, sched.tracer());
                if interrupt {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                    self.recompute_rates(sched.tracer());
                    self.schedule_completion(sched);
                }
                if self.recorder.sample_tick(now) {
                    self.record_samples(now);
                }
                if !self.is_done() {
                    sched.after(self.node.sample_interval, WorkerEvent::SampleTick);
                }
            }
            WorkerEvent::TraceTick => {
                let exited = self.advance_to(now);
                let interrupt = self.process_exits(now, &exited, sched.tracer());
                if interrupt {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                    self.recompute_rates(sched.tracer());
                    self.schedule_completion(sched);
                }
                if self.recorder.growth_tick(now) {
                    self.record_growth_traces(now);
                }
                if !self.is_done() {
                    sched.after(TRACE_INTERVAL, WorkerEvent::TraceTick);
                }
            }
            WorkerEvent::InjectFailure(idx) => {
                let exited = self.advance_to(now);
                let mut interrupt = self.process_exits(now, &exited, sched.tracer());
                let injection = self.failures[idx].clone();
                let target = self
                    .daemon
                    .pool()
                    .iter()
                    .find(|c| c.workload().label() == injection.label)
                    .map(|c| c.id());
                if let Some(id) = target {
                    self.daemon
                        .exec(id, |job| job.inject_failure(injection.exit_code))
                        .expect("target is running");
                    let crashed = self.daemon.reap(now);
                    interrupt |= self.process_exits(now, &crashed, sched.tracer());
                }
                if interrupt {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                }
                self.recompute_rates(sched.tracer());
                self.schedule_completion(sched);
            }
        }
    }
}

/// Newtype so `Simulation` can be implemented without exposing internals.
struct WorkerShell<R: Recorder>(WorkerSim<R>);

impl<R: Recorder> Simulation for WorkerShell<R> {
    type Event = WorkerEvent;
    fn handle<T: Tracer>(&mut self, event: WorkerEvent, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        self.0.handle(event, sched);
    }
}

/// The open-loop driver: a [`WorkerSim`] plus the [`JobStream`] feeding it.
///
/// Owns the one-job lookahead: `pending` is the job whose
/// [`WorkerEvent::StreamArrival`] is currently scheduled.  Every other
/// event is delegated to the worker unchanged, so open-loop and
/// plan-driven runs share the entire simulation body.
struct OpenLoopShell<R: Recorder, J: JobStream> {
    worker: WorkerSim<R>,
    stream: J,
    horizon: Horizon,
    pending: Option<StreamedJob>,
    submitted: u64,
}

impl<R: Recorder, J: JobStream> OpenLoopShell<R, J> {
    /// Pull the next admissible job into `pending` and return its arrival
    /// time, or mark the stream spent (`stream_active = false`) when the
    /// stream ends or the horizon trips.
    ///
    /// One pull per admission: a job the horizon rejects is dropped, not
    /// buffered — the run is over at that point by definition.
    fn pull_next(&mut self) -> Option<SimTime> {
        debug_assert!(self.pending.is_none(), "one lookahead job at a time");
        let admissible = self
            .stream
            .next_job()
            .filter(|job| self.horizon.admits(self.submitted as usize, job.arrival));
        match admissible {
            Some(job) => {
                let at = job.arrival;
                self.pending = Some(job);
                self.worker.stream_active = true;
                Some(at)
            }
            None => {
                self.worker.stream_active = false;
                None
            }
        }
    }
}

impl<R: Recorder, J: JobStream> Simulation for OpenLoopShell<R, J> {
    type Event = WorkerEvent;

    fn handle<T: Tracer>(&mut self, event: WorkerEvent, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        let WorkerEvent::StreamArrival = event else {
            self.worker.handle(event, sched);
            return;
        };
        let now = sched.now();
        let job = self.pending.take().expect("a streamed arrival is pending");
        debug_assert!(job.arrival == now, "stream arrival fired off schedule");
        let exited = self.worker.advance_to(now);
        let interrupted_by_exit = self.worker.process_exits(now, &exited, sched.tracer());
        self.submitted += 1;
        // Schedule the lookahead *before* admitting: admission consults
        // `is_done` (via tick scheduling), which must already know whether
        // more arrivals are coming.
        if let Some(at) = self.pull_next() {
            assert!(
                at >= now,
                "job streams must yield monotone arrivals ({at} after {now})"
            );
            sched.at(at, WorkerEvent::StreamArrival);
        }
        self.worker.admit_job(
            now,
            job.scaled_spec(),
            job.label,
            interrupted_by_exit,
            sched,
        );
    }
}

/// Helper: a `SimDuration` as an absolute time from t=0.
trait IntoTime {
    fn into_time(self) -> SimTime;
}

impl IntoTime for SimDuration {
    fn into_time(self) -> SimTime {
        SimTime::ZERO + self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConConfig;
    use crate::policy::{FairSharePolicy, FlowConPolicy};
    use crate::session::{Session, SessionResult};

    fn node() -> NodeConfig {
        NodeConfig::default()
    }

    fn flowcon(
        node: NodeConfig,
        plan: &WorkloadPlan,
        config: FlowConConfig,
    ) -> SessionResult<RunSummary> {
        Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy(FlowConPolicy::new(config))
            .build()
            .run()
    }

    fn baseline(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<RunSummary> {
        Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy(FairSharePolicy::new())
            .build()
            .run()
    }

    #[test]
    fn single_job_runs_to_completion_under_na() {
        let plan = WorkloadPlan::random_from(&[flowcon_dl::ModelId::MnistTf], 1);
        let result = baseline(node(), &plan);
        assert_eq!(result.output.completions.len(), 1);
        let c = &result.output.completions[0];
        assert_eq!(c.exit_code, 0);
        // Alone at demand 0.75, ~27 cpu-s of work: completion ≈ 36 s (±jitter).
        let secs = c.completion_secs();
        assert!((30.0..45.0).contains(&secs), "completion {secs}");
    }

    #[test]
    fn fixed_three_under_na_matches_paper_scale() {
        let plan = WorkloadPlan::fixed_three();
        let result = baseline(node(), &plan);
        let s = &result.output;
        assert_eq!(s.completions.len(), 3);
        let makespan = s.makespan_secs();
        // §5.3: NA makespan ≈ 394 s.  Allow the fluid model ±10%.
        assert!((354.0..434.0).contains(&makespan), "NA makespan {makespan}");
        let mnist_tf = s.completion_of("MNIST (Tensorflow)").unwrap();
        // §5.3: ≈ 84.7 s under NA.
        assert!((70.0..100.0).contains(&mnist_tf), "MNIST-TF {mnist_tf}");
    }

    #[test]
    fn flowcon_speeds_up_the_late_short_job() {
        let plan = WorkloadPlan::fixed_three();
        let na = baseline(node(), &plan);
        let fc = flowcon(node(), &plan, FlowConConfig::with_params(0.05, 20));
        let red = fc
            .output
            .reduction_vs(&na.output, "MNIST (Tensorflow)")
            .unwrap();
        assert!(
            red > 10.0,
            "expected a double-digit completion-time reduction, got {red:.1}%"
        );
        // Makespan must not regress materially (§5.3: FlowCon improves 1-5%).
        let makespan_impr = fc.output.makespan_improvement_vs(&na.output);
        assert!(makespan_impr > -3.0, "makespan change {makespan_impr:.1}%");
    }

    #[test]
    fn runs_are_deterministic() {
        let plan = WorkloadPlan::random_five(11);
        let a = flowcon(node(), &plan, FlowConConfig::default());
        let b = flowcon(node(), &plan, FlowConConfig::default());
        assert_eq!(a.output.completions, b.output.completions);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn all_jobs_complete_cleanly_at_scale() {
        let plan = WorkloadPlan::random_n(15, 3);
        let result = flowcon(node(), &plan, FlowConConfig::with_params(0.10, 40));
        assert_eq!(result.output.completions.len(), 15);
        assert!(result.output.completions.iter().all(|c| c.exit_code == 0));
    }

    #[test]
    fn traces_are_recorded() {
        let plan = WorkloadPlan::fixed_three();
        let fc = flowcon(node(), &plan, FlowConConfig::default());
        assert_eq!(fc.output.cpu_usage.len(), 3, "one usage series per job");
        assert!(!fc.output.growth_efficiency.is_empty());
        assert!(fc.output.update_calls > 0);
        assert!(fc.output.algorithm_runs > 0);
    }
}
