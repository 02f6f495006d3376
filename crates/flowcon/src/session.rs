//! The one entry point: a fluent, recorder-generic worker session.
//!
//! A [`Session`] configures one worker — node, workload, policy, failure
//! injections — and a recorder that decides what the run keeps, from a
//! full [`RunSummary`] down to completions only:
//!
//! ```
//! use flowcon_core::config::{FlowConConfig, NodeConfig};
//! use flowcon_core::policy::FlowConPolicy;
//! use flowcon_core::recorder::CompletionsOnly;
//! use flowcon_core::session::Session;
//! use flowcon_dl::workload::WorkloadPlan;
//!
//! // Full observability (the default recorder):
//! let result = Session::builder()
//!     .node(NodeConfig::default())
//!     .plan(WorkloadPlan::fixed_three())
//!     .policy(FlowConPolicy::new(FlowConConfig::default()))
//!     .build()
//!     .run();
//! assert_eq!(result.output.completions.len(), 3);
//!
//! // Headless: completions and makespan only.
//! let stats = Session::builder()
//!     .plan(WorkloadPlan::fixed_three())
//!     .recorder(CompletionsOnly::new())
//!     .build()
//!     .run();
//! assert_eq!(stats.output.len(), 3);
//! ```
//!
//! Every session runs on the one worker simulation, [`crate::dense`].
//! The cluster layer builds one session per worker on the sharded
//! executor, threading a recycled [`DenseScratch`] through all of them.
//! [`SessionBuilder::plan`] accepts anything convertible into a
//! `WorkloadPlan`, including the `flowcon-workload` trace and
//! synthetic-arrival sources.
//!
//! # Open-loop sessions
//!
//! A plan is a *closed* workload: the job set is fixed before the run.
//! [`Session::run_stream`] instead drives the same worker **open-loop**
//! from a pull-based [`JobStream`] — jobs are admitted mid-run while the
//! policy reconfigures, admission stops at a [`Horizon`] (`--until` sim
//! time and/or `--jobs` count), and the run drains.  The result carries
//! steady-state [`StreamStats`] (arrival vs. completion rate, mean queue
//! depth, utilization) beside the recorder output:
//!
//! ```
//! use flowcon_core::recorder::CompletionsOnly;
//! use flowcon_core::session::Session;
//! use flowcon_workload::stream::{Horizon, StreamSource};
//! use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
//!
//! let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.05), 7).unlabeled();
//! let result = Session::builder()
//!     .recorder(CompletionsOnly::new())
//!     .build()
//!     .run_stream(source.stream_for(0), Horizon::jobs(4));
//! assert_eq!(result.stream.submitted, 4);
//! assert_eq!(result.output.len(), 4, "admitted jobs drain to completion");
//! assert!(result.stream.utilization() > 0.0);
//! ```
//!
//! See the `flowcon_workload::stream` module docs for the full open-loop
//! specification.
//!
//! [`RunSummary`]: flowcon_metrics::summary::RunSummary
//! [`FullRecorder`]: crate::recorder::FullRecorder
//! [`CompletionsOnly`]: crate::recorder::CompletionsOnly

use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::sojourn::SojournStats;
use flowcon_metrics::stream::StreamStats;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::{NoopTracer, Tracer};
use flowcon_workload::stream::{Horizon, JobStream};

use crate::config::NodeConfig;
use crate::dense::{self, DenseScratch, Worker};
use crate::policy::{FairSharePolicy, ResourcePolicy};
use crate::recorder::{FullRecorder, Recorder};
use crate::worker::FailureInjection;

/// The outcome of a [`Session`] run.
#[derive(Debug, Clone)]
pub struct SessionResult<T> {
    /// Whatever the session's [`Recorder`] produced: a
    /// [`RunSummary`](flowcon_metrics::summary::RunSummary) for
    /// [`FullRecorder`], label-free
    /// [`CompletionStats`](flowcon_metrics::summary::CompletionStats) for
    /// [`CompletionsOnly`](crate::recorder::CompletionsOnly).
    pub output: T,
    /// Simulated events processed (performance accounting): the events
    /// dispatched plus the stamps superseded before their time, a
    /// re-armed policy tick or a reprojected completion.
    pub events_processed: u64,
    /// Estimated scheduler overhead in CPU-seconds
    /// (`algorithm_runs × NodeConfig::algo_cost_cpu_secs`).
    pub scheduler_overhead_cpu_secs: f64,
}

/// The outcome of an open-loop [`Session::run_stream`] run: the recorder's
/// output plus the steady-state [`StreamStats`] the run accumulated.
#[derive(Debug, Clone)]
pub struct StreamResult<T> {
    /// Whatever the session's [`Recorder`] produced (see
    /// [`SessionResult::output`]).
    pub output: T,
    /// Simulated events processed (performance accounting): the events
    /// dispatched plus the stamps superseded before their time, a
    /// re-armed policy tick or a reprojected completion.
    pub events_processed: u64,
    /// Estimated scheduler overhead in CPU-seconds
    /// (`algorithm_runs × NodeConfig::algo_cost_cpu_secs`).
    pub scheduler_overhead_cpu_secs: f64,
    /// Steady-state accounting: arrival/completion rates, time-weighted
    /// mean queue depth, utilization.
    pub stream: StreamStats,
    /// SLO tails: per-job sojourn time (and queue-wait) quantile sketches,
    /// recorded at exit.  Mergeable across workers in deterministic order
    /// — the sketch-backed tail view beside the mean-based
    /// [`StreamStats`].
    pub tails: SojournStats,
}

/// The backend-generic core of a configured session: everything that
/// defines the *workload and policy*, none of what is specific to the
/// fluid simulation (recorder, scratch).
///
/// [`SessionBuilder::into_spec`] extracts one from the ordinary builder,
/// so a second backend — the real-thread runtime in `flowcon-rt` — can be
/// configured through the exact same fluent surface and then execute the
/// identical `(node, plan, policy, failures)` quadruple on OS threads.
/// The differential fidelity harness builds one spec per backend from the
/// same inputs and diffs the completion records.
pub struct SessionSpec {
    /// Node parameters (capacity, contention, seed) both backends honour.
    pub node: NodeConfig,
    /// The workload plan (arrival-ordered, label-stable).
    pub plan: WorkloadPlan,
    /// The resource policy, already boxed.
    pub policy: Box<dyn ResourcePolicy>,
    /// Scheduled fault injections.
    pub failures: Vec<FailureInjection>,
}

/// Fluent configuration for one worker session.
///
/// Defaults: [`NodeConfig::default`], an empty plan, the NA baseline
/// policy ([`FairSharePolicy`]), a [`FullRecorder`], fresh scratch, and no
/// failure injections.
pub struct SessionBuilder<R: Recorder = FullRecorder> {
    node: NodeConfig,
    plan: WorkloadPlan,
    policy: Box<dyn ResourcePolicy>,
    recorder: R,
    scratch: DenseScratch,
    failures: Vec<FailureInjection>,
}

impl Default for SessionBuilder<FullRecorder> {
    fn default() -> Self {
        SessionBuilder {
            node: NodeConfig::default(),
            plan: WorkloadPlan::new(Vec::new()),
            policy: Box::new(FairSharePolicy::new()),
            recorder: FullRecorder::new(),
            scratch: DenseScratch::new(),
            failures: Vec::new(),
        }
    }
}

impl<R: Recorder> SessionBuilder<R> {
    /// The simulated node (capacity, contention model, seed).
    pub fn node(mut self, node: NodeConfig) -> Self {
        self.node = node;
        self
    }

    /// The workload plan to execute.
    ///
    /// Accepts anything convertible into a [`WorkloadPlan`] — a plan
    /// itself, or the `flowcon-workload` sources (a catalog-bound arrival
    /// trace, a synthetic arrival process, ...).
    pub fn plan(mut self, plan: impl Into<WorkloadPlan>) -> Self {
        self.plan = plan.into();
        self
    }

    /// The resource policy driving reconfiguration (defaults to the NA
    /// baseline).
    pub fn policy(self, policy: impl ResourcePolicy + 'static) -> Self {
        self.policy_box(Box::new(policy))
    }

    /// Like [`SessionBuilder::policy`] for an already-boxed policy (what
    /// the cluster layer's `PolicyKind::build` produces).
    pub fn policy_box(mut self, policy: Box<dyn ResourcePolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Choose what the session records; see [`crate::recorder`].
    pub fn recorder<R2: Recorder>(self, recorder: R2) -> SessionBuilder<R2> {
        SessionBuilder {
            node: self.node,
            plan: self.plan,
            policy: self.policy,
            recorder,
            scratch: self.scratch,
            failures: self.failures,
        }
    }

    /// Reuse the arenas and hot-path buffers recycled from a previous
    /// session ([`Session::run_recycling`]) or a headless dense run.
    pub fn scratch(mut self, scratch: DenseScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Schedule a fault: the job with `label` crashes at `at` with
    /// `exit_code` (the Finished-Cons listener must release its resources
    /// exactly as for a clean exit).
    pub fn failure(mut self, label: impl Into<String>, at: SimTime, exit_code: i32) -> Self {
        self.failures.push(FailureInjection {
            label: label.into(),
            at,
            exit_code,
        });
        self
    }

    /// Extract the backend-generic [`SessionSpec`] instead of building the
    /// fluid-simulation session — the handoff point to other backends
    /// (e.g. the `flowcon-rt` wall-clock runtime).  Recorder and scratch
    /// are simulation-only and are dropped.
    pub fn into_spec(self) -> SessionSpec {
        SessionSpec {
            node: self.node,
            plan: self.plan,
            policy: self.policy,
            failures: self.failures,
        }
    }

    /// Assemble the session.
    pub fn build(self) -> Session<R> {
        Session { config: self }
    }
}

/// A fully-configured worker session, ready to run.
pub struct Session<R: Recorder = FullRecorder> {
    config: SessionBuilder<R>,
}

impl Session<FullRecorder> {
    /// Start configuring a session (defaults: NA policy, empty plan,
    /// [`FullRecorder`]).
    pub fn builder() -> SessionBuilder<FullRecorder> {
        SessionBuilder::default()
    }
}

impl<R: Recorder> Session<R> {
    /// Run the plan to completion.
    pub fn run(self) -> SessionResult<R::Output> {
        self.run_recycling().0
    }

    /// Run the plan to completion, handing the scratch back so the caller
    /// can thread it into the next session's [`SessionBuilder::scratch`].
    pub fn run_recycling(self) -> (SessionResult<R::Output>, DenseScratch) {
        self.run_plan(&mut NoopTracer)
    }

    /// Run the plan to completion, recording engine, job, and policy
    /// events into `tracer`.
    ///
    /// The tracer sees the full structured event stream: engine
    /// advance/dispatch, job admit/run/complete, policy reconfigure
    /// spans, and cumulative water-filling counters, all stamped with
    /// sim-time (never wall clocks), so a trace is a deterministic
    /// function of the session configuration and seed.
    pub fn run_traced<T: Tracer>(self, tracer: &mut T) -> SessionResult<R::Output> {
        self.run_plan(tracer).0
    }

    /// Run **open-loop**: admit jobs pulled from `stream` while `horizon`
    /// allows, then drain.
    ///
    /// Instead of executing a pre-built plan, the simulation pulls one job
    /// ahead from the [`JobStream`] and admits each arrival *mid-run*,
    /// while the policy keeps reconfiguring — the paper's elastic scheme
    /// under sustained load.  The session must have been built without a
    /// plan (jobs come exclusively from the stream); any configured
    /// recorder works unchanged.  Returns the recorder output plus
    /// steady-state [`StreamStats`] (arrival vs. completion rate, mean
    /// queue depth, utilization).
    ///
    /// `horizon` needs at least one bound ([`Horizon::until`] /
    /// [`Horizon::jobs`]); jobs admitted before it always run to
    /// completion.
    pub fn run_stream<J: JobStream>(self, stream: J, horizon: Horizon) -> StreamResult<R::Output> {
        self.run_stream_recycling(stream, horizon).0
    }

    /// [`Session::run_stream`], handing the scratch back for the next
    /// session (the sharded open-loop cluster path in recorded mode;
    /// headless clusters call [`crate::dense::run_stream_dense`] directly).
    pub fn run_stream_recycling<J: JobStream>(
        self,
        stream: J,
        horizon: Horizon,
    ) -> (StreamResult<R::Output>, DenseScratch) {
        self.run_open_loop(stream, horizon, &mut NoopTracer)
    }

    /// [`Session::run_stream`] with structured tracing (see
    /// [`Session::run_traced`]).
    pub fn run_stream_traced<J: JobStream, T: Tracer>(
        self,
        stream: J,
        horizon: Horizon,
        tracer: &mut T,
    ) -> StreamResult<R::Output> {
        self.run_open_loop(stream, horizon, tracer).0
    }

    fn run_plan<T: Tracer>(self, tracer: &mut T) -> (SessionResult<R::Output>, DenseScratch) {
        let SessionBuilder {
            node,
            plan,
            policy,
            recorder,
            mut scratch,
            failures,
        } = self.config;
        let worker = Worker {
            node,
            policy,
            recorder,
            failures: &failures,
        };
        let result = dense::run_plan(worker, plan, tracer, &mut scratch);
        (result, scratch)
    }

    fn run_open_loop<J: JobStream, T: Tracer>(
        self,
        stream: J,
        horizon: Horizon,
        tracer: &mut T,
    ) -> (StreamResult<R::Output>, DenseScratch) {
        let SessionBuilder {
            node,
            plan,
            policy,
            recorder,
            mut scratch,
            failures,
        } = self.config;
        assert!(
            plan.is_empty(),
            "open-loop sessions take jobs from the stream, not a plan"
        );
        let worker = Worker {
            node,
            policy,
            recorder,
            failures: &failures,
        };
        let result = dense::run_stream(worker, stream, horizon, tracer, &mut scratch);
        (result, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConConfig;
    use crate::policy::FlowConPolicy;
    use crate::recorder::CompletionsOnly;

    #[test]
    fn default_session_is_an_empty_na_run() {
        let result = Session::builder().build().run();
        assert!(result.output.completions.is_empty());
        assert_eq!(result.output.policy, "NA");
        // Exactly the t=0 sample tick and the t=20 trace tick fire.
        assert_eq!(result.events_processed, 2);
    }

    #[test]
    fn builder_wires_every_knob() {
        let result = Session::builder()
            .node(NodeConfig::default().with_seed(7))
            .plan(WorkloadPlan::fixed_three())
            .policy(FlowConPolicy::new(FlowConConfig::with_params(0.05, 20)))
            .failure("VAE (Pytorch)", SimTime::from_secs(100), 137)
            .build()
            .run();
        assert_eq!(result.output.policy, "FlowCon-5%-20");
        assert_eq!(result.output.completions.len(), 3);
        let vae = result
            .output
            .completions
            .iter()
            .find(|c| c.label == "VAE (Pytorch)")
            .unwrap();
        assert_eq!(vae.exit_code, 137, "injected failure");
    }

    #[test]
    fn headless_session_returns_label_free_stats() {
        let full = Session::builder()
            .plan(WorkloadPlan::fixed_three())
            .build()
            .run();
        let headless = Session::builder()
            .plan(WorkloadPlan::fixed_three())
            .recorder(CompletionsOnly::new())
            .build()
            .run();
        assert_eq!(headless.output.len(), 3);
        // Headless schedules no sample/trace events: strictly fewer events.
        assert!(headless.events_processed < full.events_processed);
        // Same physics: makespan agrees to the engine's 1 µs margin.
        let diff = (headless.output.makespan_secs() - full.output.makespan_secs()).abs();
        assert!(diff < 1e-3, "makespan diverged by {diff}s");
    }

    #[test]
    fn open_loop_session_admits_until_the_jobs_horizon_and_drains() {
        use flowcon_workload::stream::StreamSource;
        use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.05), 42);
        let result = Session::builder()
            .policy(FlowConPolicy::new(FlowConConfig::default()))
            .build()
            .run_stream(source.stream_for(0), Horizon::jobs(6));
        assert_eq!(result.stream.submitted, 6);
        assert_eq!(result.stream.completed, 6, "admitted jobs drain");
        assert_eq!(result.output.completions.len(), 6);
        // Completions are in exit order; every admitted job is among them.
        let mut labels: Vec<&str> = result
            .output
            .completions
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        labels.sort();
        assert_eq!(
            labels,
            ["Job-1", "Job-2", "Job-3", "Job-4", "Job-5", "Job-6"]
        );
        let s = result.stream;
        assert!(s.duration_secs > 0.0);
        assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
        assert!(s.mean_queue_depth() > 0.0);
        assert!(s.completion_rate() <= s.arrival_rate() + 1e-12);
    }

    #[test]
    fn open_loop_until_horizon_stops_admission_not_running_jobs() {
        use flowcon_workload::stream::StreamSource;
        use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.1), 9);
        let until = SimTime::from_secs(120);
        let result = Session::builder()
            .build()
            .run_stream(source.stream_for(0), Horizon::until(until));
        assert!(result.stream.submitted > 0);
        assert_eq!(result.stream.completed, result.stream.submitted);
        for c in &result.output.completions {
            assert!(c.arrival <= until, "no admissions past the horizon");
        }
        // The drain runs past the horizon: jobs admitted late still finish.
        assert!(result.stream.duration_secs >= until.as_secs_f64());
    }

    #[test]
    fn open_loop_runs_are_seed_deterministic() {
        use flowcon_workload::stream::StreamSource;
        use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
        let run = || {
            let source =
                SyntheticStreamSource::new(ArrivalProcess::bursty(0.5, 0.0, 20.0, 40.0), 3);
            Session::builder()
                .policy(FlowConPolicy::new(FlowConConfig::default()))
                .build()
                .run_stream(source.stream_for(0), Horizon::jobs(8))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.output.completions, b.output.completions);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.stream, b.stream);
    }

    #[test]
    #[should_panic(expected = "needs a horizon")]
    fn unbounded_open_loop_runs_are_rejected() {
        use flowcon_workload::stream::StreamSource;
        use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.1), 1);
        let _ = Session::builder().build().run_stream(
            source.stream_for(0),
            Horizon {
                until: None,
                max_jobs: None,
            },
        );
    }

    #[test]
    fn scratch_recycling_is_bit_identical() {
        let plan = WorkloadPlan::random_five(3);
        let build = |scratch: DenseScratch| {
            Session::builder()
                .plan(plan.clone())
                .policy(FlowConPolicy::new(FlowConConfig::default()))
                .scratch(scratch)
                .build()
        };
        let (first, scratch) = build(DenseScratch::new()).run_recycling();
        let (second, _) = build(scratch).run_recycling();
        assert_eq!(first.output.completions, second.output.completions);
        assert_eq!(first.events_processed, second.events_processed);
    }

    #[test]
    #[should_panic(expected = "NodeConfig::sample_interval must be > 0")]
    fn zero_sample_interval_is_rejected() {
        let node = NodeConfig {
            sample_interval: flowcon_sim::time::SimDuration::ZERO,
            ..NodeConfig::default()
        };
        let _ = Session::builder()
            .node(node)
            .plan(WorkloadPlan::fixed_three())
            .policy(FlowConPolicy::new(FlowConConfig::default()))
            .build()
            .run();
    }

    #[test]
    #[should_panic(expected = "NodeConfig::capacity must be finite and > 0")]
    fn zero_capacity_is_rejected() {
        let node = NodeConfig {
            capacity: 0.0,
            ..NodeConfig::default()
        };
        let _ = Session::builder()
            .node(node)
            .plan(WorkloadPlan::fixed_three())
            .policy(FlowConPolicy::new(FlowConConfig::default()))
            .build()
            .run();
    }
}
