//! The real-thread runtime.
//!
//! Topology (one box per thread):
//!
//! ```text
//!  +--------------+   completions    +-------------+
//!  | container #1 |----------------->|             |
//!  +--------------+    (channel)     |             |
//!  +--------------+                  | coordinator |  measure/Alg.1/update
//!  | container #2 |----------------->|  (executor  |------------+
//!  +--------------+                  |  +listener) |            |
//!        ^  tokens                   +-------------+            v
//!  +--------------+     shares (atomics)                 rate cells
//!  |   governor   |<---------------------------------------------+
//!  +--------------+
//! ```
//!
//! Containers burn CPU in quanta gated by their token bucket; the governor
//! refills buckets at the water-filled share of node capacity; the
//! coordinator samples evaluation functions, feeds the policy (FlowCon, NA,
//! ...) and applies the returned limits — the exact worker-side loop of the
//! paper, on wall-clock time.
//!
//! # Push-based coordination, no polling
//!
//! Every wait in this runtime is a blocking condvar/channel wait released
//! by a signal, never a sleep-and-recheck loop:
//!
//! * Container threads block in [`TokenBucket::withdraw`]; a deposit wakes
//!   them, and [`TokenBucket::close`] (shutdown or a chaos kill) releases
//!   them with `false` — the thread's single exit path, so it polls no
//!   shutdown flag between quanta.
//! * The governor blocks on a [`ShutdownSignal`] with a timed condvar wait
//!   (the refill period is the one semantically-required timed wait);
//!   triggering shutdown wakes it mid-period.
//! * The coordinator blocks in `recv_timeout` on the completion channel —
//!   completions *push* into it, and the timeout only expresses the next
//!   scheduled obligation (policy tick, arrival, failure injection, chaos
//!   event), never a poll interval.
//!
//! A source-grep unit test in `crates/rt/tests/` enforces that
//! `thread::sleep` stays out of this crate for good.
//!
//! # Virtual time
//!
//! With [`RtConfig::dilation`] = `D`, one wall-clock second represents `D`
//! simulated seconds: completions are recorded at `elapsed × D`, a quantum
//! advances its job by `quantum × D` effective CPU-seconds, and policy
//! intervals (sim-seconds) wait `interval / D` of wall time.  At `D = 1`
//! the runtime is a plain wall-clock executor; at `D = 400` a 600-sim-
//! second FlowCon workload runs in ~1.5 wall seconds with identical token
//! accounting — which is what makes the sim↔rt fidelity harness CI-sized.

use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use flowcon_container::{ContainerId, WorkloadStatus};
use flowcon_core::metric::GrowthMeasurement;
use flowcon_core::monitor::MonitorSlot;
use flowcon_core::policy::ResourcePolicy;
use flowcon_dl::TrainingJob;
use flowcon_metrics::summary::{CompletionRecord, RunSummary};
use flowcon_sim::alloc::NodeShares;
use flowcon_sim::contention::ContentionModel;
use flowcon_sim::time::SimTime;
use flowcon_sim::ResourceVec;

use crate::governor::{lock, AtomicF64, RefillMath, ShutdownSignal, TokenBucket};
use crate::kernel::spin_for;

/// One governor refill target: the bucket, its granted rate, and the
/// fractional-microsecond carry that keeps deposits rate-conserving.
struct GovernorTarget {
    bucket: Arc<TokenBucket>,
    rate: Arc<AtomicF64>,
    math: RefillMath,
}

/// The governor's refill targets, shared coordinator ↔ governor.
type GovernorTargets = Arc<Mutex<Vec<GovernorTarget>>>;

/// Runtime parameters.
#[derive(Debug, Clone, Copy)]
pub struct RtConfig {
    /// Node CPU capacity in cores distributed by the governor.  For
    /// fidelity runs this is set to the sim node's `capacity` so the
    /// water-filled shares match the simulation's.
    pub capacity_cores: f64,
    /// Governor refill period (wall clock).
    pub refill_period: Duration,
    /// Compute quantum per bucket withdrawal (wall clock).
    pub quantum: Duration,
    /// Fallback executor tick when the policy does not set one (wall).
    pub default_tick: Duration,
    /// Simulated seconds per wall-clock second (see the module docs).
    pub dilation: f64,
    /// Bucket burst ceiling in quanta: how much budget a container may
    /// bank while its thread is descheduled.  Oversubscribed CI runners
    /// need headroom here so a briefly-starved thread catches up instead
    /// of dropping tokens at the ceiling — with the default 2 ms quantum
    /// the 64-quanta ceiling covers ~128 ms of OS scheduling delay, well
    /// past a loaded CFS latency target, so total virtual progress is
    /// conserved whenever the host has enough cores on average.
    pub burst_quanta: u32,
    /// Interference model applied to job *progress* (not token accounting),
    /// mirroring the simulated node's contention tax so both backends
    /// implement the same physics.
    pub contention: ContentionModel,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            capacity_cores: 2.0,
            refill_period: Duration::from_millis(5),
            quantum: Duration::from_millis(2),
            default_tick: Duration::from_millis(100),
            dilation: 1.0,
            burst_quanta: 64,
            contention: ContentionModel::default(),
        }
    }
}

/// One job submission for the real-thread runtime.
#[derive(Debug, Clone)]
pub struct RtJob {
    /// The training job (size it small: wall time is real).
    pub job: TrainingJob,
    /// Wall-clock delay after runtime start before the job is submitted.
    pub arrival: Duration,
}

/// A scheduled fault: crash the job with `label` at wall offset `at`.
#[derive(Debug, Clone)]
pub struct RtFailure {
    /// Label of the job to crash.
    pub label: String,
    /// Wall-clock offset from runtime start.
    pub at: Duration,
    /// Exit code the container reports (e.g. 137 for OOM-kill).
    pub exit_code: i32,
}

/// A chaos scenario made physically real: threads actually throttle or die.
#[derive(Debug, Clone, Copy)]
pub enum RtChaos {
    /// Throttle the first-launched container's governor rate by `factor`
    /// for its whole lifetime (a misbehaving cgroup / slow node): the
    /// water-filled share is granted, then starved at the bucket.
    Straggler {
        /// Multiplier on the victim's granted rate, in `(0, 1)`.
        factor: f64,
    },
    /// Kill the oldest live container thread at wall offset `at` (its
    /// bucket closes, the thread exits without reporting) and relaunch it
    /// `down` later on a fresh thread + bucket, resuming the same job
    /// state — a container restart that preserves the checkpoint.
    Churn {
        /// Wall-clock offset of the kill.
        at: Duration,
        /// How long the container stays down before relaunch.
        down: Duration,
    },
}

/// What [`RtRuntime::run_outcome`] reports beyond the summary: thread
/// accounting (every spawn must be matched by a join — leak-asserted in
/// tests), the completion ledger's rejections, and chaos bookkeeping.
#[derive(Debug)]
pub struct RtOutcome {
    /// Completion records and policy accounting, timestamps in virtual
    /// (dilated) seconds.
    pub summary: RunSummary,
    /// OS threads spawned (governor + one per container launch/relaunch).
    pub threads_spawned: u64,
    /// OS threads joined before returning; equals `threads_spawned` on
    /// every path — no leaked thread survives the runtime.
    pub threads_joined: u64,
    /// Completion messages refused by the [`CompletionLedger`]
    /// (duplicate or never-launched ids); always 0 for a healthy runtime.
    pub completions_rejected: u64,
    /// Container threads killed by [`RtChaos::Churn`].
    pub chaos_kills: u64,
    /// Container threads relaunched after a churn kill.
    pub chaos_restarts: u64,
}

/// Why the [`CompletionLedger`] refused a completion message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionError {
    /// The id was never launched by this runtime.
    UnknownContainer,
    /// The id already retired — a duplicate (or replayed) completion.
    Duplicate,
}

/// Tracks which container ids were launched and which have retired, so a
/// duplicate or out-of-thin-air completion message is rejected instead of
/// double-recording a job.
///
/// Pure logic, unit-tested without threads: the runtime feeds it every
/// channel message before trusting one.
#[derive(Debug, Default)]
pub struct CompletionLedger {
    /// `retired[i]` is whether container id `i` has completed.
    retired: Vec<bool>,
}

impl CompletionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CompletionLedger::default()
    }

    /// Register the next container launch, returning its id.
    pub fn launch(&mut self) -> ContainerId {
        let id = ContainerId::from_raw(self.retired.len() as u32);
        self.retired.push(false);
        id
    }

    /// Accept a completion: exactly once per launched id.
    pub fn accept(&mut self, id: ContainerId) -> Result<(), CompletionError> {
        match self.retired.get_mut(id.as_raw() as usize) {
            None => Err(CompletionError::UnknownContainer),
            Some(done) if *done => Err(CompletionError::Duplicate),
            Some(done) => {
                *done = true;
                Ok(())
            }
        }
    }

    /// Launched containers that have not retired yet.
    pub fn outstanding(&self) -> usize {
        self.retired.iter().filter(|&&d| !d).count()
    }
}

struct RtContainer {
    id: ContainerId,
    label: String,
    job: Arc<Mutex<TrainingJob>>,
    bucket: Arc<TokenBucket>,
    /// Virtual CPU-seconds consumed (written by the container thread).
    cpu_used: Arc<AtomicF64>,
    /// Current granted rate in cores (read by the governor).
    rate: Arc<AtomicF64>,
    /// Contention efficiency applied to progress (written at reshare).
    eff: Arc<AtomicF64>,
    /// Policy-assigned limit, 1.0 = unshaped.
    limit: f64,
    demand: f64,
    /// Virtual arrival time.
    arrival_at: SimTime,
    handle: Option<thread::JoinHandle<()>>,
    /// The Container Monitor's state for this container.
    mon: MonitorSlot,
}

/// The runtime: spawn with a policy, feed jobs, collect a [`RunSummary`].
pub struct RtRuntime {
    config: RtConfig,
    policy: Box<dyn ResourcePolicy>,
    failures: Vec<RtFailure>,
    chaos: Option<RtChaos>,
    shares: NodeShares,
    // Recycled reconfiguration buffers.
    measures: Vec<GrowthMeasurement>,
    updates: Vec<(ContainerId, f64)>,
    pool_ids: Vec<ContainerId>,
    // The run's executor interval (wall) and counters.
    tick: Duration,
    algorithm_runs: u64,
    update_calls: u64,
}

impl RtRuntime {
    /// Build a runtime around a policy.
    pub fn new(config: RtConfig, policy: Box<dyn ResourcePolicy>) -> Self {
        RtRuntime {
            config,
            policy,
            failures: Vec::new(),
            chaos: None,
            shares: NodeShares::new(),
            measures: Vec::new(),
            updates: Vec::new(),
            pool_ids: Vec::new(),
            tick: Duration::ZERO,
            algorithm_runs: 0,
            update_calls: 0,
        }
    }

    /// The node capacity the governor distributes (diagnostics).
    pub fn capacity_cores(&self) -> f64 {
        self.config.capacity_cores
    }

    /// Schedule fault injections (see [`RtFailure`]).
    pub fn with_failures(mut self, failures: Vec<RtFailure>) -> Self {
        self.failures = failures;
        self
    }

    /// Attach a chaos scenario (see [`RtChaos`]).
    pub fn with_chaos(mut self, chaos: RtChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Run the jobs to completion and summarize.
    pub fn run(self, jobs: Vec<RtJob>) -> RunSummary {
        self.run_outcome(jobs).summary
    }

    /// Run the jobs to completion with full thread/ledger accounting.
    pub fn run_outcome(mut self, jobs: Vec<RtJob>) -> RtOutcome {
        let mut summary = RunSummary::new(self.policy.name());
        let dilation = self.config.dilation.max(1e-9);
        let start = Instant::now();
        let (done_tx, done_rx) = sync_channel::<ContainerId>(jobs.len().max(1));
        let shutdown = ShutdownSignal::new();
        let mut ledger = CompletionLedger::new();
        let mut threads_spawned = 0u64;
        let mut threads_joined = 0u64;
        let mut completions_rejected = 0u64;
        let mut chaos_kills = 0u64;
        let mut chaos_restarts = 0u64;

        // Pending arrivals, earliest first (pop() takes the earliest).
        let mut pending: Vec<RtJob> = jobs;
        pending.sort_by_key(|j| j.arrival);
        pending.reverse();

        // Pending fault injections, earliest first.
        self.failures.sort_by_key(|f| f.at);
        self.failures.reverse();
        let mut failures = std::mem::take(&mut self.failures);

        // Churn schedule (wall offsets); `downed` holds the killed
        // container between kill and relaunch.
        let mut churn_kill_at: Option<Duration> = match self.chaos {
            Some(RtChaos::Churn { at, .. }) => Some(at),
            _ => None,
        };
        let mut churn_restart_at: Option<Duration> = None;
        let mut downed: Option<RtContainer> = None;

        let mut active: BTreeMap<ContainerId, RtContainer> = BTreeMap::new();

        // Governor thread: even a zero-job run spawns (and must promptly
        // join) it, so the shutdown-latency regression test exercises the
        // real teardown path.
        let governor_targets: GovernorTargets = Arc::new(Mutex::new(Vec::new()));
        let governor = {
            let targets = Arc::clone(&governor_targets);
            let shutdown = Arc::clone(&shutdown);
            let period = self.config.refill_period;
            threads_spawned += 1;
            thread::spawn(move || {
                // Timed condvar wait: one refill period per iteration,
                // released immediately by `shutdown.trigger()`.
                while !shutdown.wait_period(period) {
                    for t in lock(&targets).iter_mut() {
                        let deposit = t.math.deposit_for(t.rate.load(), period);
                        if deposit > 0 {
                            t.bucket.deposit(deposit);
                        }
                    }
                }
            })
        };

        self.tick = self
            .policy
            .initial_interval()
            .map(|d| Duration::from_secs_f64(d.as_secs_f64() / dilation))
            .unwrap_or(self.config.default_tick);
        let mut next_tick = start + self.tick;

        loop {
            // 1. Process every due timed obligation: arrivals, fault
            //    injections, churn kill/restart.
            let now = start.elapsed();
            let mut pool_changed = false;

            while pending.last().is_some_and(|j| j.arrival <= now) {
                let rt_job = pending.pop().expect("just checked");
                let container = self.launch(
                    ledger.launch(),
                    rt_job.job,
                    virtual_now(now, dilation),
                    &done_tx,
                    &governor_targets,
                );
                threads_spawned += 1;
                active.insert(container.id, container);
                pool_changed = true;
            }

            while failures.last().is_some_and(|f| f.at <= now) {
                let f = failures.pop().expect("just checked");
                // Mirror the sim's listener: inject into the labelled job
                // if it is live (active or down-but-resumable), else no-op.
                let target = active
                    .values()
                    .find(|c| c.label == f.label)
                    .or(downed.as_ref().filter(|c| c.label == f.label));
                if let Some(c) = target {
                    lock(&c.job).inject_failure(f.exit_code);
                }
            }

            if churn_kill_at.is_some_and(|at| at <= now) {
                churn_kill_at = None;
                // Victim: the oldest live container. If the pool is empty
                // the kill is a no-op (nothing to churn).
                if let Some((&victim, _)) = active.iter().next() {
                    let mut c = active.remove(&victim).expect("keyed by iter");
                    c.bucket.close();
                    if let Some(h) = c.handle.take() {
                        let _ = h.join();
                        threads_joined += 1;
                    }
                    lock(&governor_targets).retain(|t| !Arc::ptr_eq(&t.bucket, &c.bucket));
                    chaos_kills += 1;
                    // If the job finished on its final quantum the thread
                    // already pushed a completion — keep the container
                    // parked for that message instead of relaunching.
                    let still_running = lock(&c.job).status() == WorkloadStatus::Running;
                    if still_running {
                        if let Some(RtChaos::Churn { down, .. }) = self.chaos {
                            churn_restart_at = Some(now + down);
                        }
                    }
                    downed = Some(c);
                    pool_changed = true;
                }
            }

            if churn_restart_at.is_some_and(|at| at <= now) {
                churn_restart_at = None;
                if let Some(dead) = downed.take() {
                    let revived = self.relaunch(dead, &done_tx, &governor_targets);
                    threads_spawned += 1;
                    chaos_restarts += 1;
                    active.insert(revived.id, revived);
                    pool_changed = true;
                }
            }

            if pool_changed && self.pool_changed(virtual_now(now, dilation), &mut active, dilation)
            {
                next_tick = Instant::now() + self.tick;
            }

            if pending.is_empty() && active.is_empty() && downed.is_none() {
                break;
            }

            // 2. Block for a completion (push) or the next obligation.
            let mut deadline = next_tick;
            if let Some(j) = pending.last() {
                deadline = deadline.min(start + j.arrival);
            }
            if let Some(f) = failures.last() {
                deadline = deadline.min(start + f.at);
            }
            if let Some(at) = churn_kill_at {
                deadline = deadline.min(start + at);
            }
            if let Some(at) = churn_restart_at {
                deadline = deadline.min(start + at);
            }
            let timeout = deadline.saturating_duration_since(Instant::now());
            match done_rx.recv_timeout(timeout) {
                Ok(id) => {
                    if ledger.accept(id).is_err() {
                        completions_rejected += 1;
                        continue;
                    }
                    let now = start.elapsed();
                    let retired = if let Some(c) = active.remove(&id) {
                        Some(c)
                    } else if downed.as_ref().is_some_and(|c| c.id == id) {
                        // The job finished on the quantum racing its kill;
                        // its completion retires the parked container.
                        churn_restart_at = None;
                        downed.take()
                    } else {
                        None
                    };
                    if let Some(mut c) = retired {
                        if let Some(h) = c.handle.take() {
                            let _ = h.join();
                            threads_joined += 1;
                        }
                        let status = lock(&c.job).status();
                        summary.completions.push(CompletionRecord {
                            label: c.label.clone(),
                            arrival: c.arrival_at,
                            finished: virtual_now(now, dilation),
                            exit_code: status.exit_code().unwrap_or(0),
                        });
                        lock(&governor_targets).retain(|t| !Arc::ptr_eq(&t.bucket, &c.bucket));
                    }
                    if self.pool_changed(virtual_now(now, dilation), &mut active, dilation) {
                        next_tick = Instant::now() + self.tick;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= next_tick {
                        let now = start.elapsed();
                        self.reconfigure(virtual_now(now, dilation), &mut active, dilation);
                        self.reshare(&active);
                        next_tick = Instant::now() + self.tick;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        // Teardown: wake the governor mid-period, release any straggling
        // container threads (none on the normal path — the loop only exits
        // when every container retired), and join everything.
        shutdown.trigger();
        for t in lock(&governor_targets).iter() {
            t.bucket.close();
        }
        for (_, mut c) in std::mem::take(&mut active) {
            c.bucket.close();
            if let Some(h) = c.handle.take() {
                let _ = h.join();
                threads_joined += 1;
            }
        }
        if let Some(c) = downed.take() {
            // A parked churn victim's thread was already joined at kill
            // time; nothing left but the bucket.
            c.bucket.close();
            debug_assert!(c.handle.is_none(), "killed threads join at kill time");
        }
        let _ = governor.join();
        threads_joined += 1;

        summary.algorithm_runs = self.algorithm_runs;
        summary.update_calls = self.update_calls;
        debug_assert_eq!(threads_spawned, threads_joined, "thread leak");
        RtOutcome {
            summary,
            threads_spawned,
            threads_joined,
            completions_rejected,
            chaos_kills,
            chaos_restarts,
        }
    }

    /// Spawn one container thread.
    fn launch(
        &self,
        id: ContainerId,
        job: TrainingJob,
        arrival_at: SimTime,
        done_tx: &SyncSender<ContainerId>,
        governor_targets: &GovernorTargets,
    ) -> RtContainer {
        let label = job.label().to_string();
        let demand = job.demand();
        let job = Arc::new(Mutex::new(job));
        let cpu_used = Arc::new(AtomicF64::new(0.0));
        self.spawn_thread(
            id,
            label,
            job,
            cpu_used,
            demand,
            arrival_at,
            done_tx,
            governor_targets,
        )
    }

    /// Relaunch a churn-killed container: fresh thread + bucket, same job.
    fn relaunch(
        &self,
        dead: RtContainer,
        done_tx: &SyncSender<ContainerId>,
        governor_targets: &GovernorTargets,
    ) -> RtContainer {
        let mut revived = self.spawn_thread(
            dead.id,
            dead.label,
            dead.job,
            dead.cpu_used,
            dead.demand,
            dead.arrival_at,
            done_tx,
            governor_targets,
        );
        // The monitor baseline survives the restart (the job state did).
        revived.limit = dead.limit;
        revived.mon = dead.mon;
        revived
    }

    /// The shared spawn path for launch and relaunch.
    #[allow(clippy::too_many_arguments)]
    fn spawn_thread(
        &self,
        id: ContainerId,
        label: String,
        job: Arc<Mutex<TrainingJob>>,
        cpu_used: Arc<AtomicF64>,
        demand: f64,
        arrival_at: SimTime,
        done_tx: &SyncSender<ContainerId>,
        governor_targets: &GovernorTargets,
    ) -> RtContainer {
        let quantum = self.config.quantum;
        let quantum_us = (quantum.as_micros() as u64).max(1);
        let burst_us = quantum_us.saturating_mul(self.config.burst_quanta.max(1) as u64);
        let bucket = TokenBucket::new(burst_us.max(1_000));
        let rate = Arc::new(AtomicF64::new(0.0));
        let eff = Arc::new(AtomicF64::new(1.0));
        lock(governor_targets).push(GovernorTarget {
            bucket: Arc::clone(&bucket),
            rate: Arc::clone(&rate),
            math: RefillMath::new(),
        });

        let handle = {
            let bucket = Arc::clone(&bucket);
            let job = Arc::clone(&job);
            let cpu_used = Arc::clone(&cpu_used);
            let eff = Arc::clone(&eff);
            let done_tx = done_tx.clone();
            let dilation = self.config.dilation.max(1e-9);
            thread::spawn(move || {
                // Pure push loop: block on the bucket, burn, advance.  The
                // only exit signals are a closed bucket (shutdown/kill) and
                // the job leaving the Running state.
                loop {
                    if !bucket.withdraw(quantum_us) {
                        return;
                    }
                    spin_for(quantum);
                    let finished = {
                        let mut j = lock(&job);
                        let virtual_cpu = quantum.as_secs_f64() * dilation;
                        // Tokens meter *allocated* CPU; contention taxes
                        // the useful progress extracted from it, exactly
                        // as the fluid node does.
                        j.advance(virtual_cpu * eff.load());
                        cpu_used.fetch_add(virtual_cpu);
                        j.status() != WorkloadStatus::Running
                    };
                    if finished {
                        let _ = done_tx.send(id);
                        return;
                    }
                }
            })
        };

        RtContainer {
            id,
            label,
            job,
            bucket,
            cpu_used,
            rate,
            eff,
            limit: 1.0,
            demand,
            arrival_at,
            handle: Some(handle),
            mon: MonitorSlot::UNTRACKED,
        }
    }

    /// The pool changed: tell the policy (the live ids go through the
    /// recycled `pool_ids`), reconfigure if it interrupts, and reshare.
    /// Returns whether it reconfigured, which restarts the tick.
    fn pool_changed(
        &mut self,
        now: SimTime,
        active: &mut BTreeMap<ContainerId, RtContainer>,
        dilation: f64,
    ) -> bool {
        self.pool_ids.clear();
        self.pool_ids.extend(active.keys().copied());
        let interrupt = self.policy.on_pool_change(now, &self.pool_ids);
        if interrupt {
            self.reconfigure(now, active, dilation);
        }
        self.reshare(active);
        interrupt
    }

    /// Measure through each container's Container Monitor slot, run the
    /// policy and apply its limits (the Executor's job).  All timestamps
    /// and rates are in virtual (dilated) units, so the policy sees the
    /// same scales as in the simulation.
    fn reconfigure(
        &mut self,
        now: SimTime,
        active: &mut BTreeMap<ContainerId, RtContainer>,
        dilation: f64,
    ) {
        self.measures.clear();
        for c in active.values_mut() {
            let eval_now = lock(&c.job).eval();
            self.measures.push(c.mon.measure(
                c.id,
                now,
                eval_now,
                ResourceVec::cpu(c.cpu_used.load()),
                c.limit,
            ));
        }
        let next_interval = self
            .policy
            .reconfigure_into(now, &self.measures, &mut self.updates);
        self.algorithm_runs += 1;
        for &(id, limit) in &self.updates {
            if let Some(c) = active.get_mut(&id) {
                c.limit = limit;
                self.update_calls += 1;
            }
        }
        if let Some(next) = next_interval {
            self.tick = Duration::from_secs_f64(next.as_secs_f64() / dilation);
        }
    }

    /// Recompute governor rates and contention efficiencies from the
    /// current limits/demands through the **same** node-share rule the
    /// simulated nodes use ([`NodeShares`]), so the two backends share one
    /// allocator; a straggler chaos then throttles its victim's rate.
    fn reshare(&mut self, active: &BTreeMap<ContainerId, RtContainer>) {
        if active.is_empty() {
            return;
        }
        self.shares.recompute(
            self.config.capacity_cores,
            &self.config.contention,
            active.values().map(|c| (c.limit, c.demand)),
        );
        let straggler = match self.chaos {
            Some(RtChaos::Straggler { factor }) => Some(factor.clamp(1e-3, 1.0)),
            _ => None,
        };
        let shares = self.shares.rates().iter().zip(self.shares.efficiencies());
        for (c, (&share, &eff)) in active.values().zip(shares) {
            let mut granted = share;
            if let Some(factor) = straggler {
                // Victim: the first-launched container, for determinism.
                if c.id == ContainerId::from_raw(0) {
                    granted *= factor;
                }
            }
            c.rate.store(granted);
            c.eff.store(eff);
        }
    }
}

/// Wall-clock elapsed time as a (dilated) simulation timestamp.
fn virtual_now(elapsed: Duration, dilation: f64) -> SimTime {
    SimTime::from_secs_f64(elapsed.as_secs_f64() * dilation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_core::config::FlowConConfig;
    use flowcon_core::policy::{FairSharePolicy, FlowConPolicy};
    use flowcon_dl::models::{ModelId, ModelSpec};
    use flowcon_sim::rng::SimRng;
    use flowcon_sim::time::SimDuration;

    /// A small job: `work` CPU-seconds of a GRU-shaped model.
    fn small_job(label: &str, work: f64, demand: f64, seed: u64) -> TrainingJob {
        let mut spec = ModelSpec::of(ModelId::Gru);
        spec.total_work = work;
        spec.demand = demand;
        let mut rng = SimRng::new(seed);
        TrainingJob::with_label(spec, label, &mut rng)
    }

    #[test]
    fn jobs_complete_under_baseline() {
        let runtime = RtRuntime::new(RtConfig::default(), Box::new(FairSharePolicy::new()));
        let jobs = vec![
            RtJob {
                job: small_job("rt-a", 0.15, 1.0, 1),
                arrival: Duration::ZERO,
            },
            RtJob {
                job: small_job("rt-b", 0.15, 1.0, 2),
                arrival: Duration::from_millis(30),
            },
        ];
        let summary = runtime.run(jobs);
        assert_eq!(summary.completions.len(), 2);
        assert!(summary.completions.iter().all(|c| c.exit_code == 0));
        let makespan = summary.makespan_secs();
        // 0.3 cpu-s over 2 cores: finishes well under 5 wall seconds.
        assert!(makespan < 5.0, "makespan {makespan}s");
    }

    #[test]
    fn flowcon_policy_reconfigures_real_threads() {
        let config = FlowConConfig {
            initial_interval: SimDuration::from_millis(100),
            ..FlowConConfig::default()
        };
        let runtime = RtRuntime::new(RtConfig::default(), Box::new(FlowConPolicy::new(config)));
        let jobs = vec![
            RtJob {
                job: small_job("rt-long", 0.6, 1.0, 3),
                arrival: Duration::ZERO,
            },
            RtJob {
                job: small_job("rt-late", 0.2, 1.0, 4),
                arrival: Duration::from_millis(250),
            },
        ];
        let summary = runtime.run(jobs);
        assert_eq!(summary.completions.len(), 2);
        assert!(
            summary.algorithm_runs > 0,
            "the executor must have run Algorithm 1"
        );
    }

    #[test]
    fn empty_run_spawns_and_joins_the_governor() {
        let runtime = RtRuntime::new(RtConfig::default(), Box::new(FairSharePolicy::new()));
        let outcome = runtime.run_outcome(vec![]);
        assert!(outcome.summary.completions.is_empty());
        assert_eq!(outcome.threads_spawned, 1, "governor only");
        assert_eq!(outcome.threads_joined, 1);
        assert_eq!(outcome.completions_rejected, 0);
    }

    #[test]
    fn ledger_rejects_duplicates_and_unknown_ids() {
        let mut ledger = CompletionLedger::new();
        let a = ledger.launch();
        let b = ledger.launch();
        assert_eq!(ledger.outstanding(), 2);
        assert_eq!(ledger.accept(a), Ok(()));
        assert_eq!(
            ledger.accept(a),
            Err(CompletionError::Duplicate),
            "a container completes exactly once"
        );
        assert_eq!(
            ledger.accept(ContainerId::from_raw(99)),
            Err(CompletionError::UnknownContainer),
            "never-launched ids are rejected"
        );
        assert_eq!(ledger.accept(b), Ok(()));
        assert_eq!(ledger.outstanding(), 0);
    }

    #[test]
    fn dilated_run_reports_virtual_completions() {
        // 0.08 virtual CPU-seconds at dilation 10: the wall run burns
        // ~8 ms of spin but the record must be stamped in virtual time.
        let config = RtConfig {
            capacity_cores: 1.0,
            dilation: 10.0,
            contention: ContentionModel::ideal(),
            ..RtConfig::default()
        };
        let runtime = RtRuntime::new(config, Box::new(FairSharePolicy::new()));
        let summary = runtime.run(vec![RtJob {
            job: small_job("rt-dilated", 0.08, 1.0, 5),
            arrival: Duration::ZERO,
        }]);
        assert_eq!(summary.completions.len(), 1);
        let c = &summary.completions[0];
        // Virtual sojourn ≈ work / rate = 0.08 s; wall overheads dilate
        // through, so allow a generous upper bound (ratio, not ms).
        assert!(c.completion_secs() > 0.0);
        assert!(
            c.completion_secs() < 5.0,
            "virtual sojourn {}s should be well under 5 virtual seconds",
            c.completion_secs()
        );
    }

    #[test]
    fn failure_injection_crashes_the_labelled_job() {
        let runtime = RtRuntime::new(RtConfig::default(), Box::new(FairSharePolicy::new()))
            .with_failures(vec![RtFailure {
                label: "rt-doomed".into(),
                at: Duration::from_millis(20),
                exit_code: 137,
            }]);
        let summary = runtime.run(vec![
            RtJob {
                job: small_job("rt-doomed", 5.0, 1.0, 6),
                arrival: Duration::ZERO,
            },
            RtJob {
                job: small_job("rt-clean", 0.1, 1.0, 7),
                arrival: Duration::ZERO,
            },
        ]);
        assert_eq!(summary.completions.len(), 2);
        let doomed = summary
            .completions
            .iter()
            .find(|c| c.label == "rt-doomed")
            .unwrap();
        assert_eq!(doomed.exit_code, 137);
        let clean = summary
            .completions
            .iter()
            .find(|c| c.label == "rt-clean")
            .unwrap();
        assert_eq!(clean.exit_code, 0);
    }
}
