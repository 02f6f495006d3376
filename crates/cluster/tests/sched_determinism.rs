//! Determinism and edge cases of the online cluster scheduler.  The same
//! seed and trace give a bit-identical decision log, completion list and
//! traced timeline across repeated runs, for every built-in discipline,
//! with golden digests pinning each discipline's schedule and timeline
//! against drift; every trace event is recorded on the thread that runs
//! the session.  Plus the preemption corners a discipline can reach:
//! preempting at the very first barrier, migrating a job to the node it
//! already occupies, and scheduling rounds with an empty admission queue.
//! A discipline that never places a queued job ends the run with a panic
//! rather than looping forever.

use flowcon_cluster::{
    ClusterPolicy, ClusterSession, ClusterSessionBuilder, ClusterView, PolicyKind, Sched,
    SchedAction, SchedOutcome, SchedPolicyKind,
};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::{FlightRecorder, TraceEvent, TraceKind, Tracer};
use std::thread::ThreadId;

fn base(workers: usize) -> ClusterSessionBuilder<'static, Sched> {
    ClusterSession::builder()
        .nodes(workers, NodeConfig::default().with_seed(0xF10C))
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .scheduler(SchedPolicyKind::Fifo)
}

fn run(kind: SchedPolicyKind) -> SchedOutcome {
    base(4)
        .plan(WorkloadPlan::random_n(24, 0xC1A5))
        .scheduler(kind)
        .build()
        .run()
}

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One word-stream digest of everything a run decides and produces: the
/// decision log, the exact completion list, the stream accounting and the
/// counters.
fn fingerprint(out: &SchedOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for d in &out.decisions {
        h.word(d.at.as_micros());
        let (tag, job, node) = match d.action {
            SchedAction::Place { job, node } => (0, job, node),
            SchedAction::Preempt { job } => (1, job, 0),
            SchedAction::Migrate { job, node } => (2, job, node),
        };
        h.word(tag);
        h.word(u64::from(job));
        h.word(node as u64);
    }
    for c in &out.completions {
        h.word(c.arrival.as_micros());
        h.word(c.finished.as_micros());
        h.word(c.exit_code as u64);
    }
    let s = &out.stream;
    h.word(s.submitted);
    h.word(s.completed);
    for v in [
        s.duration_secs,
        s.busy_cpu_secs,
        s.queue_job_secs,
        s.capacity_cpu_secs,
        out.total_queue_wait_secs,
    ] {
        h.word(v.to_bits());
    }
    h.word(out.preemptions);
    h.word(out.migrations);
    h.word(out.algorithm_runs);
    h.0
}

#[test]
fn decision_logs_match_their_golden_digests() {
    // Digests of one fixed 64-node x 4,096-job run per discipline, taken
    // from the full-sort, linear-scan scheduler these runs must keep
    // reproducing bit for bit.  A changed digest means a changed schedule.
    let golden = [
        (SchedPolicyKind::Fifo, 0x2b87_e328_4e6c_7a95),
        (SchedPolicyKind::Gandiva, 0xac86_a066_8f8e_733b),
        (SchedPolicyKind::Tiresias, 0xd5b6_3e07_0465_5312),
    ];
    for (kind, want) in golden {
        let out = base(64)
            .plan(WorkloadPlan::random_n(4096, 0xC1A5))
            .scheduler(kind)
            .build()
            .run();
        assert_eq!(out.completed_jobs(), 4096, "{} lost jobs", kind.name());
        let got = fingerprint(&out);
        assert_eq!(
            got,
            want,
            "{} schedule drifted: digest {got:#018x}",
            kind.name()
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    for kind in SchedPolicyKind::ALL {
        let a = run(kind);
        // `SchedOutcome` is PartialEq over the decision log, the exact
        // completion times, and the stream accounting — full bit-compare.
        assert_eq!(a, run(kind), "{} is not reproducible", kind.name());
        assert_eq!(a.completed_jobs(), 24, "{} lost jobs", kind.name());
    }
}

fn run_traced(kind: SchedPolicyKind) -> (SchedOutcome, FlightRecorder) {
    base(4)
        .plan(WorkloadPlan::random_n(24, 0xC1A5))
        .scheduler(kind)
        .tracer(FlightRecorder::with_capacity(1 << 14))
        .build()
        .run_traced()
}

/// One word-stream digest of a traced run: every recorded event (time in
/// µs, phase, kind, both payloads and the value's bits), the recorder's
/// drop count and the run's [`fingerprint`].
fn timeline_digest(out: &SchedOutcome, rec: &FlightRecorder) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for e in rec.iter() {
        h.word(e.at.as_micros());
        h.word(e.phase as u64);
        h.word(e.kind as u64);
        h.word(u64::from(e.a));
        h.word(u64::from(e.b));
        h.word(e.value.to_bits());
    }
    h.word(rec.dropped());
    h.word(fingerprint(out));
    h.0
}

#[test]
fn traced_timelines_match_their_golden_digests() {
    // Digests of the traced 4-node x 24-job run per discipline: the merged
    // timeline, engine and node events interleaved as the engine absorbs
    // each node's fork after the advance.  A changed digest means a
    // changed timeline or schedule.
    let golden = [
        (SchedPolicyKind::Fifo, 0x1f15_9e1a_a24b_dea7),
        (SchedPolicyKind::Gandiva, 0x7fc4_18bb_fb71_8aa0),
        (SchedPolicyKind::Tiresias, 0x3769_f7c4_5f80_0538),
    ];
    for (kind, want) in golden {
        let (out, rec) = run_traced(kind);
        assert_eq!(rec.dropped(), 0, "{} dropped events", kind.name());
        assert!(!rec.is_empty(), "{} recorded nothing", kind.name());
        let got = timeline_digest(&out, &rec);
        assert_eq!(
            got,
            want,
            "{} timeline drifted: digest {got:#018x}",
            kind.name()
        );
    }
}

/// A flight recorder that remembers the thread it was built on and
/// refuses an event recorded on any other.  Its forks keep that thread.
struct SameThread {
    inner: FlightRecorder,
    home: ThreadId,
}

impl Tracer for SameThread {
    const ENABLED: bool = true;

    fn record(&mut self, event: TraceEvent) {
        assert_eq!(
            std::thread::current().id(),
            self.home,
            "{event:?} recorded off the thread that started the run"
        );
        self.inner.record(event);
    }

    fn fork(&self) -> Self {
        SameThread {
            inner: self.inner.fork(),
            home: self.home,
        }
    }

    fn absorb(&mut self, other: &mut Self) {
        self.inner.absorb(&mut other.inner);
    }
}

#[test]
fn a_scheduled_run_records_every_event_on_the_calling_thread() {
    const NODES: u32 = 256;
    for kind in SchedPolicyKind::ALL {
        let tracer = SameThread {
            inner: FlightRecorder::with_capacity(1 << 18),
            home: std::thread::current().id(),
        };
        let (out, rec) = base(NODES as usize)
            .plan(WorkloadPlan::random_n(1024, 0xC1A5))
            .scheduler(kind)
            .tracer(tracer)
            .build()
            .run_traced();
        assert_eq!(out.completed_jobs(), 1024, "{} lost jobs", kind.name());
        assert_eq!(rec.inner.dropped(), 0, "{} dropped events", kind.name());
        // The last node reconfigured, so every node's events were checked.
        assert!(
            rec.inner
                .iter()
                .any(|e| e.kind == TraceKind::Reconfigure && e.b == NODES - 1),
            "{}: node {} never reconfigured",
            kind.name(),
            NODES - 1
        );
    }
}

/// Preempts every running job at every barrier, then replaces it — the
/// most hostile legal discipline.  Exercises preemption at the first
/// barrier a job ever runs in (t = 0 for arrival-0 jobs).
struct Thrash;

impl ClusterPolicy for Thrash {
    fn name(&self) -> &'static str {
        "thrash"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        let mut free: Vec<usize> = (0..view.node_count()).map(|n| view.free_slots(n)).collect();
        for (node, slots) in free.iter_mut().enumerate() {
            for r in view.running_on(node) {
                actions.push(SchedAction::Preempt { job: r.id });
                *slots += 1;
            }
        }
        for job in view.queue() {
            if let Some(node) = free.iter().position(|&f| f > 0) {
                actions.push(SchedAction::Place { job: job.id, node });
                free[node] -= 1;
            }
        }
    }
}

#[test]
fn preempting_at_the_first_barrier_still_drains_the_workload() {
    // Every job arrives at t=0, so the first Preempt of each fires at the
    // barrier right after its first (and only partial) quantum of service
    // — and jobs placed-then-preempted at the same barrier never run at
    // all that round.  The workload must still drain, with attained
    // service preserved across every round-trip.
    let jobs: Vec<_> = WorkloadPlan::random_n(6, 11)
        .jobs
        .into_iter()
        .map(|mut j| {
            j.arrival = SimTime::ZERO;
            j.work_scale = 0.02;
            j
        })
        .collect();
    let out = base(2)
        .plan(WorkloadPlan::new(jobs))
        .discipline(Box::new(Thrash))
        .build()
        .run();
    assert_eq!(out.policy, "thrash");
    assert_eq!(out.completed_jobs(), 6);
    assert!(out.preemptions > 0, "thrash must actually preempt");
    // The very first decision round happens at t=0 and preemptions begin
    // at the first barrier after any job has run.
    assert_eq!(out.decisions[0].at, SimTime::ZERO);
    assert!(out
        .decisions
        .iter()
        .any(|d| matches!(d.action, SchedAction::Preempt { .. })));
    for c in &out.completions {
        assert!(c.finished >= c.arrival);
    }
}

/// Preempts the first running job of every node and places that same job
/// back on that node in the same round, then fills the free slots in
/// least-attained-service order.  A job re-placed in the round that
/// preempted it leaves the queue it just re-entered.
struct Bounce;

impl ClusterPolicy for Bounce {
    fn name(&self) -> &'static str {
        "bounce"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        let mut free: Vec<usize> = (0..view.node_count()).map(|n| view.free_slots(n)).collect();
        for node in 0..view.node_count() {
            if let Some(r) = view.running_on(node).first() {
                actions.push(SchedAction::Preempt { job: r.id });
                actions.push(SchedAction::Place { job: r.id, node });
            }
        }
        for job in view.queue_by_service() {
            let Some(node) = free.iter().position(|&f| f > 0) else {
                break;
            };
            actions.push(SchedAction::Place { job: job.id, node });
            free[node] -= 1;
        }
    }
}

#[test]
fn a_job_preempted_and_replaced_in_one_round_still_drains() {
    let jobs: Vec<_> = WorkloadPlan::random_n(12, 13)
        .jobs
        .into_iter()
        .map(|mut j| {
            j.work_scale = 0.02;
            j
        })
        .collect();
    let out = base(3)
        .plan(WorkloadPlan::new(jobs))
        .discipline(Box::new(Bounce))
        .build()
        .run();
    assert_eq!(out.completed_jobs(), 12);
    // Some job left and re-took its slot within one barrier.
    let bounced = out.decisions.windows(2).any(|w| {
        matches!(
            (w[0].action, w[1].action),
            (SchedAction::Preempt { job: a }, SchedAction::Place { job: b, .. }) if a == b && w[0].at == w[1].at
        )
    });
    assert!(bounced, "no job was preempted and re-placed in one round");
    assert!(out.preemptions > 0);
}

/// Places FIFO, then "migrates" every running job to the node it is
/// already on: a logged no-op that must not perturb physics.
struct SelfMigrate {
    inner: Box<dyn ClusterPolicy>,
}

impl ClusterPolicy for SelfMigrate {
    fn name(&self) -> &'static str {
        "self-migrate"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        self.inner.schedule(view, actions);
        for node in 0..view.node_count() {
            for r in view.running_on(node) {
                actions.push(SchedAction::Migrate { job: r.id, node });
            }
        }
    }
}

#[test]
fn migrating_to_the_same_node_is_a_logged_no_op() {
    let plan = WorkloadPlan::random_n(10, 5);
    let noisy = base(3)
        .plan(plan.clone())
        .discipline(Box::new(SelfMigrate {
            inner: SchedPolicyKind::Fifo.build(),
        }))
        .build()
        .run();
    let clean = base(3).plan(plan).build().run();

    // Same-node migrations are logged but never applied.
    assert_eq!(noisy.migrations, 0);
    assert!(noisy
        .decisions
        .iter()
        .any(|d| matches!(d.action, SchedAction::Migrate { .. })));
    // And the physics are untouched: identical completions and stream
    // accounting, decision logs differing only by the no-op migrations.
    assert_eq!(noisy.completions, clean.completions);
    assert_eq!(noisy.stream, clean.stream);
    let noisy_real: Vec<_> = noisy
        .decisions
        .iter()
        .filter(|d| !matches!(d.action, SchedAction::Migrate { .. }))
        .collect();
    let clean_real: Vec<_> = clean.decisions.iter().collect();
    assert_eq!(noisy_real, clean_real);
}

#[test]
fn an_empty_admission_queue_round_makes_no_decisions() {
    // One early job, one very late job: between them the queue is empty
    // and all nodes go idle, so the engine fast-forwards without waking
    // the policy.  No decision may fall in the gap.
    let mut jobs = WorkloadPlan::random_n(2, 9).jobs;
    jobs[0].arrival = SimTime::ZERO;
    jobs[0].work_scale = 0.02;
    jobs[1].arrival = SimTime::from_secs(500_000);
    jobs[1].work_scale = 0.02;
    let out = base(2).plan(WorkloadPlan::new(jobs)).build().run();
    assert_eq!(out.completed_jobs(), 2);
    assert_eq!(
        out.decisions.len(),
        2,
        "exactly one placement per job: {:?}",
        out.decisions
    );
    assert_eq!(out.decisions[0].at, SimTime::ZERO);
    assert!(out.decisions[1].at >= SimTime::from_secs(500_000));
    // The second job was fast-forwarded to, not slept past.
    assert!(out.completions[1].finished >= SimTime::from_secs(500_000));
}

#[test]
fn an_empty_workload_runs_no_rounds() {
    let out = base(2).plan(WorkloadPlan::new(Vec::new())).build().run();
    assert_eq!(out.completed_jobs(), 0);
    assert!(out.decisions.is_empty());
    assert_eq!(out.makespan_secs(), 0.0);
    assert_eq!(out.mean_queueing_delay_secs(), 0.0);
}

/// Never places anything: its jobs stay queued on an idle cluster.
struct Hoard;

impl ClusterPolicy for Hoard {
    fn name(&self) -> &'static str {
        "hoard"
    }

    fn schedule(&mut self, _view: &ClusterView<'_>, _actions: &mut Vec<SchedAction>) {}
}

#[test]
#[should_panic(expected = "scheduler stuck: discipline `hoard` left 2 queued jobs unplaced")]
fn a_discipline_that_never_places_a_job_ends_the_run() {
    // Without the engine's guard this run never ends: the queue is never
    // empty, so the barrier loop neither breaks nor fast-forwards.
    base(1)
        .plan(WorkloadPlan::random_n(2, 5))
        .discipline(Box::new(Hoard))
        .build()
        .run();
}
