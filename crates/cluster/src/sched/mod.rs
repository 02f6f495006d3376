//! The cluster-wide online scheduler: one global manager, a shared
//! arrival stream, and node-local FlowCon sims advancing between
//! time-synchronized barriers.
//!
//! # Event spine
//!
//! The engine owns a single clock that ticks in scheduler quanta.  At
//! every barrier `t = k·quantum` it runs, in this exact order:
//!
//! 1. **Admit** — arrivals with `arrival ≤ t` enter the global FIFO
//!    admission queue (a real scheduler observes submissions at its next
//!    decision point).
//! 2. **Decide** — the [`ClusterPolicy`] sees a read-only
//!    [`ClusterView`] and emits [`SchedAction`]s, which the engine
//!    applies in order and appends to the decision log.
//! 3. **Advance** — every node integrates its own fluid state to
//!    `t + quantum`, completing jobs at their *exact* mid-quantum times
//!    and running node-local FlowCon reconfigurations at their own
//!    cadence.
//!
//! The engine advances the nodes itself, in node-index order, on the
//! thread that called the run: a scheduled run spawns no thread.  Each
//! `NodeSim` advance is a pure function of that node's state, so the
//! order changes nothing but the merge of the nodes' trace events, which
//! is fixed by node index (pinned, with every discipline's decision log
//! and timeline, by `crates/cluster/tests/sched_determinism.rs`).
//! Shard threads for the advance were not measurably faster on a
//! two-core host at any cluster size tried (BENCHMARKS.md "The
//! scheduler advances its nodes on the engine thread").
//!
//! # Per-barrier cost
//!
//! A barrier costs O(actions · log nodes + jobs read + nodes), plus, for
//! a discipline that reads the queue's rank order, sorting in the jobs
//! queued since its last read.
//!
//! * The admission queue removes a placed job by id in O(1), in both of
//!   its orders: FIFO and Tiresias' least-attained-service rank.
//! * The [`ClusterView`] reads the queue in place, so building it copies
//!   only the running jobs, never the queue.  FIFO reads the queue up to
//!   the first job that finds no slot, Gandiva as far past that as there
//!   are expired victims, and Tiresias merges the sorted running jobs
//!   with the head of the rank order until the slots run out.
//! * The rank order sorts only the jobs queued since its last read and
//!   inserts them into its sorted run on the first read of a barrier, so
//!   FIFO and Gandiva never pay for it.
//! * The disciplines find the freest node in a tournament tree, at
//!   O(log nodes) per slot taken or freed.
//!
//! The linear terms left are the view's pass over the nodes, advancing
//! the nodes, and the block moves that insert queued jobs into the rank
//! order (each key behind the least-served insert moves once).
//!
//! # Quantum invariants
//!
//! * Decisions happen only at barriers; node physics (completions,
//!   policy ticks) happen at exact event times inside the quantum.
//! * A preempted job re-enters the queue with its attained service and
//!   remaining work preserved (resume re-draws the ±3% work jitter,
//!   modelling checkpoint-restore noise).
//! * The decision log plus the completion list fully determine a run;
//!   both are `PartialEq` for bit-compare tests.
//! * A discipline that leaves jobs queued on an idle cluster, barrier
//!   after barrier, cannot finish the run: after 1,000,000 such barriers
//!   in a row the engine panics, naming the discipline, the barrier time
//!   and the queue length, instead of looping forever.

#![deny(missing_docs)]

mod node;
mod policy;

pub use policy::{
    ClusterPolicy, ClusterView, FifoPolicy, GandivaPolicy, QueuedJobView, RunningJobView,
    SchedAction, SchedPolicyKind, TiresiasPolicy,
};

use std::cell::{Ref, RefCell};

use flowcon_core::config::NodeConfig;
use flowcon_dl::ModelId;
use flowcon_metrics::sojourn::{Percentiles, SojournStats};
use flowcon_metrics::stream::StreamStats;
use flowcon_metrics::summary::{makespan_over, Completion};
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{TraceKind, Tracer};

use crate::policy_kind::PolicyKind;
use node::NodeSim;
use policy::{by_rank, NodeSpan};

/// Run-away guard: the most barriers in a row a run may spend with every
/// node idle, jobs queued and none placed (116 simulated days at the
/// default 10 s quantum).  The scheduler's counterpart of the worker
/// simulation's event guard.
const MAX_STUCK_BARRIERS: u64 = 1_000_000;

/// Tuning knobs of the scheduling engine.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Barrier spacing: how often the cluster policy runs.
    pub quantum: SimDuration,
    /// Concurrent job slots per node (FlowCon shares the node's capacity
    /// among the jobs in its slots).
    pub slots_per_node: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            quantum: SimDuration::from_secs(10),
            slots_per_node: 2,
        }
    }
}

/// One logged scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Barrier at which the decision was made.
    pub at: SimTime,
    /// The action taken.
    pub action: SchedAction,
}

/// Everything a scheduled cluster run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedOutcome {
    /// Discipline name (from [`ClusterPolicy::name`]).
    pub policy: &'static str,
    /// Every job completion, in observation order (node-major per
    /// quantum), with exact finish times.
    pub completions: Vec<Completion>,
    /// The full decision log — the run's scheduling fingerprint.
    pub decisions: Vec<Decision>,
    /// Cluster-wide stream accounting (utilization, queue depth, rates).
    pub stream: StreamStats,
    /// Total seconds jobs spent in the admission queue (every visit).
    pub total_queue_wait_secs: f64,
    /// SLO tails: per-job sojourn time (exit − arrival, sampled at each
    /// completion) and queue-wait (barrier − queued-since, sampled at
    /// each [`SchedAction::Place`], so one job contributes once per
    /// queue visit).  Deterministic — part of the bit-compare surface.
    pub tails: SojournStats,
    /// Jobs submitted to the cluster.
    pub submitted: usize,
    /// Preemptions applied (suspend-to-queue).
    pub preemptions: u64,
    /// Cross-node migrations applied (same-node no-ops excluded).
    pub migrations: u64,
    /// Node-local FlowCon reconfiguration runs, summed over nodes.
    pub algorithm_runs: u64,
}

impl SchedOutcome {
    /// Time of the last completion (0 when nothing completed).
    pub fn makespan_secs(&self) -> f64 {
        makespan_over(self.completions.iter().map(|c| c.finished.as_secs_f64()))
    }

    /// Completed job count.
    pub fn completed_jobs(&self) -> usize {
        self.completions.len()
    }

    /// Mean seconds a job spent queued, over submitted jobs.
    pub fn mean_queueing_delay_secs(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.total_queue_wait_secs / self.submitted as f64
        }
    }

    /// p50/p95/p99 of per-visit queue wait in seconds (zeros when nothing
    /// was placed).
    pub fn queue_wait_percentiles(&self) -> Percentiles {
        self.tails.queue_wait_percentiles()
    }

    /// p50/p95/p99 of job sojourn time (exit − arrival) in seconds.
    pub fn sojourn_percentiles(&self) -> Percentiles {
        self.tails.sojourn_percentiles()
    }
}

/// One job the engine knows about: the scheduler-side record that
/// survives preemption round-trips.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalSpec {
    pub(crate) model: ModelId,
    pub(crate) arrival: SimTime,
    pub(crate) work_scale: f64,
}

#[derive(Debug, Clone, Copy)]
struct EngineJob {
    id: u32,
    model: ModelId,
    arrival: SimTime,
    work_scale: f64,
    attained: f64,
    queued_since: SimTime,
}

impl EngineJob {
    /// The job as a policy sees it.
    fn view(&self) -> QueuedJobView {
        QueuedJobView {
            id: self.id,
            arrival: self.arrival,
            attained_cpu_secs: self.attained,
            queued_since: self.queued_since,
        }
    }
}

/// The global admission queue, in two orders with O(1) removal by job id:
/// FIFO (push order) and Tiresias' rank order ([`by_rank`]: least
/// attained service first, ties to the lower id).
///
/// Jobs sit in a slab indexed by their dense id, and `stamps[id]` is
/// bumped at every push and every take of the job, so it is odd exactly
/// while the job is queued.  Both orders hold keys stamped at push: taking
/// a job only bumps its stamp, which kills its key in both orders, and a
/// re-pushed job's fresh stamp never resurrects the key of an earlier
/// visit.  Each order drops its dead keys once they outnumber the live
/// ones, which keeps iteration O(len).
///
/// A queued job's attained service never changes while it waits, so its
/// rank key is fixed at push.  Pushes only append to the rank order's
/// pending keys; the first read of the rank order after a push sorts them
/// into its sorted run (see [`ServiceOrder::settle`]), so only a
/// discipline that reads the rank order pays for it.
#[derive(Debug)]
struct AdmissionQueue {
    slab: Vec<Option<EngineJob>>,
    stamps: Vec<u32>,
    /// FIFO keys `(id, stamp)`, in push order.
    order: Vec<(u32, u32)>,
    by_service: RefCell<ServiceOrder>,
    live: usize,
}

/// A queued visit's key in the rank order.
#[derive(Debug, Clone, Copy)]
struct RankKey {
    attained: f64,
    id: u32,
    stamp: u32,
}

impl RankKey {
    fn rank(&self) -> (f64, u32) {
        (self.attained, self.id)
    }
}

/// The admission queue's rank order: a sorted run plus the keys pushed
/// since the last read.
#[derive(Debug, Default)]
struct ServiceOrder {
    /// Keys as of the last read: every key before `head` is dead, and the
    /// keys from `head` on are in rank order, dead ones included.
    run: Vec<RankKey>,
    head: usize,
    /// Keys pushed since the last read, in push order.
    pending: Vec<RankKey>,
}

impl ServiceOrder {
    /// Insert the pending keys into the run and step `head` past the dead
    /// keys at its front.
    ///
    /// The pending keys are sorted and inserted from the back, so every
    /// key of the run moves at most once, in blocks, and the part of the
    /// run ahead of the smallest pending key does not move at all.  A
    /// discipline that places the head of the rank order leaves its dead
    /// keys at the front, where `head` skips them.
    fn settle(&mut self, stamps: &[u32]) {
        let live = |key: &RankKey| stamps[key.id as usize] == key.stamp;
        self.pending.retain(live);
        self.pending
            .sort_unstable_by(|a, b| by_rank(a.rank(), b.rank()));
        let mut end = self.run.len();
        // Room for the pending keys at the back; the loop fills it.
        self.run.extend_from_slice(&self.pending);
        for (before, key) in self.pending.iter().enumerate().rev() {
            // The run's keys in `at..end` rank behind `key` and ahead of
            // every larger pending key: they shift right past `key` and the
            // `before` pending keys that rank ahead of it.
            let at = self.head + insertion_point(&self.run[self.head..end], key.rank());
            self.run.copy_within(at..end, at + before + 1);
            self.run[at + before] = *key;
            end = at;
        }
        self.pending.clear();
        while self.run.get(self.head).is_some_and(|key| !live(key)) {
            self.head += 1;
        }
    }

    /// Drop every dead key, leaving the run in rank order and the pending
    /// keys in push order.
    fn compact(&mut self, stamps: &[u32]) {
        let live = |key: &RankKey| stamps[key.id as usize] == key.stamp;
        self.run.retain(live);
        self.head = 0;
        self.pending.retain(live);
    }
}

/// Where `rank` goes in `keys` (sorted): the number of keys ranked ahead
/// of it.  The search gallops back from the end, because the pending keys
/// [`ServiceOrder::settle`] inserts, largest first, land close together.
fn insertion_point(keys: &[RankKey], rank: (f64, u32)) -> usize {
    let ahead = |key: &RankKey| by_rank(key.rank(), rank).is_lt();
    // Every key from `hi` on ranks behind `rank`.
    let mut hi = keys.len();
    let mut step = 1;
    while hi > 0 {
        let probe = hi.saturating_sub(step);
        if ahead(&keys[probe]) {
            return probe + 1 + keys[probe + 1..hi].partition_point(ahead);
        }
        hi = probe;
        step *= 2;
    }
    0
}

impl AdmissionQueue {
    /// An empty queue for jobs with ids `0..ids`.
    fn new(ids: usize) -> Self {
        Self {
            slab: vec![None; ids],
            stamps: vec![0; ids],
            order: Vec::new(),
            by_service: RefCell::default(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Append `job` at the back.  Panics if the job is already queued.
    fn push_back(&mut self, job: EngineJob) {
        let id = job.id as usize;
        assert!(self.slab[id].is_none(), "job {} is already queued", job.id);
        self.slab[id] = Some(job);
        self.stamps[id] = self.stamps[id].wrapping_add(1);
        let stamp = self.stamps[id];
        self.order.push((job.id, stamp));
        self.by_service.get_mut().pending.push(RankKey {
            attained: job.attained,
            id: job.id,
            stamp,
        });
        self.live += 1;
    }

    /// Remove job `id` wherever it stands; `None` if it is not queued.
    fn take(&mut self, id: u32) -> Option<EngineJob> {
        let job = self.slab.get_mut(id as usize)?.take()?;
        self.stamps[id as usize] = self.stamps[id as usize].wrapping_add(1);
        self.live -= 1;
        let stamps = &self.stamps;
        if self.order.len() > 2 * self.live {
            self.order
                .retain(|&(id, stamp)| stamps[id as usize] == stamp);
        }
        let by_service = self.by_service.get_mut();
        if by_service.run.len() + by_service.pending.len() > 2 * self.live {
            by_service.compact(stamps);
        }
        Some(job)
    }

    /// The queued job a key names, unless the key is dead.
    fn keyed(&self, id: u32, stamp: u32) -> Option<&EngineJob> {
        if self.stamps[id as usize] == stamp {
            self.slab[id as usize].as_ref()
        } else {
            None
        }
    }

    /// Queued jobs, head first.
    fn iter(&self) -> impl Iterator<Item = &EngineJob> + '_ {
        self.order
            .iter()
            .filter_map(|&(id, stamp)| self.keyed(id, stamp))
    }

    /// Queued jobs in rank order.  The first call after a push settles
    /// the pending keys into the run; later calls only read.
    fn by_service(&self) -> ByService<'_> {
        if !self.by_service.borrow().pending.is_empty() {
            self.by_service.borrow_mut().settle(&self.stamps);
        }
        ByService {
            queue: self,
            keys: Ref::map(self.by_service.borrow(), |order| &order.run[order.head..]),
            next: 0,
        }
    }
}

/// The iterator behind [`AdmissionQueue::by_service`]: the settled run,
/// skipping dead keys.
struct ByService<'a> {
    queue: &'a AdmissionQueue,
    keys: Ref<'a, [RankKey]>,
    next: usize,
}

impl<'a> Iterator for ByService<'a> {
    type Item = &'a EngineJob;

    fn next(&mut self) -> Option<&'a EngineJob> {
        while let Some(&key) = self.keys.get(self.next) {
            self.next += 1;
            if let Some(job) = self.queue.keyed(key.id, key.stamp) {
                return Some(job);
            }
        }
        None
    }
}

/// Run the scheduling engine to completion over a materialized arrival
/// list (already sorted by arrival time).
///
/// `tracer` records the structured event stream: a
/// [`TraceKind::SchedBarrier`] span per decision barrier, one instant
/// per applied [`SchedAction`], cluster-level job run/complete spans,
/// and queue-depth counters.  Node-local events (policy reconfigures,
/// water-filling counters) land in per-node forked recorders, each
/// drained back right after its node advances, so a barrier's node events
/// follow its engine records in node-index order.
pub(crate) fn run_sched<T: Tracer>(
    node_cfgs: &[NodeConfig],
    worker_policy: PolicyKind,
    mut policy: Box<dyn ClusterPolicy>,
    config: SchedConfig,
    arrivals: Vec<ArrivalSpec>,
    tracer: &mut T,
) -> SchedOutcome {
    assert!(!node_cfgs.is_empty(), "a cluster needs at least one node");
    assert!(
        config.quantum > SimDuration::ZERO,
        "the scheduler quantum must be positive"
    );
    let quantum = config.quantum;
    let mut nodes: Vec<NodeSim<T>> = node_cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            NodeSim::new(
                *cfg,
                worker_policy.build(),
                config.slots_per_node,
                tracer.fork(),
                i as u32,
            )
        })
        .collect();
    let mut queue = AdmissionQueue::new(arrivals.len());
    // gid → node currently running the job (None: queued or done).
    let mut location: Vec<Option<usize>> = vec![None; arrivals.len()];
    let mut next_arrival = 0usize;

    let mut decisions: Vec<Decision> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut total_queue_wait_secs = 0.0f64;
    let mut queue_job_secs = 0.0f64;
    let mut tails = SojournStats::new();
    let mut preemptions = 0u64;
    let mut migrations = 0u64;

    // Recycled view buffers.
    let mut spans: Vec<NodeSpan> = Vec::new();
    let mut running: Vec<RunningJobView> = Vec::new();
    let mut actions: Vec<SchedAction> = Vec::new();

    // Consecutive barriers in which every node was idle and the
    // discipline placed none of the queued jobs.
    let mut stuck_barriers = 0u64;

    let mut t = SimTime::ZERO;
    loop {
        // 1. Admit arrivals up to the barrier.
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival <= t {
            let a = arrivals[next_arrival];
            queue.push_back(EngineJob {
                id: next_arrival as u32,
                model: a.model,
                arrival: a.arrival,
                work_scale: a.work_scale,
                attained: 0.0,
                queued_since: a.arrival,
            });
            next_arrival += 1;
        }
        let all_idle = nodes.iter().all(NodeSim::is_idle);
        if next_arrival == arrivals.len() && queue.is_empty() && all_idle {
            break;
        }
        // Fast-forward across empty quanta to the first barrier at/after
        // the next arrival, keeping the idle nodes' clocks in sync so a
        // subsequent admit integrates from the barrier, not from stale
        // node time.
        if queue.is_empty() && all_idle {
            let upcoming = arrivals[next_arrival].arrival;
            while t < upcoming {
                t += quantum;
            }
            for node in &mut nodes {
                node.advance_to(t);
            }
            continue;
        }

        // 2. Decide.
        spans.clear();
        running.clear();
        for node in &nodes {
            let start = running.len();
            node.fill_views(&mut running);
            spans.push(NodeSpan {
                slots: node.slot_count(),
                start,
                len: running.len() - start,
            });
        }
        let view = ClusterView::new(t, &queue, &spans, &running);
        actions.clear();
        policy.schedule(&view, &mut actions);
        // On an idle cluster the queue is not empty (see above), and only
        // a placement can make progress.
        if all_idle && actions.is_empty() {
            stuck_barriers += 1;
            assert!(
                stuck_barriers < MAX_STUCK_BARRIERS,
                "scheduler stuck: discipline `{}` left {} queued jobs unplaced on an idle \
                 cluster for {MAX_STUCK_BARRIERS} barriers in a row (barrier t = {t})",
                policy.name(),
                queue.len(),
            );
        } else {
            stuck_barriers = 0;
        }
        if T::ENABLED {
            tracer.span_begin(
                t,
                TraceKind::SchedBarrier,
                queue.len() as u32,
                running.len() as u32,
            );
        }

        for &action in &actions {
            decisions.push(Decision { at: t, action });
            match action {
                SchedAction::Place { job, node } => {
                    let j = queue.take(job).expect("Place must target a queued job");
                    let wait = t.saturating_since(j.queued_since).as_secs_f64();
                    total_queue_wait_secs += wait;
                    tails.queue_wait.insert(wait);
                    location[j.id as usize] = Some(node);
                    nodes[node].admit(&j);
                    if T::ENABLED {
                        tracer.instant(t, TraceKind::SchedPlace, job, node as u32);
                        tracer.span_begin(t, TraceKind::JobRun, job, node as u32);
                    }
                }
                SchedAction::Preempt { job } => {
                    let at = location[job as usize]
                        .take()
                        .expect("Preempt must target a running job");
                    // The nodes' clocks stand at the barrier, so the job is
                    // queued as of `t`.
                    queue.push_back(nodes[at].preempt(job));
                    preemptions += 1;
                    if T::ENABLED {
                        tracer.instant(t, TraceKind::SchedPreempt, job, at as u32);
                        tracer.span_end(t, TraceKind::JobRun, job, at as u32);
                    }
                }
                SchedAction::Migrate { job, node } => {
                    let at = location[job as usize].expect("Migrate must target a running job");
                    if at == node {
                        continue; // logged no-op
                    }
                    let j = nodes[at].preempt(job);
                    nodes[node].admit(&j);
                    location[job as usize] = Some(node);
                    migrations += 1;
                    if T::ENABLED {
                        tracer.instant(t, TraceKind::SchedMigrate, job, node as u32);
                        tracer.span_end(t, TraceKind::JobRun, job, at as u32);
                        tracer.span_begin(t, TraceKind::JobRun, job, node as u32);
                    }
                }
            }
        }
        queue_job_secs += queue.len() as f64 * quantum.as_secs_f64();
        if T::ENABLED {
            tracer.counter(t, TraceKind::QueueDepth, 0, queue.len() as f64);
        }

        // 3. Advance every node to the next barrier, in node-index order.
        let barrier = t + quantum;
        for (ni, node) in nodes.iter_mut().enumerate() {
            node.advance_to(barrier);
            if T::ENABLED {
                // The node's own events, from this barrier's actions and
                // its advance, follow the engine's records for the
                // barrier.
                tracer.absorb(&mut node.tracer);
            }
            for c in node.completions.drain(..) {
                location[c.gid as usize] = None;
                tails
                    .sojourn
                    .insert(c.finished.saturating_since(c.arrival).as_secs_f64());
                completions.push(Completion {
                    arrival: c.arrival,
                    finished: c.finished,
                    exit_code: 0,
                });
                if T::ENABLED {
                    tracer.span_end(c.finished, TraceKind::JobRun, c.gid, ni as u32);
                    tracer.instant(c.finished, TraceKind::JobComplete, c.gid, ni as u32);
                }
            }
        }
        if T::ENABLED {
            tracer.span_end(barrier, TraceKind::SchedBarrier, queue.len() as u32, 0);
        }
        t = barrier;
    }

    let duration_secs = makespan_over(completions.iter().map(|c| c.finished.as_secs_f64()));
    let stream = StreamStats {
        submitted: arrivals.len() as u64,
        completed: completions.len() as u64,
        duration_secs,
        busy_cpu_secs: nodes.iter().map(|n| n.busy_cpu_secs).sum(),
        queue_job_secs: queue_job_secs + nodes.iter().map(|n| n.live_job_secs).sum::<f64>(),
        capacity_cpu_secs: duration_secs * node_cfgs.iter().map(|c| c.capacity).sum::<f64>(),
    };
    SchedOutcome {
        policy: policy.name(),
        completions,
        decisions,
        stream,
        total_queue_wait_secs,
        tails,
        submitted: arrivals.len(),
        preemptions,
        migrations,
        algorithm_runs: nodes.iter().map(NodeSim::algorithm_runs).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_core::config::FlowConConfig;
    use flowcon_dl::WorkloadPlan;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn engine_job(id: u32, attained: f64) -> EngineJob {
        EngineJob {
            id,
            model: ModelId::MnistTorch,
            arrival: SimTime::ZERO,
            work_scale: 1.0,
            attained,
            queued_since: SimTime::ZERO,
        }
    }

    proptest! {
        #[test]
        fn admission_queue_iterates_like_a_vecdeque(
            rounds in prop::collection::vec(
                prop::collection::vec((0u8..4, 0usize..64, 0u8..3), 0..24),
                1..12,
            ),
        ) {
            const IDS: usize = 48;
            let mut queue = AdmissionQueue::new(IDS);
            // The queue's FIFO contents with each job's attained service.
            let mut model: VecDeque<(u32, f64)> = VecDeque::new();
            let mut fresh = 0u32;
            for round in rounds {
                // Jobs taken earlier in this round, eligible for a re-push
                // (a preempted job re-enters the queue it just left, with
                // more service).
                let mut taken: Vec<u32> = Vec::new();
                for (op, pick, level) in round {
                    // Three service levels make rank ties common.
                    let attained = f64::from(level) * 7.5;
                    match op {
                        // One push, or three between two reads.
                        0 | 3 => {
                            for _ in 0..if op == 0 { 1 } else { 3 } {
                                if (fresh as usize) < IDS {
                                    queue.push_back(engine_job(fresh, attained));
                                    model.push_back((fresh, attained));
                                    fresh += 1;
                                }
                            }
                        }
                        1 if !model.is_empty() => {
                            let (id, _) = model.remove(pick % model.len()).expect("index in range");
                            prop_assert_eq!(queue.take(id).map(|j| j.id), Some(id));
                            prop_assert!(queue.take(id).is_none(), "job {} taken twice", id);
                            taken.push(id);
                        }
                        2 if !taken.is_empty() => {
                            let id = taken.swap_remove(pick % taken.len());
                            queue.push_back(engine_job(id, attained));
                            model.push_back((id, attained));
                        }
                        _ => {}
                    }
                    let ids: Vec<u32> = queue.iter().map(|j| j.id).collect();
                    let want: Vec<u32> = model.iter().map(|&(id, _)| id).collect();
                    prop_assert_eq!(&ids, &want);
                    let mut ranked: Vec<(f64, u32)> =
                        model.iter().map(|&(id, attained)| (attained, id)).collect();
                    ranked.sort_by(|&a, &b| by_rank(a, b));
                    let by_service: Vec<(f64, u32)> =
                        queue.by_service().map(|j| (j.attained, j.id)).collect();
                    prop_assert_eq!(&by_service, &ranked);
                    prop_assert_eq!(queue.len(), model.len());
                    prop_assert_eq!(queue.is_empty(), model.is_empty());
                    // Compaction keeps dead keys at most as many as live ones.
                    prop_assert!(queue.order.len() <= 2 * queue.len());
                    let order = queue.by_service.borrow();
                    prop_assert!(order.run.len() + order.pending.len() <= 2 * queue.len());
                }
            }
            prop_assert!(queue.take(IDS as u32).is_none(), "ids past the slab are never queued");
        }
    }

    fn arrivals_of(plan: &WorkloadPlan) -> Vec<ArrivalSpec> {
        plan.jobs
            .iter()
            .map(|j| ArrivalSpec {
                model: j.model,
                arrival: j.arrival,
                work_scale: j.work_scale,
            })
            .collect()
    }

    fn run(kind: SchedPolicyKind, workers: usize, seed: u64) -> SchedOutcome {
        let plan = WorkloadPlan::random_n(12, seed);
        let cfgs: Vec<NodeConfig> = (0..workers)
            .map(|i| NodeConfig::default().with_seed(0xF10C + i as u64))
            .collect();
        run_sched(
            &cfgs,
            PolicyKind::FlowCon(FlowConConfig::default()),
            kind.build(),
            SchedConfig::default(),
            arrivals_of(&plan),
            &mut flowcon_sim::trace::NoopTracer,
        )
    }

    #[test]
    fn every_policy_drains_the_whole_workload() {
        for kind in SchedPolicyKind::ALL {
            let out = run(kind, 3, 42);
            assert_eq!(out.completed_jobs(), 12, "{} lost jobs", out.policy);
            assert_eq!(out.stream.submitted, 12);
            assert!(out.makespan_secs() > 0.0);
            assert!(out.stream.utilization() > 0.0);
        }
    }

    #[test]
    fn empty_workload_terminates_immediately_with_no_decisions() {
        let cfgs = [NodeConfig::default()];
        let out = run_sched(
            &cfgs,
            PolicyKind::Baseline,
            SchedPolicyKind::Fifo.build(),
            SchedConfig::default(),
            Vec::new(),
            &mut flowcon_sim::trace::NoopTracer,
        );
        assert!(out.completions.is_empty());
        assert!(out.decisions.is_empty());
        assert_eq!(out.makespan_secs(), 0.0);
        assert_eq!(out.mean_queueing_delay_secs(), 0.0);
    }

    #[test]
    fn fifo_queueing_delay_reflects_slot_pressure() {
        // One single-slot node, many jobs: later jobs must wait.
        let plan = WorkloadPlan::random_n(6, 7);
        let cfgs = [NodeConfig::default()];
        let out = run_sched(
            &cfgs,
            PolicyKind::FlowCon(FlowConConfig::default()),
            SchedPolicyKind::Fifo.build(),
            SchedConfig {
                slots_per_node: 1,
                ..SchedConfig::default()
            },
            arrivals_of(&plan),
            &mut flowcon_sim::trace::NoopTracer,
        );
        assert_eq!(out.completed_jobs(), 6);
        assert!(out.mean_queueing_delay_secs() > 0.0);
        assert_eq!(out.preemptions, 0, "FIFO never preempts");
    }

    #[test]
    fn a_late_lone_arrival_is_fast_forwarded_to() {
        let cfgs = [NodeConfig::default()];
        let arrivals = vec![ArrivalSpec {
            model: ModelId::MnistTorch,
            arrival: SimTime::from_secs(86_400),
            work_scale: 0.05,
        }];
        let out = run_sched(
            &cfgs,
            PolicyKind::Baseline,
            SchedPolicyKind::Fifo.build(),
            SchedConfig::default(),
            arrivals,
            &mut flowcon_sim::trace::NoopTracer,
        );
        assert_eq!(out.completed_jobs(), 1);
        assert!(out.completions[0].finished >= SimTime::from_secs(86_400));
        // The job was placed at the first barrier at/after its arrival.
        assert!(out.decisions[0].at >= SimTime::from_secs(86_400));
        assert!(
            out.decisions[0].at <= SimTime::from_secs(86_410),
            "placement barrier drifted: {:?}",
            out.decisions[0].at
        );
    }
}
