//! Pluggable cluster scheduling disciplines.
//!
//! A [`ClusterPolicy`] is consulted once per scheduler quantum with a
//! read-only [`ClusterView`] of the admission queue and every node's
//! occupancy, and answers with a list of [`SchedAction`]s (place, preempt,
//! migrate).  The engine applies the actions in order and logs each one,
//! so a policy is a pure decision function of the view plus its own
//! internal state — which is exactly what makes decision logs
//! bit-comparable across runs.
//!
//! Three disciplines ship with the crate:
//!
//! * [`FifoPolicy`] — arrival-order placement, no preemption.  The
//!   baseline every trace-driven comparison needs.
//! * [`GandivaPolicy`] — time-slicing with suspend/resume rotation plus
//!   load-balancing migration, after Gandiva (OSDI '18).
//! * [`TiresiasPolicy`] — least-attained-service: the jobs with the
//!   least effective CPU-seconds of service win the slots, with no
//!   duration knowledge at all, after Tiresias (NSDI '19).
//!
//! None of the views expose remaining work or job duration: disciplines
//! that want duration awareness must estimate it from attained service,
//! exactly like their real-world counterparts.

use std::cmp::Ordering;

use flowcon_sim::time::{SimDuration, SimTime};

use super::{AdmissionQueue, EngineJob};

/// A job waiting in the global admission queue, as a policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJobView {
    /// Dense cluster-wide job id, assigned in admission order.
    pub id: u32,
    /// Original submission time (survives preemption round-trips).
    pub arrival: SimTime,
    /// Effective CPU-seconds of service attained so far.  Zero for jobs
    /// that have never run; positive after a preemption.
    pub attained_cpu_secs: f64,
    /// When the job last entered the queue (arrival, or preemption time).
    pub queued_since: SimTime,
}

/// A job currently running on a node, as a policy sees it.
///
/// Deliberately excludes remaining work: disciplines are duration-blind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJobView {
    /// Dense cluster-wide job id.
    pub id: u32,
    /// Effective CPU-seconds of service attained so far (across all
    /// placements of this job).
    pub attained_cpu_secs: f64,
    /// When the current placement started.
    pub placed_at: SimTime,
}

/// Per-node occupancy summary inside the flat running-job arena.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeSpan {
    pub(crate) slots: usize,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// Read-only cluster snapshot handed to [`ClusterPolicy::schedule`] at
/// each quantum barrier.
///
/// The admission queue is read in place, in either of its two orders:
/// [`queue`](Self::queue) (FIFO) and
/// [`queue_by_service`](Self::queue_by_service) (least attained service
/// first).  Both are lazy, so a discipline pays only for the jobs it
/// reads: FIFO stops at the first job that finds no slot, Tiresias after
/// the slot count.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    /// The barrier time at which this decision round runs.
    pub now: SimTime,
    queue: &'a AdmissionQueue,
    nodes: &'a [NodeSpan],
    running: &'a [RunningJobView],
}

impl<'a> ClusterView<'a> {
    pub(super) fn new(
        now: SimTime,
        queue: &'a AdmissionQueue,
        nodes: &'a [NodeSpan],
        running: &'a [RunningJobView],
    ) -> Self {
        Self {
            now,
            queue,
            nodes,
            running,
        }
    }

    /// The admission queue in FIFO order, head first.
    pub fn queue(&self) -> impl Iterator<Item = QueuedJobView> + 'a {
        self.queue.iter().map(EngineJob::view)
    }

    /// Number of jobs in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The admission queue in Tiresias' rank order: least attained
    /// service first, ties to the lower (older) job id.
    ///
    /// The queue keeps this order itself, so reading its head costs
    /// O(jobs read), plus, on the first read of a barrier, sorting in the
    /// jobs queued since the last read.
    pub fn queue_by_service(&self) -> impl Iterator<Item = QueuedJobView> + 'a {
        self.queue.by_service().map(EngineJob::view)
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Job slots on `node` (running jobs can never exceed this).
    pub fn slots(&self, node: usize) -> usize {
        self.nodes[node].slots
    }

    /// The jobs currently running on `node`, in slot order.
    pub fn running_on(&self, node: usize) -> &'a [RunningJobView] {
        let span = self.nodes[node];
        &self.running[span.start..span.start + span.len]
    }

    /// Free job slots on `node`.
    pub fn free_slots(&self, node: usize) -> usize {
        let span = self.nodes[node];
        span.slots - span.len
    }

    /// Total job slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.nodes.iter().map(|n| n.slots).sum()
    }
}

/// One scheduling decision, applied by the engine in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedAction {
    /// Move a queued job onto a node.  The node must have a free slot at
    /// the time the action is applied (earlier actions in the same round
    /// may have freed it).
    Place {
        /// Id of a job currently in the admission queue.
        job: u32,
        /// Target node index.
        node: usize,
    },
    /// Suspend a running job and return it to the back of the admission
    /// queue.  Attained service is preserved; the next placement resumes
    /// from a checkpoint of the remaining work.
    Preempt {
        /// Id of a job currently running on some node.
        job: u32,
    },
    /// Atomically move a running job to another node (checkpoint +
    /// resume, without passing through the queue).  Migrating a job to
    /// the node it already occupies is a logged no-op.
    Migrate {
        /// Id of a job currently running on some node.
        job: u32,
        /// Target node index; must have a free slot unless it is the
        /// job's current node.
        node: usize,
    },
}

/// A cluster-wide scheduling discipline.
///
/// # Contract
///
/// * `schedule` is called exactly once per quantum barrier, after
///   arrivals up to the barrier have been admitted to the queue and
///   before nodes advance to the next barrier.
/// * Actions are applied strictly in emission order.  A `Place` may
///   target a slot freed by an earlier `Preempt` in the same round.
/// * Every decision is appended to the run's decision log, so policies
///   must be deterministic functions of the view and their own state —
///   no wall-clock, no ambient randomness.
/// * Policies never see job durations or remaining work; only arrival
///   times, attained service, and occupancy.
pub trait ClusterPolicy {
    /// Human-readable discipline name (used in tables and logs).
    fn name(&self) -> &'static str;

    /// Append this round's decisions to `actions`.
    ///
    /// The buffer is cleared by the engine before the call; policies
    /// only append.
    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>);
}

/// Selector for the built-in disciplines (CLI `--policy` flag, bench
/// presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicyKind {
    /// Arrival-order placement, no preemption ([`FifoPolicy`]).
    Fifo,
    /// Time-slice + migrate ([`GandivaPolicy`]).
    Gandiva,
    /// Least-attained-service ([`TiresiasPolicy`]).
    Tiresias,
}

impl SchedPolicyKind {
    /// Every built-in discipline, in comparison-table order.
    pub const ALL: [SchedPolicyKind; 3] = [
        SchedPolicyKind::Fifo,
        SchedPolicyKind::Gandiva,
        SchedPolicyKind::Tiresias,
    ];

    /// Parse a CLI spelling (`fifo`, `gandiva`, `tiresias`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fifo" => Some(SchedPolicyKind::Fifo),
            "gandiva" => Some(SchedPolicyKind::Gandiva),
            "tiresias" => Some(SchedPolicyKind::Tiresias),
            _ => None,
        }
    }

    /// Canonical lowercase name (round-trips through [`parse`](Self::parse)).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicyKind::Fifo => "fifo",
            SchedPolicyKind::Gandiva => "gandiva",
            SchedPolicyKind::Tiresias => "tiresias",
        }
    }

    /// Construct the discipline with its default parameters.
    pub fn build(&self) -> Box<dyn ClusterPolicy> {
        match self {
            SchedPolicyKind::Fifo => Box::new(FifoPolicy::new()),
            SchedPolicyKind::Gandiva => Box::new(GandivaPolicy::new()),
            SchedPolicyKind::Tiresias => Box::new(TiresiasPolicy::new()),
        }
    }
}

/// Max tournament tree over per-node free slots.
///
/// [`best`](Self::best) names the node with the most free slots, ties
/// broken toward the lowest index (so decision logs are stable), in O(1);
/// [`take`](Self::take) and [`give`](Self::give) move one node's count by
/// one slot and replay its path to the root in O(log nodes).
#[derive(Debug, Default)]
struct FreeSlotTree {
    /// Free slots per leaf, zero-padded to a power of two.
    free: Vec<usize>,
    /// `win[i]` is the leaf that wins subtree `i`: the root is 1 and the
    /// leaves sit at `free.len()..2 * free.len()`.
    win: Vec<u32>,
}

impl FreeSlotTree {
    /// Rebuild the tree from the view's free slots.
    fn reset(&mut self, view: &ClusterView<'_>) {
        let n = view.node_count();
        let leaves = n.next_power_of_two();
        self.free.clear();
        self.free.extend((0..n).map(|node| view.free_slots(node)));
        self.free.resize(leaves, 0);
        self.win.clear();
        self.win.resize(leaves, 0);
        self.win.extend(0..leaves as u32);
        for i in (1..leaves).rev() {
            self.win[i] = self.play(self.win[2 * i], self.win[2 * i + 1]);
        }
    }

    /// The winner of two subtrees: the right one only on strictly more
    /// free slots, because every left leaf has a lower index.
    fn play(&self, left: u32, right: u32) -> u32 {
        if self.free[right as usize] > self.free[left as usize] {
            right
        } else {
            left
        }
    }

    /// The freest node, or `None` when every slot is taken.
    fn best(&self) -> Option<usize> {
        let top = self.win[1] as usize;
        (self.free[top] > 0).then_some(top)
    }

    /// Occupy one slot on `node`.
    fn take(&mut self, node: usize) {
        self.free[node] -= 1;
        self.replay(node);
    }

    /// Release one slot on `node`.
    fn give(&mut self, node: usize) {
        self.free[node] += 1;
        self.replay(node);
    }

    fn replay(&mut self, node: usize) {
        let mut i = (self.free.len() + node) / 2;
        while i > 0 {
            self.win[i] = self.play(self.win[2 * i], self.win[2 * i + 1]);
            i /= 2;
        }
    }
}

/// Arrival-order placement without preemption.
///
/// Jobs leave the queue strictly in FIFO order; each is placed on the
/// node with the most free slots (lowest index on ties).  When no slot
/// is free the head of the queue blocks everything behind it — exactly
/// the head-of-line behaviour the preemptive disciplines exist to beat.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    free: FreeSlotTree,
}

impl FifoPolicy {
    /// New FIFO discipline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ClusterPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        self.free.reset(view);
        for job in view.queue() {
            let Some(node) = self.free.best() else {
                break;
            };
            actions.push(SchedAction::Place { job: job.id, node });
            self.free.take(node);
        }
    }
}

/// Gandiva-style time-slicing with load-balancing migration.
///
/// New jobs fill free slots in arrival order.  When jobs are still
/// waiting and every slot is taken, the scheduler rotates: the running
/// job that has held its slot the longest (and for at least
/// [`slice`](Self::with_slice)) is suspended and the waiting job takes
/// its place, giving every job a share of the cluster in round-robin
/// fashion.  When nothing waits, a migration pass moves the most
/// recently placed job from the most loaded node to the least loaded
/// one whenever their occupancy differs by two or more slots.
#[derive(Debug)]
pub struct GandivaPolicy {
    slice: SimDuration,
    free: FreeSlotTree,
    /// Running jobs whose slice has expired: `(placed_at, id, node)`.
    expired: Vec<(SimTime, u32, usize)>,
}

impl GandivaPolicy {
    /// Minimum occupancy gap (in jobs) before a migration fires.
    const IMBALANCE: usize = 2;

    /// New Gandiva discipline with the default 60 s time slice.
    pub fn new() -> Self {
        Self::with_slice(SimDuration::from_secs(60))
    }

    /// New Gandiva discipline with an explicit time slice: a running job
    /// is only rotated out after holding its slot for at least `slice`.
    pub fn with_slice(slice: SimDuration) -> Self {
        Self {
            slice,
            free: FreeSlotTree::default(),
            expired: Vec::new(),
        }
    }
}

impl Default for GandivaPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterPolicy for GandivaPolicy {
    fn name(&self) -> &'static str {
        "gandiva"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        self.free.reset(view);

        // 1. Fill free slots in arrival order.  Slots only fill up, so the
        //    first job that finds none leaves every job behind it waiting.
        let mut queue = view.queue();
        let mut blocked = None;
        for job in queue.by_ref() {
            let Some(node) = self.free.best() else {
                blocked = Some(job);
                break;
            };
            actions.push(SchedAction::Place { job: job.id, node });
            self.free.take(node);
        }

        // 2. Rotate: each still-waiting job displaces the longest-held
        //    running job whose slice has expired (oldest placement first,
        //    lowest id on ties), until the expired jobs run out.  Waiting
        //    jobs are read only as far as there are victims.
        if let Some(head) = blocked {
            self.expired.clear();
            for node in 0..view.node_count() {
                for r in view.running_on(node) {
                    if view.now.saturating_since(r.placed_at) >= self.slice {
                        self.expired.push((r.placed_at, r.id, node));
                    }
                }
            }
            self.expired.sort_unstable();
            let waiting = std::iter::once(head).chain(queue);
            for (&(_, victim, node), job) in self.expired.iter().zip(waiting) {
                actions.push(SchedAction::Preempt { job: victim });
                actions.push(SchedAction::Place { job: job.id, node });
            }
        }

        // 3. Balance: with no queue pressure, close ≥2-slot occupancy
        //    gaps by migrating the newest placement off the hot node.
        if view.queue_len() == 0 && view.node_count() > 1 {
            let mut hot = 0usize;
            let mut cold = 0usize;
            for node in 1..view.node_count() {
                if view.running_on(node).len() > view.running_on(hot).len() {
                    hot = node;
                }
                if view.running_on(node).len() < view.running_on(cold).len() {
                    cold = node;
                }
            }
            let gap = view.running_on(hot).len() - view.running_on(cold).len();
            if gap >= Self::IMBALANCE && view.free_slots(cold) > 0 {
                if let Some(mover) = view
                    .running_on(hot)
                    .iter()
                    .max_by_key(|r| (r.placed_at, r.id))
                {
                    actions.push(SchedAction::Migrate {
                        job: mover.id,
                        node: cold,
                    });
                }
            }
        }
    }
}

/// Tiresias-style least-attained-service scheduling.
///
/// Every quantum, all jobs (queued and running) are ranked by attained
/// service, least first (ties break toward the older job id, i.e.
/// FIFO).  The top `total_slots` jobs deserve the slots: running jobs
/// outside that set are preempted, queued jobs inside it are placed.
/// No duration knowledge is used anywhere — short jobs win slots simply
/// because they have not yet accumulated service.
///
/// The ranking reads only the jobs it can act on.  It sorts the running
/// jobs (at most `total_slots` of them) and merges them with the head of
/// the queue's own rank order ([`ClusterView::queue_by_service`]),
/// stopping after `total_slots` winners, so it reads O(slots) jobs
/// however deep the queue is.
#[derive(Debug, Default)]
pub struct TiresiasPolicy {
    /// Running jobs `(attained, id, node)`, in rank order.
    running: Vec<(f64, u32, usize)>,
    /// Queued jobs that won a slot, in rank order.
    winners: Vec<u32>,
    free: FreeSlotTree,
}

/// Tiresias rank order over `(attained service, job id)`: least attained
/// service first, then the older (lower) job id.  Ids are unique, so no
/// two jobs compare equal.
pub(super) fn by_rank(a: (f64, u32), b: (f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl TiresiasPolicy {
    /// New Tiresias discipline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ClusterPolicy for TiresiasPolicy {
    fn name(&self) -> &'static str {
        "tiresias"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        self.running.clear();
        for node in 0..view.node_count() {
            for r in view.running_on(node) {
                self.running.push((r.attained_cpu_secs, r.id, node));
            }
        }
        self.running
            .sort_unstable_by(|a, b| by_rank((a.0, a.1), (b.0, b.1)));

        // Merge the two rank orders until the slots are handed out: the
        // running jobs ahead of the cut keep their slots, the queued ones
        // ahead of it win one.
        self.winners.clear();
        let mut queued = view.queue_by_service().peekable();
        let mut kept = 0;
        for _ in 0..view.total_slots() {
            let running = self
                .running
                .get(kept)
                .map(|&(attained, id, _)| (attained, id));
            let queued_first = match (queued.peek(), running) {
                (Some(q), Some(r)) => by_rank((q.attained_cpu_secs, q.id), r).is_lt(),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if queued_first {
                self.winners.extend(queued.next().map(|q| q.id));
            } else if running.is_some() {
                kept += 1;
            } else {
                break;
            }
        }

        // Preempt the running jobs past the cut, then place the queued
        // winners, each in rank order.
        self.free.reset(view);
        for &(_, id, node) in &self.running[kept..] {
            actions.push(SchedAction::Preempt { job: id });
            self.free.give(node);
        }
        for &id in &self.winners {
            let node = self
                .free
                .best()
                .expect("preemptions freed at least as many slots as queued winners");
            actions.push(SchedAction::Place { job: id, node });
            self.free.take(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_dl::ModelId;
    use proptest::prelude::*;

    /// The linear scan [`FreeSlotTree`] replaced: the node with the most
    /// free slots, lowest index on ties.
    fn most_free(free: &[usize]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (idx, &f) in free.iter().enumerate() {
            if f == 0 {
                continue;
            }
            match best {
                Some(b) if free[b] >= f => {}
                _ => best = Some(idx),
            }
        }
        best
    }

    /// Where a job sits when the full-sort Tiresias ranking runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum JobLoc {
        Queued,
        Running(usize),
    }

    /// The full-sort Tiresias ranking the merge with the queue's own rank
    /// order replaced: every job, queued and running, sorted.
    fn full_sort_tiresias(view: &ClusterView<'_>) -> Vec<SchedAction> {
        let mut order: Vec<(f64, u32, JobLoc)> = view
            .queue()
            .map(|j| (j.attained_cpu_secs, j.id, JobLoc::Queued))
            .collect();
        for node in 0..view.node_count() {
            for r in view.running_on(node) {
                order.push((r.attained_cpu_secs, r.id, JobLoc::Running(node)));
            }
        }
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let total = view.total_slots();
        let mut should_run: Vec<u32> = order.iter().take(total).map(|&(_, id, _)| id).collect();
        should_run.sort_unstable();
        let mut free: Vec<usize> = (0..view.node_count()).map(|n| view.free_slots(n)).collect();
        let mut actions = Vec::new();
        for &(_, id, loc) in &order {
            if let JobLoc::Running(node) = loc {
                if should_run.binary_search(&id).is_err() {
                    actions.push(SchedAction::Preempt { job: id });
                    free[node] += 1;
                }
            }
        }
        for &(_, id, loc) in order.iter().take(total) {
            if loc == JobLoc::Queued {
                let node = most_free(&free).expect("a slot was freed for every winner");
                actions.push(SchedAction::Place { job: id, node });
                free[node] -= 1;
            }
        }
        actions
    }

    /// FIFO placement by a linear scan over the free slots.
    fn linear_fifo(view: &ClusterView<'_>) -> Vec<SchedAction> {
        let mut free: Vec<usize> = (0..view.node_count()).map(|n| view.free_slots(n)).collect();
        let mut actions = Vec::new();
        for job in view.queue() {
            let Some(node) = most_free(&free) else {
                break;
            };
            actions.push(SchedAction::Place { job: job.id, node });
            free[node] -= 1;
        }
        actions
    }

    /// The Gandiva round the bounded read replaced: it collects every
    /// waiting job, though it pairs only as many as there are expired
    /// victims.
    fn collect_all_gandiva(view: &ClusterView<'_>, slice: SimDuration) -> Vec<SchedAction> {
        let mut free = FreeSlotTree::default();
        free.reset(view);
        let mut actions = Vec::new();
        let mut waiting = Vec::new();
        for job in view.queue() {
            match free.best() {
                Some(node) => {
                    actions.push(SchedAction::Place { job: job.id, node });
                    free.take(node);
                }
                None => waiting.push(job.id),
            }
        }
        if !waiting.is_empty() {
            let mut expired = Vec::new();
            for node in 0..view.node_count() {
                for r in view.running_on(node) {
                    if view.now.saturating_since(r.placed_at) >= slice {
                        expired.push((r.placed_at, r.id, node));
                    }
                }
            }
            expired.sort_unstable();
            for (&job, &(_, victim, node)) in waiting.iter().zip(&expired) {
                actions.push(SchedAction::Preempt { job: victim });
                actions.push(SchedAction::Place { job, node });
            }
        }
        if view.queue_len() == 0 && view.node_count() > 1 {
            let mut hot = 0usize;
            let mut cold = 0usize;
            for node in 1..view.node_count() {
                if view.running_on(node).len() > view.running_on(hot).len() {
                    hot = node;
                }
                if view.running_on(node).len() < view.running_on(cold).len() {
                    cold = node;
                }
            }
            let gap = view.running_on(hot).len() - view.running_on(cold).len();
            if gap >= GandivaPolicy::IMBALANCE && view.free_slots(cold) > 0 {
                if let Some(mover) = view
                    .running_on(hot)
                    .iter()
                    .max_by_key(|r| (r.placed_at, r.id))
                {
                    actions.push(SchedAction::Migrate {
                        job: mover.id,
                        node: cold,
                    });
                }
            }
        }
        actions
    }

    fn engine_job(job: &QueuedJobView) -> EngineJob {
        EngineJob {
            id: job.id,
            model: ModelId::MnistTorch,
            arrival: job.arrival,
            work_scale: 1.0,
            attained: job.attained_cpu_secs,
            queued_since: job.queued_since,
        }
    }

    /// An admission queue holding `jobs`, head first.
    fn queue_of(jobs: &[QueuedJobView]) -> AdmissionQueue {
        churned_queue_of(jobs, 0, 0)
    }

    /// An admission queue holding `jobs`, head first, in a state a run
    /// reaches: the rank order has settled the first `settled` jobs into
    /// its sorted run and holds the rest as pending keys, and a job taken
    /// since then follows each of the first `ghosts` jobs (at its rank,
    /// one id past every job), leaving dead keys in both orders.
    fn churned_queue_of(jobs: &[QueuedJobView], settled: usize, ghosts: usize) -> AdmissionQueue {
        let ids = jobs.iter().map(|j| j.id + 1).max().unwrap_or(0);
        let ghosts = ghosts.min(jobs.len());
        let mut queue = AdmissionQueue::new(ids as usize + ghosts);
        for (i, job) in jobs.iter().enumerate() {
            queue.push_back(engine_job(job));
            if i < ghosts {
                queue.push_back(engine_job(&QueuedJobView {
                    id: ids + i as u32,
                    ..*job
                }));
            }
            if i + 1 == settled {
                queue.by_service().count();
            }
        }
        for i in 0..ghosts {
            queue.take(ids + i as u32);
        }
        queue
    }

    /// What a view holds: nodes, their running jobs, and the queue.
    struct Scene {
        spans: Vec<NodeSpan>,
        running: Vec<RunningJobView>,
        queue: Vec<QueuedJobView>,
    }

    /// Nodes `(slots, busy)`, their running jobs, then `queued` waiting
    /// jobs.  Ids are a bijection on 16 bits picked by `salt`, so id order
    /// differs from position order; attained service and placement times
    /// come from `levels`, a few values, so ties are common.
    fn scene(nodes: &[(usize, usize)], queued: usize, levels: &[u32], salt: u32) -> Scene {
        let id = |i: usize| ((i as u32).wrapping_mul(0x9E37_79B1) ^ salt) & 0xFFFF;
        let level = |i: usize| levels[i % levels.len()];
        let mut spans = Vec::new();
        let mut running = Vec::new();
        for &(slots, busy) in nodes {
            let len = busy.min(slots);
            spans.push(NodeSpan {
                slots,
                start: running.len(),
                len,
            });
            for _ in 0..len {
                let i = running.len();
                running.push(RunningJobView {
                    id: id(i),
                    attained_cpu_secs: f64::from(level(i)) * 12.5,
                    placed_at: SimTime::from_secs(u64::from(level(i + 7)) * 20),
                });
            }
        }
        let queue = (running.len()..running.len() + queued)
            .map(|i| QueuedJobView {
                id: id(i),
                arrival: SimTime::ZERO,
                attained_cpu_secs: f64::from(level(i)) * 12.5,
                queued_since: SimTime::ZERO,
            })
            .collect();
        Scene {
            spans,
            running,
            queue,
        }
    }

    proptest! {
        #[test]
        fn free_slot_tree_picks_the_linear_scans_node(
            start in prop::collection::vec(0usize..4, 1..40),
            steps in prop::collection::vec((0usize..64, 0u8..2), 0..80),
        ) {
            // Only `free_slots` is read, so the spans need no running arena.
            let spans: Vec<NodeSpan> = start
                .iter()
                .map(|&f| NodeSpan { slots: 4, start: 0, len: 4 - f })
                .collect();
            let empty = AdmissionQueue::new(0);
            let mut tree = FreeSlotTree::default();
            tree.reset(&ClusterView::new(SimTime::ZERO, &empty, &spans[..1], &[]));
            tree.reset(&ClusterView::new(SimTime::ZERO, &empty, &spans, &[]));
            let mut free = start.clone();
            prop_assert_eq!(tree.best(), most_free(&free));
            for (pick, up) in steps {
                let node = pick % free.len();
                if up == 1 || free[node] == 0 {
                    free[node] += 1;
                    tree.give(node);
                } else {
                    free[node] -= 1;
                    tree.take(node);
                }
                prop_assert_eq!(tree.best(), most_free(&free), "free slots {:?}", free);
            }
        }

        #[test]
        fn top_k_tiresias_emits_the_full_sorts_actions(
            nodes in prop::collection::vec((1usize..4, 0usize..4), 1..10),
            queued in 0usize..30,
            service in prop::collection::vec(0u32..5, 64),
            salt in 0u32..1 << 16,
            settled in 0usize..32,
            ghosts in 0usize..32,
        ) {
            // Five service levels make attained-service ties common.
            let s = scene(&nodes, queued, &service, salt);
            let queue = churned_queue_of(&s.queue, settled, ghosts);
            let view = ClusterView::new(SimTime::from_secs(100), &queue, &s.spans, &s.running);
            // The view reads the queue in both orders.
            let fifo: Vec<QueuedJobView> = view.queue().collect();
            prop_assert_eq!(&fifo, &s.queue);
            let mut ranked = s.queue.clone();
            ranked.sort_by(|a, b| by_rank((a.attained_cpu_secs, a.id), (b.attained_cpu_secs, b.id)));
            let by_service: Vec<QueuedJobView> = view.queue_by_service().collect();
            prop_assert_eq!(&by_service, &ranked);
            prop_assert_eq!(view.queue_len(), queued);
            let want = full_sort_tiresias(&view);
            // Twice through one instance: recycled scratch must not leak.
            let mut policy = TiresiasPolicy::new();
            for _ in 0..2 {
                let mut actions = Vec::new();
                policy.schedule(&view, &mut actions);
                prop_assert_eq!(&actions, &want);
            }
        }

        #[test]
        fn fifo_emits_the_linear_scans_actions(
            nodes in prop::collection::vec((1usize..4, 0usize..4), 1..10),
            queued in 0usize..30,
            salt in 0u32..1 << 16,
            settled in 0usize..32,
            ghosts in 0usize..32,
        ) {
            let s = scene(&nodes, queued, &[0, 1, 2], salt);
            let queue = churned_queue_of(&s.queue, settled, ghosts);
            let view = ClusterView::new(SimTime::from_secs(100), &queue, &s.spans, &s.running);
            let want = linear_fifo(&view);
            let mut policy = FifoPolicy::new();
            for _ in 0..2 {
                let mut actions = Vec::new();
                policy.schedule(&view, &mut actions);
                prop_assert_eq!(&actions, &want);
            }
        }

        #[test]
        fn gandiva_emits_the_collect_all_rounds_actions(
            nodes in prop::collection::vec((1usize..4, 0usize..4), 1..10),
            queued in 0usize..30,
            placed in prop::collection::vec(0u32..6, 16),
            salt in 0u32..1 << 16,
            settled in 0usize..32,
            ghosts in 0usize..32,
        ) {
            // Placements 0-100 s before the barrier at 100 s: the 60 s
            // slice has expired for some running jobs and not for others.
            let s = scene(&nodes, queued, &placed, salt);
            let queue = churned_queue_of(&s.queue, settled, ghosts);
            let view = ClusterView::new(SimTime::from_secs(100), &queue, &s.spans, &s.running);
            let slice = SimDuration::from_secs(60);
            let want = collect_all_gandiva(&view, slice);
            let mut policy = GandivaPolicy::with_slice(slice);
            for _ in 0..2 {
                let mut actions = Vec::new();
                policy.schedule(&view, &mut actions);
                prop_assert_eq!(&actions, &want);
            }
        }
    }

    fn queued(id: u32, attained: f64) -> QueuedJobView {
        QueuedJobView {
            id,
            arrival: SimTime::ZERO,
            attained_cpu_secs: attained,
            queued_since: SimTime::ZERO,
        }
    }

    fn running(id: u32, attained: f64, placed_secs: u64) -> RunningJobView {
        RunningJobView {
            id,
            attained_cpu_secs: attained,
            placed_at: SimTime::from_secs(placed_secs),
        }
    }

    #[test]
    fn fifo_places_in_arrival_order_onto_the_freest_node() {
        let queue = queue_of(&[queued(0, 0.0), queued(1, 0.0), queued(2, 0.0)]);
        let nodes = [
            NodeSpan {
                slots: 2,
                start: 0,
                len: 1,
            },
            NodeSpan {
                slots: 2,
                start: 1,
                len: 0,
            },
        ];
        let arena = [running(9, 5.0, 0)];
        let view = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        FifoPolicy::new().schedule(&view, &mut actions);
        assert_eq!(
            actions,
            vec![
                SchedAction::Place { job: 0, node: 1 },
                SchedAction::Place { job: 1, node: 0 },
                SchedAction::Place { job: 2, node: 1 },
            ]
        );
    }

    #[test]
    fn fifo_never_preempts_when_the_cluster_is_full() {
        let queue = queue_of(&[queued(3, 0.0)]);
        let nodes = [NodeSpan {
            slots: 1,
            start: 0,
            len: 1,
        }];
        let arena = [running(0, 50.0, 0)];
        let view = ClusterView::new(SimTime::from_secs(500), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        FifoPolicy::new().schedule(&view, &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn tiresias_evicts_the_most_served_job_for_a_fresh_arrival() {
        let queue = queue_of(&[queued(5, 0.0)]);
        let nodes = [NodeSpan {
            slots: 2,
            start: 0,
            len: 2,
        }];
        let arena = [running(0, 400.0, 0), running(1, 10.0, 0)];
        let view = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        TiresiasPolicy::new().schedule(&view, &mut actions);
        assert_eq!(
            actions,
            vec![
                SchedAction::Preempt { job: 0 },
                SchedAction::Place { job: 5, node: 0 },
            ]
        );
    }

    #[test]
    fn tiresias_breaks_attained_ties_toward_the_older_job() {
        let queue = queue_of(&[queued(7, 0.0), queued(2, 0.0)]);
        let nodes = [NodeSpan {
            slots: 1,
            start: 0,
            len: 0,
        }];
        let arena: [RunningJobView; 0] = [];
        let view = ClusterView::new(SimTime::ZERO, &queue, &nodes, &arena);
        let mut actions = Vec::new();
        TiresiasPolicy::new().schedule(&view, &mut actions);
        // Only one slot: the older id (2) wins the tie at 0 attained.
        assert_eq!(actions, vec![SchedAction::Place { job: 2, node: 0 }]);
    }

    #[test]
    fn gandiva_rotates_only_after_the_slice_expires() {
        let queue = queue_of(&[queued(4, 0.0)]);
        let nodes = [NodeSpan {
            slots: 1,
            start: 0,
            len: 1,
        }];
        let arena = [running(0, 30.0, 70)];
        // Placed at t=70, now t=100: held 30 s < 60 s slice — no rotation.
        let early = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        let mut policy = GandivaPolicy::new();
        policy.schedule(&early, &mut actions);
        assert!(actions.is_empty());

        // Now t=140: held 70 s ≥ slice — rotate.
        let late = ClusterView::new(SimTime::from_secs(140), &queue, &nodes, &arena);
        policy.schedule(&late, &mut actions);
        assert_eq!(
            actions,
            vec![
                SchedAction::Preempt { job: 0 },
                SchedAction::Place { job: 4, node: 0 },
            ]
        );
    }

    #[test]
    fn gandiva_migrates_to_close_a_two_slot_gap() {
        let queue = queue_of(&[]);
        let nodes = [
            NodeSpan {
                slots: 2,
                start: 0,
                len: 2,
            },
            NodeSpan {
                slots: 2,
                start: 2,
                len: 0,
            },
        ];
        let arena = [running(0, 10.0, 0), running(1, 5.0, 50)];
        let view = ClusterView::new(SimTime::from_secs(100), &queue, &nodes, &arena);
        let mut actions = Vec::new();
        GandivaPolicy::new().schedule(&view, &mut actions);
        // The newest placement (job 1) moves to the empty node.
        assert_eq!(actions, vec![SchedAction::Migrate { job: 1, node: 1 }]);
    }

    #[test]
    fn policy_kind_parses_all_spellings() {
        for kind in SchedPolicyKind::ALL {
            assert_eq!(SchedPolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SchedPolicyKind::parse("FIFO"), Some(SchedPolicyKind::Fifo));
        assert_eq!(SchedPolicyKind::parse("srtf"), None);
    }
}
