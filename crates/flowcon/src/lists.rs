//! The New / Watching / Completing lists of Algorithm 1.
//!
//! Each container sits in at most one list:
//!
//! * **NL** (New List) — young and quickly growing;
//! * **WL** (Watching List) — near convergence (one below-α measurement);
//! * **CL** (Completing List) — converging and growing slowly (two
//!   consecutive below-α measurements).
//!
//! Transitions (Algorithm 1 lines 2–13): a below-α measurement demotes
//! NL→WL and WL→CL; an at-or-above-α measurement promotes any container
//! back to NL.  Mutual exclusion of the three lists is an invariant that
//! property tests pin down.
//!
//! Membership is stored as a dense slot map indexed by the container's raw
//! id (the worker allocates ids sequentially from 0), so the steady-state
//! `observe` path is a branch-free array write with no tree rebalancing and
//! no heap traffic, and `all_completing` is an O(1) counter compare.

use flowcon_container::ContainerId;

/// Which list a container occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// New List: young and quickly growing.
    New,
    /// Watching List: near convergence.
    Watching,
    /// Completing List: converging, growing slowly.
    Completing,
}

/// The three mutually exclusive lists.
///
/// Backed by a dense `Vec` keyed by container slot (raw id): slot lookup
/// and membership transitions are O(1) array ops, and the vector only grows
/// when a never-seen slot arrives — steady-state reconfiguration performs
/// zero heap allocations (asserted by
/// `crates/flowcon/tests/policy_zero_alloc.rs`).
///
/// The dense layout assumes what the worker guarantees: ids are allocated
/// **sequentially from 0** per worker.  Memory is O(highest raw id ever
/// tracked) — slots of departed containers are retained (cheap: 1 byte
/// each) so they are allocation-free if the id is reused.  Don't feed this
/// type sparse hand-rolled ids (e.g. `from_raw(1 << 30)`): each tracked
/// container would pin `max_id` bytes, where the old tree-based
/// implementation was O(tracked).
#[derive(Debug, Clone, Default)]
pub struct Lists {
    /// `slots[raw_id]` is the list holding that container, if tracked.
    slots: Vec<Option<ListKind>>,
    /// Tracked containers per list, indexed by `kind_index`.
    counts: [usize; 3],
}

/// Index of a list kind into the `counts` array.
const fn kind_index(kind: ListKind) -> usize {
    match kind {
        ListKind::New => 0,
        ListKind::Watching => 1,
        ListKind::Completing => 2,
    }
}

impl Lists {
    /// Empty lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `id`, growing the dense map when a new high id arrives
    /// (a membership change, never the steady-state observe path).
    fn slot_mut(&mut self, id: ContainerId) -> &mut Option<ListKind> {
        let idx = id.as_raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        &mut self.slots[idx]
    }

    fn set(&mut self, id: ContainerId, kind: ListKind) {
        let slot = self.slot_mut(id);
        if let Some(prev) = slot.replace(kind) {
            self.counts[kind_index(prev)] -= 1;
        }
        self.counts[kind_index(kind)] += 1;
    }

    /// Insert a container into the New List (Algorithm 2 line 7).
    pub fn insert_new(&mut self, id: ContainerId) {
        self.set(id, ListKind::New);
    }

    /// Remove a container from whichever list holds it (Algorithm 2 lines
    /// 12–14).
    pub fn remove(&mut self, id: ContainerId) {
        if let Some(slot) = self.slots.get_mut(id.as_raw() as usize) {
            if let Some(prev) = slot.take() {
                self.counts[kind_index(prev)] -= 1;
            }
        }
    }

    /// The list currently holding `id`.
    pub fn kind_of(&self, id: ContainerId) -> Option<ListKind> {
        self.slots.get(id.as_raw() as usize).copied().flatten()
    }

    /// Apply one growth measurement (Algorithm 1 lines 4–13).
    ///
    /// Containers not yet tracked are treated as New-List members first
    /// (the listener inserts arrivals into NL before the algorithm runs,
    /// but a direct call must not panic).
    pub fn observe(&mut self, id: ContainerId, growth: f64, alpha: f64) {
        let current = self.kind_of(id).unwrap_or(ListKind::New);
        let next = if growth < alpha {
            match current {
                ListKind::New => ListKind::Watching,
                ListKind::Watching => ListKind::Completing,
                ListKind::Completing => ListKind::Completing,
            }
        } else {
            ListKind::New
        };
        self.set(id, next);
    }

    /// True if **all** tracked containers are in the Completing List and at
    /// least one container exists (Algorithm 1 line 14).
    pub fn all_completing(&self) -> bool {
        let cl = self.counts[kind_index(ListKind::Completing)];
        cl > 0 && cl == self.len()
    }

    /// Number of tracked containers.
    pub fn len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// True when no container is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(id, kind)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ContainerId, ListKind)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.map(|k| (ContainerId::from_raw(idx as u32), k)))
    }

    /// Ids in a given list, in id order.
    pub fn in_list(&self, kind: ListKind) -> Vec<ContainerId> {
        self.iter()
            .filter(|&(_, k)| k == kind)
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u32) -> ContainerId {
        ContainerId::from_raw(raw)
    }

    #[test]
    fn demotion_takes_two_low_measurements() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::New));
        lists.observe(id(1), 0.01, 0.05);
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::Watching));
        lists.observe(id(1), 0.01, 0.05);
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::Completing));
        // Stays in CL on further low measurements.
        lists.observe(id(1), 0.0, 0.05);
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::Completing));
    }

    #[test]
    fn high_growth_promotes_back_to_new() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.observe(id(1), 0.01, 0.05);
        lists.observe(id(1), 0.01, 0.05);
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::Completing));
        // A staircase loss drop makes G spike above alpha again.
        lists.observe(id(1), 0.2, 0.05);
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::New));
    }

    #[test]
    fn boundary_value_alpha_counts_as_growing() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        // Algorithm 1 line 10: G >= alpha keeps the job in NL.
        lists.observe(id(1), 0.05, 0.05);
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::New));
    }

    #[test]
    fn all_completing_requires_every_member() {
        let mut lists = Lists::new();
        assert!(!lists.all_completing(), "empty lists are not all-CL");
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        for _ in 0..2 {
            lists.observe(id(1), 0.0, 0.05);
        }
        assert!(!lists.all_completing());
        for _ in 0..2 {
            lists.observe(id(2), 0.0, 0.05);
        }
        assert!(lists.all_completing());
    }

    #[test]
    fn remove_drops_membership() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.remove(id(1));
        assert_eq!(lists.kind_of(id(1)), None);
        assert!(lists.is_empty());
    }

    #[test]
    fn in_list_partitions_members() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        lists.observe(id(2), 0.0, 0.05);
        assert_eq!(lists.in_list(ListKind::New), vec![id(1)]);
        assert_eq!(lists.in_list(ListKind::Watching), vec![id(2)]);
        assert!(lists.in_list(ListKind::Completing).is_empty());
    }

    #[test]
    fn observe_untracked_container_is_tolerated() {
        let mut lists = Lists::new();
        lists.observe(id(9), 0.5, 0.05);
        assert_eq!(lists.kind_of(id(9)), Some(ListKind::New));
    }

    #[test]
    fn sparse_slots_keep_counts_consistent() {
        // Ids far apart (slot map grows) with churn in between.
        let mut lists = Lists::new();
        lists.insert_new(id(0));
        lists.insert_new(id(100));
        assert_eq!(lists.len(), 2);
        for _ in 0..2 {
            lists.observe(id(0), 0.0, 0.05);
            lists.observe(id(100), 0.0, 0.05);
        }
        assert!(lists.all_completing());
        lists.remove(id(0));
        assert_eq!(lists.len(), 1);
        assert!(lists.all_completing(), "remaining member is still CL");
        lists.remove(id(100));
        assert!(lists.is_empty());
        assert!(!lists.all_completing());
        // Removing an id the map never saw is a no-op.
        lists.remove(id(7_000));
        assert_eq!(lists.kind_of(id(7_000)), None);
    }

    #[test]
    fn iter_is_in_id_order_across_kinds() {
        let mut lists = Lists::new();
        for raw in [5, 1, 3] {
            lists.insert_new(id(raw));
        }
        lists.observe(id(3), 0.0, 0.05);
        let seen: Vec<u32> = lists.iter().map(|(i, _)| i.as_raw()).collect();
        assert_eq!(seen, vec![1, 3, 5]);
    }
}
