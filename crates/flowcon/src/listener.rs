//! Algorithm 2: the Worker Monitor's listeners.
//!
//! The *New Cons* and *Finished Cons* listeners watch the container pool in
//! real time.  At each iteration they compare the pool's membership against
//! the previous iteration (`c = T(i) − T(i−1)`):
//!
//! * `c > 0` — new containers joined: insert them into the New List, reset
//!   the executor interval (breaking any exponential back-off) and run
//!   Algorithm 1 immediately (lines 5–9);
//! * `c < 0` — containers finished: purge them from every list, release
//!   their resources, reset the interval and run Algorithm 1 (lines 10–17).
//!
//! In the discrete-event worker the listener is invoked exactly when the
//! pool changes (an admission or an exit), which models the paper's
//! "lightweight background-listeners track the container states in
//! real-time" (§4.3) without polling.

use flowcon_container::ContainerId;

use crate::lists::Lists;

/// What the listener decided after observing a pool snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenerOutcome {
    /// Containers that newly joined (inserted into NL).
    pub arrived: Vec<ContainerId>,
    /// Containers that left (purged from the lists, resources released).
    pub departed: Vec<ContainerId>,
    /// True if the executor must reset `itval` to its initial value and run
    /// Algorithm 1 right now.
    pub interrupt: bool,
}

impl ListenerOutcome {
    fn quiet() -> Self {
        ListenerOutcome {
            arrived: Vec::new(),
            departed: Vec::new(),
            interrupt: false,
        }
    }
}

/// The Worker Monitor's listener state (Algorithm 2).
#[derive(Debug, Default, Clone)]
pub struct Listener {
    /// Pool membership at the previous iteration, sorted ascending (the
    /// pool always reports ids in id order, so the diff is a single merge
    /// walk and steady-state observation is allocation-free).
    known: Vec<ContainerId>,
    /// Iteration counter `i`.
    iteration: u64,
}

impl Listener {
    /// A fresh listener with an empty membership snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterations performed so far.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Allocation-free observation: update `lists` for every arrival and
    /// departure and return whether anything changed (Algorithm 2's
    /// interrupt).  This is the hot-path entry point the FlowCon policy
    /// uses; [`Listener::observe`] reports the same outcome with the
    /// arrival/departure sets materialized.
    ///
    /// `pool_ids` must be the ids of every container currently in the
    /// pool, in ascending id order (how the pool iterates).
    pub fn observe_interrupt(&mut self, pool_ids: &[ContainerId], lists: &mut Lists) -> bool {
        self.iteration += 1;
        debug_assert!(
            pool_ids.windows(2).all(|w| w[0] < w[1]),
            "pool ids must arrive sorted ascending"
        );
        // Merge-walk the sorted previous and current memberships.
        let mut changed = false;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.known.len() || j < pool_ids.len() {
            match (self.known.get(i).copied(), pool_ids.get(j).copied()) {
                (Some(k), Some(p)) if k == p => {
                    i += 1;
                    j += 1;
                }
                // Lines 10–15: c < 0, purge finished containers.
                (Some(k), Some(p)) if k < p => {
                    lists.remove(k);
                    changed = true;
                    i += 1;
                }
                (Some(k), None) => {
                    lists.remove(k);
                    changed = true;
                    i += 1;
                }
                // Lines 5–7: c > 0, put unknown containers into NL.
                (_, Some(p)) => {
                    lists.insert_new(p);
                    changed = true;
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        if changed {
            // Reuses the snapshot buffer's capacity from here on.
            self.known.clear();
            self.known.extend_from_slice(pool_ids);
        }
        changed
    }

    /// Observe the current pool membership and update `lists` accordingly.
    ///
    /// `pool_ids` must be the ids of every container currently in the pool
    /// in ascending id order (Algorithm 2's `T(i)` is their count).
    /// Handles simultaneous arrivals and departures in one call (the
    /// paper's loop would observe them over two iterations; the net effect
    /// is identical).  Allocates the arrival/departure sets; interrupt-only
    /// callers should prefer [`Listener::observe_interrupt`].
    pub fn observe(&mut self, pool_ids: &[ContainerId], lists: &mut Lists) -> ListenerOutcome {
        let arrived: Vec<ContainerId> = pool_ids
            .iter()
            .copied()
            .filter(|p| self.known.binary_search(p).is_err())
            .collect();
        let departed: Vec<ContainerId> = self
            .known
            .iter()
            .copied()
            .filter(|k| pool_ids.binary_search(k).is_err())
            .collect();
        if !self.observe_interrupt(pool_ids, lists) {
            return ListenerOutcome::quiet();
        }
        // Lines 8 & 16: reset itval and trigger Algorithm 1.
        ListenerOutcome {
            arrived,
            departed,
            interrupt: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::ListKind;

    fn id(raw: u32) -> ContainerId {
        ContainerId::from_raw(raw)
    }

    #[test]
    fn first_observation_registers_arrivals() {
        let mut listener = Listener::new();
        let mut lists = Lists::new();
        let out = listener.observe(&[id(1), id(2)], &mut lists);
        assert_eq!(out.arrived, vec![id(1), id(2)]);
        assert!(out.departed.is_empty());
        assert!(out.interrupt);
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::New));
        assert_eq!(lists.kind_of(id(2)), Some(ListKind::New));
    }

    #[test]
    fn steady_state_is_quiet() {
        let mut listener = Listener::new();
        let mut lists = Lists::new();
        listener.observe(&[id(1)], &mut lists);
        let out = listener.observe(&[id(1)], &mut lists);
        assert!(!out.interrupt);
        assert!(out.arrived.is_empty() && out.departed.is_empty());
        assert_eq!(listener.iteration(), 2);
    }

    #[test]
    fn departure_purges_all_lists() {
        let mut listener = Listener::new();
        let mut lists = Lists::new();
        listener.observe(&[id(1), id(2)], &mut lists);
        // Drive container 1 into CL.
        lists.observe(id(1), 0.0, 0.05);
        lists.observe(id(1), 0.0, 0.05);
        let out = listener.observe(&[id(2)], &mut lists);
        assert_eq!(out.departed, vec![id(1)]);
        assert!(out.interrupt);
        assert_eq!(lists.kind_of(id(1)), None);
        assert_eq!(lists.kind_of(id(2)), Some(ListKind::New));
    }

    #[test]
    fn simultaneous_arrival_and_departure() {
        let mut listener = Listener::new();
        let mut lists = Lists::new();
        listener.observe(&[id(1)], &mut lists);
        let out = listener.observe(&[id(2)], &mut lists);
        assert_eq!(out.arrived, vec![id(2)]);
        assert_eq!(out.departed, vec![id(1)]);
        assert!(out.interrupt);
    }

    #[test]
    fn empty_pool_after_all_finish() {
        let mut listener = Listener::new();
        let mut lists = Lists::new();
        listener.observe(&[id(1)], &mut lists);
        let out = listener.observe(&[], &mut lists);
        assert_eq!(out.departed, vec![id(1)]);
        assert!(lists.is_empty());
    }
}
