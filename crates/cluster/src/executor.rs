//! The sharded cluster executor: a bounded, work-stealing-free thread pool.
//!
//! `Manager::run` used to spawn one OS thread per worker node, which caps
//! cluster experiments at a few dozen nodes.  This module generalizes the
//! shared-cursor pool that `flowcon-bench` used for parameter sweeps into a
//! reusable executor: at most [`std::thread::available_parallelism`] OS
//! threads (the *shards*) pull items off an atomic cursor, so a
//! 1000-worker cluster runs on an 8-way machine with 8 threads.
//!
//! The executor's distinguishing feature over a plain `parallel_map` is
//! **per-shard state**: each shard owns one `S` created by `init` and
//! threads it through every item it processes ([`map_sharded`]).  The
//! cluster session uses this to recycle one
//! [`flowcon_core::dense::DenseScratch`] per shard across the hundreds of
//! worker simulations that shard drives, so worker arenas and hot-path
//! buffers are reused instead of reallocated per simulation.
//!
//! Items are claimed in input order and results land in their input slot,
//! so output order is deterministic regardless of thread scheduling — and
//! because each simulation is itself deterministic, a sharded cluster run
//! is bit-identical to the legacy thread-per-worker path (pinned by
//! `crates/cluster/tests/cluster_scale.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of pool shards for `n` items: `available_parallelism` capped by
/// the item count (and at least 1).
pub fn shard_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n)
        .max(1)
}

/// Run `f` over `inputs` on a bounded pool, preserving input order of
/// results.  Stateless convenience wrapper over [`map_sharded`].
pub fn map_bounded<T, O, F>(inputs: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    map_sharded(inputs, || (), |(), item| f(item))
}

/// Run `f` over `inputs` on a bounded pool with per-shard state, preserving
/// input order of results.
///
/// Each of the at most [`shard_count`]`(inputs.len())` OS threads calls
/// `init` once, then claims items off a shared cursor and runs
/// `f(&mut state, item)` — the shard's state is reused across every item
/// the shard processes.  The degenerate single-shard case runs inline on
/// the caller's thread (no spawn at all).
pub fn map_sharded<T, S, O, I, F>(inputs: Vec<T>, init: I, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let shards = shard_count(n);
    if shards == 1 {
        let mut state = init();
        return inputs.into_iter().map(|item| f(&mut state, item)).collect();
    }

    // Shared-cursor claim loop: each shard takes the next unclaimed index,
    // computes the item, and writes the result into its slot, so output
    // order always matches input order regardless of scheduling.  The
    // per-item mutexes are uncontended by construction (each index is
    // claimed exactly once) — they only exist to keep this crate
    // `forbid(unsafe_code)`.
    let cells: Vec<Mutex<Option<T>>> = inputs
        .into_iter()
        .map(|input| Mutex::new(Some(input)))
        .collect();
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..shards {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let input = cells[i]
                        .lock()
                        .expect("cell mutex poisoned")
                        .take()
                        .expect("each cell is claimed exactly once");
                    let out = f(&mut state, input);
                    *slots[i].lock().expect("slot mutex poisoned") = Some(out);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("every slot filled by a shard")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_bounded_preserves_order() {
        let out = map_bounded((0..32).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_bounded_handles_many_more_items_than_cores() {
        // 1000 items must not spawn 1000 threads; the bounded pool finishes
        // with at most `available_parallelism` shards.
        let out = map_bounded((0..1000).collect(), |x: u64| x * x);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == (i as u64).pow(2)));
    }

    #[test]
    fn map_bounded_empty_and_single() {
        assert!(map_bounded(Vec::<u8>::new(), |x: u8| x).is_empty());
        assert_eq!(map_bounded(vec![7], |x: u8| x + 1), vec![8]);
    }

    #[test]
    fn shard_state_is_initialized_once_per_shard_and_reused() {
        let inits = AtomicUsize::new(0);
        let out = map_sharded(
            (0..257).collect::<Vec<usize>>(),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |seen, item| {
                seen.push(item);
                (item, seen.len())
            },
        );
        // Every item processed exactly once, in order.
        assert!(out.iter().enumerate().all(|(i, &(item, _))| item == i));
        // States created once per shard, not once per item.
        let shards = shard_count(257);
        assert_eq!(inits.load(Ordering::Relaxed), shards);
        // At least one shard processed more than one item (257 > shards),
        // i.e. state really is carried across items.
        assert!(out.iter().any(|&(_, len)| len > 1) || shards == 257);
    }

    #[test]
    fn shard_count_is_bounded_by_items_and_positive() {
        assert_eq!(shard_count(1), 1);
        assert!(shard_count(0) >= 1);
        assert!(shard_count(100_000) <= 1024, "bounded by the machine");
    }
}
