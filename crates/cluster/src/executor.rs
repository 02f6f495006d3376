//! The sharded cluster executor: a bounded pool whose threads claim
//! blocks of items.
//!
//! At most [`std::thread::available_parallelism`] OS threads (the
//! *shards*) share one claim lock.  A claim takes the next fixed-size
//! block of items: its slice of the result vector and, for
//! [`map_sharded`], its inputs drained off the shared `vec::IntoIter`.
//! The shard then runs the block outside the lock.  A 1000-worker
//! cluster runs on an 8-way machine with 8 threads, and a million-worker
//! one pays a lock per block, not per worker.
//!
//! The executor's distinguishing feature over a plain `parallel_map` is
//! **per-shard state**: each shard owns one `S` created by `init` and
//! threads it through every item it processes.  The cluster session uses
//! this to recycle one [`flowcon_core::dense::DenseScratch`] per shard
//! across the hundreds of worker simulations that shard drives, so worker
//! arenas and hot-path buffers are reused instead of reallocated per
//! simulation.
//!
//! There is no per-item bookkeeping.  Results are written into one
//! pre-sized `Vec<Option<O>>`, whose disjoint blocks the claims hand out
//! as `&mut` slices (so the crate stays `forbid(unsafe_code)`), and that
//! vector becomes the returned `Vec<O>` in place.  Every result lands in
//! its input's slot, so output order is deterministic regardless of
//! thread scheduling — and because each simulation is itself
//! deterministic, a sharded cluster run is bit-identical to the legacy
//! thread-per-worker path (pinned by `crates/cluster/tests/cluster_scale.rs`).
//!
//! A panic in a shard reaches the caller with its own payload once the
//! other shards have finished; the claim lock is never held while an
//! item runs.

use std::sync::{Mutex, PoisonError};

/// Number of pool shards for `n` items: `available_parallelism` capped by
/// the item count (and at least 1).
pub fn shard_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n)
        .max(1)
}

/// Items per claim for `n` items on `shards` shards: about 64 claims per
/// shard, so a slow block near the end leaves little imbalance, and at
/// least one item.
fn block_len(n: usize, shards: usize) -> usize {
    (n / (64 * shards)).max(1)
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
/// Each of the at most [`shard_count`]`(inputs.len())` shards calls `init`
/// once, then claims blocks of items and runs `f(&mut state, item)` on
/// each — the shard's state is reused across every item the shard
/// processes.  A claim moves its block's inputs into a buffer the shard
/// keeps, so inputs are consumed exactly once and never copied per item.
/// The single-shard case runs on the caller's thread (no spawn at all).
pub fn map_sharded<T, S, O, I, F>(inputs: Vec<T>, init: I, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> O + Sync,
{
    run_blocks(
        inputs.len(),
        inputs.into_iter(),
        || (init(), Vec::new()),
        |(_, block), inputs, len| block.extend(inputs.by_ref().take(len)),
        |(state, block), _, slots| {
            for (item, slot) in block.drain(..).zip(slots) {
                *slot = Some(f(state, item));
            }
        },
    )
}

/// Run `f(&mut state, i)` for every index `i` in `0..n` on a bounded pool
/// with per-shard state, preserving index order of results.
///
/// [`map_sharded`] over `(0..n).collect()` without the input vector: the
/// caller's data stays where it is and `f` addresses it by index.
pub fn map_indexed<S, O, I, F>(n: usize, init: I, f: F) -> Vec<O>
where
    O: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> O + Sync,
{
    run_blocks(
        n,
        (),
        init,
        |_, (), _| {},
        |state, start, slots| {
            for (i, slot) in (start..).zip(slots) {
                *slot = Some(f(state, i));
            }
        },
    )
}

/// What the claim lock guards: the blocks of result slots not yet handed
/// out, and the shared input source they are claimed together with.
struct Claims<'a, Q, O> {
    blocks: std::iter::Enumerate<std::slice::ChunksMut<'a, Option<O>>>,
    source: Q,
}

/// The one engine behind every map: shards claim blocks of
/// [`block_len`] slots under one lock, with `take(state, source, len)`
/// drawing the block's inputs in the same claim, then run
/// `fill(state, first_index, slots)` outside it.  Every slot must be
/// filled; the slots become the result vector in place.
fn run_blocks<Q, S, O>(
    n: usize,
    source: Q,
    init: impl Fn() -> S + Sync,
    take: impl Fn(&mut S, &mut Q, usize) + Sync,
    fill: impl Fn(&mut S, usize, &mut [Option<O>]) + Sync,
) -> Vec<O>
where
    Q: Send,
    O: Send,
{
    if n == 0 {
        return Vec::new();
    }
    let shards = shard_count(n);
    let block = block_len(n, shards);
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(n).collect();
    {
        let claims = Mutex::new(Claims {
            blocks: slots.chunks_mut(block).enumerate(),
            source,
        });
        let shard = || {
            let mut state = init();
            loop {
                let (first, block_slots) = {
                    // A shard that panicked in `take` left both iterators
                    // consistent, so the others carry on; its panic is
                    // re-raised once they are joined.
                    let mut claims = claims.lock().unwrap_or_else(PoisonError::into_inner);
                    let Some((k, block_slots)) = claims.blocks.next() else {
                        return;
                    };
                    take(&mut state, &mut claims.source, block_slots.len());
                    (k * block, block_slots)
                };
                fill(&mut state, first, block_slots);
            }
        };
        if shards == 1 {
            shard();
        } else {
            let panicked = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards).map(|_| scope.spawn(shard)).collect();
                // Join every shard before re-raising the first panic.
                handles
                    .into_iter()
                    .fold(None, |first, handle| first.or(handle.join().err()))
            });
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot filled by a shard"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Deterministic, uneven per-item work: most items are cheap, a few
    /// spin for a while, so shards finish their blocks out of order.
    fn uneven(item: usize) -> u64 {
        let spins = match item.wrapping_mul(0x9E37_79B9) % 13 {
            0 => 20_000,
            1..=3 => 2_000,
            _ => 0,
        };
        let mut h = item as u64;
        for _ in 0..spins {
            h = std::hint::black_box(h.rotate_left(5) ^ 0xF10C);
        }
        h
    }

    /// `n` for one case: mostly uniform over a range several block
    /// lengths long (blocks exceed one item past `64 × shards`), and
    /// otherwise one of the edges: empty, one item, one around the shard
    /// count, or one around the first two-item block.
    fn pick_n(edge: usize, uniform: usize) -> usize {
        let parallelism = shard_count(usize::MAX);
        match edge {
            0 => 0,
            1 => 1,
            2 => parallelism - 1,
            3 => parallelism,
            4 => parallelism + 1,
            5 => 128 * parallelism - 1,
            6 => 128 * parallelism + 1,
            _ => uniform,
        }
    }

    proptest::proptest! {
        #[test]
        fn map_sharded_equals_a_sequential_map(edge in 0usize..12, uniform in 0usize..3000) {
            let n = pick_n(edge, uniform);
            let inputs: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let expected: Vec<(usize, u64)> = (0..n).map(|i| (i, uneven(i))).collect();
            let consumed: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let inits = AtomicUsize::new(0);
            let out = map_sharded(
                inputs,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, item: String| {
                    let i: usize = item.parse().expect("an index");
                    consumed[i].fetch_add(1, Ordering::Relaxed);
                    (i, uneven(i))
                },
            );
            proptest::prop_assert_eq!(out, expected, "n = {}", n);
            proptest::prop_assert!(consumed.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            let inits = inits.load(Ordering::Relaxed);
            proptest::prop_assert!(inits <= shard_count(n), "{} inits for n = {}", inits, n);
        }

        #[test]
        fn map_indexed_equals_a_sequential_map(edge in 0usize..12, uniform in 0usize..3000) {
            let n = pick_n(edge, uniform);
            let expected: Vec<u64> = (0..n).map(uneven).collect();
            let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let inits = AtomicUsize::new(0);
            let out = map_indexed(
                n,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    uneven(i)
                },
            );
            proptest::prop_assert_eq!(out, expected, "n = {}", n);
            proptest::prop_assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            let inits = inits.load(Ordering::Relaxed);
            proptest::prop_assert!(inits <= shard_count(n), "{} inits for n = {}", inits, n);
        }
    }

    /// The payload a map call panicked with.
    fn panic_message(run: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the map call must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic message")
    }

    #[test]
    fn a_panic_in_f_reaches_the_caller_with_its_message() {
        let n = 1000;
        let sharded = panic_message(|| {
            map_sharded(
                (0..n).collect(),
                || (),
                |(), i: usize| {
                    assert!(i != 617, "item {i} failed");
                    i
                },
            );
        });
        assert_eq!(sharded, "item 617 failed");
        let indexed = panic_message(|| {
            map_indexed(
                n,
                || (),
                |(), i| {
                    assert!(i != 3, "item {i} failed");
                    i
                },
            );
        });
        assert_eq!(indexed, "item 3 failed");
        // The executor is reusable after a panic: nothing stayed locked.
        assert_eq!(map_indexed(n, || (), |(), i| i).len(), n);
    }

    #[test]
    fn blocks_cover_every_item_in_about_64_claims_per_shard() {
        assert_eq!(block_len(1, 1), 1);
        assert_eq!(block_len(128, 2), 1, "one item per claim");
        assert_eq!(block_len(1_000_000, 2), 7812);
        assert_eq!(block_len(1_000_000, 1), 15_625);
    }
}
