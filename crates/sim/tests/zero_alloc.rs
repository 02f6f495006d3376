//! Steady-state allocation audit for the hot path.
//!
//! A counting global allocator wraps `System`; after warm-up, repeated
//! `waterfill_into` / `waterfill_soft_into` rounds and node-share
//! recomputes must perform **zero** heap allocations.
//!
//! Counting is gated on a thread-local flag so the libtest harness's own
//! threads (which allocate at will) cannot contaminate the measurement
//! window of the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use flowcon_sim::alloc::{
    waterfill_into, waterfill_soft_into, AllocRequest, NodeShares, WaterfillScratch,
};
use flowcon_sim::contention::ContentionModel;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init: reading the flag never allocates, so the allocator can
    // consult it re-entrancy-free.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_tracking() {
    let tracking = TRACKING.try_with(|t| t.get()).unwrap_or(false);
    if tracking {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracking();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `f` with allocation tracking enabled on this thread; return how many
/// heap allocations it performed.
fn allocations_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    std::hint::black_box(out);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn drifted_requests(reqs: &mut [AllocRequest], round: usize) {
    // Move every limit each round (the Algorithm 1 steady-state pattern)
    // without changing the relative cap/weight order.
    let n = reqs.len() as f64;
    for (i, q) in reqs.iter_mut().enumerate() {
        let base = 0.05 + 0.9 * (i as f64 + 1.0) / (n + 1.0);
        q.limit = base + 0.0003 * ((round % 7) as f64);
    }
}

#[test]
fn hot_path_is_allocation_free_in_steady_state() {
    let n = 64;
    let mut reqs: Vec<AllocRequest> = (0..n)
        .map(|i| AllocRequest {
            limit: 1.0,
            demand: 0.3 + 0.6 * (i as f64) / (n as f64),
            weight: 1.0,
        })
        .collect();

    // --- waterfill_into, oversubscribed (sort path + warm cache) ---
    let mut scratch = WaterfillScratch::new();
    drifted_requests(&mut reqs, 0);
    waterfill_into(&mut scratch, 1.0, &reqs); // warm-up: buffers grow here
    let hard_allocs = allocations_during(|| {
        for round in 1..1_000usize {
            drifted_requests(&mut reqs, round);
            waterfill_into(&mut scratch, 1.0, &reqs);
        }
    });
    assert_eq!(
        hard_allocs, 0,
        "waterfill_into allocated {hard_allocs} times across 999 warm rounds"
    );
    assert!(
        scratch.sort_skips() > 0,
        "warm-order cache never engaged (skips {}, sorts {})",
        scratch.sort_skips(),
        scratch.sorts()
    );

    // --- early-exit path (Σcaps ≤ capacity) is also allocation-free ---
    for q in reqs.iter_mut() {
        q.limit = 0.005;
    }
    waterfill_into(&mut scratch, 1.0, &reqs);
    let early_allocs = allocations_during(|| {
        for _ in 0..100 {
            waterfill_into(&mut scratch, 1.0, &reqs);
        }
    });
    assert_eq!(
        early_allocs, 0,
        "early-exit path allocated {early_allocs} times"
    );
    assert!(scratch.early_exits() > 0, "early exit never engaged");

    // --- waterfill_soft_into with an active stage-2 top-up ---
    for (i, q) in reqs.iter_mut().enumerate() {
        q.limit = 0.004; // caps sum ≈ 0.26 < capacity → stage 2 runs
        q.demand = 0.2 + 0.01 * (i as f64);
    }
    waterfill_soft_into(&mut scratch, 1.0, &reqs); // warm-up for soft buffers
    let soft_allocs = allocations_during(|| {
        for _ in 0..500 {
            waterfill_soft_into(&mut scratch, 1.0, &reqs);
        }
    });
    assert_eq!(
        soft_allocs, 0,
        "waterfill_soft_into allocated {soft_allocs} times across 500 warm rounds"
    );

    // --- the node-share rule, limits drifting as under Algorithm 1 ---
    let contention = ContentionModel::default();
    let mut shares = NodeShares::new();
    drifted_requests(&mut reqs, 0);
    shares.recompute(1.0, &contention, reqs.iter().map(|q| (q.limit, q.demand)));
    let share_allocs = allocations_during(|| {
        for round in 1..500usize {
            drifted_requests(&mut reqs, round);
            shares.recompute(1.0, &contention, reqs.iter().map(|q| (q.limit, q.demand)));
        }
    });
    assert_eq!(
        share_allocs, 0,
        "NodeShares::recompute allocated {share_allocs} times across 499 warm rounds"
    );
}
