//! Steady-state allocation audit for the policy reconfigure path.
//!
//! The allocator/engine hot path is allocation-free; this pins the
//! policy layer: with warm buffers (a reusable updates vector, dense
//! `Lists` slots), repeated `reconfigure_into` calls must perform **zero**
//! heap allocations — no per-call updates `Vec`, no BTreeMap rebalancing.
//!
//! Counting is gated on a thread-local flag so the libtest harness's own
//! threads cannot contaminate the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use flowcon_container::ContainerId;
use flowcon_core::config::FlowConConfig;
use flowcon_core::policy::{FlowConPolicy, ResourcePolicy, StaticEqualPolicy};
use flowcon_core::GrowthMeasurement;
use flowcon_sim::time::SimTime;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
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

fn allocations_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    std::hint::black_box(out);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn id(raw: u32) -> ContainerId {
    ContainerId::from_raw(raw)
}

fn measure(raw: u32, growth: f64, limit: f64) -> GrowthMeasurement {
    GrowthMeasurement {
        id: id(raw),
        progress: Some(growth * 0.5),
        avg_usage: flowcon_sim::ResourceVec::cpu(0.5),
        cpu_limit: limit,
    }
}

#[test]
fn flowcon_steady_state_reconfigure_is_allocation_free() {
    const N: u32 = 64;
    let mut policy = FlowConPolicy::new(FlowConConfig::default());
    let ids: Vec<ContainerId> = (0..N).map(id).collect();
    policy.on_pool_change(SimTime::ZERO, &ids);

    // Half the pool converging (below alpha), half still growing — the
    // mixed steady state where Algorithm 1 recomputes proportional limits
    // every tick (never the all-CL back-off branch).
    let mut measures: Vec<GrowthMeasurement> = (0..N)
        .map(|i| {
            let growth = if i % 2 == 0 {
                0.01
            } else {
                0.20 + 0.001 * i as f64
            };
            measure(i, growth, 1.0)
        })
        .collect();

    let mut updates = Vec::new();
    // Warm-up: updates buffer reaches steady capacity, Lists slots exist.
    for round in 0..3u64 {
        drift(&mut measures, round);
        policy.reconfigure_into(
            SimTime::from_secs(20 * (round + 1)),
            &measures,
            &mut updates,
        );
    }

    let allocs = allocations_during(|| {
        for round in 3..1_003u64 {
            drift(&mut measures, round);
            policy.reconfigure_into(
                SimTime::from_secs(20 * (round + 1)),
                &measures,
                &mut updates,
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state FlowCon reconfigure allocated {allocs} times across 1000 warm rounds"
    );
    assert!(!updates.is_empty(), "the rounds really reconfigured");
}

/// Nudge limits every round (what applying the previous decision does)
/// so each reconfigure computes fresh updates.
fn drift(measures: &mut [GrowthMeasurement], round: u64) {
    let n = measures.len() as f64;
    for (i, m) in measures.iter_mut().enumerate() {
        let base = 0.10 + 0.8 * (i as f64 + 1.0) / (n + 1.0);
        m.cpu_limit = base + 0.0003 * ((round % 5) as f64);
    }
}

#[test]
fn static_equal_reconfigure_is_allocation_free_after_warmup() {
    let mut policy = StaticEqualPolicy::new();
    let ids: Vec<ContainerId> = (0..32).map(id).collect();
    policy.on_pool_change(SimTime::ZERO, &ids);
    let mut updates = Vec::new();
    policy.reconfigure_into(SimTime::ZERO, &[], &mut updates); // warm-up
    let allocs = allocations_during(|| {
        for _ in 0..1_000 {
            policy.reconfigure_into(SimTime::ZERO, &[], &mut updates);
        }
    });
    assert_eq!(allocs, 0, "static policy allocated {allocs} times");
    assert_eq!(updates.len(), 32);
}
