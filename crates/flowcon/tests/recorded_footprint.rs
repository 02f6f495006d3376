//! The recorded footprint: a `RunSummary` from a `FullRecorder` session
//! must hold at most **8 heap bytes per usage sample**.
//!
//! A recorded run samples every live container's usage and limit at 1 Hz,
//! so these series are where a recorded run's memory goes.  Both are step
//! functions (usage is the container's water-fill rate, the limit moves
//! only on a policy update), and `TimeSeries` pays per change, not per
//! sample.  A layout that stores every sample as a 16-byte `(t, value)`
//! pair holds at least 32 bytes per usage sample (usage plus limit)
//! before growth series, labels and `Vec` slack.
//!
//! The bytes a summary holds are the bytes dropping it frees.  Counting is
//! per thread, and the session runs on the test's own thread, so the
//! harness's other threads cannot bill the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::FlowConPolicy;
use flowcon_core::session::Session;
use flowcon_dl::workload::WorkloadPlan;

/// The ceiling on heap bytes the summary holds per usage sample.
const BYTES_PER_USAGE_SAMPLE_BUDGET: f64 = 8.0;

struct ByteCounter;

thread_local! {
    /// Heap bytes this thread freed, net of what it allocated, inside
    /// [`bytes_freed_by`]; `const` init, so reading it never allocates.
    static FREED: Cell<Option<i64>> = const { Cell::new(None) };
}

fn count_freed(bytes: i64) {
    let _ = FREED.try_with(|n| {
        if let Some(freed) = n.get() {
            n.set(Some(freed + bytes));
        }
    });
}

/// Net heap bytes `f` frees on the calling thread.
fn bytes_freed_by(f: impl FnOnce()) -> i64 {
    FREED.with(|n| n.set(Some(0)));
    f();
    FREED.with(|n| n.replace(None)).unwrap_or(0)
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("an allocation fits in i64")
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are the ones `System` needs; the counting
// touches only a `const`-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_freed(-size(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_freed(-size(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_freed(size(layout.size()) - size(new_size));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_freed(size(layout.size()));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ByteCounter = ByteCounter;

#[test]
fn recorded_summary_holds_at_most_8_bytes_per_usage_sample() {
    let result = Session::builder()
        .node(NodeConfig::default().with_seed(0xF00D))
        .plan(WorkloadPlan::random_n(32, 0xF00D))
        .policy(FlowConPolicy::new(FlowConConfig::default()))
        .build()
        .run();
    let summary = result.output;
    assert_eq!(summary.completions.len(), 32);
    let samples: usize = summary.cpu_usage.iter().map(|(_, s)| s.len()).sum();
    assert!(
        samples > 10_000,
        "a 32-job run samples for hours: {samples}"
    );

    let held = bytes_freed_by(|| drop(summary));
    let per_sample = held as f64 / samples as f64;
    assert!(
        per_sample <= BYTES_PER_USAGE_SAMPLE_BUDGET,
        "the summary holds {held} bytes for {samples} usage samples: \
         {per_sample:.2} bytes per sample, over the budget of {BYTES_PER_USAGE_SAMPLE_BUDGET}"
    );
}
