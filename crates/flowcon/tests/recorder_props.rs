//! Keyed sample recording against label recording: a `FullRecorder` fed
//! through `record_sample_by_id` must build exactly the usage and limit
//! series one fed through `record_sample` builds, point by point and bit
//! for bit — with duplicate and empty labels, containers exiting, and new
//! ids appearing mid-run.

use flowcon_container::ContainerId;
use flowcon_core::policy::FairSharePolicy;
use flowcon_core::recorder::{FullRecorder, Recorder, RunMeta};
use flowcon_metrics::summary::RunSummary;
use flowcon_metrics::timeseries::MultiSeries;
use flowcon_sim::time::SimTime;
use proptest::prelude::*;

/// Labels drawn with repeats; `""` is what unlabeled streams give every
/// job.
const LABELS: [&str; 4] = ["", "Job-1", "Job-2", "VAE (Pytorch)"];

/// One container: its label, the tick it is admitted at, and how many
/// ticks it lives.  Ids follow admission order, as the worker assigns
/// them.
type Container = (usize, u64, u64);

fn arb_value() -> impl Strategy<Value = f64> {
    // Repeated values exercise the change-point storage; -0.0 and 0.0
    // differ in bits, not under `==`.
    (0usize..6, 0.0f64..1.0).prop_map(|(k, x)| match k {
        0 => 0.0,
        1 => -0.0,
        2 => 0.5,
        3 => 1.0,
        _ => x,
    })
}

/// Feed both recorders `ticks` sample ticks of the containers live at
/// each, with usage and limit values cycled from `values`.
fn record(containers: &[Container], ticks: u64, values: &[f64]) -> (RunSummary, RunSummary) {
    let mut containers = containers.to_vec();
    containers.sort_by_key(|&(_, admit, _)| admit);
    let mut by_label = FullRecorder::new();
    let mut by_id = FullRecorder::new();
    let mut k = 0;
    let mut next = || {
        k += 1;
        values[k % values.len()]
    };
    for tick in 0..ticks {
        let now = SimTime::from_secs(tick);
        assert!(by_label.sample_tick(now) && by_id.sample_tick(now));
        for (raw, &(label, admit, life)) in containers.iter().enumerate() {
            if !(admit..admit + life).contains(&tick) {
                continue;
            }
            let label = LABELS[label];
            let (usage, limit) = (next(), next());
            by_label.record_sample(now, label, usage, limit);
            by_id.record_sample_by_id(now, ContainerId::from_raw(raw as u32), label, usage, limit);
        }
    }
    let policy = FairSharePolicy::new();
    let meta = || RunMeta {
        policy: &policy,
        algorithm_runs: 0,
        update_calls: 0,
    };
    (by_label.finish(meta()), by_id.finish(meta()))
}

fn assert_same_series(a: &MultiSeries, b: &MultiSeries) {
    assert_eq!(a.len(), b.len(), "series count");
    for ((la, sa), (lb, sb)) in a.iter().zip(b.iter()) {
        assert_eq!(la, lb, "series order");
        assert_eq!(sa.len(), sb.len(), "points of {la:?}");
        for ((ta, va), (tb, vb)) in sa.points().zip(sb.points()) {
            assert_eq!(ta.to_bits(), tb.to_bits(), "time in {la:?}");
            assert_eq!(va.to_bits(), vb.to_bits(), "value in {la:?} at {ta}");
        }
    }
}

proptest! {
    #[test]
    fn keyed_samples_build_the_label_path_series(
        containers in prop::collection::vec((0usize..4, 0u64..30, 1u64..20), 1..24),
        ticks in 1u64..50,
        values in prop::collection::vec(arb_value(), 1..16),
    ) {
        let (by_label, by_id) = record(&containers, ticks, &values);
        assert_same_series(&by_label.cpu_usage, &by_id.cpu_usage);
        assert_same_series(&by_label.limits, &by_id.limits);
    }
}

#[test]
fn ids_sharing_a_label_share_its_series() {
    // Three containers, two of them unlabeled and alive at once, then a
    // late one reusing a label whose first holder has exited.
    let containers = [(0, 0, 5), (0, 1, 5), (1, 0, 2), (1, 4, 3)];
    let (by_label, by_id) = record(&containers, 8, &[0.25, 0.5, -0.0]);
    assert_eq!(by_id.cpu_usage.len(), 2);
    assert_eq!(by_id.cpu_usage.get("").map(|s| s.len()), Some(10));
    assert_same_series(&by_label.cpu_usage, &by_id.cpu_usage);
    assert_same_series(&by_label.limits, &by_id.limits);
}
