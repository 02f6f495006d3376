//! Property tests for the metrics layer: statistics and time-series
//! operations must be robust to arbitrary (finite) data.

use flowcon_metrics::stats;
use flowcon_metrics::summary::{CompletionRecord, RunSummary};
use flowcon_metrics::timeseries::TimeSeries;
use flowcon_sim::time::SimTime;
use proptest::prelude::*;

proptest! {
    /// Recording through a search cursor builds exactly the summary that
    /// plain `series_mut` lookups build: duplicate labels within a tick,
    /// labels visited out of creation order, labels first seen mid-run,
    /// cursors reset at each tick or carried over, and `limits` series
    /// created out of step with `cpu_usage`.
    #[test]
    fn cursor_recording_matches_plain_series_lookup(
        ticks in prop::collection::vec(
            (prop::collection::vec(0usize..8, 0..12), 0u8..2, 0u8..3),
            1..40,
        ),
        preseeded_limits in prop::collection::vec(0usize..8, 0..4),
    ) {
        let label = |i: usize| format!("Job-{i}");
        let mut cursored = RunSummary::new("FlowCon");
        let mut plain = RunSummary::new("FlowCon");
        for &i in &preseeded_limits {
            cursored.limits.series_mut(&label(i));
            plain.limits.series_mut(&label(i));
        }
        let (mut usage_cursor, mut growth_cursor) = (0, 0);
        for (t, (visits, reset, growth_tick)) in ticks.iter().enumerate() {
            let now = SimTime::from_secs(t as u64);
            if *reset == 1 {
                usage_cursor = 0;
                growth_cursor = 0;
            }
            for (k, &i) in visits.iter().enumerate() {
                let (usage, limit) = (t as f64 + 0.01 * k as f64, i as f64 * 0.1);
                cursored.record_usage_sample(&mut usage_cursor, now, &label(i), usage, limit);
                plain.cpu_usage.series_mut(&label(i)).push(now, usage);
                plain.limits.series_mut(&label(i)).push(now, limit);
                if *growth_tick == 0 {
                    cursored.record_growth(&mut growth_cursor, now, &label(i), usage);
                    plain.growth_efficiency.series_mut(&label(i)).push(now, usage);
                }
            }
            prop_assert_eq!(&cursored, &plain, "tick {}", t);
        }
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_are_monotone_and_bounded(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        p1 in 0.0f64..=100.0,
        p2 in 0.0f64..=100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = stats::percentile(&xs, lo).unwrap();
        let b = stats::percentile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        prop_assert!(a >= stats::min(&xs).unwrap() - 1e-9);
        prop_assert!(b <= stats::max(&xs).unwrap() + 1e-9);
    }

    /// Mean lies within [min, max]; std-dev is non-negative.
    #[test]
    fn mean_and_std_sanity(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let m = stats::mean(&xs).unwrap();
        prop_assert!(m >= stats::min(&xs).unwrap() - 1e-6);
        prop_assert!(m <= stats::max(&xs).unwrap() + 1e-6);
        prop_assert!(stats::std_dev(&xs).unwrap() >= 0.0);
    }

    /// The piecewise-constant integral of a non-negative series is
    /// non-negative and bounded by max·span.
    #[test]
    fn integral_bounds(values in prop::collection::vec(0.0f64..10.0, 2..100)) {
        let mut s = TimeSeries::new();
        for (i, v) in values.iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), *v);
        }
        let integral = s.integral();
        let span = (values.len() - 1) as f64;
        let max = stats::max(&values).unwrap();
        prop_assert!(integral >= 0.0);
        prop_assert!(integral <= max * span + 1e-9);
    }

    /// Resampling preserves first/last values and never invents values
    /// outside the observed range.
    #[test]
    fn resample_stays_in_range(
        values in prop::collection::vec(0.0f64..1.0, 2..60),
        step in 1u64..5,
    ) {
        let mut s = TimeSeries::new();
        for (i, v) in values.iter().enumerate() {
            s.push(SimTime::from_secs(i as u64 * 2), *v);
        }
        let r = s.resample(step as f64);
        prop_assert!(!r.is_empty());
        let lo = stats::min(&values).unwrap();
        let hi = stats::max(&values).unwrap();
        for &(_, v) in r.points() {
            prop_assert!((lo..=hi).contains(&v));
        }
        prop_assert_eq!(r.points()[0].1, values[0]);
    }

    /// Overlap accounting: overlap(k) is non-increasing in k, and
    /// overlap(1) equals the union span of job lifetimes.
    #[test]
    fn overlap_is_monotone_in_k(
        jobs in prop::collection::vec((0u64..100, 1u64..200), 1..12),
    ) {
        let mut summary = RunSummary::new("x");
        for (i, (arrival, len)) in jobs.iter().enumerate() {
            summary.completions.push(CompletionRecord {
                label: format!("j{i}"),
                arrival: SimTime::from_secs(*arrival),
                finished: SimTime::from_secs(arrival + len),
                exit_code: 0,
            });
        }
        let mut last = f64::INFINITY;
        for k in 1..=jobs.len() {
            let o = summary.overlap_secs(k);
            prop_assert!(o >= 0.0);
            prop_assert!(o <= last + 1e-9, "overlap increased with k");
            last = o;
        }
    }

    /// Makespan is the max finish time and reductions are antisymmetric-ish:
    /// if A is faster than B for a job, B is slower than A.
    #[test]
    fn reduction_signs_are_consistent(a in 1.0f64..1000.0, b in 1.0f64..1000.0) {
        let mk = |secs: f64| {
            let mut s = RunSummary::new("p");
            s.completions.push(CompletionRecord {
                label: "job".into(),
                arrival: SimTime::ZERO,
                finished: SimTime::from_secs_f64(secs),
                exit_code: 0,
            });
            s
        };
        let sa = mk(a);
        let sb = mk(b);
        let ra = sa.reduction_vs(&sb, "job").unwrap();
        let rb = sb.reduction_vs(&sa, "job").unwrap();
        prop_assert_eq!(ra > 0.0, rb < 0.0);
        prop_assert_eq!(ra == 0.0, rb == 0.0);
    }
}
