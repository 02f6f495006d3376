//! Property tests for the metrics layer: statistics must be robust to
//! arbitrary (finite) data, and a time series must give back exactly what
//! was pushed into it.

use flowcon_metrics::stats;
use flowcon_metrics::summary::{CompletionRecord, RunSummary};
use flowcon_metrics::timeseries::TimeSeries;
use flowcon_sim::time::SimTime;
use proptest::prelude::*;

/// Values a generated series draws from: both zeros and NaN, where bit
/// equality and `==` disagree, and two values one ulp apart.
const PALETTE: [f64; 6] = [0.0, -0.0, f64::NAN, 0.25, 1.0, 1.0 + f64::EPSILON];

/// A series and the plain `Vec` of the points pushed into it, from
/// generated `(time move, micros, pick)` steps.  The time move is 0 for
/// the same instant, 1–3 for one stride on, 4 for a new stride of
/// `micros`, and 5 for a one-off gap of `micros`; a pick below 6 repeats
/// the last value, otherwise it takes `PALETTE[pick - 6]`.
fn build(start: u64, steps: &[(u8, u64, u8)]) -> (TimeSeries, Vec<(f64, f64)>) {
    let mut series = TimeSeries::new();
    let mut pushed = Vec::new();
    let (mut at, mut stride, mut value) = (start, 1_000_000, 0.0);
    for &(time_move, micros, pick) in steps {
        match time_move {
            0 => {}
            1..=3 => at += stride,
            4 => {
                stride = micros;
                at += stride;
            }
            _ => at += micros,
        }
        if pick >= 6 {
            value = PALETTE[usize::from(pick - 6)];
        }
        let at = SimTime::from_micros(at);
        series.push(at, value);
        pushed.push((at.as_secs_f64(), value));
    }
    (series, pushed)
}

fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

proptest! {
    /// The change-point encoding is exact: a series yields every pushed
    /// `(seconds, value)` pair bit for bit, `len`, `last` and `max_value`
    /// match the plain `Vec` of what was pushed, and `==` agrees with
    /// comparing those vectors (an edited copy: one value or time move
    /// changed, or the tail cut).
    #[test]
    fn series_yields_exactly_what_was_pushed(
        start in 0u64..5_000_000,
        steps in prop::collection::vec((0u8..6, 0u64..3_000_000, 0u8..12), 0..120),
        edit in (0u8..4, 0usize..120, 0u8..12),
    ) {
        let (series, pushed) = build(start, &steps);
        let got: Vec<(f64, f64)> = series.points().collect();
        prop_assert_eq!(bits(&got), bits(&pushed));
        prop_assert_eq!(series.len(), pushed.len());
        prop_assert_eq!(series.is_empty(), pushed.is_empty());
        prop_assert_eq!(
            series.last().map(|p| bits(&[p])),
            pushed.last().map(|&p| bits(&[p]))
        );
        let max = pushed
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))));
        prop_assert_eq!(series.max_value().map(f64::to_bits), max.map(f64::to_bits));

        let (kind, at, pick) = edit;
        let mut edited = steps.clone();
        let i = at % steps.len().max(1);
        match (kind, edited.get_mut(i)) {
            (1, Some(step)) => step.2 = pick,
            (2, Some(step)) => step.0 = pick % 6,
            (3, _) => edited.truncate(i),
            _ => {}
        }
        let (other, other_pushed) = build(start, &edited);
        prop_assert_eq!(series == other, pushed == other_pushed);
    }

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
