//! Pluggable observability for worker sessions.
//!
//! The pre-redesign worker hard-wired a full [`RunSummary`] — per-job label
//! `String`s, 1 Hz usage/limit traces, growth-efficiency series — into the
//! simulation hot path, whether or not the caller wanted any of it, and
//! that fixed cost dominated cluster runs.
//!
//! A [`Recorder`] makes observability a compile-time choice.  The worker is
//! monomorphized over the recorder, so a headless run does not merely skip
//! recording — the 1 Hz sample events and 20 s trace events are never even
//! scheduled (see [`Recorder::RECORDS_SAMPLES`]), which removes most of a
//! short job's event volume along with every label clone and series
//! allocation.
//!
//! Two recorders ship:
//!
//! * [`FullRecorder`] — the paper's full [`RunSummary`].  The golden
//!   digests in the workspace's `tests/determinism.rs` pin every
//!   completion and every `cpu_usage`, `limits` and `growth_efficiency`
//!   point of a fixed run.  Its series store points by change of value, so
//!   a 1 Hz trace of a step function costs memory per step, not per sample
//!   (`crates/flowcon/tests/recorded_footprint.rs` holds a summary to
//!   8 bytes per usage sample).
//!
//! # Samples keyed by container
//!
//! The worker hands each usage/limit sample to
//! [`Recorder::record_sample_by_id`], which carries the container's id
//! beside its label.  The provided method forwards to
//! [`Recorder::record_sample`], so a recorder that only knows labels (or
//! wraps another recorder) needs nothing more.  [`FullRecorder`] overrides
//! it: it resolves a container's series by label once, on the container's
//! first sample, and from then on finds them by id — an integer compare
//! at a cursor instead of a string compare per series.  Containers that
//! share a label share its series, exactly as on the label path
//! (`crates/flowcon/tests/recorder_props.rs` proptests the two paths
//! against each other).
//! * [`CompletionsOnly`] — headless: label-free [`CompletionStats`] only,
//!   O(completions) memory; the dense headless path
//!   ([`crate::dense`]) records through it too.

use flowcon_container::ContainerId;
use flowcon_metrics::summary::{CompletionStats, RunSummary};
use flowcon_sim::time::SimTime;

use crate::policy::ResourcePolicy;

/// End-of-run metadata handed to [`Recorder::finish`].
///
/// The policy rides along as a borrow so recorders that don't report a
/// policy name (headless) never pay for the `name()` `String`.
pub struct RunMeta<'a> {
    /// The policy that drove the run.
    pub policy: &'a dyn ResourcePolicy,
    /// Number of times the policy's algorithm ran.
    pub algorithm_runs: u64,
    /// Number of `docker update` calls issued.
    pub update_calls: u64,
}

/// What a worker session records, chosen at compile time.
///
/// The worker calls the `record_*` hooks from its event handlers; the
/// associated constants decide whether the sampling events exist at all.
/// Implementations are monomorphized into the simulation loop, so an empty
/// hook costs nothing.
pub trait Recorder: Send {
    /// What [`Recorder::finish`] yields — the session's output.
    type Output: Send;

    /// Whether 1 Hz usage/limit sample events are scheduled at all.
    ///
    /// `false` removes the events from the simulation.  Under measurement-
    /// blind policies (NA, static partitioning) the dynamics are unchanged
    /// to the engine's 1 µs completion-check margin; under noise-sampling
    /// policies (FlowCon) fewer integration steps draw a different
    /// eval-noise stream, so a headless run is *statistically* equivalent
    /// to a recorded one, not bit-identical (both remain fully
    /// deterministic for a given seed).
    const RECORDS_SAMPLES: bool;

    /// Whether 20 s growth-efficiency trace events are scheduled at all.
    const RECORDS_GROWTH: bool;

    /// A job exited: `label` finished at `finished` with `exit_code`,
    /// having arrived at `arrival`.
    fn record_completion(
        &mut self,
        label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    );

    /// A sample tick fired; return `true` to receive this tick's
    /// [`Recorder::record_sample`] calls (decimating recorders return
    /// `false` on skipped ticks).
    fn sample_tick(&mut self, _now: SimTime) -> bool {
        Self::RECORDS_SAMPLES
    }

    /// One container's usage/limit observation at a (non-skipped) sample
    /// tick.
    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64);

    /// [`Recorder::record_sample`] for the container `id`, which carries
    /// `label`; what the worker calls.
    ///
    /// Within a tick the worker samples containers in ascending id order,
    /// and a container keeps its id and label for its whole run.  The
    /// default forwards to [`Recorder::record_sample`]; recorders that
    /// index series by container override it.
    fn record_sample_by_id(
        &mut self,
        now: SimTime,
        _id: ContainerId,
        label: &str,
        usage: f64,
        limit: f64,
    ) {
        self.record_sample(now, label, usage, limit);
    }

    /// A growth-trace tick fired; return `true` to receive this tick's
    /// [`Recorder::record_growth`] calls.
    fn growth_tick(&mut self, _now: SimTime) -> bool {
        Self::RECORDS_GROWTH
    }

    /// One container's growth-efficiency observation at a (non-skipped)
    /// trace tick.
    fn record_growth(&mut self, now: SimTime, label: &str, growth: f64);

    /// The run ended; consume the recorder and produce the output.
    fn finish(self, meta: RunMeta<'_>) -> Self::Output;
}

/// Records everything the paper reports: the full [`RunSummary`].
#[derive(Debug, Clone, Default)]
pub struct FullRecorder {
    summary: RunSummary,
    /// Where the next usage-series search starts; reset every sample tick
    /// (see [`RunSummary::record_usage_sample`]).
    usage_cursor: usize,
    /// The same for the growth-efficiency series, reset every trace tick.
    growth_cursor: usize,
    /// `(id, usage and limit series indices)` of every container sampled
    /// by id so far, in ascending id order: one entry per id seen.
    by_id: Vec<(ContainerId, (usize, usize))>,
    /// Where the next `by_id` lookup starts; reset every sample tick.
    id_cursor: usize,
}

impl FullRecorder {
    /// A fresh recorder with an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The usage and limit series of container `id`, resolved by `label`
    /// the first time `id` is seen.
    ///
    /// A tick samples ids in ascending order, so the entry is usually at
    /// the cursor; otherwise a binary search finds it, or the place to
    /// insert it.
    fn series_of(&mut self, id: ContainerId, label: &str) -> (usize, usize) {
        let at = match self.by_id.get(self.id_cursor) {
            Some(&(seen, _)) if seen == id => self.id_cursor,
            _ => self.by_id.partition_point(|&(seen, _)| seen < id),
        };
        self.id_cursor = at + 1;
        match self.by_id.get(at) {
            Some(&(seen, series)) if seen == id => series,
            _ => {
                let series = self.summary.usage_series(&mut self.usage_cursor, label);
                self.by_id.insert(at, (id, series));
                series
            }
        }
    }
}

impl Recorder for FullRecorder {
    type Output = RunSummary;
    const RECORDS_SAMPLES: bool = true;
    const RECORDS_GROWTH: bool = true;

    fn record_completion(
        &mut self,
        label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    ) {
        self.summary
            .record_completion(label, arrival, finished, exit_code);
    }

    fn sample_tick(&mut self, _now: SimTime) -> bool {
        self.usage_cursor = 0;
        self.id_cursor = 0;
        true
    }

    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64) {
        self.summary
            .record_usage_sample(&mut self.usage_cursor, now, label, usage, limit);
    }

    fn record_sample_by_id(
        &mut self,
        now: SimTime,
        id: ContainerId,
        label: &str,
        usage: f64,
        limit: f64,
    ) {
        let series = self.series_of(id, label);
        self.summary
            .record_usage_sample_at(series, now, usage, limit);
    }

    fn growth_tick(&mut self, _now: SimTime) -> bool {
        self.growth_cursor = 0;
        true
    }

    fn record_growth(&mut self, now: SimTime, label: &str, growth: f64) {
        self.summary
            .record_growth(&mut self.growth_cursor, now, label, growth);
    }

    fn finish(mut self, meta: RunMeta<'_>) -> RunSummary {
        self.summary.policy = meta.policy.name();
        self.summary.algorithm_runs = meta.algorithm_runs;
        self.summary.update_calls = meta.update_calls;
        self.summary
    }
}

/// Headless: completion times and makespan only.
///
/// No usage/limit traces, no growth series, no label clones, no policy-name
/// `String` — the session holds O(completions) memory.  The dense
/// headless path ([`crate::dense`]) records through this type, and a
/// headless cluster worker stays within the ≤ 10 allocations/worker
/// budget enforced by `crates/cluster/tests/headless_allocs.rs` and the
/// committed `cluster/headless/*` bench rows.
#[derive(Debug, Clone, Default)]
pub struct CompletionsOnly {
    stats: CompletionStats,
}

impl CompletionsOnly {
    /// A fresh headless recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for CompletionsOnly {
    type Output = CompletionStats;
    const RECORDS_SAMPLES: bool = false;
    const RECORDS_GROWTH: bool = false;

    fn record_completion(
        &mut self,
        _label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    ) {
        self.stats.record_completion(arrival, finished, exit_code);
    }

    fn record_sample(&mut self, _now: SimTime, _label: &str, _usage: f64, _limit: f64) {
        unreachable!("sample events are never scheduled headless");
    }

    fn record_growth(&mut self, _now: SimTime, _label: &str, _growth: f64) {
        unreachable!("trace events are never scheduled headless");
    }

    fn finish(mut self, meta: RunMeta<'_>) -> CompletionStats {
        self.stats.algorithm_runs = meta.algorithm_runs;
        self.stats.update_calls = meta.update_calls;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FairSharePolicy;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn meta_with<'a>(policy: &'a FairSharePolicy) -> RunMeta<'a> {
        RunMeta {
            policy,
            algorithm_runs: 3,
            update_calls: 2,
        }
    }

    #[test]
    fn full_recorder_builds_the_summary() {
        let mut r = FullRecorder::new();
        r.record_completion("job", t(0), t(10), 0);
        assert!(r.sample_tick(t(1)));
        r.record_sample(t(1), "job", 0.5, 1.0);
        assert!(r.growth_tick(t(20)));
        r.record_growth(t(20), "job", 0.02);
        let policy = FairSharePolicy::new();
        let summary = r.finish(meta_with(&policy));
        assert_eq!(summary.policy, "NA");
        assert_eq!(summary.algorithm_runs, 3);
        assert_eq!(summary.update_calls, 2);
        assert_eq!(summary.completions.len(), 1);
        assert_eq!(summary.cpu_usage.get("job").unwrap().len(), 1);
    }

    #[test]
    fn completions_only_keeps_no_labels() {
        let mut r = CompletionsOnly::new();
        r.record_completion("ignored", t(5), t(25), 0);
        let policy = FairSharePolicy::new();
        let stats = r.finish(meta_with(&policy));
        assert_eq!(stats.len(), 1);
        assert!((stats.completions[0].completion_secs() - 20.0).abs() < 1e-12);
        assert_eq!(stats.algorithm_runs, 3);
    }
}
