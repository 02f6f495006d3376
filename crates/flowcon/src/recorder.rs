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
//!   8 bytes per usage sample), and a tick that repeats the one before
//!   costs O(1) (below).
//! * [`CompletionsOnly`] — headless: label-free [`CompletionStats`] only,
//!   O(completions) memory; the dense headless path
//!   ([`crate::dense`]) records through it too.
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
//!
//! # Repeated ticks
//!
//! Usage is a container's water-fill rate and the limit moves only on a
//! policy update, so most sample ticks repeat the tick before: on 16
//! workers of 32 FlowCon jobs each, 3.88% of the ticks were recorded
//! sample by sample.  The worker tracks whether anything a sample reads
//! (the rates, the live set, a limit) changed since the last sample tick,
//! and offers an unchanged tick to [`Recorder::repeat_samples`] as one
//! call instead of one call per container.  The provided method
//! declines, so the tick then arrives sample by sample and a recorder
//! that does not override it sees exactly the calls it saw before the
//! method existed.  [`FullRecorder`] accepts whenever it can reproduce
//! its last tick: it keeps the series that tick pushed and the repeated
//! tick times as one pending arithmetic run, and writes the run onto each
//! series (with `TimeSeries::repeat_last`, which stores what that many
//! pushes store) at the next full tick and at [`Recorder::finish`].
//! Every recorded point is unchanged bit for bit; `recorder_props.rs`
//! holds sessions with and without the method to equal summaries.

use flowcon_container::ContainerId;
use flowcon_metrics::summary::{CompletionStats, RunSummary};
use flowcon_metrics::timeseries::TimeRun;
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

    /// A sample tick fired at `now` whose samples equal the previous
    /// sample tick's, container for container: the same containers, in
    /// the same order, with the same labels and the same usage and limit
    /// bits.  Return `true` if the recorder recorded the tick this way;
    /// `false` hands the tick back, and it arrives as every other tick
    /// does — [`Recorder::sample_tick`], then one
    /// [`Recorder::record_sample_by_id`] per container.
    ///
    /// The worker offers a tick here, in place of `sample_tick`, only when
    /// nothing a sample reads has changed since the previous sample tick.
    /// A recorder that did not record that tick (its `sample_tick`
    /// returned `false`) must return `false`.  The default does, so a
    /// recorder that does not override this method sees every tick sample
    /// by sample.
    fn repeat_samples(&mut self, _now: SimTime) -> bool {
        false
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
    /// The `(usage, limit)` series the last sample tick pushed, in push
    /// order.
    last_tick: Vec<(usize, usize)>,
    /// Whether [`Recorder::repeat_samples`] can reproduce the last sample
    /// tick: not before the first one, and not after one that went through
    /// the label path or whose series indices did not ascend — which they
    /// do unless containers share a label, and containers sharing a label
    /// interleave in one series, where repeating its last value would be
    /// wrong.
    repeatable: bool,
    /// Repeated tick times not yet written to the `last_tick` series.
    pending: Option<TimeRun>,
}

impl FullRecorder {
    /// A fresh recorder with an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the pending repeated ticks onto the series the last full tick
    /// pushed.
    fn flush_repeats(&mut self) {
        if let Some(times) = self.pending.take() {
            for &series in &self.last_tick {
                self.summary.repeat_usage_sample_at(series, times);
            }
        }
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
        self.flush_repeats();
        self.usage_cursor = 0;
        self.id_cursor = 0;
        self.last_tick.clear();
        self.repeatable = true;
        true
    }

    /// Extends the pending run of repeated tick times; a time that breaks
    /// it writes it out and starts the next.
    fn repeat_samples(&mut self, now: SimTime) -> bool {
        if !self.repeatable {
            return false;
        }
        if !self.pending.as_mut().is_some_and(|times| times.extend(now)) {
            self.flush_repeats();
            self.pending = Some(TimeRun::new(now));
        }
        true
    }

    fn record_sample(&mut self, now: SimTime, label: &str, usage: f64, limit: f64) {
        self.repeatable = false;
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
        // Ids arrive in ascending order, and a new id's series is created
        // after every older one unless it shares a label, so indices that
        // stop ascending flag a shared label; ascending ones rule out a
        // series pushed twice in O(1).
        if self
            .last_tick
            .last()
            .is_some_and(|&(usage, _)| usage >= series.0)
        {
            self.repeatable = false;
        }
        self.last_tick.push(series);
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
        self.flush_repeats();
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

    /// A headless recorder with room for exactly `completions` records —
    /// a placed plan of `n` jobs completes exactly `n`, so its record
    /// vector never grows past what it holds.
    pub fn with_capacity(completions: usize) -> Self {
        CompletionsOnly {
            stats: CompletionStats {
                completions: Vec::with_capacity(completions),
                ..CompletionStats::default()
            },
        }
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
    fn full_recorder_repeats_only_a_tick_it_can_reproduce() {
        let id = ContainerId::from_raw;
        let mut r = FullRecorder::new();
        assert!(!r.repeat_samples(t(0)), "no tick recorded yet");
        // One container per series: repeatable, across a broken stride.
        assert!(r.sample_tick(t(0)));
        r.record_sample_by_id(t(0), id(0), "a", 0.5, 1.0);
        r.record_sample_by_id(t(0), id(1), "b", 0.25, 0.5);
        for at in [1, 2, 3, 5, 6] {
            assert!(r.repeat_samples(t(at)));
        }
        // The label path: not repeatable.
        assert!(r.sample_tick(t(7)));
        r.record_sample(t(7), "a", 0.75, 1.0);
        assert!(!r.repeat_samples(t(8)));
        // Two containers sharing "a" interleave in one series: not
        // repeatable either.
        assert!(r.sample_tick(t(8)));
        r.record_sample_by_id(t(8), id(0), "a", 0.5, 1.0);
        r.record_sample_by_id(t(8), id(2), "a", 0.125, 1.0);
        assert!(!r.repeat_samples(t(9)));
        let policy = FairSharePolicy::new();
        let summary = r.finish(meta_with(&policy));
        let points =
            |label| -> Vec<(f64, f64)> { summary.cpu_usage.get(label).unwrap().points().collect() };
        let a = [0.0, 1.0, 2.0, 3.0, 5.0, 6.0].map(|at| (at, 0.5));
        assert_eq!(points("a")[..6], a);
        assert_eq!(points("a")[6..], [(7.0, 0.75), (8.0, 0.5), (8.0, 0.125)]);
        assert_eq!(points("b"), a.map(|(at, _)| (at, 0.25)));
        let limits: Vec<(f64, f64)> = summary.limits.get("b").unwrap().points().collect();
        assert_eq!(limits, a.map(|(at, _)| (at, 0.5)));
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
