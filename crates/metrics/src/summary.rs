//! Run summaries and baseline comparisons.
//!
//! A [`RunSummary`] captures everything the paper reports about one
//! experiment run: per-job completion times, the overall makespan, CPU and
//! growth-efficiency traces, and scheduler overhead counters.  Comparison
//! helpers compute the derived quantities the paper quotes (Table 2's
//! completion-time reductions, overlap between jobs, win/loss counts).
//!
//! Both summary types are built through recorder-facing `record_*` methods:
//! the session layer's `Recorder` implementations (`flowcon-core`) push
//! completions, usage samples and growth points here instead of reaching
//! into the fields, so summary construction lives in one place.
//! [`CompletionStats`] is the headless counterpart — label-free completion
//! records only, the O(completions) output of a `CompletionsOnly` recorder.

use flowcon_sim::time::SimTime;

use crate::timeseries::{MultiSeries, TimeRun};

/// The makespan over a stream of per-job (or per-worker) finish times in
/// seconds: "the total length of the schedule for all the jobs" (§5.2).
///
/// The single canonical implementation — [`RunSummary::makespan_secs`],
/// [`CompletionStats::makespan_secs`] and the cluster layer's
/// `ClusterOutcome::makespan_secs` all delegate here.
pub fn makespan_over(finish_secs: impl IntoIterator<Item = f64>) -> f64 {
    finish_secs.into_iter().fold(0.0, f64::max)
}

/// Completion record of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionRecord {
    /// Job label (`Job-3`, `MNIST (Tensorflow)`, ...).
    pub label: String,
    /// Submission time.
    pub arrival: SimTime,
    /// Exit time.
    pub finished: SimTime,
    /// Exit code (0 = converged).
    pub exit_code: i32,
}

impl CompletionRecord {
    /// Completion time in seconds (exit − arrival), the paper's per-job
    /// metric.
    pub fn completion_secs(&self) -> f64 {
        self.finished.saturating_since(self.arrival).as_secs_f64()
    }
}

/// A label-free completion record: the minimal datum the paper's headline
/// metrics (per-job completion time, makespan) need.
///
/// This is what a headless `CompletionsOnly` recorder keeps per job — no
/// label clone, no traces — so a 10k-worker cluster run retains
/// O(completions) memory instead of O(workers × series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Submission time.
    pub arrival: SimTime,
    /// Exit time.
    pub finished: SimTime,
    /// Exit code (0 = converged).
    pub exit_code: i32,
}

impl Completion {
    /// Completion time in seconds (exit − arrival).
    pub fn completion_secs(&self) -> f64 {
        self.finished.saturating_since(self.arrival).as_secs_f64()
    }
}

/// The headless run summary: completions and scheduler counters, nothing
/// else.  Produced by the session layer's `CompletionsOnly` recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompletionStats {
    /// Label-free per-job completion records, in exit-processing order.
    pub completions: Vec<Completion>,
    /// Number of times the policy's algorithm ran.
    pub algorithm_runs: u64,
    /// Number of `docker update` calls issued.
    pub update_calls: u64,
}

impl CompletionStats {
    /// Record one completed job (recorder-facing construction).
    pub fn record_completion(&mut self, arrival: SimTime, finished: SimTime, exit_code: i32) {
        self.completions.push(Completion {
            arrival,
            finished,
            exit_code,
        });
    }

    /// Number of completed jobs.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// True if no job completed.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// The makespan (latest exit over all jobs); delegates to
    /// [`makespan_over`].
    pub fn makespan_secs(&self) -> f64 {
        makespan_over(self.completions.iter().map(|c| c.finished.as_secs_f64()))
    }

    /// Mean per-job completion time, or `None` if nothing completed.
    pub fn mean_completion_secs(&self) -> Option<f64> {
        if self.completions.is_empty() {
            return None;
        }
        let sum: f64 = self
            .completions
            .iter()
            .map(Completion::completion_secs)
            .sum();
        Some(sum / self.completions.len() as f64)
    }
}

/// Everything measured in one experiment run.
///
/// The three trace fields hold one [`TimeSeries`] per job label.  A series
/// stores its points by change of value, so a 1 Hz usage or limit trace
/// costs memory per change, not per sample; [`TimeSeries::points`]
/// iterates the rebuilt points.
///
/// [`TimeSeries`]: crate::timeseries::TimeSeries
/// [`TimeSeries::points`]: crate::timeseries::TimeSeries::points
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Policy name (`FlowCon-5%-20`, `NA`, ...).
    pub policy: String,
    /// Per-job completion records, in submission order.
    pub completions: Vec<CompletionRecord>,
    /// Per-job CPU-usage traces (Figs. 7/8/10/11/15/16).
    pub cpu_usage: MultiSeries,
    /// Per-job growth-efficiency traces (Figs. 13/14).
    pub growth_efficiency: MultiSeries,
    /// Per-job resource-limit traces (FlowCon's decisions over time).
    pub limits: MultiSeries,
    /// Number of times Algorithm 1 ran (scheduler overhead proxy).
    pub algorithm_runs: u64,
    /// Number of `docker update` calls issued.
    pub update_calls: u64,
}

impl RunSummary {
    /// A summary for the named policy.
    pub fn new(policy: impl Into<String>) -> Self {
        RunSummary {
            policy: policy.into(),
            ..Default::default()
        }
    }

    /// Record one completed job (recorder-facing construction).
    ///
    /// The label is cloned here and nowhere else on the full-recording
    /// path; headless recorders use [`CompletionStats::record_completion`]
    /// instead and never clone it.
    pub fn record_completion(
        &mut self,
        label: &str,
        arrival: SimTime,
        finished: SimTime,
        exit_code: i32,
    ) {
        self.completions.push(CompletionRecord {
            label: label.to_string(),
            arrival,
            finished,
            exit_code,
        });
    }

    /// Record one usage/limit sample pair for `label` (recorder-facing
    /// construction): pushes onto the `cpu_usage` and `limits` traces.
    ///
    /// `cursor` is where the series search starts, and is left just past
    /// the series found.  Any value finds the same series
    /// [`MultiSeries::series_mut`] would; resetting it to 0 at each sample
    /// tick makes a tick that visits containers in series-creation order
    /// find each label at the cursor.  `limits` is extended together with
    /// `cpu_usage`, so its search starts at the index the usage series
    /// was found at, which holds the same label unless the two traces
    /// were built out of step.
    pub fn record_usage_sample(
        &mut self,
        cursor: &mut usize,
        now: SimTime,
        label: &str,
        usage: f64,
        limit: f64,
    ) {
        let series = self.usage_series(cursor, label);
        self.record_usage_sample_at(series, now, usage, limit);
    }

    /// The indices of `label`'s `cpu_usage` and `limits` series, created
    /// if absent — the lookup [`RunSummary::record_usage_sample`] makes,
    /// for callers that resolve a series once and keep its indices.
    /// `cursor` works as in [`RunSummary::record_usage_sample`].
    pub fn usage_series(&mut self, cursor: &mut usize, label: &str) -> (usize, usize) {
        let (usage, _) = self.cpu_usage.series_from(*cursor, label);
        let (limit, _) = self.limits.series_from(usage, label);
        *cursor = usage + 1;
        (usage, limit)
    }

    /// Record one usage/limit sample pair onto the series at `indices`,
    /// as returned by [`RunSummary::usage_series`].
    pub fn record_usage_sample_at(
        &mut self,
        indices: (usize, usize),
        now: SimTime,
        usage: f64,
        limit: f64,
    ) {
        self.cpu_usage.series_at_mut(indices.0).push(now, usage);
        self.limits.series_at_mut(indices.1).push(now, limit);
    }

    /// Repeat the last usage/limit sample pair of the series at `indices`
    /// at each time of `times`: what that many calls of
    /// [`RunSummary::record_usage_sample_at`] with that pair record (see
    /// [`TimeSeries::repeat_last`]).
    ///
    /// [`TimeSeries::repeat_last`]: crate::timeseries::TimeSeries::repeat_last
    pub fn repeat_usage_sample_at(&mut self, indices: (usize, usize), times: TimeRun) {
        self.cpu_usage.series_at_mut(indices.0).repeat_last(times);
        self.limits.series_at_mut(indices.1).repeat_last(times);
    }

    /// Record one growth-efficiency point for `label` (recorder-facing
    /// construction); `cursor` works as in
    /// [`RunSummary::record_usage_sample`].
    pub fn record_growth(&mut self, cursor: &mut usize, now: SimTime, label: &str, growth: f64) {
        let (index, series) = self.growth_efficiency.series_from(*cursor, label);
        series.push(now, growth);
        *cursor = index + 1;
    }

    /// The makespan: "the total length of the schedule for all the jobs"
    /// (§5.2) — the latest exit time over all jobs; delegates to
    /// [`makespan_over`].
    pub fn makespan_secs(&self) -> f64 {
        makespan_over(self.completions.iter().map(|c| c.finished.as_secs_f64()))
    }

    /// Completion time of the job with `label`.
    pub fn completion_of(&self, label: &str) -> Option<f64> {
        self.completions
            .iter()
            .find(|c| c.label == label)
            .map(|c| c.completion_secs())
    }

    /// Seconds during which at least `k` jobs were simultaneously alive
    /// (between arrival and exit) — the paper's "overlap" (§5.3).
    pub fn overlap_secs(&self, k: usize) -> f64 {
        let mut edges: Vec<(f64, i32)> = Vec::with_capacity(self.completions.len() * 2);
        for c in &self.completions {
            edges.push((c.arrival.as_secs_f64(), 1));
            edges.push((c.finished.as_secs_f64(), -1));
        }
        edges.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(b.1.cmp(&a.1))
        });
        let mut active = 0i32;
        let mut overlap = 0.0;
        let mut last_t = 0.0;
        for (t, delta) in edges {
            if active as usize >= k {
                overlap += t - last_t;
            }
            active += delta;
            last_t = t;
        }
        overlap
    }

    /// Percentage reduction in `label`'s completion time vs `baseline`
    /// (positive = this run is faster), as reported in Table 2.
    pub fn reduction_vs(&self, baseline: &RunSummary, label: &str) -> Option<f64> {
        let ours = self.completion_of(label)?;
        let theirs = baseline.completion_of(label)?;
        (theirs > 0.0).then(|| 100.0 * (theirs - ours) / theirs)
    }

    /// Percentage makespan improvement vs `baseline` (positive = faster).
    pub fn makespan_improvement_vs(&self, baseline: &RunSummary) -> f64 {
        let theirs = baseline.makespan_secs();
        if theirs <= 0.0 {
            return 0.0;
        }
        100.0 * (theirs - self.makespan_secs()) / theirs
    }

    /// `(wins, losses)` in per-job completion time vs a baseline with the
    /// same job labels (§5.4: "FlowCon reduces the completion time for 4
    /// jobs ... out of 5").
    pub fn wins_losses_vs(&self, baseline: &RunSummary) -> (usize, usize) {
        let mut wins = 0;
        let mut losses = 0;
        for c in &self.completions {
            if let Some(b) = baseline.completion_of(&c.label) {
                let ours = c.completion_secs();
                if ours < b {
                    wins += 1;
                } else if ours > b {
                    losses += 1;
                }
            }
        }
        (wins, losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &str, arrival: u64, finished: u64) -> CompletionRecord {
        CompletionRecord {
            label: label.into(),
            arrival: SimTime::from_secs(arrival),
            finished: SimTime::from_secs(finished),
            exit_code: 0,
        }
    }

    fn summary(policy: &str, recs: Vec<CompletionRecord>) -> RunSummary {
        RunSummary {
            policy: policy.into(),
            completions: recs,
            ..Default::default()
        }
    }

    #[test]
    fn completion_and_makespan() {
        let s = summary(
            "NA",
            vec![rec("a", 0, 390), rec("b", 40, 270), rec("c", 80, 165)],
        );
        assert_eq!(s.completion_of("c"), Some(85.0));
        assert_eq!(s.makespan_secs(), 390.0);
        assert_eq!(s.completion_of("missing"), None);
    }

    #[test]
    fn overlap_counts_concurrent_lifetime() {
        let s = summary(
            "NA",
            vec![rec("a", 0, 100), rec("b", 40, 120), rec("c", 80, 90)],
        );
        // >=2 alive: [40, 100] = 60; >=3 alive: [80, 90] = 10.
        assert!((s.overlap_secs(2) - 60.0).abs() < 1e-9);
        assert!((s.overlap_secs(3) - 10.0).abs() < 1e-9);
        assert!((s.overlap_secs(1) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_vs_baseline_matches_paper_arithmetic() {
        // §5.3: 84.7s -> 57.7s is a 31.9% reduction.
        let fc = summary("FlowCon", vec![rec("mnist", 80, 138)]); // 57.7 ≈ 58
        let na = summary("NA", vec![rec("mnist", 80, 165)]); // 84.7 ≈ 85
        let red = fc.reduction_vs(&na, "mnist").unwrap();
        assert!((red - 100.0 * (85.0 - 58.0) / 85.0).abs() < 1e-9);
    }

    #[test]
    fn wins_losses() {
        let fc = summary(
            "FlowCon",
            vec![rec("1", 0, 100), rec("2", 0, 210), rec("3", 0, 90)],
        );
        let na = summary(
            "NA",
            vec![rec("1", 0, 120), rec("2", 0, 200), rec("3", 0, 100)],
        );
        assert_eq!(fc.wins_losses_vs(&na), (2, 1));
    }

    #[test]
    fn completion_stats_mirrors_run_summary_makespan() {
        let mut stats = CompletionStats::default();
        let mut summary = RunSummary::new("NA");
        for (label, a, f) in [("a", 0u64, 390u64), ("b", 40, 270), ("c", 80, 165)] {
            stats.record_completion(SimTime::from_secs(a), SimTime::from_secs(f), 0);
            summary.record_completion(label, SimTime::from_secs(a), SimTime::from_secs(f), 0);
        }
        // One canonical makespan implementation behind both types.
        assert_eq!(
            stats.makespan_secs().to_bits(),
            summary.makespan_secs().to_bits()
        );
        assert_eq!(stats.len(), 3);
        assert!(!stats.is_empty());
        let mean = stats.mean_completion_secs().unwrap();
        assert!((mean - (390.0 + 230.0 + 85.0) / 3.0).abs() < 1e-9, "{mean}");
        assert_eq!(CompletionStats::default().mean_completion_secs(), None);
    }

    #[test]
    fn recorder_facing_construction_matches_manual() {
        let mut s = RunSummary::new("FlowCon");
        let mut cursor = 0;
        s.record_usage_sample(&mut cursor, SimTime::from_secs(1), "job", 0.5, 1.0);
        s.record_usage_sample(&mut cursor, SimTime::from_secs(2), "job", 0.25, 0.4);
        s.record_growth(&mut cursor, SimTime::from_secs(2), "job", 0.01);
        let points = |series: &MultiSeries| -> Vec<(f64, f64)> {
            series.get("job").unwrap().points().collect()
        };
        assert_eq!(points(&s.cpu_usage), [(1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(points(&s.limits), [(1.0, 1.0), (2.0, 0.4)]);
        assert_eq!(points(&s.growth_efficiency), [(2.0, 0.01)]);
    }

    #[test]
    fn makespan_improvement_sign() {
        let fc = summary("FlowCon", vec![rec("a", 0, 380)]);
        let na = summary("NA", vec![rec("a", 0, 394)]);
        let imp = fc.makespan_improvement_vs(&na);
        assert!(imp > 3.0 && imp < 4.0, "{imp}");
        assert!(na.makespan_improvement_vs(&fc) < 0.0);
    }
}
