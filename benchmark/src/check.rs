//! Output checks: what a run's completion records must satisfy, condensed
//! into a [`SimSummary`] whose per-worker digests let two runs of the same
//! inputs — repeated reps, a reference path, a traced run — be compared
//! without keeping millions of records around.

use flowcon_sim::time::SimTime;

use crate::stats::nearest_rank;

/// 64-bit FNV-1a: a fixed, platform-independent digest (the standard
/// library's hashers do not promise stable output).
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn value(self) -> u64 {
        self.0
    }
}

/// Everything the checks and the simulated metrics need from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Jobs handed to the simulator.
    pub submitted: u64,
    /// Completion records produced.
    pub completed: u64,
    /// Jobs missing or duplicated per worker, summed: `Σ |expected − got|`.
    pub count_errors: u64,
    /// Records that finished before they arrived or exited non-zero.
    pub bad_records: u64,
    /// One digest per worker (per run for the scheduler) over its records,
    /// in order, and its event count.
    pub digests: Vec<u64>,
    /// Records per worker, parallel to `digests`.
    pub counts: Vec<u64>,
    /// Mean simulated job completion time (exit − arrival), seconds.
    pub jct_mean_s: f64,
    /// Nearest-rank 99th percentile of the same, seconds.
    pub jct_p99_s: f64,
    /// Latest exit, seconds.
    pub makespan_s: f64,
}

impl SimSummary {
    /// Jobs of this run that fail a check: missing, duplicated or invalid
    /// records, plus every record of a worker whose digest differs from
    /// `baseline` (the same inputs' first run).
    pub fn failed_jobs(&self, baseline: Option<&SimSummary>) -> u64 {
        let mut failed = self.count_errors + self.bad_records;
        if let Some(base) = baseline {
            failed += self.mismatched_jobs(base);
        }
        failed
    }

    /// Records of workers whose digest differs from `other`'s (a worker
    /// that diverged counts all its records, at least one).
    pub fn mismatched_jobs(&self, other: &SimSummary) -> u64 {
        if self.digests.len() != other.digests.len() {
            return self.completed.max(other.completed).max(1);
        }
        self.digests
            .iter()
            .zip(&other.digests)
            .zip(&self.counts)
            .filter(|((a, b), _)| a != b)
            .map(|(_, &n)| n.max(1))
            .sum()
    }
}

/// Builds a [`SimSummary`] worker by worker.
#[derive(Debug, Default)]
pub struct Summarizer {
    submitted: u64,
    count_errors: u64,
    bad_records: u64,
    digests: Vec<u64>,
    counts: Vec<u64>,
    jcts: Vec<f64>,
    makespan_s: f64,
}

/// One worker's records being folded into a [`Summarizer`].
pub struct WorkerRecords<'a> {
    owner: &'a mut Summarizer,
    digest: Digest,
    expected: u64,
    count: u64,
}

impl Summarizer {
    /// An empty summary expecting about `jobs` records.
    pub fn with_capacity(jobs: usize) -> Self {
        Summarizer {
            jcts: Vec::with_capacity(jobs),
            ..Self::default()
        }
    }

    /// Start the next worker, which was handed `expected` jobs and
    /// processed `events` simulated events.
    pub fn worker(&mut self, expected: u64, events: u64) -> WorkerRecords<'_> {
        self.submitted += expected;
        let mut digest = Digest::default();
        digest.u64(events);
        WorkerRecords {
            owner: self,
            digest,
            expected,
            count: 0,
        }
    }

    /// The finished summary.
    pub fn finish(mut self) -> SimSummary {
        let completed = self.counts.iter().sum();
        let jct_mean_s = if self.jcts.is_empty() {
            0.0
        } else {
            self.jcts.iter().sum::<f64>() / self.jcts.len() as f64
        };
        let jct_p99_s = nearest_rank(&mut self.jcts, 0.99).unwrap_or(0.0);
        SimSummary {
            submitted: self.submitted,
            completed,
            count_errors: self.count_errors,
            bad_records: self.bad_records,
            digests: self.digests,
            counts: self.counts,
            jct_mean_s,
            jct_p99_s,
            makespan_s: self.makespan_s,
        }
    }
}

impl WorkerRecords<'_> {
    /// Fold one completion record in (`label` is empty on label-free paths).
    pub fn record(&mut self, label: &str, arrival: SimTime, finished: SimTime, exit_code: i32) {
        self.count += 1;
        self.digest.bytes(label.as_bytes());
        self.digest.u64(arrival.as_micros());
        self.digest.u64(finished.as_micros());
        self.digest.u64(exit_code as u32 as u64);
        if finished < arrival || exit_code != 0 {
            self.owner.bad_records += 1;
        }
        let jct = finished.saturating_since(arrival).as_secs_f64();
        self.owner.jcts.push(jct);
        self.owner.makespan_s = self.owner.makespan_s.max(finished.as_secs_f64());
    }

    /// Fold extra run-identifying data in (the scheduler's decision log).
    pub fn extra(&mut self, v: u64) {
        self.digest.u64(v);
    }

    /// Close the worker.
    pub fn finish(self) {
        self.owner.count_errors += self.expected.abs_diff(self.count);
        self.owner.digests.push(self.digest.value());
        self.owner.counts.push(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Two workers of three jobs each; `perturb` edits one finish time.
    fn summary(perturb: Option<SimTime>, drop_one: bool) -> SimSummary {
        let mut s = Summarizer::with_capacity(6);
        for w in 0..2u64 {
            let mut r = s.worker(3, 40 + w);
            for j in 0..3u64 {
                if drop_one && w == 1 && j == 2 {
                    continue;
                }
                let finished = match perturb {
                    Some(f) if w == 0 && j == 1 => f,
                    _ => t(100 + 10 * j),
                };
                r.record("", t(j), finished, 0);
            }
            r.finish();
        }
        s.finish()
    }

    #[test]
    fn identical_runs_have_no_failures() {
        let base = summary(None, false);
        assert_eq!(base.submitted, 6);
        assert_eq!(base.completed, 6);
        assert_eq!(base.failed_jobs(None), 0);
        assert_eq!(summary(None, false).failed_jobs(Some(&base)), 0);
        assert!((base.jct_mean_s - 109.0).abs() < 1e-9);
        assert_eq!(base.jct_p99_s, 118.0);
        assert_eq!(base.makespan_s, 120.0);
    }

    #[test]
    fn a_perturbed_completion_drives_the_error_rate_above_zero() {
        let base = summary(None, false);
        let moved = summary(Some(t(111)), false);
        let failed = moved.failed_jobs(Some(&base));
        assert_eq!(failed, 3, "the diverged worker's records all count");
        let error_rate = failed as f64 / moved.submitted as f64;
        assert!(error_rate > 0.0);
        // A record finishing before it arrived fails even without a baseline.
        let early = summary(Some(SimTime::ZERO), false);
        assert_eq!(early.bad_records, 1);
        assert!(early.failed_jobs(None) > 0);
    }

    #[test]
    fn missing_jobs_count_as_failures() {
        let short = summary(None, true);
        assert_eq!(short.count_errors, 1);
        assert_eq!(short.failed_jobs(None), 1);
    }
}
