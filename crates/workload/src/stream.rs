//! Open-loop job streams: pull-based, unbounded arrival sequences.
//!
//! # The open-loop model
//!
//! Every workload up to PR 4 was **closed**: a [`WorkloadPlan`] (or a
//! per-worker plan pulled off a [`PlanSource`](crate::PlanSource)) fixes
//! the complete set of jobs before the simulation starts, and the run ends
//! when that set drains.  The paper's elastic flow-configuration scheme is
//! only stressed realistically under **open-loop** load, where jobs keep
//! arriving *while* FlowCon reconfigures and the question becomes whether
//! the node keeps up (completion rate ≥ arrival rate) rather than how fast
//! a fixed batch finishes.
//!
//! A [`JobStream`] is the open-loop primitive: a pull-based iterator over
//! [`StreamedJob`]s with **monotone non-decreasing arrival times**, either
//! finite (one pass over a trace) or unbounded (a synthetic
//! [`ArrivalProcess`] sampled incrementally, or a cyclic trace replay).
//! The worker simulation pulls exactly one job ahead: when the pending
//! arrival fires it admits the job mid-run, pulls the next, and schedules
//! it — at no point does a materialized plan exist.
//!
//! # Termination: the [`Horizon`]
//!
//! An unbounded stream never drains, so every open-loop run carries a
//! [`Horizon`] with at least one bound:
//!
//! * [`Horizon::until`]`(t)` — stop *admitting* jobs whose arrival lies
//!   after simulated time `t` (`repro stream --until <secs>`);
//! * [`Horizon::jobs`]`(n)` — admit at most `n` jobs per worker
//!   (`repro stream --jobs <n>`);
//! * both, via [`Horizon::and_until`] / [`Horizon::and_jobs`] — whichever
//!   bound trips first wins.
//!
//! Jobs admitted before the horizon always run to completion (the run
//! *drains* after the last admission); steady-state metrics — arrival
//! vs. completion rate, time-weighted mean queue depth, utilization — are
//! reported as `StreamStats` by the session layer.
//!
//! # Clusters: the [`StreamSource`]
//!
//! One description drives a whole cluster through a [`StreamSource`]: each
//! executor shard asks for the stream of the worker it is about to
//! simulate, and `stream_for(worker_id)` is a **pure function of
//! `worker_id`** (the same contract as
//! [`PlanSource::next_plan`](crate::PlanSource::next_plan)), so open-loop
//! cluster runs are bit-identical whether workers execute sequentially,
//! sharded, or in any interleaving.  Two sources ship:
//!
//! * [`SyntheticStreamSource`] — per-worker independent [`ArrivalProcess`]
//!   streams; worker `w` samples from `SimRng::new(seed ⊕ mix(w))`, the
//!   same golden-ratio derivation as
//!   [`SyntheticSource`](crate::SyntheticSource).
//! * [`TraceStreamSource`] — a bound trace sliced round-robin across
//!   workers (row `w, w+k, w+2k, …` like
//!   [`TraceSource`](crate::TraceSource)), optionally **cyclic**: when a
//!   worker exhausts its slice the replay wraps, shifted by the trace's
//!   period, turning a finite trace into an unbounded arrival stream.
//!
//! Headless budget: with an unlabeled source, pulling a job allocates
//! nothing beyond the admission itself (labels are empty `String`s, the
//! sampler state is inline), so open-loop cluster runs — which run
//! headless on the dense path, `flowcon_core::dense::run_stream_dense` —
//! stay within the ≤ 10 allocs/worker headless budget pinned by
//! `crates/cluster/tests/headless_allocs.rs` and the `stream/open_loop/*`
//! bench rows.
//!
//! [`WorkloadPlan`]: flowcon_dl::workload::WorkloadPlan

use flowcon_dl::models::{ModelId, TABLE1_MODELS};
use flowcon_sim::rng::SimRng;
use flowcon_sim::time::{SimDuration, SimTime};

use crate::catalog::BoundTrace;
use crate::synthetic::{ArrivalProcess, ArrivalSampler};

/// One job pulled from a [`JobStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedJob {
    /// Instance label; empty in headless streams (no allocation).
    pub label: String,
    /// The model to train.
    pub model: ModelId,
    /// Submission time (non-decreasing along the stream).
    pub arrival: SimTime,
    /// Multiplier on the model's calibrated `total_work` (1.0 =
    /// calibrated; set by duration-hint-aware trace binding).
    pub work_scale: f64,
}

impl StreamedJob {
    /// The model spec this job runs: the catalog entry with `total_work`
    /// multiplied by [`StreamedJob::work_scale`] — the same canonical
    /// [`ModelSpec::scaled_by`](flowcon_dl::models::ModelSpec::scaled_by)
    /// the plan path uses, so the two admission paths cannot diverge.
    pub fn scaled_spec(&self) -> flowcon_dl::models::ModelSpec {
        flowcon_dl::models::ModelSpec::of(self.model).scaled_by(self.work_scale)
    }
}

/// A pull-based, possibly unbounded sequence of job arrivals for **one**
/// worker.
///
/// Contract: arrival times are monotone non-decreasing, and `next_job` has
/// no side effects outside the stream's own state — the worker simulation
/// pulls exactly one job ahead of the simulated clock, so a stream is
/// consumed strictly in order.
pub trait JobStream {
    /// The next arrival, or `None` when the stream is exhausted
    /// (unbounded streams never return `None`).
    fn next_job(&mut self) -> Option<StreamedJob>;
}

/// Closures yield one-off streams (handy in tests).
impl<F: FnMut() -> Option<StreamedJob>> JobStream for F {
    fn next_job(&mut self) -> Option<StreamedJob> {
        self()
    }
}

/// When an open-loop run stops admitting jobs.
///
/// At least one bound must be set (an unbounded stream with no horizon
/// would never terminate); when both are set, whichever trips first wins.
/// Jobs admitted before the horizon always run to completion — the run
/// drains rather than guillotines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Horizon {
    /// Last admissible arrival time: jobs arriving after this instant are
    /// not admitted.
    pub until: Option<SimTime>,
    /// Maximum number of admitted jobs (per worker, in a cluster run).
    pub max_jobs: Option<usize>,
}

impl Horizon {
    /// Admit arrivals up to and including simulated time `t`.
    pub fn until(t: SimTime) -> Self {
        Horizon {
            until: Some(t),
            max_jobs: None,
        }
    }

    /// Admit at most `n` jobs (per worker).
    pub fn jobs(n: usize) -> Self {
        Horizon {
            until: None,
            max_jobs: Some(n),
        }
    }

    /// Additionally bound the admission window at `t`.
    pub fn and_until(mut self, t: SimTime) -> Self {
        self.until = Some(t);
        self
    }

    /// Additionally bound the admitted job count at `n`.
    pub fn and_jobs(mut self, n: usize) -> Self {
        self.max_jobs = Some(n);
        self
    }

    /// True when the horizon has at least one bound (required to run).
    pub fn is_bounded(&self) -> bool {
        self.until.is_some() || self.max_jobs.is_some()
    }

    /// Would a job arriving at `arrival` be admitted as admission number
    /// `admitted + 1`?
    pub fn admits(&self, admitted: usize, arrival: SimTime) -> bool {
        self.max_jobs.map_or(true, |m| admitted < m) && self.until.map_or(true, |t| arrival <= t)
    }
}

/// A deterministic, concurrently-pollable source of per-worker
/// [`JobStream`]s — the open-loop counterpart of
/// [`PlanSource`](crate::PlanSource).
///
/// `stream_for(w)` must be a pure function of `worker_id` (plus immutable
/// configuration): called twice, in any order, from any thread, it returns
/// streams that yield identical job sequences.  That is what keeps sharded
/// open-loop cluster runs bit-identical to a sequential loop.
pub trait StreamSource: Sync {
    /// The stream type handed to one worker (may borrow the source).
    type Stream<'a>: JobStream
    where
        Self: 'a;

    /// The arrival stream for worker `worker_id` (0-based).
    fn stream_for(&self, worker_id: usize) -> Self::Stream<'_>;
}

/// Per-worker independent synthetic arrival streams: worker `w` samples
/// its [`ArrivalProcess`] from `SimRng::new(seed ⊕ mix(w))`, so streams
/// are deterministic per worker and uncorrelated across workers — the
/// unbounded counterpart of [`SyntheticSource`](crate::SyntheticSource).
#[derive(Debug, Clone)]
pub struct SyntheticStreamSource {
    process: ArrivalProcess,
    seed: u64,
    labeled: bool,
}

impl SyntheticStreamSource {
    /// Unbounded arrivals from `process` over the Table-1 model mix.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        SyntheticStreamSource {
            process,
            seed,
            labeled: true,
        }
    }

    /// Yield label-free jobs (no label `String` allocations — the
    /// headless-cluster configuration).
    pub fn unlabeled(mut self) -> Self {
        self.labeled = false;
        self
    }

    /// The arrival process driving every worker's stream.
    pub fn process(&self) -> ArrivalProcess {
        self.process
    }
}

impl StreamSource for SyntheticStreamSource {
    type Stream<'a> = SyntheticStream;

    fn stream_for(&self, worker_id: usize) -> SyntheticStream {
        SyntheticStream {
            sampler: self.process.sampler(),
            // The same golden-ratio seed stride SyntheticSource::rng_for
            // uses, so plan-based and stream-based runs of one seed relate.
            rng: SimRng::new(
                self.seed
                    .wrapping_add((worker_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            labeled: self.labeled,
            count: 0,
        }
    }
}

/// One worker's unbounded synthetic arrival stream over the Table-1 models
/// round-robin (created by [`SyntheticStreamSource::stream_for`]).
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    sampler: ArrivalSampler,
    rng: SimRng,
    labeled: bool,
    count: usize,
}

impl JobStream for SyntheticStream {
    fn next_job(&mut self) -> Option<StreamedJob> {
        let arrival = self.sampler.next_arrival(&mut self.rng);
        let model = TABLE1_MODELS[self.count % TABLE1_MODELS.len()];
        self.count += 1;
        Some(StreamedJob {
            label: if self.labeled {
                format!("Job-{}", self.count)
            } else {
                String::new()
            },
            model,
            arrival,
            work_scale: 1.0,
        })
    }
}

/// Streams a bound trace across `workers` workers, row `w, w+k, w+2k, …`
/// (the same round-robin slicing as [`TraceSource`](crate::TraceSource)) —
/// optionally **cyclically**, shifting each replay by the trace's period
/// so a finite trace drives an unbounded open-loop run.
#[derive(Debug, Clone)]
pub struct TraceStreamSource {
    bound: BoundTrace,
    workers: usize,
    /// `Some(period)`: wrap to the start after the last row, adding
    /// `period` to every subsequent arrival.  `None`: one pass.
    cycle: Option<SimDuration>,
}

impl TraceStreamSource {
    /// One pass over `bound`, sliced round-robin across `workers` workers.
    pub fn new(bound: BoundTrace, workers: usize) -> Self {
        assert!(
            workers > 0,
            "a trace stream source needs at least one worker"
        );
        TraceStreamSource {
            bound,
            workers,
            cycle: None,
        }
    }

    /// Replay the trace cyclically with its natural period (the last
    /// arrival time), turning it into an unbounded stream.
    ///
    /// Panics if the trace is empty or spans zero time — a zero-period
    /// cycle would emit unboundedly many arrivals at one instant.
    pub fn cyclic(self) -> Self {
        let span = self
            .bound
            .jobs
            .last()
            .expect("cannot cycle an empty trace")
            .arrival;
        self.cyclic_every(SimDuration::from_secs_f64(span.as_secs_f64()))
    }

    /// Replay cyclically with an explicit `period` between replays.
    ///
    /// The period must be positive and at least the trace's span, so each
    /// worker's arrival sequence stays monotone.
    pub fn cyclic_every(mut self, period: SimDuration) -> Self {
        let span = self
            .bound
            .jobs
            .last()
            .map_or(0.0, |j| j.arrival.as_secs_f64());
        assert!(
            period.as_secs_f64() > 0.0,
            "cycle period must be positive (a zero-span trace cannot cycle)"
        );
        assert!(
            period.as_secs_f64() >= span,
            "cycle period {period} is shorter than the trace span {span} s — \
             arrivals would go backwards"
        );
        self.cycle = Some(period);
        self
    }

    /// The cluster size this source slices for.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl StreamSource for TraceStreamSource {
    type Stream<'a> = TraceStream<'a>;

    fn stream_for(&self, worker_id: usize) -> TraceStream<'_> {
        assert!(
            worker_id < self.workers,
            "worker {worker_id} out of range for {} workers",
            self.workers
        );
        TraceStream {
            bound: &self.bound,
            stride: self.workers,
            next: worker_id,
            start: worker_id,
            cycle: self.cycle,
            offset: SimDuration::ZERO,
        }
    }
}

/// One worker's (optionally cyclic) trace-replay stream (created by
/// [`TraceStreamSource::stream_for`]).
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    bound: &'a BoundTrace,
    stride: usize,
    next: usize,
    start: usize,
    cycle: Option<SimDuration>,
    offset: SimDuration,
}

impl JobStream for TraceStream<'_> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        if self.next >= self.bound.jobs.len() {
            let period = self.cycle?;
            // An empty slice (more workers than rows and no row for this
            // worker) stays empty even cyclically.
            if self.start >= self.bound.jobs.len() {
                return None;
            }
            self.next = self.start;
            self.offset += period;
        }
        let row = &self.bound.jobs[self.next];
        self.next += self.stride;
        Some(StreamedJob {
            label: row.label.clone(),
            model: row.model,
            arrival: row.arrival + self.offset,
            work_scale: row.work_scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TraceCatalog;
    use crate::trace::ArrivalTrace;

    fn drain<S: JobStream>(stream: &mut S, n: usize) -> Vec<StreamedJob> {
        (0..n).map(|_| stream.next_job().unwrap()).collect()
    }

    #[test]
    fn horizon_bounds_compose() {
        let h = Horizon::until(SimTime::from_secs(100));
        assert!(h.is_bounded());
        assert!(h.admits(1_000_000, SimTime::from_secs(100)));
        assert!(!h.admits(0, SimTime::from_secs_f64(100.001)));
        let h = Horizon::jobs(3);
        assert!(h.admits(2, SimTime::MAX));
        assert!(!h.admits(3, SimTime::ZERO));
        let both = Horizon::jobs(5).and_until(SimTime::from_secs(10));
        assert!(!both.admits(5, SimTime::from_secs(1)), "count trips first");
        assert!(!both.admits(0, SimTime::from_secs(11)), "time trips first");
        assert!(!Horizon {
            until: None,
            max_jobs: None
        }
        .is_bounded());
    }

    #[test]
    fn synthetic_streams_are_pure_per_worker_and_uncorrelated() {
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.2), 11);
        let a = drain(&mut source.stream_for(3), 50);
        let b = drain(&mut source.stream_for(3), 50);
        assert_eq!(a, b, "stream_for is a pure function of worker_id");
        let other = drain(&mut source.stream_for(4), 50);
        assert_ne!(a, other, "workers draw uncorrelated streams");
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(a[0].label, "Job-1");
        assert_eq!(a[0].model, TABLE1_MODELS[0]);
    }

    #[test]
    fn unlabeled_synthetic_streams_carry_empty_labels() {
        let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.5), 2).unlabeled();
        let jobs = drain(&mut source.stream_for(0), 5);
        assert!(jobs.iter().all(|j| j.label.is_empty()));
    }

    fn bound_of(n: usize) -> BoundTrace {
        let doc: String = (0..n).map(|i| format!("j{i},gru,{}\n", i * 10)).collect();
        TraceCatalog::table1()
            .bind(&ArrivalTrace::parse(&doc).unwrap())
            .unwrap()
    }

    #[test]
    fn one_pass_trace_stream_matches_the_round_robin_slice() {
        let source = TraceStreamSource::new(bound_of(10), 3);
        let mut stream = source.stream_for(1);
        let mut labels = Vec::new();
        while let Some(job) = stream.next_job() {
            labels.push(job.label);
        }
        assert_eq!(labels, ["j1", "j4", "j7"]);
    }

    #[test]
    fn cyclic_trace_stream_wraps_with_monotone_arrivals() {
        // 10 rows at 0, 10, ..., 90 s; natural period 90 s.
        let source = TraceStreamSource::new(bound_of(10), 3).cyclic();
        let jobs = drain(&mut source.stream_for(1), 9); // three full passes
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Second pass replays the same rows shifted by the period.
        assert_eq!(jobs[3].label, jobs[0].label);
        let shift = jobs[3].arrival.as_secs_f64() - jobs[0].arrival.as_secs_f64();
        assert!((shift - 90.0).abs() < 1e-9, "shift {shift}");
        // And per-worker purity holds across cycles too.
        assert_eq!(jobs, drain(&mut source.stream_for(1), 9));
    }

    #[test]
    fn cyclic_stream_preserves_work_scales() {
        let doc = "a,gru,0,320\nb,gru,50\n";
        let bound = TraceCatalog::table1()
            .with_duration_hints()
            .bind(&ArrivalTrace::parse(doc).unwrap())
            .unwrap();
        let scale = bound.jobs[0].work_scale;
        assert!(scale != 1.0);
        let source = TraceStreamSource::new(bound, 1).cyclic();
        let jobs = drain(&mut source.stream_for(0), 4);
        assert_eq!(jobs[2].work_scale, scale, "hint survives the wrap");
        assert_eq!(jobs[3].work_scale, 1.0);
    }

    #[test]
    fn empty_slices_stay_empty_even_cyclically() {
        let source = TraceStreamSource::new(bound_of(2), 5).cyclic();
        assert!(source.stream_for(4).next_job().is_none());
        assert_eq!(source.stream_for(0).next_job().unwrap().label, "j0");
    }

    #[test]
    #[should_panic(expected = "shorter than the trace span")]
    fn too_short_cycle_periods_are_rejected() {
        let _ = TraceStreamSource::new(bound_of(10), 1).cyclic_every(SimDuration::from_secs(5));
    }

    #[test]
    fn closure_streams_work() {
        let mut remaining = 2;
        let mut stream = move || {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            Some(StreamedJob {
                label: String::new(),
                model: ModelId::Gru,
                arrival: SimTime::ZERO,
                work_scale: 1.0,
            })
        };
        assert!(JobStream::next_job(&mut stream).is_some());
        assert!(stream.next_job().is_some());
        assert!(stream.next_job().is_none());
    }
}
