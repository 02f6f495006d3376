//! Synthetic arrival processes: Poisson, bursty on/off (MMPP-style), and
//! diurnal-rate generators.
//!
//! All randomness flows through `flowcon_sim::rng::SimRng`, so a process +
//! seed is a complete, bit-reproducible description of a workload — the
//! same contract the rest of the workspace keeps for simulations.

use flowcon_dl::models::TABLE1_MODELS;
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_sim::rng::SimRng;
use flowcon_sim::time::SimTime;

/// A stochastic arrival process generating job submission times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals: i.i.d. exponential inter-arrival gaps
    /// at `rate` jobs per second.
    Poisson {
        /// Mean arrival rate in jobs per second (finite, `> 0`).
        rate: f64,
    },
    /// Bursty on/off arrivals (a two-state Markov-modulated Poisson
    /// process): the process alternates between an *on* state emitting at
    /// `rate_on` and an *off* state emitting at `rate_off` (often 0), with
    /// exponentially distributed dwell times.
    Bursty {
        /// Arrival rate during bursts, jobs per second (finite, `> 0`).
        rate_on: f64,
        /// Arrival rate between bursts, jobs per second (finite, `>= 0`).
        rate_off: f64,
        /// Mean burst length in seconds (finite, `> 0`).
        mean_on_secs: f64,
        /// Mean quiet-period length in seconds (finite, `> 0`).
        mean_off_secs: f64,
    },
    /// Diurnal arrivals: an inhomogeneous Poisson process whose rate
    /// follows `mean_rate · (1 + amplitude · sin(2πt/period))`, sampled by
    /// thinning against the peak rate.
    Diurnal {
        /// Mean arrival rate over a full period, jobs per second (finite,
        /// `> 0`, with a finite peak `mean_rate · (1 + amplitude)`).
        mean_rate: f64,
        /// Relative swing around the mean, in `[0, 1]`.
        amplitude: f64,
        /// Period of the rate cycle in seconds (finite, `> 0`).
        period_secs: f64,
    },
}

/// The highest arrival rate a process may have, in jobs per second: a
/// mean gap of one tick of the 1 µs clock.  A faster process stamps most
/// of its arrivals with the instant before them, so its time advances by
/// rounding alone, or not at all.
pub const MAX_RATE: f64 = 1e6;

/// The shortest mean burst or quiet period, in seconds: one clock tick.
/// A bursty process whose dwells are shorter switches state without
/// emitting and never reaches its next arrival.
const MIN_DWELL_SECS: f64 = 1e-6;

/// Fails unless `value` is `> 0` (`>= 0` when `zero_ok`) and finite,
/// naming the parameter.
fn check_param(name: &str, value: f64, zero_ok: bool) -> Result<(), String> {
    let (ok, wants) = if zero_ok {
        (value >= 0.0, ">= 0")
    } else {
        (value > 0.0, "> 0")
    };
    if ok && value.is_finite() {
        Ok(())
    } else {
        Err(format!("{name} must be {wants} and finite, got {value}"))
    }
}

/// Fails if the rate `value` is above [`MAX_RATE`], naming the parameter.
fn check_rate(name: &str, value: f64) -> Result<(), String> {
    if value <= MAX_RATE {
        Ok(())
    } else {
        Err(format!(
            "{name} must be at most {MAX_RATE:e} jobs/s (a mean gap of one 1 µs clock tick), \
             got {value:e}"
        ))
    }
}

/// Fails unless the mean dwell `value` is at least [`MIN_DWELL_SECS`],
/// naming the parameter.
fn check_dwell(name: &str, value: f64) -> Result<(), String> {
    if value >= MIN_DWELL_SECS {
        Ok(())
    } else {
        Err(format!(
            "{name} must be at least {MIN_DWELL_SECS:e} s (one 1 µs clock tick), got {value:e}"
        ))
    }
}

impl ArrivalProcess {
    /// Poisson arrivals at `rate` jobs/second.
    pub fn poisson(rate: f64) -> Self {
        ArrivalProcess::Poisson { rate }.checked()
    }

    /// Bursty on/off arrivals (see [`ArrivalProcess::Bursty`]).
    pub fn bursty(rate_on: f64, rate_off: f64, mean_on_secs: f64, mean_off_secs: f64) -> Self {
        ArrivalProcess::Bursty {
            rate_on,
            rate_off,
            mean_on_secs,
            mean_off_secs,
        }
        .checked()
    }

    /// Diurnal arrivals (see [`ArrivalProcess::Diurnal`]).
    pub fn diurnal(mean_rate: f64, amplitude: f64, period_secs: f64) -> Self {
        ArrivalProcess::Diurnal {
            mean_rate,
            amplitude,
            period_secs,
        }
        .checked()
    }

    /// `self`, after panicking on a parameter the sampler cannot run with
    /// (see [`ArrivalProcess::validate`]).
    ///
    /// The constructors and [`ArrivalProcess::sampler`] both check, so a
    /// process written as a literal is refused before it samples; a
    /// literal can also be checked where it is built.
    pub fn checked(self) -> Self {
        if let Err(msg) = self.validate() {
            panic!("{msg}");
        }
        self
    }

    /// Why the sampler cannot run this process, if it cannot: a rate,
    /// dwell or period that is not finite or not `> 0` (an off rate may be
    /// 0), an amplitude outside `[0, 1]`, a diurnal peak
    /// `mean_rate · (1 + amplitude)` that overflows, a rate or diurnal
    /// peak above [`MAX_RATE`], or a mean dwell shorter than one 1 µs
    /// clock tick.  Each message names the parameter and its bound.
    ///
    /// A non-finite rate draws zero-length gaps, so time never advances,
    /// and a rate above one arrival per 1 µs tick stamps most arrivals
    /// with the instant of the one before.  An infinite peak never accepts
    /// a proposal, and dwells shorter than a tick switch state without
    /// emitting, so the sampler never returns.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                check_param("poisson rate", rate, false)?;
                check_rate("poisson rate", rate)
            }
            ArrivalProcess::Bursty {
                rate_on,
                rate_off,
                mean_on_secs,
                mean_off_secs,
            } => {
                check_param("burst rate", rate_on, false)?;
                check_param("off rate", rate_off, true)?;
                check_param("mean burst length", mean_on_secs, false)?;
                check_param("mean quiet-period length", mean_off_secs, false)?;
                check_rate("burst rate", rate_on)?;
                check_rate("off rate", rate_off)?;
                check_dwell("mean burst length", mean_on_secs)?;
                check_dwell("mean quiet-period length", mean_off_secs)
            }
            ArrivalProcess::Diurnal {
                mean_rate,
                amplitude,
                period_secs,
            } => {
                check_param("mean rate", mean_rate, false)?;
                if !(0.0..=1.0).contains(&amplitude) {
                    return Err(format!("amplitude must be in [0, 1], got {amplitude}"));
                }
                check_param("period", period_secs, false)?;
                let peak = mean_rate * (1.0 + amplitude);
                if !peak.is_finite() {
                    return Err(format!(
                        "diurnal peak rate mean_rate · (1 + amplitude) overflows: \
                         {mean_rate} · (1 + {amplitude})"
                    ));
                }
                check_rate("diurnal peak rate mean_rate · (1 + amplitude)", peak)
            }
        }
    }

    /// Short process name (`poisson`/`bursty`/`diurnal`) for CLIs and
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// An incremental sampler of this process: arrivals one at a time,
    /// without deciding up front how many will be drawn.
    ///
    /// This is the open-loop primitive — a
    /// [`JobStream`](crate::stream::JobStream) pulls one arrival per job
    /// admission, unboundedly.  [`ArrivalProcess::sample_arrivals`] is the
    /// batch wrapper over the same state machine, so a sampler and a batch
    /// draw produce bit-identical sequences from the same RNG stream.
    ///
    /// Panics on a parameter the sampler cannot run with (see the
    /// constructors), including one written into a variant directly.
    pub fn sampler(&self) -> ArrivalSampler {
        ArrivalSampler {
            process: self.checked(),
            t: 0.0,
            on: true,
            dwell_left: 0.0,
            primed: false,
        }
    }

    /// Sample the first `n` arrival times of the process, in order.
    pub fn sample_arrivals(&self, n: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut sampler = self.sampler();
        (0..n).map(|_| sampler.next_arrival(rng)).collect()
    }
}

/// Incremental arrival-sampling state for one [`ArrivalProcess`].
///
/// Created by [`ArrivalProcess::sampler`]; each
/// [`ArrivalSampler::next_arrival`] call draws exactly the randomness the
/// next arrival needs, so the sequence is identical whether arrivals are
/// drawn in one batch or pulled one at a time over the life of an
/// open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    /// Current process time in seconds.
    t: f64,
    /// Bursty: whether the MMPP is in its *on* state.
    on: bool,
    /// Bursty: seconds left in the current dwell.
    dwell_left: f64,
    /// Bursty: whether the initial dwell has been drawn yet (the draw
    /// needs the RNG, which the sampler does not own).
    primed: bool,
}

impl ArrivalSampler {
    /// The next arrival time, strictly advancing the process clock.
    pub fn next_arrival(&mut self, rng: &mut SimRng) -> SimTime {
        match self.process {
            ArrivalProcess::Poisson { rate } => {
                self.t += rng.exponential(rate);
                SimTime::from_secs_f64(self.t)
            }
            ArrivalProcess::Bursty {
                rate_on,
                rate_off,
                mean_on_secs,
                mean_off_secs,
            } => {
                // Start inside a burst; alternate exponential dwells.
                if !self.primed {
                    self.dwell_left = rng.exponential(1.0 / mean_on_secs);
                    self.primed = true;
                }
                loop {
                    let rate = if self.on { rate_on } else { rate_off };
                    // A zero-rate state emits nothing: skip to the switch.
                    let gap = if rate > 0.0 {
                        rng.exponential(rate)
                    } else {
                        f64::INFINITY
                    };
                    if gap < self.dwell_left {
                        self.dwell_left -= gap;
                        self.t += gap;
                        return SimTime::from_secs_f64(self.t);
                    }
                    self.t += self.dwell_left;
                    self.on = !self.on;
                    let mean = if self.on { mean_on_secs } else { mean_off_secs };
                    self.dwell_left = rng.exponential(1.0 / mean);
                }
            }
            ArrivalProcess::Diurnal {
                mean_rate,
                amplitude,
                period_secs,
            } => {
                // Thinning (Lewis & Shedler): propose at the peak rate,
                // accept with probability rate(t)/peak.
                let peak = mean_rate * (1.0 + amplitude);
                loop {
                    self.t += rng.exponential(peak);
                    let phase = 2.0 * std::f64::consts::PI * self.t / period_secs;
                    let rate = mean_rate * (1.0 + amplitude * phase.sin());
                    if rng.f64() * peak < rate {
                        return SimTime::from_secs_f64(self.t);
                    }
                }
            }
        }
    }
}

/// A complete synthetic workload description: process + size + seed, over
/// the Table-1 models assigned to arrivals round-robin.  Convertible
/// straight into a `WorkloadPlan` (`Session::builder().plan(synthetic)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Synthetic {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// RNG seed; same seed ⇒ same plan, bit for bit.
    pub seed: u64,
}

impl Synthetic {
    /// A synthetic workload over the Table-1 model mix.
    pub fn new(process: ArrivalProcess, jobs: usize, seed: u64) -> Self {
        Synthetic {
            process,
            jobs,
            seed,
        }
    }

    /// Generate the plan: arrivals from the process, models round-robin,
    /// labels `Job-<k>` in arrival order (the workspace convention).
    pub fn plan(&self) -> WorkloadPlan {
        self.plan_with(&mut SimRng::new(self.seed), true)
    }

    /// Generate with a caller-provided RNG stream and optional labels
    /// (unlabeled plans allocate no label strings — the headless path).
    pub(crate) fn plan_with(&self, rng: &mut SimRng, labeled: bool) -> WorkloadPlan {
        let arrivals = self.process.sample_arrivals(self.jobs, rng);
        let jobs: Vec<JobRequest> = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                JobRequest::new(
                    if labeled {
                        format!("Job-{}", i + 1)
                    } else {
                        String::new()
                    },
                    TABLE1_MODELS[i % TABLE1_MODELS.len()],
                    arrival,
                )
            })
            .collect();
        // Arrivals are generated in order; the constructor sort is a no-op
        // pass that keeps the invariant explicit.
        WorkloadPlan::new(jobs)
    }
}

impl From<Synthetic> for WorkloadPlan {
    fn from(synthetic: Synthetic) -> Self {
        synthetic.plan()
    }
}

impl From<&Synthetic> for WorkloadPlan {
    fn from(synthetic: &Synthetic) -> Self {
        synthetic.plan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap(times: &[SimTime]) -> f64 {
        times.last().unwrap().as_secs_f64() / times.len() as f64
    }

    #[test]
    fn poisson_mean_rate_is_respected() {
        let mut rng = SimRng::new(1);
        let times = ArrivalProcess::poisson(0.5).sample_arrivals(4000, &mut rng);
        assert_eq!(times.len(), 4000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted");
        let gap = mean_gap(&times);
        assert!((1.7..2.3).contains(&gap), "mean gap {gap} for rate 0.5");
    }

    #[test]
    fn bursty_is_burstier_than_poisson_at_equal_mean_rate() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for an on/off MMPP with a silent off state.
        let cv2 = |times: &[SimTime]| {
            let gaps: Vec<f64> = times
                .windows(2)
                .map(|w| w[1].as_secs_f64() - w[0].as_secs_f64())
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let mut rng = SimRng::new(5);
        // On half the time at rate 2 ⇒ long-run mean rate 1.
        let bursty = ArrivalProcess::bursty(2.0, 0.0, 10.0, 10.0).sample_arrivals(4000, &mut rng);
        let mut rng = SimRng::new(5);
        let poisson = ArrivalProcess::poisson(1.0).sample_arrivals(4000, &mut rng);
        assert!(
            cv2(&bursty) > 1.5 * cv2(&poisson),
            "bursty CV² {:.2} vs poisson {:.2}",
            cv2(&bursty),
            cv2(&poisson)
        );
    }

    #[test]
    fn diurnal_peaks_and_troughs_follow_the_cycle() {
        let mut rng = SimRng::new(9);
        let period = 100.0;
        let times = ArrivalProcess::diurnal(1.0, 0.9, period).sample_arrivals(8000, &mut rng);
        // Bucket arrivals by phase quarter: the first quarter (rising sine)
        // must see far more arrivals than the third (trough).
        let mut quarters = [0u32; 4];
        for t in &times {
            let phase = (t.as_secs_f64() % period) / period;
            quarters[(phase * 4.0) as usize % 4] += 1;
        }
        assert!(
            quarters[0] as f64 > 2.0 * quarters[2] as f64,
            "quarters {quarters:?}"
        );
    }

    #[test]
    fn synthetic_plans_are_seed_deterministic() {
        let s = Synthetic::new(ArrivalProcess::poisson(0.1), 20, 42);
        assert_eq!(s.plan(), s.plan());
        let other = Synthetic::new(ArrivalProcess::poisson(0.1), 20, 43);
        assert_ne!(s.plan(), other.plan());
    }

    #[test]
    fn synthetic_plan_follows_workspace_conventions() {
        let plan = Synthetic::new(ArrivalProcess::poisson(0.2), 10, 3).plan();
        assert_eq!(plan.len(), 10);
        for (i, job) in plan.jobs.iter().enumerate() {
            assert_eq!(job.label, format!("Job-{}", i + 1));
            assert_eq!(job.model, TABLE1_MODELS[i % TABLE1_MODELS.len()]);
        }
        assert!(plan.jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    #[should_panic(expected = "rate must be > 0")]
    fn zero_rate_poisson_is_rejected() {
        ArrivalProcess::poisson(0.0);
    }

    // A bad process is only ever built or handed to `sampler()` below:
    // sampling one would spin at t = 0 or never return.

    #[test]
    #[should_panic(expected = "poisson rate must be > 0 and finite, got inf")]
    fn infinite_poisson_rate_is_rejected() {
        ArrivalProcess::poisson(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "burst rate must be > 0 and finite, got inf")]
    fn infinite_burst_rate_is_rejected() {
        ArrivalProcess::bursty(f64::INFINITY, 0.0, 20.0, 40.0);
    }

    #[test]
    #[should_panic(expected = "off rate must be >= 0 and finite, got inf")]
    fn infinite_off_rate_is_rejected() {
        ArrivalProcess::bursty(1.0, f64::INFINITY, 20.0, 40.0);
    }

    #[test]
    #[should_panic(expected = "mean quiet-period length must be > 0 and finite, got inf")]
    fn infinite_dwell_is_rejected() {
        ArrivalProcess::bursty(1.0, 0.0, 20.0, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "mean rate must be > 0 and finite, got inf")]
    fn infinite_diurnal_rate_is_rejected() {
        ArrivalProcess::diurnal(f64::INFINITY, 0.5, 3600.0);
    }

    #[test]
    #[should_panic(expected = "period must be > 0 and finite, got inf")]
    fn infinite_diurnal_period_is_rejected() {
        ArrivalProcess::diurnal(1.0, 0.5, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "diurnal peak rate mean_rate · (1 + amplitude) overflows")]
    fn overflowing_diurnal_peak_is_rejected() {
        ArrivalProcess::diurnal(1e308, 1.0, 3600.0);
    }

    #[test]
    #[should_panic(expected = "poisson rate must be > 0 and finite, got inf")]
    fn sampler_rejects_a_literal_process() {
        ArrivalProcess::Poisson {
            rate: f64::INFINITY,
        }
        .sampler();
    }

    #[test]
    #[should_panic(expected = "diurnal peak rate mean_rate · (1 + amplitude) overflows")]
    fn sampler_rejects_a_literal_overflowing_peak() {
        ArrivalProcess::Diurnal {
            mean_rate: f64::MAX,
            amplitude: 0.5,
            period_secs: 3600.0,
        }
        .sampler();
    }

    // A rate or dwell the 1 µs clock cannot resolve: sampling one would
    // stamp its arrivals at one instant, or never return.

    #[test]
    #[should_panic(expected = "poisson rate must be at most 1e6 jobs/s")]
    fn a_poisson_rate_past_the_clock_is_rejected() {
        ArrivalProcess::poisson(1e308);
    }

    #[test]
    #[should_panic(expected = "poisson rate must be at most 1e6 jobs/s")]
    fn a_poisson_rate_the_clock_cannot_resolve_is_rejected() {
        ArrivalProcess::poisson(1e12);
    }

    #[test]
    #[should_panic(expected = "burst rate must be at most 1e6 jobs/s")]
    fn a_burst_rate_past_the_clock_is_rejected() {
        ArrivalProcess::bursty(2e6, 0.0, 20.0, 40.0);
    }

    #[test]
    #[should_panic(expected = "off rate must be at most 1e6 jobs/s")]
    fn an_off_rate_past_the_clock_is_rejected() {
        ArrivalProcess::bursty(1.0, 2e6, 20.0, 40.0);
    }

    #[test]
    #[should_panic(
        expected = "diurnal peak rate mean_rate · (1 + amplitude) must be at most 1e6 jobs/s"
    )]
    fn a_diurnal_peak_past_the_clock_is_rejected() {
        ArrivalProcess::diurnal(1e308, 0.5, 3600.0);
    }

    #[test]
    #[should_panic(
        expected = "diurnal peak rate mean_rate · (1 + amplitude) must be at most 1e6 jobs/s"
    )]
    fn a_diurnal_mean_under_the_clock_with_a_peak_past_it_is_rejected() {
        ArrivalProcess::diurnal(6e5, 1.0, 3600.0);
    }

    #[test]
    #[should_panic(expected = "mean burst length must be at least 1e-6 s")]
    fn a_burst_shorter_than_a_tick_is_rejected() {
        ArrivalProcess::bursty(1.0, 0.0, 1e-300, 40.0);
    }

    #[test]
    #[should_panic(expected = "mean quiet-period length must be at least 1e-6 s")]
    fn a_quiet_period_shorter_than_a_tick_is_rejected() {
        ArrivalProcess::bursty(1.0, 0.0, 20.0, 1e-7);
    }

    #[test]
    #[should_panic(expected = "poisson rate must be at most 1e6 jobs/s")]
    fn sampler_rejects_a_literal_rate_past_the_clock() {
        ArrivalProcess::Poisson { rate: 1e308 }.sampler();
    }

    #[test]
    fn one_arrival_per_tick_is_the_fastest_accepted_rate() {
        // Every bound is inclusive.
        assert!(
            ArrivalProcess::bursty(MAX_RATE, MAX_RATE, MIN_DWELL_SECS, MIN_DWELL_SECS)
                .validate()
                .is_ok()
        );
        assert!(ArrivalProcess::diurnal(MAX_RATE / 2.0, 1.0, 3600.0)
            .validate()
            .is_ok());
        // A million arrivals at one per tick on average span about a
        // second of process time.
        let arrivals =
            ArrivalProcess::poisson(MAX_RATE).sample_arrivals(1_000_000, &mut SimRng::new(5));
        let span = arrivals.last().expect("arrivals").as_secs_f64();
        assert!((0.9..1.1).contains(&span), "span {span} s");
    }

    #[test]
    fn incremental_sampler_matches_batch_sampling_bit_for_bit() {
        // The open-loop stream pulls arrivals one at a time; the plan path
        // draws them in a batch.  Both must walk the same RNG stream.
        for process in [
            ArrivalProcess::poisson(0.3),
            ArrivalProcess::bursty(1.5, 0.1, 12.0, 30.0),
            ArrivalProcess::diurnal(0.8, 0.6, 150.0),
        ] {
            let mut rng = SimRng::new(77);
            let batch = process.sample_arrivals(500, &mut rng);
            let mut rng = SimRng::new(77);
            let mut sampler = process.sampler();
            let incremental: Vec<SimTime> =
                (0..500).map(|_| sampler.next_arrival(&mut rng)).collect();
            assert_eq!(batch, incremental, "{process:?}");
            assert!(incremental.windows(2).all(|w| w[0] <= w[1]), "monotone");
        }
    }
}
