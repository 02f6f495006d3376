//! Experiment workload generators.
//!
//! Encodes the three workload families of the paper's evaluation:
//!
//! * **Fixed scheduling** (§5.3): VAE (PyTorch) at 0 s, MNIST (PyTorch) at
//!   40 s, MNIST (TensorFlow) at 80 s.
//! * **Random scheduling** (§5.4): five models — LSTM-CFC, VAE, VAET,
//!   MNIST, GRU — submitted at times drawn uniformly from 0–200 s.
//! * **Scalability** (§5.5): 10 or 15 jobs sampled from the catalog, random
//!   arrivals in 0–200 s.

use std::fmt::Write;

use flowcon_sim::rng::SimRng;
use flowcon_sim::time::SimTime;

use crate::models::{ModelId, ModelSpec, TABLE1_MODELS};

/// One job submission: which model, when, and (optionally) how much work.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Instance label, e.g. `Job-3` (random workloads) or the model label.
    pub label: String,
    /// The model to train.
    pub model: ModelId,
    /// Submission time.
    pub arrival: SimTime,
    /// Multiplier on the model's calibrated `total_work` (1.0 = the
    /// catalog value).  Duration-hint-aware trace binding sets this so a
    /// bound job's nominal solo duration matches the trace's
    /// `duration_hint_secs`; see [`JobRequest::scaled_spec`].
    pub work_scale: f64,
}

impl JobRequest {
    /// A request for `model` arriving at `arrival`, at the model's
    /// calibrated work (`work_scale` 1.0).
    pub fn new(label: impl Into<String>, model: ModelId, arrival: SimTime) -> Self {
        JobRequest {
            label: label.into(),
            model,
            arrival,
            work_scale: 1.0,
        }
    }

    /// Override the work multiplier (finite, `> 0`).
    pub fn with_work_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "work_scale must be finite and > 0, got {scale}"
        );
        self.work_scale = scale;
        self
    }

    /// The model spec this request runs: the catalog entry with
    /// `total_work` multiplied by [`JobRequest::work_scale`]
    /// (via [`ModelSpec::scaled_by`], the canonical definition) — exactly
    /// what a wall-clock duration recorded in a cluster trace describes.
    pub fn scaled_spec(&self) -> ModelSpec {
        ModelSpec::of(self.model).scaled_by(self.work_scale)
    }
}

/// An ordered set of job submissions.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// Requests sorted by arrival time.
    pub jobs: Vec<JobRequest>,
}

impl WorkloadPlan {
    /// Wrap and sort requests by arrival (stable on label for ties).
    pub fn new(mut jobs: Vec<JobRequest>) -> Self {
        jobs.sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.label.cmp(&b.label)));
        WorkloadPlan { jobs }
    }

    /// Number of jobs in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// §5.3's fixed schedule: VAE@0s, MNIST-PyTorch@40s, MNIST-TF@80s.
    pub fn fixed_three() -> Self {
        WorkloadPlan::new(vec![
            JobRequest::new(
                ModelSpec::of(ModelId::Vae).label(),
                ModelId::Vae,
                SimTime::from_secs(0),
            ),
            JobRequest::new(
                ModelSpec::of(ModelId::MnistTorch).label(),
                ModelId::MnistTorch,
                SimTime::from_secs(40),
            ),
            JobRequest::new(
                ModelSpec::of(ModelId::MnistTf).label(),
                ModelId::MnistTf,
                SimTime::from_secs(80),
            ),
        ])
    }

    /// §5.4's five-model random schedule with arrivals in `[0, 200)` s.
    ///
    /// Jobs are labelled `Job-1` … `Job-5` in arrival order, as in Fig. 9.
    pub fn random_five(seed: u64) -> Self {
        const MODELS: [ModelId; 5] = [
            ModelId::LstmCfc,
            ModelId::Vae,
            ModelId::VaeTf,
            ModelId::MnistTorch,
            ModelId::Gru,
        ];
        Self::random_from(&MODELS, seed)
    }

    /// §5.5's scalability mixes: `n` jobs drawn round-robin from Table 1's
    /// models, random arrivals in `[0, 200)` s, labelled in arrival order.
    pub fn random_n(n: usize, seed: u64) -> Self {
        Self::random_by(n, |i| TABLE1_MODELS[i % TABLE1_MODELS.len()], seed)
    }

    /// Random arrivals for an explicit model list, labelled `Job-<k>` by
    /// arrival order (the paper's convention: "the responsible jobs are
    /// marked as 1, 2, 3, 4 and 5").
    pub fn random_from(models: &[ModelId], seed: u64) -> Self {
        Self::random_by(models.len(), |i| models[i], seed)
    }

    /// `n` jobs, the `i`-th of model `model(i)`, each drawing its arrival
    /// in input order, listed by arrival with ties in input order.
    ///
    /// Sorting `(arrival, input index)` pairs, all distinct, gives a
    /// stable sort's order without its scratch buffer.
    fn random_by(n: usize, model: impl Fn(usize) -> ModelId, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let mut arrivals: Vec<(SimTime, usize)> = (0..n)
            .map(|i| (SimTime::from_secs_f64(rng.range_f64(0.0, 200.0)), i))
            .collect();
        arrivals.sort_unstable();
        let jobs = (1..)
            .zip(arrivals)
            .map(|(k, (arrival, i))| JobRequest::new(job_label(k), model(i), arrival))
            .collect();
        WorkloadPlan { jobs }
    }

    /// All five Fig. 1 models submitted simultaneously at t=0.
    pub fn fig1_concurrent() -> Self {
        const MODELS: [ModelId; 5] = [
            ModelId::Vae,
            ModelId::MnistTorch,
            ModelId::LstmCfc,
            ModelId::Gru,
            ModelId::LogReg,
        ];
        WorkloadPlan::new(
            MODELS
                .iter()
                .map(|&m| JobRequest::new(ModelSpec::of(m).label(), m, SimTime::ZERO))
                .collect(),
        )
    }
}

/// `Job-<k>` in one exact-capacity allocation (`format!` guesses eight
/// bytes and grows once past four digits).
fn job_label(k: usize) -> String {
    let digits = k.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut label = String::with_capacity("Job-".len() + digits);
    write!(label, "Job-{k}").expect("writing to a String cannot fail");
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator `random_from` replaced: a stable sort of
    /// `(arrival, model)` pairs and `format!` labels.
    fn stable_sort_reference(models: &[ModelId], seed: u64) -> WorkloadPlan {
        let mut rng = SimRng::new(seed);
        let mut arrivals: Vec<(SimTime, ModelId)> = models
            .iter()
            .map(|&m| (SimTime::from_secs_f64(rng.range_f64(0.0, 200.0)), m))
            .collect();
        arrivals.sort_by_key(|&(t, _)| t);
        let jobs = arrivals
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, model))| JobRequest::new(format!("Job-{}", i + 1), model, arrival))
            .collect();
        WorkloadPlan { jobs }
    }

    #[test]
    fn random_plans_equal_the_stable_sort_reference() {
        for n in [0, 1, 5, 15, 1000, 100_000] {
            let models: Vec<ModelId> = (0..n)
                .map(|i| TABLE1_MODELS[i % TABLE1_MODELS.len()])
                .collect();
            let reversed: Vec<ModelId> = models.iter().rev().copied().collect();
            for seed in [0, 11, 42] {
                let plan = WorkloadPlan::random_n(n, seed);
                assert!(
                    plan == stable_sort_reference(&models, seed),
                    "random_n({n}, {seed}) diverged from the stable sort"
                );
                assert!(
                    WorkloadPlan::random_from(&reversed, seed)
                        == stable_sort_reference(&reversed, seed),
                    "random_from over {n} reversed models, seed {seed}, diverged"
                );
            }
        }
        // Ties must be exercised: two models arriving in the same
        // microsecond keep their input order only if the sort is stable.
        let plan = WorkloadPlan::random_n(100_000, 11);
        let ties = plan
            .jobs
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival)
            .count();
        assert!(ties > 0, "no tied arrivals at 100k jobs, seed 11");
    }

    #[test]
    fn job_labels_take_exactly_their_length() {
        for k in [1, 9, 10, 99, 100, 12_345, 2_000_000, usize::MAX] {
            let label = job_label(k);
            assert_eq!(label, format!("Job-{k}"));
            assert_eq!(label.capacity(), label.len(), "{label}");
        }
    }

    #[test]
    fn fixed_three_matches_section_5_3() {
        let plan = WorkloadPlan::fixed_three();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.jobs[0].model, ModelId::Vae);
        assert_eq!(plan.jobs[0].arrival, SimTime::from_secs(0));
        assert_eq!(plan.jobs[1].model, ModelId::MnistTorch);
        assert_eq!(plan.jobs[1].arrival, SimTime::from_secs(40));
        assert_eq!(plan.jobs[2].model, ModelId::MnistTf);
        assert_eq!(plan.jobs[2].arrival, SimTime::from_secs(80));
    }

    #[test]
    fn random_five_uses_the_papers_models() {
        let plan = WorkloadPlan::random_five(42);
        assert_eq!(plan.len(), 5);
        let mut models: Vec<ModelId> = plan.jobs.iter().map(|j| j.model).collect();
        models.sort();
        let mut expected = vec![
            ModelId::LstmCfc,
            ModelId::Vae,
            ModelId::VaeTf,
            ModelId::MnistTorch,
            ModelId::Gru,
        ];
        expected.sort();
        assert_eq!(models, expected);
    }

    #[test]
    fn random_arrivals_within_window_and_sorted() {
        for seed in 0..20 {
            let plan = WorkloadPlan::random_n(15, seed);
            assert_eq!(plan.len(), 15);
            let mut last = SimTime::ZERO;
            for job in &plan.jobs {
                assert!(job.arrival >= last, "arrivals sorted");
                assert!(job.arrival < SimTime::from_secs(200));
                last = job.arrival;
            }
        }
    }

    #[test]
    fn labels_follow_arrival_order() {
        let plan = WorkloadPlan::random_five(7);
        for (i, job) in plan.jobs.iter().enumerate() {
            assert_eq!(job.label, format!("Job-{}", i + 1));
        }
    }

    #[test]
    fn plans_are_seed_deterministic() {
        assert_eq!(WorkloadPlan::random_n(10, 5), WorkloadPlan::random_n(10, 5));
        assert_ne!(WorkloadPlan::random_n(10, 5), WorkloadPlan::random_n(10, 6));
    }

    #[test]
    fn work_scale_defaults_to_calibrated_and_scales_only_total_work() {
        let base = JobRequest::new("j", ModelId::Gru, SimTime::ZERO);
        assert_eq!(base.work_scale, 1.0);
        let spec = ModelSpec::of(ModelId::Gru);
        assert_eq!(base.scaled_spec(), spec);
        let scaled = base.clone().with_work_scale(2.5);
        let s = scaled.scaled_spec();
        assert!((s.total_work - 2.5 * spec.total_work).abs() < 1e-12);
        assert_eq!(s.demand, spec.demand, "only the work is scaled");
        assert_eq!(s.curve, spec.curve);
    }

    #[test]
    #[should_panic(expected = "work_scale must be finite")]
    fn non_positive_work_scale_is_rejected() {
        let _ = JobRequest::new("j", ModelId::Gru, SimTime::ZERO).with_work_scale(0.0);
    }

    #[test]
    fn fig1_is_five_concurrent_models() {
        let plan = WorkloadPlan::fig1_concurrent();
        assert_eq!(plan.len(), 5);
        assert!(plan.jobs.iter().all(|j| j.arrival == SimTime::ZERO));
    }
}
