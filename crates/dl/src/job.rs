//! The training-job workload.
//!
//! [`TrainingJob`] is the payload a container runs: it consumes effective
//! CPU-seconds, walks its model's convergence curve, and exposes the noisy
//! evaluation-function value FlowCon's Container Monitor samples.

use flowcon_container::WorkloadStatus;
use flowcon_sim::resources::ResourceVec;
use flowcon_sim::rng::{box_muller, SimRng};

use crate::models::ModelSpec;

/// Fraction of total work before the job emits its first measurement
/// (framework import + data loading produce no loss values).
const WARMUP_FRACTION: f64 = 0.005;

/// A deep-learning training job driven by allocated CPU time.
#[derive(Debug, Clone)]
pub struct TrainingJob {
    spec: ModelSpec,
    label: String,
    /// Total effective CPU-seconds this instance needs (spec value ± jitter).
    total_work: f64,
    /// Effective CPU-seconds consumed so far.
    done: f64,
    /// The evaluation curve's normalizer, computed once per job.
    normalizer: f64,
    /// Per-instance noise stream.
    rng: SimRng,
    /// The uniforms of the current measurement's noise, drawn on every
    /// post-warm-up advance and turned into the noisy evaluation value
    /// only when [`TrainingJob::eval`] reads it.  `None` until warm-up ends.
    noise: Option<(f64, f64)>,
    failed: Option<i32>,
}

impl TrainingJob {
    /// Create a job from a model spec with a dedicated RNG stream.
    ///
    /// Per-instance total work is jittered by ±3% (dataset shuffling, I/O
    /// variance) so repeated instances of one model are not clones.
    pub fn new(spec: ModelSpec, rng: &mut SimRng) -> Self {
        let mut job = Self::unlabeled(spec, rng);
        job.label = job.spec.label();
        job
    }

    /// Create a job with an explicit instance label (e.g. `Job-3`).
    ///
    /// An empty label is free: the dense headless path passes
    /// `String::new()` so admitting a job performs no label allocation.
    pub fn with_label(spec: ModelSpec, label: impl Into<String>, rng: &mut SimRng) -> Self {
        let mut job = Self::unlabeled(spec, rng);
        job.label = label.into();
        job
    }

    /// Shared constructor: all the physics (RNG split, work jitter), no
    /// label `String` yet.
    fn unlabeled(spec: ModelSpec, rng: &mut SimRng) -> Self {
        let mut rng = rng.split();
        let jitter = 1.0 + 0.03 * (2.0 * rng.f64() - 1.0);
        let total_work = spec.total_work * jitter;
        TrainingJob {
            normalizer: spec.eval_curve().normalizer(),
            spec,
            label: String::new(),
            total_work,
            done: 0.0,
            rng,
            noise: None,
            failed: None,
        }
    }

    /// Progress through the job's compute in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        (self.done / self.total_work).min(1.0)
    }

    /// Noise-free evaluation value at the current progress.
    ///
    /// Follows the model's *evaluation* convergence curve, which may be
    /// slower than its accuracy curve (see `ModelSpec::eval_curve`).
    pub fn true_eval(&self) -> f64 {
        let level = self
            .spec
            .eval_curve()
            .level_with(self.progress(), self.normalizer);
        self.spec.eval.value_at(level)
    }

    /// Inject a crash: the container will exit with `code` on next advance.
    pub fn inject_failure(&mut self, code: i32) {
        self.failed = Some(code);
    }

    /// The noisy measurement at the current progress, from the noise
    /// uniforms the last advance drew.
    ///
    /// Noise is multiplicative on the *remaining distance to convergence*
    /// (training noise shrinks as the model converges) plus a small absolute
    /// jitter so converged jobs still wiggle — FlowCon's α threshold has to
    /// filter exactly that wiggle in practice.  Only `advance` moves the
    /// progress or the draw, so evaluating on read yields the value an
    /// eager per-advance measurement would have cached, bit for bit.
    fn measure(&self, noise: (f64, f64)) -> f64 {
        let truth = self.true_eval();
        let converged = self.spec.eval.converged;
        let distance = truth - converged;
        let (z_rel, z_abs) = box_muller(noise);
        let rel = 1.0 + self.spec.noise * z_rel;
        let abs = 0.002 * self.spec.eval.magnitude() * z_abs;
        converged + distance * rel + abs
    }

    /// Human-readable label, e.g. `MNIST (Tensorflow)` or `Job-3`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The largest CPU fraction this job can exploit right now.
    ///
    /// Real DL jobs rarely scale to a full node (paper Fig. 11, 0–50 s); the
    /// allocator treats this as a demand ceiling.
    pub fn demand(&self) -> f64 {
        self.spec.demand
    }

    /// Consume `cpu_seconds` of effective CPU time.
    pub fn advance(&mut self, cpu_seconds: f64) {
        debug_assert!(cpu_seconds >= 0.0);
        self.done = (self.done + cpu_seconds).min(self.total_work);
        if self.progress() >= WARMUP_FRACTION {
            self.noise = Some(self.rng.normal_pair_uniforms());
        }
    }

    /// Current value of the job's evaluation function (loss, accuracy, ...).
    ///
    /// `None` until warm-up ends: a job still importing data has emitted no
    /// measurement, and FlowCon must tolerate that.
    pub fn eval(&self) -> Option<f64> {
        self.noise.map(|noise| self.measure(noise))
    }

    /// Completion status.
    pub fn status(&self) -> WorkloadStatus {
        if let Some(code) = self.failed {
            return WorkloadStatus::Failed(code);
        }
        if self.done >= self.total_work {
            WorkloadStatus::Finished
        } else {
            WorkloadStatus::Running
        }
    }

    /// Remaining effective CPU-seconds until completion; the node
    /// simulations project the next completion event from it exactly.
    pub fn remaining_cpu_seconds(&self) -> f64 {
        (self.total_work - self.done).max(0.0)
    }

    /// Steady non-CPU resource usage rates while running (memory fraction
    /// held, block-I/O and network-I/O bandwidth fractions) for the
    /// Container Monitor's four-resource accounting (§3.2.1).  The CPU
    /// component is ignored — the allocator decides CPU.
    pub fn footprint(&self) -> ResourceVec {
        self.spec.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelId;

    fn job(id: ModelId, seed: u64) -> TrainingJob {
        let mut rng = SimRng::new(seed);
        TrainingJob::new(ModelSpec::of(id), &mut rng)
    }

    #[test]
    fn fresh_job_has_no_measurement() {
        let j = job(ModelId::MnistTf, 1);
        assert_eq!(j.eval(), None, "warm-up emits nothing");
        assert_eq!(j.status(), WorkloadStatus::Running);
    }

    #[test]
    fn advance_decreases_loss_monotonically_modulo_noise() {
        let mut j = job(ModelId::MnistTorch, 2);
        let mut evals = Vec::new();
        for _ in 0..50 {
            j.advance(2.0);
            if let Some(e) = j.eval() {
                evals.push(e);
            }
        }
        assert!(evals.len() > 40);
        // Loss should fall substantially from first to last measurement.
        assert!(
            evals.last().unwrap() < &(evals[0] * 0.2),
            "first {} last {}",
            evals[0],
            evals.last().unwrap()
        );
    }

    #[test]
    fn completes_after_total_work() {
        let mut j = job(ModelId::MnistTf, 3);
        let spec_total = ModelSpec::of(ModelId::MnistTf).total_work;
        let total = j.remaining_cpu_seconds();
        assert!(
            (total - spec_total).abs() < spec_total * 0.04,
            "jittered total {total} vs spec {spec_total}"
        );
        j.advance(total + 1.0);
        assert_eq!(j.status(), WorkloadStatus::Finished);
        assert!((j.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn work_jitter_varies_by_instance_but_is_seed_stable() {
        let a = job(ModelId::Vae, 7).remaining_cpu_seconds();
        let b = job(ModelId::Vae, 8).remaining_cpu_seconds();
        let a2 = job(ModelId::Vae, 7).remaining_cpu_seconds();
        assert_ne!(a, b, "different seeds jitter differently");
        assert_eq!(a, a2, "same seed reproduces");
    }

    #[test]
    fn failure_injection_overrides_completion() {
        let mut j = job(ModelId::MnistTf, 5);
        j.inject_failure(139);
        assert_eq!(j.status(), WorkloadStatus::Failed(139));
    }

    #[test]
    fn noise_is_small_relative_to_signal() {
        let mut j = job(ModelId::MnistTorch, 6);
        j.advance(10.0);
        let truth = j.true_eval();
        let measured = j.eval().unwrap();
        assert!(
            (measured - truth).abs() < 0.2 * truth.max(0.1),
            "measured {measured} truth {truth}"
        );
    }
}
