//! Property-based tests on the DL workload substrate: the invariants the
//! growth-efficiency metric implicitly assumes.

use flowcon_container::WorkloadStatus;
use flowcon_dl::models::{ModelSpec, ALL_MODELS};
use flowcon_dl::TrainingJob;
use flowcon_sim::rng::SimRng;
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = ModelSpec> {
    (0..ALL_MODELS.len()).prop_map(|i| ModelSpec::of(ALL_MODELS[i]))
}

/// The eager measurement `TrainingJob` is pinned against: the job's
/// constructor physics, then one fresh noisy value per post-warm-up
/// advance from two `normal()` draws.
struct EagerJob {
    spec: ModelSpec,
    total_work: f64,
    done: f64,
    rng: SimRng,
    eval: Option<f64>,
}

impl EagerJob {
    fn new(spec: ModelSpec, rng: &mut SimRng) -> Self {
        let mut rng = rng.split();
        let jitter = 1.0 + 0.03 * (2.0 * rng.f64() - 1.0);
        EagerJob {
            total_work: spec.total_work * jitter,
            spec,
            done: 0.0,
            rng,
            eval: None,
        }
    }

    fn advance(&mut self, cpu_seconds: f64) {
        self.done = (self.done + cpu_seconds).min(self.total_work);
        let progress = (self.done / self.total_work).min(1.0);
        if progress >= 0.005 {
            let truth = self
                .spec
                .eval
                .value_at(self.spec.eval_curve().level(progress));
            let converged = self.spec.eval.converged;
            let distance = truth - converged;
            let rel = 1.0 + self.spec.noise * self.rng.normal();
            let abs = 0.002 * self.spec.eval.magnitude() * self.rng.normal();
            self.eval = Some(converged + distance * rel + abs);
        }
    }
}

/// One advance of an equivalence run, as a fraction of the model's
/// nominal work: zero, below the 0.5% warm-up, a few percent, or a step
/// that can overshoot the total.
fn arb_step() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => 0.004 * x,
        2 => 0.05 * x,
        _ => 0.6 * x,
    })
}

proptest! {
    /// Quality — the model's convergence level at the job's progress, the
    /// accuracy axis of Fig. 1 — is monotone in consumed compute for every
    /// catalog model, whatever the step sizes.
    #[test]
    fn quality_is_monotone_in_compute(
        spec in arb_model(),
        steps in prop::collection::vec(0.0f64..10.0, 1..60),
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec.clone(), &mut rng);
        let quality = |job: &TrainingJob| spec.curve.level(job.progress());
        let mut last_quality = quality(&job);
        for step in steps {
            job.advance(step);
            let q = quality(&job);
            prop_assert!(q >= last_quality - 1e-12, "quality decreased");
            prop_assert!((0.0..=1.0).contains(&q));
            last_quality = q;
        }
    }

    /// The noise-free evaluation value always lies between the function's
    /// initial and converged magnitudes.
    #[test]
    fn true_eval_stays_in_range(
        spec in arb_model(),
        consumed in 0.0f64..500.0,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec.clone(), &mut rng);
        job.advance(consumed);
        let v = job.true_eval();
        let lo = spec.eval.initial.min(spec.eval.converged);
        let hi = spec.eval.initial.max(spec.eval.converged);
        prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&v), "eval {v} outside [{lo},{hi}]");
    }

    /// Measured (noisy) evaluation values stay finite and near the truth.
    #[test]
    fn measured_eval_is_finite_and_close(
        spec in arb_model(),
        consumed in 1.0f64..300.0,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec.clone(), &mut rng);
        job.advance(consumed);
        if let Some(e) = job.eval() {
            prop_assert!(e.is_finite());
            let truth = job.true_eval();
            let tol = 0.25 * spec.eval.magnitude().max(0.1);
            prop_assert!((e - truth).abs() < tol, "eval {e} vs truth {truth}");
        }
    }

    /// `remaining + consumed == total` up to clamping, and status flips to
    /// Finished exactly when remaining hits zero.
    #[test]
    fn work_accounting_is_consistent(
        spec in arb_model(),
        fractions in prop::collection::vec(0.0f64..0.4, 1..20),
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut job = TrainingJob::new(spec, &mut rng);
        let total = job.remaining_cpu_seconds();
        let mut consumed = 0.0;
        for f in &fractions {
            let step = f * total;
            job.advance(step);
            consumed += step;
            let remaining = job.remaining_cpu_seconds();
            prop_assert!(
                (remaining - (total - consumed).max(0.0)).abs() < 1e-6,
                "remaining {remaining}, expected {}",
                (total - consumed).max(0.0)
            );
            let done = job.status() == WorkloadStatus::Finished;
            prop_assert_eq!(done, remaining <= 0.0);
        }
    }

    /// Demand and footprint are sane for every model.
    #[test]
    fn demand_and_footprint_are_valid(spec in arb_model(), seed in 0u64..100) {
        let mut rng = SimRng::new(seed);
        let job = TrainingJob::new(spec, &mut rng);
        prop_assert!(job.demand() > 0.0 && job.demand() <= 1.0);
        let fp = job.footprint();
        prop_assert!(fp.is_valid());
        prop_assert!(fp.get(flowcon_sim::ResourceKind::Cpu) == 0.0, "cpu is the allocator's");
    }

    /// Evaluating on read is bit-identical to measuring eagerly on every
    /// advance, however the advances fall (zero-work steps, the warm-up
    /// crossing, overshoot past the total) and however often the value is
    /// read: twice, or not at all, changes no later value.
    #[test]
    fn lazy_eval_matches_eager_measurement_bit_for_bit(
        spec in arb_model(),
        steps in prop::collection::vec((arb_step(), 0u8..3), 1..80),
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut eager = EagerJob::new(spec.clone(), &mut rng.clone());
        let mut every_step = TrainingJob::new(spec.clone(), &mut rng.clone());
        let mut sometimes = TrainingJob::new(spec.clone(), &mut rng);
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        for (i, &(fraction, reads)) in steps.iter().enumerate() {
            let work = fraction * spec.total_work;
            eager.advance(work);
            every_step.advance(work);
            sometimes.advance(work);
            let want = bits(eager.eval);
            prop_assert_eq!(bits(every_step.eval()), want, "step {}", i);
            for _ in 0..reads {
                prop_assert_eq!(bits(sometimes.eval()), want, "step {} (sparse reads)", i);
            }
            prop_assert_eq!(
                every_step.remaining_cpu_seconds().to_bits(),
                (eager.total_work - eager.done).max(0.0).to_bits()
            );
        }
        prop_assert_eq!(bits(sometimes.eval()), bits(eager.eval));
    }

    /// Two jobs from the same spec and seed are identical; different seeds
    /// differ in total work (the ±3% instance jitter).
    #[test]
    fn instance_jitter_is_seeded(spec in arb_model(), seed in 0u64..1000) {
        let mk = |s: u64| {
            let mut rng = SimRng::new(s);
            TrainingJob::new(spec.clone(), &mut rng).remaining_cpu_seconds()
        };
        prop_assert_eq!(mk(seed), mk(seed));
        let spread = (mk(seed) - spec.total_work).abs();
        prop_assert!(spread <= spec.total_work * 0.03 + 1e-9);
    }
}
