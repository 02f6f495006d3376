//! Convergence curves.
//!
//! A training job's progress is `x ∈ [0, 1]`: the fraction of its total
//! compute (epochs × per-epoch cost) performed so far.  A convergence curve
//! `g(x) ∈ [0, 1]` describes how close the model is to its final quality at
//! progress `x`.  All curves are normalized (`g(0) = 0`, `g(1) = 1`),
//! monotone, and continuous — the properties the growth-efficiency metric
//! implicitly relies on.
//!
//! The paper's Fig. 1 motivates everything: RNN-GRU reaches 90% accuracy at
//! 14.5% of its cumulative time (≈96.8% of its final quality), i.e. a very
//! steep exponential; logistic regression converges almost linearly.

/// A normalized, monotone convergence profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvergenceCurve {
    /// `g(x) = (1 - e^(-k·x)) / (1 - e^(-k))` — the classic training curve.
    ///
    /// Larger `k` means faster early convergence; `k ≈ 24` reproduces the
    /// paper's RNN-GRU observation.
    Exponential {
        /// Rate constant, must be positive.
        k: f64,
    },
    /// `g(x) = x^p` with `0 < p <= 1`; `p = 1` is linear (logistic
    /// regression in Fig. 1), smaller `p` converges faster early.
    PowerLaw {
        /// Exponent in `(0, 1]`.
        p: f64,
    },
    /// A staircase of `steps` equal plateaus riding on an exponential —
    /// models learning-rate-schedule drops (loss falls in visible steps).
    SteppedExponential {
        /// Underlying exponential rate.
        k: f64,
        /// Number of plateaus (≥ 1).
        steps: u32,
    },
}

impl ConvergenceCurve {
    /// The constant that normalizes the curve to `g(1) = 1`: `1 - e^(-k)`
    /// for the exponential curves, 1 for a power law.  A caller that reads
    /// one curve often computes it once and calls [`Self::level_with`].
    pub fn normalizer(&self) -> f64 {
        match *self {
            ConvergenceCurve::Exponential { k }
            | ConvergenceCurve::SteppedExponential { k, .. } => 1.0 - (-k).exp(),
            ConvergenceCurve::PowerLaw { .. } => 1.0,
        }
    }

    /// Evaluate the curve at progress `x` (clamped to `[0, 1]`).
    pub fn level(&self, x: f64) -> f64 {
        self.level_with(x, self.normalizer())
    }

    /// [`Self::level`] with the curve's [`Self::normalizer`] precomputed;
    /// the same f64 bit for bit.
    pub fn level_with(&self, x: f64, normalizer: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        match *self {
            ConvergenceCurve::Exponential { k } => {
                debug_assert!(k > 0.0);
                (1.0 - (-k * x).exp()) / normalizer
            }
            ConvergenceCurve::PowerLaw { p } => {
                debug_assert!(p > 0.0 && p <= 1.0);
                x.powf(p)
            }
            ConvergenceCurve::SteppedExponential { k, steps } => {
                debug_assert!(steps >= 1);
                // Quantize progress onto `steps` plateaus, then interpolate a
                // little within each plateau so the curve stays monotone and
                // the measured progress score never reads exactly zero
                // mid-plateau (real training loss always moves slightly).
                let s = steps as f64;
                let plateau = (x * s).floor() / s;
                let within = (x * s).fract() / s;
                let xq = plateau + 0.1 * within;
                (1.0 - (-k * xq).exp()) / normalizer
            }
        }
    }

    /// Derivative `dg/dx` at `x` (analytic; used by tests and calibration).
    pub fn slope(&self, x: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        match *self {
            ConvergenceCurve::Exponential { k } => k * (-k * x).exp() / self.normalizer(),
            ConvergenceCurve::PowerLaw { p } => {
                if x == 0.0 && p < 1.0 {
                    // The derivative diverges at 0; report a large finite value.
                    1e6
                } else {
                    p * x.powf(p - 1.0)
                }
            }
            ConvergenceCurve::SteppedExponential { k, steps } => {
                // Within-plateau slope is 10% of the base exponential's.
                let s = steps as f64;
                let plateau = (x * s).floor() / s;
                0.1 * k * (-k * plateau).exp() / self.normalizer()
            }
        }
    }

    /// Progress at which the curve first reaches `level` (bisection).
    pub fn progress_for_level(&self, level: f64) -> f64 {
        let target = level.clamp(0.0, 1.0);
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.level(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CURVES: [ConvergenceCurve; 4] = [
        ConvergenceCurve::Exponential { k: 24.0 },
        ConvergenceCurve::Exponential { k: 3.0 },
        ConvergenceCurve::PowerLaw { p: 1.0 },
        ConvergenceCurve::SteppedExponential { k: 8.0, steps: 5 },
    ];

    #[test]
    fn normalized_endpoints() {
        for c in CURVES {
            assert!(c.level(0.0).abs() < 1e-9, "{c:?} at 0");
            assert!((c.level(1.0) - 1.0).abs() < 1e-6, "{c:?} at 1");
        }
    }

    #[test]
    fn monotone_nondecreasing() {
        for c in CURVES {
            let mut last = -1.0;
            for i in 0..=1000 {
                let v = c.level(i as f64 / 1000.0);
                assert!(v >= last - 1e-12, "{c:?} decreased at {i}");
                last = v;
            }
        }
    }

    #[test]
    fn out_of_range_clamps() {
        let c = ConvergenceCurve::Exponential { k: 5.0 };
        assert_eq!(c.level(-1.0), c.level(0.0));
        assert_eq!(c.level(2.0), c.level(1.0));
    }

    #[test]
    fn gru_shape_matches_paper() {
        // Fig. 1 / §2.2: RNN-GRU reaches ~96.8% of final quality at 14.5% of
        // its cumulative time.
        let c = ConvergenceCurve::Exponential { k: 24.0 };
        let level = c.level(0.145);
        assert!(
            (level - 0.968).abs() < 0.01,
            "level at 14.5% progress = {level}"
        );
    }

    #[test]
    fn linear_power_law_is_identity() {
        let c = ConvergenceCurve::PowerLaw { p: 1.0 };
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert!((c.level(x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn progress_for_level_inverts_level() {
        // Exact inversion only holds for continuous curves; the stepped
        // curve jumps, so bisection lands on a plateau boundary and the
        // residual can be up to one step height.
        for c in [
            ConvergenceCurve::Exponential { k: 24.0 },
            ConvergenceCurve::Exponential { k: 3.0 },
            ConvergenceCurve::PowerLaw { p: 1.0 },
        ] {
            for target in [0.1, 0.5, 0.9, 0.968] {
                let x = c.progress_for_level(target);
                assert!(
                    (c.level(x) - target).abs() < 1e-3,
                    "{c:?}: level({x}) = {} != {target}",
                    c.level(x)
                );
            }
        }
        // The stepped curve still brackets the target monotonically.
        let c = ConvergenceCurve::SteppedExponential { k: 8.0, steps: 5 };
        let x = c.progress_for_level(0.5);
        let eps = 1e-6;
        assert!(c.level((x - eps).max(0.0)) <= 0.5 + 1e-9);
        assert!(c.level((x + eps).min(1.0)) >= 0.5 - 0.3, "within a step");
    }

    #[test]
    fn slope_is_positive_and_decreasing_for_exponential() {
        let c = ConvergenceCurve::Exponential { k: 8.0 };
        let mut last = f64::INFINITY;
        for i in 0..=10 {
            let s = c.slope(i as f64 / 10.0);
            assert!(s > 0.0);
            assert!(s <= last);
            last = s;
        }
    }

    #[test]
    fn stepped_curve_has_plateaus() {
        let c = ConvergenceCurve::SteppedExponential { k: 8.0, steps: 4 };
        // Slope within a plateau is much smaller than the jump across one.
        let within = c.level(0.20) - c.level(0.15);
        let across = c.level(0.30) - c.level(0.20);
        assert!(across > within, "across {across} within {within}");
    }
}
