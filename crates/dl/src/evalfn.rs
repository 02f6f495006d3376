//! Evaluation functions (Table 1).
//!
//! Each job "uses its own evaluation function to assess its type of machine
//! learning model" (§3.3): VAE reports reconstruction loss, MNIST cross
//! entropy, the LSTMs softmax accuracy / squared loss, GRU quadratic loss.
//! FlowCon's progress score takes `|E(t_i) - E(t_{i-1})|`, so it works for
//! both decreasing (loss) and increasing (accuracy) functions.
//!
//! The mapping from a normalized convergence level `g ∈ [0, 1]` to the raw
//! evaluation value is affine: decreasing functions fall from `initial` to
//! `floor`, increasing ones climb from `initial` to `ceiling`.  The chosen
//! magnitudes put per-model growth-efficiency values on the scales seen in
//! the paper's Figs. 13–14 (winners peak near 0.6, losers below 0.07).

/// Whether convergence drives the evaluation value down or up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalDirection {
    /// Loss-like: smaller is better.
    Decreasing,
    /// Accuracy-like: larger is better.
    Increasing,
}

/// A Table-1 evaluation function with calibrated magnitudes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalFunction {
    /// Function family name (for reports).
    pub kind: EvalKind,
    /// Value at `g = 0` (untrained).
    pub initial: f64,
    /// Value at `g = 1` (converged).
    pub converged: f64,
}

/// The evaluation-function families named by Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalKind {
    /// VAE reconstruction loss (per-sample scale).
    ReconstructionLoss,
    /// Classification cross entropy.
    CrossEntropy,
    /// Softmax accuracy score.
    Softmax,
    /// Squared loss.
    SquaredLoss,
    /// Quadratic loss.
    QuadraticLoss,
}

impl EvalKind {
    /// Report name matching the paper's Table 1.
    pub const fn name(self) -> &'static str {
        match self {
            EvalKind::ReconstructionLoss => "Reconstruction Loss",
            EvalKind::CrossEntropy => "Cross Entropy",
            EvalKind::Softmax => "Softmax",
            EvalKind::SquaredLoss => "Squared Loss",
            EvalKind::QuadraticLoss => "Quadratic Loss",
        }
    }
}

impl EvalFunction {
    /// Construct with explicit magnitudes.
    pub fn new(kind: EvalKind, initial: f64, converged: f64) -> Self {
        assert!(
            initial.is_finite() && converged.is_finite() && initial != converged,
            "degenerate evaluation function"
        );
        EvalFunction {
            kind,
            initial,
            converged,
        }
    }

    /// Loss direction implied by the magnitudes.
    pub fn direction(&self) -> EvalDirection {
        if self.converged < self.initial {
            EvalDirection::Decreasing
        } else {
            EvalDirection::Increasing
        }
    }

    /// Raw evaluation value at convergence level `g ∈ [0, 1]`.
    pub fn value_at(&self, g: f64) -> f64 {
        let g = g.clamp(0.0, 1.0);
        self.initial + (self.converged - self.initial) * g
    }

    /// Total magnitude swept from untrained to converged.
    pub fn magnitude(&self) -> f64 {
        (self.converged - self.initial).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_from_magnitudes() {
        let loss = EvalFunction::new(EvalKind::CrossEntropy, 2.3, 0.05);
        assert_eq!(loss.direction(), EvalDirection::Decreasing);
        let acc = EvalFunction::new(EvalKind::Softmax, 0.1, 0.95);
        assert_eq!(acc.direction(), EvalDirection::Increasing);
    }

    #[test]
    fn value_interpolates_endpoints() {
        let f = EvalFunction::new(EvalKind::SquaredLoss, 1.0, 0.02);
        assert_eq!(f.value_at(0.0), 1.0);
        assert!((f.value_at(1.0) - 0.02).abs() < 1e-12);
        let mid = f.value_at(0.5);
        assert!((mid - 0.51).abs() < 1e-12);
        // Clamps outside [0,1].
        assert_eq!(f.value_at(2.0), f.value_at(1.0));
    }

    #[test]
    fn magnitude_is_absolute_sweep() {
        let f = EvalFunction::new(EvalKind::Softmax, 0.1, 0.9);
        assert!((f.magnitude() - 0.8).abs() < 1e-12);
        let g = EvalFunction::new(EvalKind::CrossEntropy, 2.3, 0.05);
        assert!((g.magnitude() - 2.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn equal_endpoints_rejected() {
        EvalFunction::new(EvalKind::Softmax, 0.5, 0.5);
    }

    #[test]
    fn kind_names_match_table1() {
        assert_eq!(EvalKind::ReconstructionLoss.name(), "Reconstruction Loss");
        assert_eq!(EvalKind::CrossEntropy.name(), "Cross Entropy");
    }
}
