//! # flowcon-dl
//!
//! Deep-learning training **workload models** — the substitute for the real
//! PyTorch/TensorFlow jobs the FlowCon paper trains on its testbed.
//!
//! FlowCon never looks inside a training job: it samples the job's scalar
//! *evaluation function* (loss, accuracy, ...) through time and measures the
//! container's resource usage.  What matters for reproduction is therefore
//! the **shape of E(t) as a function of consumed compute**, which this crate
//! models analytically:
//!
//! * [`curve`] — saturating convergence curves.  Training progress `x ∈
//!   [0,1]` (fraction of the job's total compute performed) maps to a
//!   normalized convergence level `g(x)`; exponential curves with
//!   model-specific rate constants reproduce Fig. 1 (e.g. RNN-GRU reaches
//!   ≈97% of its final accuracy after ≈15% of its compute).
//! * [`evalfn`] — the evaluation-function kinds of Table 1 (cross entropy,
//!   reconstruction loss, softmax, squared/quadratic loss) mapping
//!   convergence level to the raw value FlowCon samples, plus measurement
//!   noise.
//! * [`models`] — the calibrated model catalog: the six models of Table 1
//!   (plus logistic regression from Fig. 1), with per-model total compute,
//!   demand ceiling, convergence rate and evaluation scale.
//! * [`job`] — [`job::TrainingJob`], the job a container runs, driven by
//!   allocated CPU-seconds.
//! * [`workload`] — experiment workload generators: the paper's fixed
//!   three-job schedule (§5.3), the five-model random schedule (§5.4) and
//!   the 10/15-job scalability mixes (§5.5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod curve;
pub mod evalfn;
pub mod job;
pub mod models;
pub mod workload;

pub use curve::ConvergenceCurve;
pub use evalfn::{EvalDirection, EvalFunction};
pub use job::TrainingJob;
pub use models::{Framework, ModelId, ModelSpec};
pub use workload::{JobRequest, WorkloadPlan};
