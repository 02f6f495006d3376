//! # flowcon-bench
//!
//! The experiment harness: one module per group of figures/tables from the
//! FlowCon paper's evaluation (§5), plus the ablations listed in
//! [`experiments::ablation`].
//!
//! Every experiment is a pure function from a seed/parameter set to
//! structured results, so the `repro` binary and the integration tests
//! share the same code paths.  [`perf`] is the micro-suite behind
//! `repro bench`.
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`experiments::fig1`] | Fig. 1 (training progress of five models) |
//! | [`experiments::fixed`] | Figs. 3–8, Table 2 (fixed schedule) |
//! | [`experiments::random`] | Figs. 9–11 (five-job random schedule) |
//! | [`experiments::scale`] | Figs. 12–17 (10/15-job scalability) |
//! | [`experiments::ablation`] | back-off / β / κ / policy-zoo ablations |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod perf;
pub mod report;

pub use experiments::{ablation, fig1, fixed, random, scale};
