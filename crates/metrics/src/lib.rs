//! # flowcon-metrics
//!
//! Measurement, summarization and reporting for FlowCon experiments.
//!
//! The paper evaluates three metrics (§5.2): **overall makespan**,
//! **individual job completion time** and **CPU usage** traces.  This crate
//! provides the containers those metrics live in, plus the reporting
//! machinery the experiment harness uses to regenerate every figure:
//!
//! * [`timeseries`] — append-only `(t, value)` series stored by change
//!   point (CPU usage, limit and growth-efficiency traces).
//! * [`summary`] — per-run summaries: completion times, makespan, overlap
//!   accounting, and FlowCon-vs-NA comparisons (Table 2's reductions).
//! * [`stats`] — descriptive statistics helpers.
//! * [`stream`] — steady-state statistics of **open-loop** runs (arrival
//!   vs. completion rate, time-weighted queue depth, utilization).
//! * [`sketch`] — constant-memory, mergeable streaming quantile sketch
//!   (DDSketch-style relative-error buckets, deterministic merge).
//! * [`sojourn`] — per-job SLO tails: sojourn-time and queue-wait
//!   p50/p95/p99 recorded at exit, mergeable across workers/shards.
//! * [`fidelity`] — sim↔rt differential divergence reports: completion-set
//!   equality, order edit distance, per-job sojourn-ratio sketches,
//!   makespan ratio, and the tolerance/exit-code decision.
//! * [`chart`] — ASCII line/bar charts so `repro` output is readable in a
//!   terminal.
//! * [`export`] — CSV writing (hand-rolled; the format is trivial).
//! * [`tracelog`] — Chrome trace-event / Perfetto export of the
//!   deterministic structured timelines recorded by
//!   [`flowcon_sim::trace`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chart;
pub mod export;
pub mod fidelity;
pub mod sketch;
pub mod sojourn;
pub mod stats;
pub mod stream;
pub mod summary;
pub mod timeseries;
pub mod tracelog;

pub use fidelity::{compare, FidelityReport, FidelityTolerance};
pub use sketch::QuantileSketch;
pub use sojourn::{Percentiles, SojournStats};
pub use stream::StreamStats;
pub use summary::{Completion, CompletionRecord, CompletionStats, RunSummary};
pub use timeseries::{MultiSeries, TimeSeries};
