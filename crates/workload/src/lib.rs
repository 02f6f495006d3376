//! # flowcon-workload
//!
//! Job **arrivals** as a first-class subsystem.  The paper's evaluation
//! (§5.3–§5.5) drives every experiment from three hand-written workload
//! families (fixed, random-five, scalability) materialized as
//! `WorkloadPlan::new(Vec<JobRequest>)`.  This crate opens that up:
//!
//! * [`trace`] — an **arrival-trace file format** (CSV or JSONL, see the
//!   spec below) with a zero-copy line parser, precise validation errors,
//!   and round-trip serialization.
//! * [`catalog`] — [`TraceCatalog`]: binds trace rows onto the Table-1
//!   model catalog via a configurable class mapping, deterministic
//!   thinning, and time compression, yielding a [`BoundTrace`] convertible
//!   into a `WorkloadPlan`.
//! * [`synthetic`] — synthetic **arrival processes**: Poisson, bursty
//!   on/off (MMPP-style), and diurnal-rate generators, all seeded through
//!   `flowcon_sim::rng::SimRng` so runs stay bit-for-bit reproducible.
//! * [`source`] — the streaming [`PlanSource`] trait
//!   (`next_plan(worker_id) -> WorkloadPlan`): one trace or process drives
//!   a 10k-worker cluster with per-worker deterministic slices, without
//!   materializing 10k plans up front.
//! * [`stream`] — **open-loop** job streams: the pull-based, possibly
//!   unbounded [`JobStream`] (synthetic processes sampled incrementally,
//!   cyclic trace replay), the per-worker [`StreamSource`] factory, and
//!   the [`Horizon`] that bounds an open-loop run (`--until` / `--jobs`).
//!   Where a [`PlanSource`] still fixes each worker's job set up front, a
//!   stream feeds arrivals into a *live* simulation — jobs are admitted
//!   mid-run while FlowCon reconfigures.  See the [`stream`] module docs
//!   for the full open-loop specification.
//!
//! # Arrival-trace file format
//!
//! A trace is a line-oriented text file.  Blank lines and lines starting
//! with `#` are ignored.  Each remaining line is one job arrival, in
//! either of two shapes (detected per line, so the formats may mix):
//!
//! **CSV** — `job_id,model,submit_secs[,duration_hint_secs]`:
//!
//! ```text
//! # FlowCon §5.3 fixed schedule
//! job_id,model,submit_secs,duration_hint_secs
//! VAE (Pytorch),vae,0,394
//! MNIST (Pytorch),mnist-torch,40,
//! MNIST (Tensorflow),mnist-tf,80,84.7
//! ```
//!
//! **JSONL** — one flat JSON object per line (unknown keys are ignored;
//! a line is treated as JSONL when it starts with `{`):
//!
//! ```text
//! {"job_id": "j1", "model": "gru", "submit_secs": 12.5}
//! {"job_id": "j2", "model": "large", "submit_secs": 13.0, "duration_hint_secs": 220.0}
//! ```
//!
//! Fields:
//!
//! | field | required | meaning |
//! |---|---|---|
//! | `job_id` | yes | non-empty label for the job; must not contain `,`, `"` or `\`, begin or end with whitespace, or start with `{` or `#` (so every row stays representable in both wire formats — serialization round-trips by construction) |
//! | `model` | yes | model or resource-demand **class**, resolved by the [`TraceCatalog`] (case-insensitive; e.g. `vae`, `mnist-tf`, or demand classes `small`/`medium`/`large`; same character restrictions as `job_id`) |
//! | `submit_secs` | yes | submission time in seconds, finite and `>= 0` |
//! | `duration_hint_secs` | no | expected duration in seconds, finite and `> 0` when present.  Ignored by default; under [`TraceCatalog::with_duration_hints`] a hinted row binds with its `total_work` scaled so the job's nominal solo duration matches the hint |
//!
//! A first CSV line whose `job_id` field is literally `job_id` is treated
//! as a header and skipped.  Rows may appear **out of submission order**;
//! parsing sorts them stably by `submit_secs`, ties keeping file order.
//! (Converting a bound trace into a `WorkloadPlan` additionally orders
//! equal-arrival ties by label — `WorkloadPlan::new`'s contract.)  An
//! empty trace (no data rows) is valid and binds to an empty plan.
//!
//! ```
//! use flowcon_workload::{ArrivalTrace, TraceCatalog};
//! use flowcon_dl::workload::WorkloadPlan;
//!
//! let doc = "j1,mnist-tf,80\nj0,vae,0\n";
//! let trace = ArrivalTrace::parse(doc).unwrap();
//! let plan: WorkloadPlan = TraceCatalog::table1().bind(&trace).unwrap().into();
//! assert_eq!(plan.jobs[0].label, "j0"); // sorted by submit time
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod source;
pub mod stream;
pub mod synthetic;
pub mod trace;

pub use catalog::{BoundTrace, TraceCatalog};
pub use source::{PlanSource, SyntheticSource, TraceSource};
pub use stream::{
    Horizon, JobStream, StreamSource, StreamedJob, SyntheticStreamSource, TraceStreamSource,
};
pub use synthetic::{ArrivalProcess, ArrivalSampler, Synthetic};
pub use trace::{ArrivalTrace, TraceError, TraceRow};
