//! # flowcon-core
//!
//! The paper's contribution: **FlowCon**, an elastic, growth-efficiency
//! driven resource configurator for containerized deep-learning training
//! jobs (Zheng et al., ICPP 2019).
//!
//! FlowCon runs on each worker (Fig. 2) and consists of:
//!
//! * a **Container Monitor** ([`monitor`]) sampling each job's evaluation
//!   function and resource usage, from which the *progress score* (Eq. 1)
//!   and *growth efficiency* (Eq. 2) are computed ([`metric`]);
//! * a **Worker Monitor** with *New Cons* / *Finished Cons* listeners
//!   ([`listener`], Algorithm 2) reacting to pool changes in real time;
//! * an **Executor** that periodically runs the dynamic resource-management
//!   algorithm ([`algorithm`], Algorithm 1), classifying containers into
//!   New / Watching / Completing lists ([`lists`]) and issuing
//!   `docker update` calls, with exponential back-off when every job has
//!   converged.
//!
//! [`policy`] packages this as [`policy::FlowConPolicy`] behind the
//! [`policy::ResourcePolicy`] trait, alongside the paper's baseline
//! ([`policy::FairSharePolicy`], "NA") and two ablation policies.
//! [`dense`] is the deterministic fluid simulation of one worker node
//! that every experiment runs on ([`worker`] names its events and
//! faults).  Its node physics — the job arena, the shares, the fluid step,
//! the completion projection and the policy round — is a
//! [`kernel::NodeKernel`], which the cluster scheduler's nodes
//! (`flowcon-cluster`) run too.
//!
//! Entry point: [`session::Session::builder`] — a fluent builder over node,
//! plan, policy, failure injections, and a pluggable
//! [`recorder::Recorder`] that decides at compile time what the run
//! observes (full paper traces or headless completions-only).
//! It is the *only* entry point.  Closed (plan-driven) runs go through
//! [`session::Session::run`]; **open-loop** runs — jobs streaming in while
//! the policy reconfigures — through [`session::Session::run_stream`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod config;
pub mod dense;
pub mod kernel;
pub mod listener;
pub mod lists;
pub mod metric;
pub mod monitor;
pub mod policy;
// The public API surface a new user meets first (and its documentation-
// heavy migration/open-loop specs) must stay fully documented: missing
// docs are hard errors here, not warnings like the rest of the crate.
#[deny(missing_docs)]
pub mod recorder;
#[deny(missing_docs)]
pub mod session;
pub mod worker;

pub use config::{FlowConConfig, NodeConfig};
pub use dense::{run_headless_dense, DenseScratch};
pub use lists::{ListKind, Lists};
pub use metric::{growth_efficiency, progress_score, GrowthMeasurement};
pub use policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy, StaticEqualPolicy};
pub use recorder::{CompletionsOnly, FullRecorder, Recorder};
pub use session::{Session, SessionBuilder, SessionResult, StreamResult};
