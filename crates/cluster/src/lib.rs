//! # flowcon-cluster
//!
//! The manager/worker cluster layer of Fig. 2.
//!
//! In the paper, managers "accept specifications from the user", select a
//! worker to host each container, and otherwise only interact with the
//! workers' container pools — all of FlowCon runs worker-side.  This crate
//! implements that split so multi-worker deployments (the paper's
//! architecture, evaluated there on a single worker) can be studied:
//!
//! * [`policy_kind`] — a serializable policy selector so managers can
//!   configure workers uniformly.
//! * [`placement`] — placement strategies (round-robin, spread, least
//!   loaded by submitted work) used when the manager assigns a job.
//! * [`executor`] — the sharded executor: `available_parallelism` OS
//!   threads claim blocks of workers under one lock, each with reusable
//!   per-shard state, and fill their results in place — no per-worker
//!   cell or mutex.  Inputs are either moved ([`executor::map_sharded`])
//!   or addressed by index ([`executor::map_indexed`]).
//! * [`session`] — the front door: one builder covering closed plans,
//!   streamed plan sources, open-loop job streams, pluggable recorders,
//!   and the online scheduler.
//! * [`sched`] — the cluster-wide online scheduler: a global admission
//!   queue, pluggable disciplines ([`FifoPolicy`], [`GandivaPolicy`],
//!   [`TiresiasPolicy`]), and node-local FlowCon sims advancing between
//!   quantum barriers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod executor;
pub mod placement;
pub mod policy_kind;
pub mod sched;
pub mod session;

pub use placement::{LeastLoaded, PlacementStrategy, RoundRobin, Spread};
pub use policy_kind::PolicyKind;
pub use sched::{
    ClusterPolicy, ClusterView, Decision, FifoPolicy, GandivaPolicy, QueuedJobView, RunningJobView,
    SchedAction, SchedConfig, SchedOutcome, SchedPolicyKind, TiresiasPolicy,
};
pub use session::{
    BoxedStream, ClusterOutcome, ClusterSession, ClusterSessionBuilder, DynStreamSource, Headless,
    PlacedHeadless, Recorded, Sched,
};
// The streaming plan/stream-source surface, re-exported so cluster callers
// don't need a direct flowcon-workload dependency for the common path.
pub use flowcon_workload::source::{PlanSource, SyntheticSource, TraceSource};
pub use flowcon_workload::stream::{
    Horizon, JobStream, StreamSource, SyntheticStreamSource, TraceStreamSource,
};
