//! # flowcon-sim
//!
//! Deterministic discrete-event simulation kernel used by the FlowCon
//! reproduction.
//!
//! The FlowCon paper (ICPP 2019) evaluates its elastic container
//! configuration scheme on a physical CloudLab node running Docker.  This
//! crate substitutes that testbed with a *fluid* model of a shared compute
//! node:
//!
//! * [`time`] — a virtual clock measured in integer microseconds, so event
//!   ordering is total and platform independent.
//! * [`rng`] — a from-scratch, splittable xoshiro256++ RNG so every
//!   experiment is reproducible from a single `u64` seed without external
//!   dependencies.
//! * [`resources`] — the four resource kinds FlowCon's container monitor
//!   tracks (CPU, memory, block I/O, network I/O) and small fixed-size
//!   resource vectors.
//! * [`alloc`] — the water-filling processor-sharing allocator that models
//!   Docker's *soft* CPU limits: a container's limit caps its share, but
//!   capacity it cannot use is redistributed to others.  On top of it,
//!   [`alloc::NodeShares`] is the node-share rule every node driver
//!   applies.
//! * [`contention`] — the interference model that makes concurrency
//!   imperfect (the mechanism behind the paper's 1–5% makespan win).
//! * [`stats`] — time-weighted accumulation for piecewise-constant signals
//!   (the open-loop steady-state metrics: mean queue depth, utilization).
//! * [`trace`] — the deterministic structured-tracing layer: a
//!   monomorphized [`Tracer`] trait with a zero-cost [`NoopTracer`]
//!   default and a preallocated [`FlightRecorder`] ring buffer.
//!
//! Everything in this crate is pure and deterministic: no wall-clock, no
//! I/O, no global state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod contention;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use alloc::{waterfill, AllocRequest, Allocation};
pub use contention::ContentionModel;
pub use resources::{ResourceKind, ResourceVec, RESOURCE_KINDS};
pub use rng::SimRng;
pub use stats::TimeWeighted;
pub use time::{SimDuration, SimTime};
pub use trace::{FlightRecorder, NoopTracer, TraceEvent, TraceKind, TracePhase, Tracer};
