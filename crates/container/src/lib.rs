//! # flowcon-container
//!
//! The container vocabulary the node simulations and the real-thread
//! runtime share.
//!
//! The FlowCon paper implements its middleware against Docker CE 18.09,
//! and its Executor acts on a container through one command:
//! `docker update --cpus <fraction> <cid>` (§4.1).  This crate keeps what
//! that command and a container's exit need:
//!
//! * [`id`] — dense container ids rendered like short Docker hashes.
//! * [`limits`] — resource limits with Docker's *soft* semantics; a
//!   `docker update --cpus` is [`ResourceLimits::set`] on the CPU kind.
//! * [`status`] — a job's completion status and the exit code it implies.
//!
//! Nothing here advances time on its own: the node simulation
//! (`flowcon_core::dense`) or the real-thread runtime drives each
//! `flowcon_dl::TrainingJob` with the CPU rates chosen by the allocator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod id;
pub mod limits;
pub mod status;

pub use id::ContainerId;
pub use limits::ResourceLimits;
pub use status::WorkloadStatus;
