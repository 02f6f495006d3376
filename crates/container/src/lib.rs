//! # flowcon-container
//!
//! A Docker-like container runtime substrate.
//!
//! The FlowCon paper implements its middleware against Docker CE 18.09: the
//! Executor issues `docker update` commands with fractional CPU limits, the
//! Container Monitor polls `docker stats`-style usage, and the Worker
//! Monitor's listeners watch the container pool for arrivals and exits.
//! This crate reproduces that surface:
//!
//! * [`id`] — dense container ids rendered like short Docker hashes.
//! * [`image`] — an image catalog (`pytorch/pytorch`, `tensorflow/...`).
//! * [`state`] — the container lifecycle state machine
//!   (`Created → Running → Exited`, with `Paused` detours).
//! * [`limits`] — resource limits with Docker's *soft* semantics and an
//!   [`limits::UpdateOptions`] builder mirroring `docker update` flags.
//! * [`stats`] — per-container usage accounting for the four resources the
//!   paper's Container Monitor records (§3.2.1).
//! * [`workload`] — the trait a payload implements so the node simulation
//!   can drive it with allocated CPU time (implemented by `flowcon-dl`).
//!
//! Nothing here advances time on its own: the node simulation
//! (`flowcon_core::dense`) or the real-thread runtime drives each
//! [`Workload`] with the CPU rates chosen by the allocator, which keeps
//! this crate independent of any particular clock.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod id;
pub mod image;
pub mod limits;
pub mod state;
pub mod stats;
pub mod workload;

pub use error::ContainerError;
pub use id::ContainerId;
pub use image::{Image, ImageRegistry};
pub use limits::{ResourceLimits, UpdateOptions};
pub use state::ContainerState;
pub use stats::{ContainerStats, UsageSample};
pub use workload::{Workload, WorkloadStatus};
