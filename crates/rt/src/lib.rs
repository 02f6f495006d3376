//! # flowcon-rt
//!
//! **Real-thread execution mode**: the same FlowCon policies driving real
//! OS threads instead of the fluid simulation.
//!
//! Each container is a worker thread running a synthetic compute kernel;
//! a user-space **token-bucket governor** enforces the policy's soft CPU
//! limits (deposit rate ∝ water-filled share), a coordinator thread plays
//! the Executor/listener roles against wall-clock time, and completions
//! flow back over a channel.  This closes the "it only works in
//! simulation" gap: the control loop — measure evaluation functions
//! through the simulation's Container Monitor
//! (`flowcon_core::monitor::MonitorSlot`), run Algorithm 1 through
//! `ResourcePolicy::reconfigure_into`, apply limits — is exercised against
//! genuinely parallel execution with `std::sync` mutexes, condvars, a
//! bounded `mpsc` channel and atomics; the crate needs nothing vendored
//! (`crates/vendor` holds only the tests' `proptest`).
//!
//! Scale note: experiments here use *small* jobs (fractions of a CPU-second)
//! so the test suite stays fast; the machinery is identical at any scale.
//! With [`RtConfig::dilation`] > 1 the runtime also compresses sim-scale
//! workloads into CI-sized wall time while keeping records in sim units —
//! see [`runtime`] for the virtual-time contract and [`session`] for the
//! `Session`-parity builder that makes this a drop-in second backend.
//!
//! Coordination is **push-based everywhere** (condvar/channel, no
//! sleep-loop polling); the invariant is documented in [`governor`] and
//! grep-enforced by a unit test in `tests/rt_backend.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod governor;
pub mod kernel;
pub mod runtime;
pub mod session;

pub use governor::{AtomicF64, RefillMath, ShutdownSignal, TokenBucket};
pub use kernel::spin_for;
pub use runtime::{
    CompletionError, CompletionLedger, RtChaos, RtConfig, RtFailure, RtJob, RtOutcome, RtRuntime,
};
pub use session::{RtSession, RtSessionBuilder};
