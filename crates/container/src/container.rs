//! The container object.

use std::sync::Arc;

use flowcon_sim::time::SimTime;

use crate::error::ContainerError;
use crate::id::ContainerId;
use crate::image::Image;
use crate::limits::ResourceLimits;
use crate::state::ContainerState;
use crate::stats::ContainerStats;
use crate::workload::{exit_code_for, Workload};

/// A container: identity + lifecycle + limits + stats + payload.
///
/// Generic over the workload type so substrate tests can use toy payloads
/// while experiments attach `flowcon-dl` training jobs.
pub struct Container<W> {
    id: ContainerId,
    /// Shared with the registry the container was started from: launching a
    /// container never clones the image's name strings.
    image: Arc<Image>,
    state: ContainerState,
    limits: ResourceLimits,
    stats: ContainerStats,
    workload: W,
    created_at: SimTime,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
}

impl<W: Workload> Container<W> {
    /// Create a container in the `Created` state.
    ///
    /// Accepts an owned [`Image`] or a shared `Arc<Image>` (the daemon
    /// passes the registry's shared copy so no strings are cloned).
    pub fn new(
        id: ContainerId,
        image: impl Into<Arc<Image>>,
        workload: W,
        limits: ResourceLimits,
        created_at: SimTime,
    ) -> Self {
        Container {
            id,
            image: image.into(),
            state: ContainerState::Created,
            limits,
            stats: ContainerStats::default(),
            workload,
            created_at,
            started_at: None,
            finished_at: None,
        }
    }

    /// The container id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The image this container was started from.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Current resource limits.
    pub fn limits(&self) -> ResourceLimits {
        self.limits
    }

    /// Replace the limits (the `docker update` path).
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
    }

    /// Usage accounting.
    pub fn stats(&self) -> &ContainerStats {
        &self.stats
    }

    /// Mutable usage accounting (driven by the daemon's `advance`).
    pub(crate) fn stats_mut(&mut self) -> &mut ContainerStats {
        &mut self.stats
    }

    /// Configure the stats sample-window capacity (`0` disables sampling;
    /// see [`ContainerStats::set_window_cap`]).
    pub fn set_stats_window(&mut self, cap: usize) {
        self.stats.set_window_cap(cap);
    }

    /// The attached workload.
    pub fn workload(&self) -> &W {
        &self.workload
    }

    /// Mutable access to the workload (driven by the daemon's `advance`).
    pub(crate) fn workload_mut(&mut self) -> &mut W {
        &mut self.workload
    }

    /// Creation time.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Start time, if started.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Exit time, if exited.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Wall-clock completion time (exit − creation), the paper's per-job
    /// metric ("we compute completion time whenever the container is marked
    /// as exited", §5.5.1).
    pub fn completion_time(&self) -> Option<f64> {
        self.finished_at
            .map(|end| end.saturating_since(self.created_at).as_secs_f64())
    }

    /// Attempt a lifecycle transition, stamping start/finish times.
    pub fn transition(&mut self, to: ContainerState, at: SimTime) -> Result<(), ContainerError> {
        if !self.state.can_transition_to(to) {
            return Err(ContainerError::InvalidTransition {
                id: self.id,
                from: self.state,
                to,
            });
        }
        match to {
            ContainerState::Running if self.started_at.is_none() => {
                self.started_at = Some(at);
            }
            ContainerState::Exited(_) => self.finished_at = Some(at),
            _ => {}
        }
        self.state = to;
        Ok(())
    }

    /// Exit code the workload's status implies, if it is done.
    pub fn implied_exit(&self) -> Option<i32> {
        exit_code_for(self.workload.status())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FixedWork;

    fn make(total: f64) -> Container<FixedWork> {
        Container::new(
            ContainerId::from_raw(0),
            Image::new("pytorch/pytorch", "latest"),
            FixedWork::new("toy", total, 1.0),
            ResourceLimits::default(),
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn lifecycle_with_timestamps() {
        let mut c = make(5.0);
        assert_eq!(c.state(), ContainerState::Created);
        c.transition(ContainerState::Running, SimTime::from_secs(11))
            .unwrap();
        assert_eq!(c.started_at(), Some(SimTime::from_secs(11)));
        c.transition(ContainerState::Exited(0), SimTime::from_secs(30))
            .unwrap();
        assert_eq!(c.finished_at(), Some(SimTime::from_secs(30)));
        assert!((c.completion_time().unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn illegal_transition_is_error() {
        let mut c = make(5.0);
        let err = c
            .transition(ContainerState::Paused, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, ContainerError::InvalidTransition { .. }));
    }

    #[test]
    fn pause_does_not_reset_start_time() {
        let mut c = make(5.0);
        c.transition(ContainerState::Running, SimTime::from_secs(1))
            .unwrap();
        c.transition(ContainerState::Paused, SimTime::from_secs(2))
            .unwrap();
        c.transition(ContainerState::Running, SimTime::from_secs(3))
            .unwrap();
        assert_eq!(c.started_at(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn implied_exit_follows_workload() {
        let mut c = make(1.0);
        assert_eq!(c.implied_exit(), None);
        c.workload_mut().advance(SimTime::ZERO, 2.0);
        assert_eq!(c.implied_exit(), Some(0));
    }
}
