//! The container daemon facade.
//!
//! Plays the role dockerd plays in the paper: the entry point through which
//! jobs are launched (`docker run -d <DL_job>`), reconfigured (`docker
//! update`), observed (`docker stats`) and reaped.  Clock-free by design:
//! the simulation or real-thread runtime calls [`Daemon::advance`] with the
//! per-container CPU rates chosen by the allocator, and the daemon updates
//! workload progress, usage accounting and lifecycle state, emitting events
//! the FlowCon listeners consume.

use std::sync::Arc;

use flowcon_sim::time::SimTime;

use crate::container::Container;
use crate::error::ContainerError;
use crate::events::{ContainerEvent, EventLog};
use crate::id::{ContainerId, IdAllocator};
use crate::image::ImageRegistry;
use crate::limits::{ResourceLimits, UpdateOptions};
use crate::pool::ContainerPool;
use crate::state::ContainerState;
use crate::stats::ContainerStats;
use crate::workload::Workload;

/// The daemon: image registry + container pool + event log.
///
/// The registry rides behind an `Arc` so one immutable image catalog can
/// back every daemon in a cluster (`Daemon::with_shared_images`) instead of
/// being rebuilt per worker.
pub struct Daemon<W> {
    images: Arc<ImageRegistry>,
    pool: ContainerPool<W>,
    ids: IdAllocator,
    events: EventLog,
    /// Sample-window capacity given to containers this daemon starts
    /// (`0` disables per-sample history; see [`ContainerStats::new`]).
    stats_window: usize,
    /// Containers that exited, retained for inspection (docker keeps stopped
    /// containers around until `rm`).
    graveyard: ContainerPool<W>,
}

impl<W: Workload> Default for Daemon<W> {
    fn default() -> Self {
        Self::with_shared_images(crate::image::shared_dl_defaults())
    }
}

impl<W: Workload> Daemon<W> {
    /// A daemon owning its own image registry.
    pub fn new(images: ImageRegistry) -> Self {
        Self::with_shared_images(Arc::new(images))
    }

    /// A daemon sharing an immutable image registry (one catalog per
    /// cluster, not one per worker).
    pub fn with_shared_images(images: Arc<ImageRegistry>) -> Self {
        Daemon {
            images,
            pool: ContainerPool::new(),
            ids: IdAllocator::new(),
            events: EventLog::new(),
            stats_window: 4096,
            graveyard: ContainerPool::new(),
        }
    }

    /// Set the per-container stats sample-window capacity for containers
    /// started after this call (`0` disables the window; cumulative
    /// accounting is unaffected).
    pub fn set_stats_window(&mut self, cap: usize) {
        self.stats_window = cap;
    }

    /// The image registry this daemon resolves `docker run` references in.
    pub fn images(&self) -> &ImageRegistry {
        &self.images
    }

    /// `docker run -d <image>`: create and immediately start a container.
    pub fn run(
        &mut self,
        image_ref: &str,
        workload: W,
        limits: ResourceLimits,
        now: SimTime,
    ) -> Result<ContainerId, ContainerError> {
        let image = self
            .images
            .get_shared(image_ref)
            .ok_or_else(|| ContainerError::NoSuchImage(image_ref.to_string()))?;
        let id = self.ids.allocate();
        let mut container = Container::new(id, image, workload, limits, now);
        container.set_stats_window(self.stats_window);
        self.events.push(ContainerEvent::Created { id, at: now });
        container
            .transition(ContainerState::Running, now)
            .expect("Created -> Running is always legal");
        self.events.push(ContainerEvent::Started { id, at: now });
        self.pool.insert(container);
        Ok(id)
    }

    /// `docker update <options> <cid>`: reconfigure soft limits in place.
    pub fn update(&mut self, id: ContainerId, opts: UpdateOptions) -> Result<(), ContainerError> {
        let c = self
            .pool
            .get_mut(id)
            .ok_or(ContainerError::NoSuchContainer(id))?;
        c.set_limits(opts.apply_to(c.limits()));
        Ok(())
    }

    /// `docker stop`: force-exit a running or paused container.
    pub fn stop(&mut self, id: ContainerId, now: SimTime) -> Result<(), ContainerError> {
        let c = self
            .pool
            .get_mut(id)
            .ok_or(ContainerError::NoSuchContainer(id))?;
        // 137 = SIGKILL, what docker stop reports after the grace period.
        c.transition(ContainerState::Exited(137), now)?;
        self.events.push(ContainerEvent::Died {
            id,
            at: now,
            exit_code: 137,
        });
        self.bury(id);
        Ok(())
    }

    /// `docker pause` / `docker unpause`.
    pub fn set_paused(
        &mut self,
        id: ContainerId,
        paused: bool,
        now: SimTime,
    ) -> Result<(), ContainerError> {
        let c = self
            .pool
            .get_mut(id)
            .ok_or(ContainerError::NoSuchContainer(id))?;
        let target = if paused {
            ContainerState::Paused
        } else {
            ContainerState::Running
        };
        c.transition(target, now)
    }

    /// `docker ps`: ids of running containers.
    ///
    /// Allocates a fresh `Vec`; iteration-only callers should prefer
    /// [`Daemon::ps_iter`].
    pub fn ps(&self) -> Vec<ContainerId> {
        self.ps_iter().collect()
    }

    /// `docker ps` without the allocation: iterate running container ids in
    /// id order.
    pub fn ps_iter(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.pool.running_ids_iter()
    }

    /// `docker exec`: run a closure against a live container's workload
    /// (fault injection, debugging probes).
    pub fn exec<F: FnOnce(&mut W)>(&mut self, id: ContainerId, f: F) -> Result<(), ContainerError> {
        let c = self
            .pool
            .get_mut(id)
            .ok_or(ContainerError::NoSuchContainer(id))?;
        if !c.state().is_runnable() {
            return Err(ContainerError::NotRunning(id));
        }
        f(c.workload_mut());
        Ok(())
    }

    /// Reap containers whose workloads have already terminated (e.g. after
    /// a fault was injected via [`Daemon::exec`]) without advancing time.
    pub fn reap(&mut self, now: SimTime) -> Vec<ContainerId> {
        let ready: Vec<(ContainerId, i32)> = self
            .pool
            .iter()
            .filter(|c| c.state().is_runnable())
            .filter_map(|c| c.implied_exit().map(|code| (c.id(), code)))
            .collect();
        let mut exited = Vec::with_capacity(ready.len());
        for (id, code) in ready {
            let c = self.pool.get_mut(id).expect("listed from pool");
            c.transition(ContainerState::Exited(code), now)
                .expect("Running -> Exited is always legal");
            self.events.push(ContainerEvent::Died {
                id,
                at: now,
                exit_code: code,
            });
            exited.push(id);
        }
        for id in &exited {
            self.bury(*id);
        }
        exited
    }

    /// `docker inspect`: borrow a live container.
    pub fn inspect(&self, id: ContainerId) -> Option<&Container<W>> {
        self.pool.get(id).or_else(|| self.graveyard.get(id))
    }

    /// `docker stats`: usage accounting for a live container.
    pub fn stats(&self, id: ContainerId) -> Option<&ContainerStats> {
        self.inspect(id).map(|c| c.stats())
    }

    /// The live container pool (FlowCon's managers "only interact with the
    /// container pools on the workers", §3.1).
    pub fn pool(&self) -> &ContainerPool<W> {
        &self.pool
    }

    /// The event log (the `docker events` stream).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Exited containers retained for inspection.
    pub fn graveyard(&self) -> &ContainerPool<W> {
        &self.graveyard
    }

    /// Demand ceilings and limits of running containers, in id order.
    ///
    /// This is the allocator's input: `(id, cpu_limit, demand)` per runnable
    /// container.
    pub fn alloc_inputs(&self) -> Vec<(ContainerId, f64, f64)> {
        let mut out = Vec::new();
        self.alloc_inputs_into(&mut out);
        out
    }

    /// Allocation-free variant of [`Daemon::alloc_inputs`]: clears `out` and
    /// refills it in place, so a per-tick caller reuses one buffer forever.
    pub fn alloc_inputs_into(&self, out: &mut Vec<(ContainerId, f64, f64)>) {
        out.clear();
        out.extend(
            self.pool
                .iter()
                .filter(|c| c.state().is_runnable())
                .map(|c| (c.id(), c.limits().cpu_limit(), c.workload().demand())),
        );
    }

    /// Advance every running container by `dt_secs` of simulated time.
    ///
    /// `rates` gives each running container's granted CPU rate (same order
    /// as [`Daemon::alloc_inputs`] / `ps()`), and `efficiencies` the
    /// per-container contention factors applied to useful progress
    /// (accounting still records the *raw* CPU occupancy, as `docker stats`
    /// would).  A single-element `efficiencies` slice is broadcast.
    ///
    /// Containers whose workloads finish are transitioned to `Exited` and
    /// a `Died` event is emitted.  Returns the ids that exited.
    pub fn advance(
        &mut self,
        now: SimTime,
        running: &[ContainerId],
        rates: &[f64],
        efficiencies: &[f64],
        dt_secs: f64,
    ) -> Vec<ContainerId> {
        debug_assert_eq!(running.len(), rates.len());
        debug_assert!(efficiencies.len() == 1 || efficiencies.len() == running.len());
        let mut exited = Vec::new();
        for (i, (&id, &rate)) in running.iter().zip(rates).enumerate() {
            let efficiency = if efficiencies.len() == 1 {
                efficiencies[0]
            } else {
                efficiencies[i]
            };
            let Some(c) = self.pool.get_mut(id) else {
                continue;
            };
            if !c.state().is_runnable() {
                continue;
            }
            let mut usage = c.workload().footprint();
            usage.set(flowcon_sim::ResourceKind::Cpu, rate);
            c.stats_mut().integrate(now, usage, dt_secs);
            c.workload_mut().advance(now, rate * efficiency * dt_secs);
            if let Some(code) = c.implied_exit() {
                c.transition(ContainerState::Exited(code), now)
                    .expect("Running -> Exited is always legal");
                self.events.push(ContainerEvent::Died {
                    id,
                    at: now,
                    exit_code: code,
                });
                exited.push(id);
            }
        }
        for id in &exited {
            self.bury(*id);
        }
        exited
    }

    /// Move an exited container from the live pool to the graveyard.
    fn bury(&mut self, id: ContainerId) {
        if let Some(c) = self.pool.remove(id) {
            debug_assert!(c.state().is_exited());
            self.graveyard.insert(c);
        }
    }

    /// Completion record of an exited container: `(label, completion secs)`.
    pub fn completion_record(&self, id: ContainerId) -> Option<(String, f64)> {
        let c = self.graveyard.get(id)?;
        Some((c.workload().label().to_string(), c.completion_time()?))
    }
}

/// Re-export used by tests and docs.
pub use crate::image::ImageRegistry as Registry;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FixedWork;

    fn daemon() -> Daemon<FixedWork> {
        Daemon::new(ImageRegistry::with_dl_defaults())
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn run_starts_container_and_emits_events() {
        let mut d = daemon();
        let id = d
            .run(
                "pytorch/pytorch:latest",
                FixedWork::new("vae", 10.0, 0.8),
                ResourceLimits::default(),
                t(0),
            )
            .unwrap();
        assert_eq!(d.ps(), vec![id]);
        assert_eq!(d.events().len(), 2); // Created + Started
        let c = d.inspect(id).unwrap();
        assert_eq!(c.state(), ContainerState::Running);
        assert_eq!(c.image().name, "pytorch/pytorch");
    }

    #[test]
    fn run_unknown_image_fails() {
        let mut d = daemon();
        let err = d
            .run(
                "nonexistent:latest",
                FixedWork::new("x", 1.0, 1.0),
                ResourceLimits::default(),
                t(0),
            )
            .unwrap_err();
        assert!(matches!(err, ContainerError::NoSuchImage(_)));
    }

    #[test]
    fn update_changes_cpu_limit() {
        let mut d = daemon();
        let id = d
            .run(
                "pytorch/pytorch:latest",
                FixedWork::new("vae", 10.0, 1.0),
                ResourceLimits::default(),
                t(0),
            )
            .unwrap();
        d.update(id, UpdateOptions::new().cpus(0.25)).unwrap();
        assert_eq!(d.inspect(id).unwrap().limits().cpu_limit(), 0.25);
        let missing = ContainerId::from_raw(999);
        assert!(d.update(missing, UpdateOptions::new().cpus(0.5)).is_err());
    }

    #[test]
    fn advance_completes_workload_and_buries_container() {
        let mut d = daemon();
        let id = d
            .run(
                "pytorch/pytorch:latest",
                FixedWork::new("vae", 5.0, 1.0),
                ResourceLimits::default(),
                t(0),
            )
            .unwrap();
        // 10 seconds at rate 0.5, full efficiency -> exactly 5 cpu-seconds.
        let exited = d.advance(t(10), &[id], &[0.5], &[1.0], 10.0);
        assert_eq!(exited, vec![id]);
        assert!(d.ps_iter().next().is_none());
        let (label, completion) = d.completion_record(id).unwrap();
        assert_eq!(label, "vae");
        assert!((completion - 10.0).abs() < 1e-9);
        // The Died event carries exit code 0.
        let died = d
            .events()
            .all()
            .iter()
            .rev()
            .find(|e| matches!(e, ContainerEvent::Died { .. }))
            .unwrap();
        assert!(matches!(died, ContainerEvent::Died { exit_code: 0, .. }));
    }

    #[test]
    fn efficiency_slows_progress_but_not_usage() {
        let mut d = daemon();
        let id = d
            .run(
                "pytorch/pytorch:latest",
                FixedWork::new("vae", 5.0, 1.0),
                ResourceLimits::default(),
                t(0),
            )
            .unwrap();
        // Same rate/time as above but 50% efficiency: job not done.
        let exited = d.advance(t(10), &[id], &[0.5], &[0.5], 10.0);
        assert!(exited.is_empty());
        let stats = d.stats(id).unwrap();
        assert!((stats.cpu_seconds() - 5.0).abs() < 1e-9, "raw occupancy");
        assert_eq!(
            d.inspect(id).unwrap().workload().remaining_cpu_seconds(),
            Some(2.5)
        );
    }

    #[test]
    fn stop_kills_with_137() {
        let mut d = daemon();
        let id = d
            .run(
                "tensorflow/tensorflow:latest",
                FixedWork::new("gru", 100.0, 1.0),
                ResourceLimits::default(),
                t(0),
            )
            .unwrap();
        d.stop(id, t(3)).unwrap();
        assert!(d.ps_iter().next().is_none());
        let c = d.inspect(id).unwrap();
        assert_eq!(c.state(), ContainerState::Exited(137));
        assert!(d.stop(id, t(4)).is_err(), "already gone from live pool");
    }

    #[test]
    fn pause_excludes_from_alloc_inputs() {
        let mut d = daemon();
        let a = d
            .run(
                "pytorch/pytorch:latest",
                FixedWork::new("a", 10.0, 0.7),
                ResourceLimits::cpu(0.5),
                t(0),
            )
            .unwrap();
        let b = d
            .run(
                "pytorch/pytorch:latest",
                FixedWork::new("b", 10.0, 0.9),
                ResourceLimits::default(),
                t(0),
            )
            .unwrap();
        d.set_paused(a, true, t(1)).unwrap();
        let inputs = d.alloc_inputs();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].0, b);
        assert_eq!(inputs[0].1, 1.0);
        assert_eq!(inputs[0].2, 0.9);
        d.set_paused(a, false, t(2)).unwrap();
        assert_eq!(d.alloc_inputs().len(), 2);
    }
}
