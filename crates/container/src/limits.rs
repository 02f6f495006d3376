//! Soft resource limits, the target of `docker update`.
//!
//! FlowCon's Executor applies Algorithm 1's decisions through commands like
//! `docker update --cpus 0.25 <cid>` (§4.1), which is
//! [`ResourceLimits::set`] on [`ResourceKind::Cpu`].  Limits here are
//! *soft* in exactly Docker's sense: they cap a container's entitled share,
//! but the water-filling allocator (in `flowcon-sim`) redistributes
//! whatever a container leaves unused.

use flowcon_sim::resources::{ResourceKind, ResourceVec};

/// Soft resource limits attached to a container.
///
/// All values are fractions of the node's capacity in `[0, 1]`; `1.0` means
/// unconstrained (the Docker default when no flag is passed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceLimits {
    limits: ResourceVec,
}

impl Default for ResourceLimits {
    /// Docker's default: no limits (free competition).
    fn default() -> Self {
        ResourceLimits {
            limits: ResourceVec::splat(1.0),
        }
    }
}

impl ResourceLimits {
    /// Unconstrained limits (the NA baseline).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Read the limit for a resource kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.limits.get(kind)
    }

    /// Set the limit for a resource kind, clamped to `[0, 1]`.
    ///
    /// Clamping mirrors the daemon's validation of `docker update` values:
    /// out-of-range requests are coerced rather than crashing the middleware.
    pub fn set(&mut self, kind: ResourceKind, limit: f64) {
        let v = if limit.is_finite() {
            limit.clamp(0.0, 1.0)
        } else {
            1.0
        };
        self.limits.set(kind, v);
    }

    /// The CPU limit — the value FlowCon's evaluation focuses on.
    pub fn cpu_limit(&self) -> f64 {
        self.get(ResourceKind::Cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let l = ResourceLimits::default();
        for kind in flowcon_sim::RESOURCE_KINDS {
            assert_eq!(l.get(kind), 1.0);
        }
    }

    #[test]
    fn set_clamps_to_unit_interval() {
        let mut l = ResourceLimits::default();
        l.set(ResourceKind::Cpu, 1.7);
        assert_eq!(l.cpu_limit(), 1.0);
        l.set(ResourceKind::Cpu, -0.3);
        assert_eq!(l.cpu_limit(), 0.0);
        l.set(ResourceKind::Cpu, f64::NAN);
        assert_eq!(l.cpu_limit(), 1.0);
    }
}
