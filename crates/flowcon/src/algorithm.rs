//! Algorithm 1: Dynamic Resource Management for containers on a worker.
//!
//! Given the growth measurements of every container on the worker, the
//! algorithm (a) updates the NL/WL/CL classification, then (b) either
//! releases all limits and backs off (when every job has converged) or
//! computes new limits:
//!
//! * **Completing List**: `L = G / ΣG`, bounded below by `1/(β·n)` so a
//!   converged job is never starved (lines 20–22);
//! * **Watching List**: limit unchanged (line 24);
//! * **New List**: `L = G / ΣG` (line 26) — fresh containers that have no
//!   `G` yet receive limit 1 (a new job is assumed fast: Fig. 7 shows a
//!   just-launched MNIST given the full node).
//!
//! `ΣG` runs over every container on the worker; fresh containers
//! contribute an optimistic prior `Ĝ = max(maxᵢ Gᵢ, prior)` (see
//! [`crate::config::FlowConConfig::fresh_prior`]), which is what
//! pushes an old slow job down to its lower bound the moment a new job
//! arrives.

use flowcon_container::ContainerId;

use crate::config::FlowConConfig;
use crate::lists::{ListKind, Lists};
use crate::metric::GrowthMeasurement;

/// The outcome of one Algorithm 1 run.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmOutcome {
    /// New CPU limits to apply via `docker update`, in container-id order.
    /// Containers whose limit is unchanged are omitted.
    pub updates: Vec<(ContainerId, f64)>,
    /// True if every container was in CL: limits were all reset to 1 and
    /// the caller must double its interval (lines 14–17).
    pub backed_off: bool,
}

/// Run Algorithm 1 over the current measurements.
///
/// `lists` carries the classification state across invocations; `measures`
/// must contain exactly the containers currently on the worker.
///
/// Allocating convenience wrapper over [`run_algorithm1_into`]; the worker
/// hot path threads a reusable updates buffer through the `_into` variant
/// instead.
pub fn run_algorithm1(
    config: &FlowConConfig,
    lists: &mut Lists,
    measures: &[GrowthMeasurement],
) -> AlgorithmOutcome {
    let mut updates = Vec::new();
    let backed_off = run_algorithm1_into(config, lists, measures, &mut updates);
    AlgorithmOutcome {
        updates,
        backed_off,
    }
}

/// Allocation-free Algorithm 1: clears `updates` and refills it with the
/// new `(id, limit)` pairs in place, returning whether the all-CL back-off
/// branch fired (lines 14–17).
///
/// With a warm `updates` buffer (and warm `lists` slots) the steady-state
/// call performs zero heap allocations.
pub fn run_algorithm1_into(
    config: &FlowConConfig,
    lists: &mut Lists,
    measures: &[GrowthMeasurement],
    updates: &mut Vec<(ContainerId, f64)>,
) -> bool {
    updates.clear();
    let n = measures.len();
    if n == 0 {
        return false;
    }

    // Lines 2–13: classify every measured container.  Fresh containers
    // (no G yet) stay where the listener put them (NL).
    let growth_of = |m: &GrowthMeasurement| m.growth_for(config.resource);
    for m in measures {
        if let Some(g) = growth_of(m) {
            lists.observe(m.id, g, config.alpha);
        }
    }

    // Line 14: if every container has converged, release all limits and
    // back off.  Fresh containers are in NL, so their presence prevents
    // this branch, as it should.
    let every_measured_in_cl = measures
        .iter()
        .all(|m| lists.kind_of(m.id) == Some(ListKind::Completing));
    if every_measured_in_cl {
        // Same 1e-9 tolerance as the update-emission path below: a limit
        // like 0.9999999999 must not trigger a spurious `docker update`.
        updates.extend(
            measures
                .iter()
                .filter(|m| (m.cpu_limit - 1.0).abs() > 1e-9)
                .map(|m| (m.id, 1.0)),
        );
        return true;
    }

    // ΣG over all containers; fresh ones contribute an optimistic prior.
    let max_g = measures
        .iter()
        .filter_map(&growth_of)
        .fold(0.0_f64, f64::max);
    let fresh_prior = max_g.max(config.fresh_prior);
    let sum_g: f64 = measures
        .iter()
        .map(|m| growth_of(m).unwrap_or(fresh_prior))
        .sum();
    // ΣG is zero only when no measured container grew over the interval
    // (the real-thread backend sees this when no job advanced between two
    // reads).  Proportional shares are then undefined: New List limits
    // stay put and Completing List members fall to the lower bound.
    let share = |g: f64| (sum_g > 0.0).then(|| g / sum_g);

    let lower_bound = 1.0 / (config.beta * n as f64);
    for m in measures {
        let kind = lists.kind_of(m.id).unwrap_or(ListKind::New);
        let new_limit = match (kind, growth_of(m)) {
            // Line 24: Watching List limits remain unchanged.
            (ListKind::Watching, _) => continue,
            // Lines 20–22: Completing List, proportional with lower bound.
            (ListKind::Completing, Some(g)) => share(g).unwrap_or(0.0).max(lower_bound),
            // Line 26: New List, proportional share.
            (ListKind::New, Some(g)) => match share(g) {
                Some(s) => s,
                None => continue,
            },
            // Fresh container: full limit until it produces measurements.
            (_, None) => 1.0,
        };
        let new_limit = new_limit.clamp(0.0, 1.0);
        if (new_limit - m.cpu_limit).abs() > 1e-9 {
            updates.push((m.id, new_limit));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u32) -> ContainerId {
        ContainerId::from_raw(raw)
    }

    fn measure(raw: u32, growth: Option<f64>, limit: f64) -> GrowthMeasurement {
        // Encode the desired CPU growth as progress over avg usage 0.5.
        GrowthMeasurement {
            id: id(raw),
            progress: growth.map(|g| g * 0.5),
            avg_usage: flowcon_sim::ResourceVec::cpu(0.5),
            cpu_limit: limit,
        }
    }

    fn config() -> FlowConConfig {
        FlowConConfig::default() // alpha 5%, beta 2, prior 0.2
    }

    #[test]
    fn zero_growth_everywhere_keeps_new_limits_and_floors_completing_ones() {
        // No container grew: ΣG = 0, so there is no proportional share.
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        lists.observe(id(2), 0.0, 0.05);
        lists.observe(id(2), 0.0, 0.05);
        assert_eq!(lists.kind_of(id(2)), Some(ListKind::Completing));
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.0), 0.5), measure(2, Some(0.0), 0.5)],
        );
        let floor = 1.0 / (config().beta * 2.0);
        let limits: Vec<(ContainerId, f64)> = out.updates;
        assert!(limits.iter().all(|&(_, l)| l.is_finite()));
        assert!(
            limits.iter().all(|&(i, l)| i == id(2) && l == floor),
            "{limits:?}"
        );
    }

    #[test]
    fn fresh_container_gets_full_limit() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        let out = run_algorithm1(&config(), &mut lists, &[measure(1, None, 0.5)]);
        assert_eq!(out.updates, vec![(id(1), 1.0)]);
        assert!(!out.backed_off);
    }

    #[test]
    fn converged_job_pinned_at_lower_bound_when_newcomer_arrives() {
        // The Fig. 7 moment: an old VAE with tiny G plus a fresh MNIST.
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        // Drive the VAE into CL with two low observations.
        lists.observe(id(1), 0.01, 0.05);
        lists.observe(id(1), 0.01, 0.05);
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.01), 1.0), measure(2, None, 1.0)],
        );
        // n = 2, beta = 2 -> lower bound 0.25; proportional share is
        // 0.01/(0.01+0.5) ≈ 0.02, so the bound binds.
        let vae = out.updates.iter().find(|(i, _)| *i == id(1)).unwrap();
        assert!((vae.1 - 0.25).abs() < 1e-9, "VAE limit {}", vae.1);
        // The fresh container keeps limit 1 (no update needed: already 1).
        assert!(out.updates.iter().all(|(i, _)| *i != id(2)));
    }

    #[test]
    fn all_completing_releases_limits_and_backs_off() {
        let mut lists = Lists::new();
        for raw in [1, 2] {
            lists.insert_new(id(raw));
            lists.observe(id(raw), 0.0, 0.05);
            lists.observe(id(raw), 0.0, 0.05);
        }
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.001), 0.25), measure(2, Some(0.002), 0.7)],
        );
        assert!(out.backed_off);
        assert_eq!(out.updates, vec![(id(1), 1.0), (id(2), 1.0)]);
    }

    #[test]
    fn backoff_emits_no_update_for_limits_already_one() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.observe(id(1), 0.0, 0.05);
        lists.observe(id(1), 0.0, 0.05);
        let out = run_algorithm1(&config(), &mut lists, &[measure(1, Some(0.001), 1.0)]);
        assert!(out.backed_off);
        assert!(out.updates.is_empty());
    }

    #[test]
    fn backoff_tolerates_float_noise_in_released_limits() {
        // A limit within 1e-9 of 1.0 (accumulated float noise) must not
        // trigger a spurious release update during back-off.
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.observe(id(1), 0.0, 0.05);
        lists.observe(id(1), 0.0, 0.05);
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.001), 1.0 - 1e-10)],
        );
        assert!(out.backed_off);
        assert!(out.updates.is_empty(), "{:?}", out.updates);
    }

    #[test]
    fn watching_list_limits_unchanged() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        // One low observation -> WL.
        lists.observe(id(1), 0.01, 0.05);
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.01), 0.6), measure(2, Some(0.3), 1.0)],
        );
        // Container 1 got measured below alpha again -> moves WL -> CL in
        // this run, so it IS reconfigured this time.  Set up a cleaner WL
        // case: growth above alpha then below once.
        // (Covered precisely in the next test; here just check types.)
        assert!(!out.backed_off);
    }

    #[test]
    fn watching_member_keeps_previous_limit_exactly() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        // Container 1: first low observation inside this algorithm run
        // moves it NL -> WL, and WL rules say "unchanged".
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.01), 0.6), measure(2, Some(0.3), 1.0)],
        );
        assert_eq!(lists.kind_of(id(1)), Some(ListKind::Watching));
        assert!(
            out.updates.iter().all(|(i, _)| *i != id(1)),
            "WL container must not be reconfigured: {:?}",
            out.updates
        );
    }

    #[test]
    fn new_list_shares_are_proportional_to_growth() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.3), 1.0), measure(2, Some(0.1), 1.0)],
        );
        let l1 = out.updates.iter().find(|(i, _)| *i == id(1)).unwrap().1;
        let l2 = out.updates.iter().find(|(i, _)| *i == id(2)).unwrap().1;
        assert!((l1 - 0.75).abs() < 1e-9);
        assert!((l2 - 0.25).abs() < 1e-9);
    }

    #[test]
    fn no_containers_is_a_noop() {
        let mut lists = Lists::new();
        let out = run_algorithm1(&config(), &mut lists, &[]);
        assert!(out.updates.is_empty());
        assert!(!out.backed_off);
    }

    #[test]
    fn unchanged_limits_are_omitted_from_updates() {
        let mut lists = Lists::new();
        lists.insert_new(id(1));
        lists.insert_new(id(2));
        // Equal growth -> both get 0.5.
        let out = run_algorithm1(
            &config(),
            &mut lists,
            &[measure(1, Some(0.2), 0.5), measure(2, Some(0.2), 1.0)],
        );
        // Container 1 already at 0.5: no update; container 2 changes.
        assert_eq!(out.updates, vec![(id(2), 0.5)]);
    }
}
