//! Water-filling CPU allocation with Docker-style *soft* limits.
//!
//! The paper relies on two properties of `docker update` limits (§4.1):
//!
//! 1. A limit caps the share a container may claim, and
//! 2. limits are **soft**: capacity a container cannot use (because of its
//!    limit *or* because the workload cannot scale past its own parallelism
//!    ceiling) is redistributed to the other runnable containers.
//!
//! Property 2 is why the sum of FlowCon limits may exceed 1 (§5.4) and why
//! the `1/(β·n)` lower bound never strands capacity.  Both properties are
//! exactly *progressive filling*: starting from an equal split, containers
//! whose effective cap is below their fair share are pinned at the cap and
//! the slack is re-split among the rest.
//!
//! The allocator is the innermost loop of every experiment — it runs at
//! every monitoring tick, arrival, completion and interrupt — so the hot
//! entry points ([`waterfill_into`] / [`waterfill_soft_into`]) are
//! **allocation-free in steady state**: every buffer lives in a caller-owned
//! [`WaterfillScratch`] that is reused across ticks.  Two structural
//! fast paths keep the common cases cheap:
//!
//! * an `O(n)` **early exit** when `Σcaps ≤ capacity` — every container
//!   simply receives its cap, no sort required (the usual case on an
//!   under-subscribed node);
//! * a **warm order cache**: the cap-per-weight sort order from the previous
//!   round is revalidated in `O(n)` and reused when limit updates did not
//!   change the relative order (the steady-state case between policy
//!   decisions), so the `O(n log n)` sort only runs when the ordering
//!   actually changed.
//!
//! The allocating [`waterfill`] / [`waterfill_soft`] wrappers remain for
//! callers outside the hot path; they delegate to the exact same core, so
//! both entry points are bit-identical by construction.
//!
//! [`NodeShares`] is the node-share rule every node driver applies on top:
//! unit-weight soft-limit requests, then per-container contention
//! efficiency.

use crate::contention::ContentionModel;

/// One runnable container's view of the allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocRequest {
    /// Soft limit as a fraction of node capacity (`1.0` = unlimited).
    ///
    /// This is what FlowCon's Algorithm 1 writes via `docker update`.
    pub limit: f64,
    /// Demand ceiling: the largest share this workload can actually consume
    /// (DL frameworks rarely saturate a whole node — cf. the paper's Fig. 11
    /// where a lone job uses well under full capacity).
    pub demand: f64,
    /// Scheduling weight for the fair split.  Docker's default gives every
    /// container the same `cpu-shares`, so policies normally leave this at 1.
    pub weight: f64,
}

impl AllocRequest {
    /// An unlimited request (the NA baseline) with the given demand ceiling.
    pub fn unlimited(demand: f64) -> Self {
        AllocRequest {
            limit: 1.0,
            demand,
            weight: 1.0,
        }
    }

    /// Effective cap: the binding constraint between limit and demand.
    ///
    /// Non-finite limits or demands yield a zero cap (`f64::min` would
    /// silently discard a NaN operand otherwise).
    pub fn cap(&self) -> f64 {
        if !self.limit.is_finite() || !self.demand.is_finite() {
            return 0.0;
        }
        self.limit.min(self.demand).max(0.0)
    }
}

/// The result of a water-filling round (allocating API).
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-container CPU rate, same order as the request slice.
    pub rates: Vec<f64>,
    /// Total allocated rate (≤ capacity).
    pub total: f64,
    /// Capacity left unallocated because every container hit its cap.
    pub idle: f64,
}

/// Totals of a scratch-based water-filling round; the per-container rates
/// live in [`WaterfillScratch::rates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocTotals {
    /// Total allocated rate (≤ capacity).
    pub total: f64,
    /// Capacity left unallocated because every container hit its cap.
    pub idle: f64,
}

/// One sanitized request in the scratch: cap, weight, and the cap-per-weight
/// sort key, packed together for cache locality in the filling loop.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Sanitized cap (`min(limit, demand)` clamped to `[0, ∞)`).
    cap: f64,
    /// Sanitized weight (non-finite / non-positive become 0).
    weight: f64,
    /// `cap / weight` for eligible containers, NaN otherwise (so accidental
    /// use is loudly wrong in debug comparisons).
    key: f64,
}

impl Entry {
    /// True if this container can receive capacity this round.
    #[inline]
    fn eligible(&self) -> bool {
        self.cap > 0.0 && self.weight > 0.0
    }
}

/// Reusable buffers for the allocation-free water-filling entry points.
///
/// One scratch per allocator call-site (e.g. per simulated worker) is the
/// intended granularity: the scratch carries the warm sort-order cache, so
/// sharing one across unrelated request streams defeats the cache.
#[derive(Debug, Default, Clone)]
pub struct WaterfillScratch {
    /// Output rates, indexed like the request slice.
    rates: Vec<f64>,
    /// Sanitized per-request entries, indexed like the request slice.
    entries: Vec<Entry>,
    /// Eligible indices sorted by `(key, index)` — the warm order cache.
    order: Vec<usize>,
    /// Request count `order` was built for (cache guard).
    order_for_n: usize,
    /// Whether `order` may be reused after revalidation.
    order_warm: bool,
    /// Stage-2 caps for the soft (demand top-up) pass; grows lazily on the
    /// first soft call so plain [`waterfill_into`] users never pay for it.
    soft_caps: Vec<f64>,
    /// Stage-2 sort order (rebuilt whenever stage 2 runs; it is rare).
    soft_order: Vec<usize>,
    // --- introspection counters (tests, benches, BENCH_*.json) ---
    sorts: u64,
    sort_skips: u64,
    early_exits: u64,
}

impl WaterfillScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for `n` containers (avoids even the first-call
    /// growth allocations on the hard-limit path; the stage-2 soft buffers
    /// still grow lazily when first used).
    pub fn with_capacity(n: usize) -> Self {
        WaterfillScratch {
            rates: Vec::with_capacity(n),
            entries: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Reserve room for `n` containers in the hard-limit-path buffers
    /// (same coverage as [`WaterfillScratch::with_capacity`], for scratch
    /// that is recycled rather than rebuilt).
    pub fn reserve(&mut self, n: usize) {
        self.rates.reserve(n.saturating_sub(self.rates.len()));
        self.entries.reserve(n.saturating_sub(self.entries.len()));
        self.order.reserve(n.saturating_sub(self.order.len()));
    }

    /// Per-container CPU rates of the most recent round, in request order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of full `O(n log n)` sorts performed so far.
    pub fn sorts(&self) -> u64 {
        self.sorts
    }

    /// Number of rounds that reused the warm sort order.
    pub fn sort_skips(&self) -> u64 {
        self.sort_skips
    }

    /// Number of rounds resolved by the `Σcaps ≤ capacity` early exit.
    pub fn early_exits(&self) -> u64 {
        self.early_exits
    }

    /// Sanitize requests into `entries`.  Returns the sum of eligible caps
    /// and the count of eligible containers.
    fn load(&mut self, requests: &[AllocRequest]) -> (f64, usize) {
        self.entries.clear();
        let mut cap_sum = 0.0;
        let mut eligible = 0usize;
        for q in requests {
            let c = q.cap();
            let c = if c.is_finite() && c > 0.0 { c } else { 0.0 };
            let w = q.weight;
            let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
            let key = if c > 0.0 && w > 0.0 {
                cap_sum += c;
                eligible += 1;
                c / w
            } else {
                f64::NAN
            };
            self.entries.push(Entry {
                cap: c,
                weight: w,
                key,
            });
        }
        (cap_sum, eligible)
    }

    /// Ensure `order` holds the eligible indices sorted by `(key, index)`,
    /// reusing the previous round's order when it is still correct.
    fn ensure_order(&mut self, n: usize, eligible_count: usize) {
        let entries = &self.entries;
        if self.order_warm && self.order_for_n == n && self.order.len() == eligible_count {
            // O(n) revalidation: same eligible set, keys still ascending.
            let members_ok = self.order.iter().all(|&i| entries[i].eligible());
            let sorted_ok = members_ok
                && self.order.windows(2).all(|w| {
                    let (a, b) = (w[0], w[1]);
                    let (ka, kb) = (entries[a].key, entries[b].key);
                    ka < kb || (ka == kb && a < b)
                });
            if sorted_ok {
                self.sort_skips += 1;
                return;
            }
        }
        self.order.clear();
        self.order.extend((0..n).filter(|&i| entries[i].eligible()));
        // `sort_unstable_by` never allocates; the `(key, index)` key is a
        // total order over distinct indices, so the result equals a stable
        // sort's.
        self.order.sort_unstable_by(|&a, &b| {
            entries[a]
                .key
                .partial_cmp(&entries[b].key)
                .expect("caps and weights sanitized to finite values")
                .then(a.cmp(&b))
        });
        self.order_for_n = n;
        self.order_warm = true;
        self.sorts += 1;
    }
}

/// The progressive-filling core shared by stage 1 and the soft stage-2
/// top-up: walk `order` (sorted by cap-per-weight ascending), pin the
/// prefix whose key is below the water level at its cap, level-split the
/// rest.  **Adds** into `rates`; returns the total amount added.
fn fill_sorted(
    rates: &mut [f64],
    order: &[usize],
    cap_of: impl Fn(usize) -> f64,
    weight_of: impl Fn(usize) -> f64,
    capacity: f64,
) -> f64 {
    let mut added = 0.0;
    let mut remaining = capacity;
    let mut weight_left: f64 = order.iter().map(|&i| weight_of(i)).sum();
    let mut start = 0;
    while start < order.len() && remaining > 1e-15 && weight_left > 0.0 {
        let level = remaining / weight_left;
        let i = order[start];
        let key = cap_of(i) / weight_of(i);
        if key <= level {
            // Pinned at cap.
            rates[i] += cap_of(i);
            added += cap_of(i);
            remaining -= cap_of(i);
            weight_left -= weight_of(i);
            start += 1;
        } else {
            // Everyone remaining fits under the level: weighted equal split.
            for &j in &order[start..] {
                let add = level * weight_of(j);
                rates[j] += add;
                added += add;
            }
            break;
        }
    }
    added
}

/// Distribute `capacity` over the requests by weighted progressive filling,
/// reusing `scratch`'s buffers: **zero heap allocations in steady state**.
///
/// Guarantees (enforced by debug assertions and property tests):
///
/// * `scratch.rates()[i] <= requests[i].cap() + ε`
/// * `sum(rates) <= capacity + ε`
/// * work conservation: if `sum(caps) >= capacity` then
///   `sum(rates) == capacity` (up to ε)
/// * containers with equal `(limit, demand, weight)` receive equal rates
/// * bit-identical to [`waterfill`] for the same inputs, regardless of what
///   the scratch previously computed.
///
/// Non-finite or negative inputs are treated as zero; zero-cap containers
/// receive a zero rate.
pub fn waterfill_into(
    scratch: &mut WaterfillScratch,
    capacity: f64,
    requests: &[AllocRequest],
) -> AllocTotals {
    let n = requests.len();
    scratch.rates.clear();
    scratch.rates.resize(n, 0.0);
    if n == 0 || capacity <= 0.0 {
        return AllocTotals {
            total: 0.0,
            idle: capacity.max(0.0),
        };
    }

    let (cap_sum, eligible_count) = scratch.load(requests);

    // O(n) early exit: every eligible container fits under its cap, so the
    // progressive-filling loop would pin each one at exactly `cap` anyway.
    if cap_sum <= capacity {
        scratch.early_exits += 1;
        let mut total = 0.0;
        for (rate, e) in scratch.rates.iter_mut().zip(&scratch.entries) {
            if e.eligible() {
                *rate = e.cap;
                total += e.cap;
            }
        }
        return finish(scratch, capacity, requests, total);
    }

    scratch.ensure_order(n, eligible_count);

    let entries = &scratch.entries;
    let total = fill_sorted(
        &mut scratch.rates,
        &scratch.order,
        |i| entries[i].cap,
        |i| entries[i].weight,
        capacity,
    );
    finish(scratch, capacity, requests, total)
}

/// Shared tail of [`waterfill_into`]: invariants + totals.
fn finish(
    scratch: &WaterfillScratch,
    capacity: f64,
    requests: &[AllocRequest],
    total: f64,
) -> AllocTotals {
    debug_assert!(total <= capacity + 1e-9, "over-allocated: {total}");
    for (i, &r) in scratch.rates.iter().enumerate() {
        debug_assert!(
            r <= requests[i].cap() + 1e-9,
            "rate {r} exceeds cap {}",
            requests[i].cap()
        );
    }
    AllocTotals {
        total,
        idle: (capacity - total).max(0.0),
    }
}

/// Water-filling with **truly soft** limits, allocation-free in steady
/// state.
///
/// Stage 1 is [`waterfill_into`] with caps `min(limit, demand)`.  If
/// capacity remains because every cap is satisfied (e.g. every container is
/// throttled), stage 2 redistributes the leftover among containers whose
/// *demand* exceeds their stage-1 allocation — limits bound a container's
/// entitled share under contention, but never leave the node idle while
/// someone is runnable, which is how the paper describes `docker update`
/// limits behaving (§4.1, §5.4).
pub fn waterfill_soft_into(
    scratch: &mut WaterfillScratch,
    capacity: f64,
    requests: &[AllocRequest],
) -> AllocTotals {
    let stage1 = waterfill_into(scratch, capacity, requests);
    if stage1.idle <= 1e-12 {
        return stage1;
    }

    // Stage 2: top up to demand, ignoring limits, weighted as before.  The
    // stage-2 cap mirrors the historical `AllocRequest { limit: 1.0,
    // demand: (demand - r).max(0.0), .. }.cap()` formulation exactly.
    let n = requests.len();
    scratch.soft_caps.clear();
    let mut top_up_sum = 0.0;
    for (q, &r) in requests.iter().zip(&scratch.rates) {
        let demand = if q.demand.is_finite() {
            q.demand.max(0.0)
        } else {
            0.0
        };
        let cap = 1.0f64.min((demand - r).max(0.0)).max(0.0);
        let w = q.weight;
        let eligible = cap > 0.0 && w.is_finite() && w > 0.0;
        scratch.soft_caps.push(if eligible { cap } else { 0.0 });
        if eligible {
            top_up_sum += cap;
        }
    }

    let mut total = stage1.total;
    if top_up_sum <= stage1.idle {
        // Early exit again: every top-up fits.
        for i in 0..n {
            scratch.rates[i] += scratch.soft_caps[i];
            total += scratch.soft_caps[i];
        }
    } else {
        // Progressive filling over the top-up caps.  Stage 2 only runs when
        // the node would otherwise idle, which is rare — a fresh sort is
        // fine (and `soft_order` is still a reused buffer: no allocation).
        scratch.soft_order.clear();
        scratch
            .soft_order
            .extend((0..n).filter(|&i| scratch.soft_caps[i] > 0.0));
        let soft_caps = &scratch.soft_caps;
        let entries = &scratch.entries;
        scratch.soft_order.sort_unstable_by(|&a, &b| {
            let ka = soft_caps[a] / entries[a].weight;
            let kb = soft_caps[b] / entries[b].weight;
            ka.partial_cmp(&kb)
                .expect("stage-2 caps and weights are finite")
                .then(a.cmp(&b))
        });
        total += fill_sorted(
            &mut scratch.rates,
            &scratch.soft_order,
            |i| soft_caps[i],
            |i| entries[i].weight,
            stage1.idle,
        );
    }

    AllocTotals {
        total,
        idle: (capacity - total).max(0.0),
    }
}

/// A CPU limit below this counts as *shaped*: a policy gave the container
/// an explicit limit.  A limit of 1.0 (the NA baseline, a fresh job)
/// competes freely and pays the contention model's jitter tax.
const SHAPED_BELOW: f64 = 0.999;

/// The node-share rule: how a node's capacity becomes per-container CPU
/// rates and progress efficiencies.
///
/// Each container asks for its soft CPU limit and its demand ceiling at
/// unit weight; [`waterfill_soft_into`] turns the requests into rates, and
/// [`ContentionModel::container_efficiency`] gives each container its
/// efficiency at the node's concurrency, shaped or not.  The dense worker
/// simulation, the scheduler's node and the real-thread runtime all share
/// through [`NodeShares::recompute`], so the three cannot drift apart.
///
/// The buffers are recycled: a warm recompute performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct NodeShares {
    /// One unit-weight request per container, in the caller's order.
    requests: Vec<AllocRequest>,
    /// Water-filling scratch; its rates are the shares' rates.
    alloc: WaterfillScratch,
    /// Contention efficiencies aligned with the rates.
    efficiencies: Vec<f64>,
}

impl NodeShares {
    /// Empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve room for `n` containers (the stage-2 soft buffers still grow
    /// on first use, as in [`WaterfillScratch::reserve`]).
    pub fn reserve(&mut self, n: usize) {
        self.requests.reserve(n.saturating_sub(self.requests.len()));
        self.efficiencies
            .reserve(n.saturating_sub(self.efficiencies.len()));
        self.alloc.reserve(n);
    }

    /// Forget the last recompute: no rates and no efficiencies until the
    /// next one (capacities kept).
    pub fn clear(&mut self) {
        self.requests.clear();
        self.alloc.rates.clear();
        self.efficiencies.clear();
    }

    /// Share `capacity` over `containers`, each given as its
    /// `(cpu limit, demand)` in the caller's order; [`NodeShares::rates`]
    /// and [`NodeShares::efficiencies`] follow that order.
    pub fn recompute(
        &mut self,
        capacity: f64,
        contention: &ContentionModel,
        containers: impl IntoIterator<Item = (f64, f64)>,
    ) {
        self.requests.clear();
        self.requests
            .extend(containers.into_iter().map(|(limit, demand)| AllocRequest {
                limit,
                demand,
                weight: 1.0,
            }));
        waterfill_soft_into(&mut self.alloc, capacity, &self.requests);
        let n = self.requests.len();
        self.efficiencies.clear();
        self.efficiencies.extend(
            self.requests
                .iter()
                .map(|q| contention.container_efficiency(n, q.limit < SHAPED_BELOW)),
        );
    }

    /// Per-container CPU rates of the last recompute.
    pub fn rates(&self) -> &[f64] {
        self.alloc.rates()
    }

    /// Per-container contention efficiencies of the last recompute.
    pub fn efficiencies(&self) -> &[f64] {
        &self.efficiencies
    }
}

/// Distribute `capacity` over the requests by weighted progressive filling.
///
/// Compatibility wrapper around [`waterfill_into`]: allocates a fresh
/// scratch per call.  Hot paths should hold a [`WaterfillScratch`] and call
/// [`waterfill_into`] directly.
pub fn waterfill(capacity: f64, requests: &[AllocRequest]) -> Allocation {
    let mut scratch = WaterfillScratch::with_capacity(requests.len());
    let totals = waterfill_into(&mut scratch, capacity, requests);
    Allocation {
        rates: std::mem::take(&mut scratch.rates),
        total: totals.total,
        idle: totals.idle,
    }
}

/// Water-filling with **truly soft** limits (allocating wrapper around
/// [`waterfill_soft_into`]).
pub fn waterfill_soft(capacity: f64, requests: &[AllocRequest]) -> Allocation {
    let mut scratch = WaterfillScratch::with_capacity(requests.len());
    let totals = waterfill_soft_into(&mut scratch, capacity, requests);
    Allocation {
        rates: std::mem::take(&mut scratch.rates),
        total: totals.total,
        idle: totals.idle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(limit: f64, demand: f64) -> AllocRequest {
        AllocRequest {
            limit,
            demand,
            weight: 1.0,
        }
    }

    #[test]
    fn empty_input_is_all_idle() {
        let a = waterfill(1.0, &[]);
        assert!(a.rates.is_empty());
        assert_eq!(a.idle, 1.0);
    }

    #[test]
    fn single_unlimited_container_gets_its_demand() {
        let a = waterfill(1.0, &[req(1.0, 0.8)]);
        assert!((a.rates[0] - 0.8).abs() < 1e-12);
        assert!((a.idle - 0.2).abs() < 1e-12);
    }

    #[test]
    fn equal_containers_split_equally() {
        let a = waterfill(1.0, &[req(1.0, 1.0); 4]);
        for r in &a.rates {
            assert!((r - 0.25).abs() < 1e-12);
        }
        assert!(a.idle < 1e-12);
    }

    #[test]
    fn paper_fig7_scenario_limit_quarter_vs_one() {
        // §5.3: VAE limited to 0.25, MNIST limit 1 -> 25% / 75% split.
        let a = waterfill(1.0, &[req(0.25, 1.0), req(1.0, 1.0)]);
        assert!((a.rates[0] - 0.25).abs() < 1e-12, "{:?}", a.rates);
        assert!((a.rates[1] - 0.75).abs() < 1e-12, "{:?}", a.rates);
    }

    #[test]
    fn soft_limits_redistribute_unused_capacity() {
        // Three containers limited to 0.2 each plus one unlimited: the
        // unlimited one absorbs the leftover 0.4.
        let a = waterfill(
            1.0,
            &[req(0.2, 1.0), req(0.2, 1.0), req(0.2, 1.0), req(1.0, 1.0)],
        );
        assert!((a.rates[3] - 0.4).abs() < 1e-12, "{:?}", a.rates);
        assert!(a.idle < 1e-12);
    }

    #[test]
    fn demand_ceiling_binds_like_a_limit() {
        // A job that can only use 30% of the node leaves the rest to others.
        let a = waterfill(1.0, &[req(1.0, 0.3), req(1.0, 1.0)]);
        assert!((a.rates[0] - 0.3).abs() < 1e-12);
        assert!((a.rates[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn all_capped_leaves_idle_capacity() {
        let a = waterfill(1.0, &[req(0.1, 1.0), req(0.2, 1.0)]);
        assert!((a.total - 0.3).abs() < 1e-12);
        assert!((a.idle - 0.7).abs() < 1e-12);
    }

    #[test]
    fn weights_bias_the_split() {
        let reqs = [
            AllocRequest {
                limit: 1.0,
                demand: 1.0,
                weight: 3.0,
            },
            AllocRequest {
                limit: 1.0,
                demand: 1.0,
                weight: 1.0,
            },
        ];
        let a = waterfill(1.0, &reqs);
        assert!((a.rates[0] - 0.75).abs() < 1e-12);
        assert!((a.rates[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_or_invalid_requests_get_nothing() {
        let reqs = [
            req(0.0, 1.0),
            AllocRequest {
                limit: f64::NAN,
                demand: 1.0,
                weight: 1.0,
            },
            req(1.0, 1.0),
        ];
        let a = waterfill(1.0, &reqs);
        assert_eq!(a.rates[0], 0.0);
        assert_eq!(a.rates[1], 0.0);
        assert!((a.rates[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_other_than_one() {
        // An 8-core node expressed in cores instead of fractions.
        let a = waterfill(8.0, &[req(2.0, 8.0), req(8.0, 8.0)]);
        assert!((a.rates[0] - 2.0).abs() < 1e-12);
        assert!((a.rates[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn soft_waterfill_matches_hard_when_caps_cover_capacity() {
        let reqs = [req(0.25, 1.0), req(1.0, 1.0)];
        assert_eq!(waterfill_soft(1.0, &reqs), waterfill(1.0, &reqs));
    }

    #[test]
    fn soft_waterfill_redistributes_past_limits_up_to_demand() {
        // Both containers throttled to 0.2, but both could use 0.6: the
        // idle 0.6 splits evenly, 0.5 each — nothing idles while demand
        // remains.
        let reqs = [req(0.2, 0.6), req(0.2, 0.6)];
        let a = waterfill_soft(1.0, &reqs);
        assert!((a.rates[0] - 0.5).abs() < 1e-9, "{:?}", a.rates);
        assert!((a.rates[1] - 0.5).abs() < 1e-9);
        assert!(a.idle < 1e-9, "idle {}", a.idle);
    }

    #[test]
    fn soft_waterfill_respects_demand_ceilings() {
        let reqs = [req(0.1, 0.3), req(0.1, 0.2)];
        let a = waterfill_soft(1.0, &reqs);
        assert!((a.rates[0] - 0.3).abs() < 1e-9);
        assert!((a.rates[1] - 0.2).abs() < 1e-9);
        assert!((a.idle - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sum_of_limits_above_one_is_fine() {
        // §5.4 note: with the β lower bound the limit sum can exceed 1.
        let a = waterfill(1.0, &[req(0.6, 1.0), req(0.6, 1.0), req(0.6, 1.0)]);
        let total: f64 = a.rates.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in &a.rates {
            assert!(*r <= 0.6 + 1e-12);
        }
    }

    // --- scratch-based entry point ---

    #[test]
    fn scratch_reuse_matches_fresh_allocating_calls() {
        let mut scratch = WaterfillScratch::new();
        let rounds = [
            vec![req(0.3, 1.0), req(1.0, 0.9), req(0.5, 0.4)],
            vec![req(0.2, 1.0), req(1.0, 0.9), req(0.5, 0.4)], // limit moved
            vec![req(0.2, 1.0), req(1.0, 0.9)],                // container left
            vec![req(0.9, 1.0), req(0.1, 0.9), req(0.7, 1.0)], // order changed
        ];
        for reqs in &rounds {
            let totals = waterfill_into(&mut scratch, 1.0, reqs);
            let fresh = waterfill(1.0, reqs);
            assert_eq!(scratch.rates(), fresh.rates.as_slice(), "{reqs:?}");
            assert_eq!(totals.total.to_bits(), fresh.total.to_bits());
            assert_eq!(totals.idle.to_bits(), fresh.idle.to_bits());
        }
    }

    #[test]
    fn early_exit_taken_when_caps_fit() {
        let mut scratch = WaterfillScratch::new();
        waterfill_into(&mut scratch, 1.0, &[req(0.1, 1.0), req(0.2, 1.0)]);
        assert_eq!(scratch.early_exits(), 1);
        assert_eq!(scratch.sorts(), 0, "no sort needed when caps fit");
        assert_eq!(scratch.rates(), &[0.1, 0.2]);
    }

    #[test]
    fn warm_order_skips_resort_when_order_preserved() {
        let mut scratch = WaterfillScratch::new();
        let mut reqs = vec![req(0.3, 1.0), req(0.6, 1.0), req(0.9, 1.0)];
        waterfill_into(&mut scratch, 1.0, &reqs);
        assert_eq!(scratch.sorts(), 1);
        // Limits move but relative order is preserved: no re-sort.
        reqs[0].limit = 0.35;
        reqs[1].limit = 0.55;
        waterfill_into(&mut scratch, 1.0, &reqs);
        assert_eq!(scratch.sorts(), 1);
        assert_eq!(scratch.sort_skips(), 1);
        // Order inverted: re-sort required, result still exact.
        reqs[0].limit = 0.95;
        waterfill_into(&mut scratch, 1.0, &reqs);
        assert_eq!(scratch.sorts(), 2);
        let fresh = waterfill(1.0, &reqs);
        assert_eq!(scratch.rates(), fresh.rates.as_slice());
    }

    #[test]
    fn soft_into_matches_soft_allocating() {
        let mut scratch = WaterfillScratch::new();
        let cases = [
            vec![req(0.2, 0.6), req(0.2, 0.6)],
            vec![req(0.1, 0.3), req(0.1, 0.2)],
            vec![req(0.25, 1.0), req(1.0, 1.0)],
            vec![],
        ];
        for reqs in &cases {
            let totals = waterfill_soft_into(&mut scratch, 1.0, reqs);
            let fresh = waterfill_soft(1.0, reqs);
            assert_eq!(scratch.rates(), fresh.rates.as_slice(), "{reqs:?}");
            assert_eq!(totals.total.to_bits(), fresh.total.to_bits());
        }
    }

    #[test]
    fn scratch_shrinks_and_grows_with_request_count() {
        let mut scratch = WaterfillScratch::new();
        waterfill_into(&mut scratch, 1.0, &[req(1.0, 1.0); 8]);
        assert_eq!(scratch.rates().len(), 8);
        waterfill_into(&mut scratch, 1.0, &[req(1.0, 1.0); 2]);
        assert_eq!(scratch.rates().len(), 2);
        waterfill_into(&mut scratch, 1.0, &[]);
        assert!(scratch.rates().is_empty());
    }

    // --- the node-share rule ---

    #[test]
    fn node_shares_are_the_soft_waterfill_and_contention_efficiency() {
        let contention = ContentionModel::default();
        let containers = [(0.25, 0.9), (1.0, 0.6), (0.9985, 1.0)];
        let mut shares = NodeShares::new();
        shares.recompute(2.0, &contention, containers);
        let reqs: Vec<AllocRequest> = containers.iter().map(|&(l, d)| req(l, d)).collect();
        assert_eq!(shares.rates(), waterfill_soft(2.0, &reqs).rates.as_slice());
        let effs: Vec<f64> = [true, false, true]
            .iter()
            .map(|&shaped| contention.container_efficiency(3, shaped))
            .collect();
        assert_eq!(shares.efficiencies(), effs.as_slice());
        shares.clear();
        assert!(shares.rates().is_empty() && shares.efficiencies().is_empty());
    }
}
