//! Constant-memory, mergeable streaming quantile sketch.
//!
//! [`QuantileSketch`] is a DDSketch-style relative-error sketch: a value
//! `v > 0` lands in the logarithmic bucket `ceil(ln v / ln γ)` where
//! `γ = (1 + α) / (1 − α)` for a configured relative accuracy `α`, so any
//! reported quantile is within a factor `α` of an exact order statistic.
//! Memory is bounded by the *dynamic range* of the data (one `u64` per
//! occupied bucket, stored contiguously), not by the sample count.
//!
//! # Determinism
//!
//! The sketch is built for the repo's bit-identity discipline (sharded ≡
//! sequential, asserted in `crates/cluster/tests/`):
//!
//! * Bucket keys are **integers** — no float keys, no hashing, no
//!   `HashMap` iteration order.  Counts live in a dense `Vec<u64>` whose
//!   layout is fully determined by the set of occupied keys, so two
//!   sketches fed the same multiset of samples compare equal with
//!   [`PartialEq`] regardless of insertion order or sharding.
//! * [`QuantileSketch::merge`] adds bucket counts in ascending key order;
//!   integer addition is associative and commutative, so merging
//!   per-worker sketches equals inserting every sample into one sketch.
//! * No floating-point *sum* is kept (f64 addition is not associative —
//!   a running sum would break sharded-vs-sequential bit-identity).  Only
//!   order-independent float state survives: `min`/`max`, which are
//!   associative and commutative for the finite inputs the sketch accepts.
//!
//! # Zero allocations when warm
//!
//! [`QuantileSketch::insert`] only allocates when a sample opens a bucket
//! outside the current key range; once the range of the workload is
//! covered, inserts are a key computation plus a counter bump.  The
//! `metrics/sketch/insert` bench row and the counting-allocator test in
//! `crates/cluster/tests/` pin this.

#![deny(missing_docs)]

/// Default relative accuracy: quantiles are within 1 % of an exact order
/// statistic.
pub const DEFAULT_ACCURACY: f64 = 0.01;

/// Values at or below this threshold are tracked exactly in a dedicated
/// zero bucket (a logarithmic index cannot represent 0).
const MIN_TRACKABLE: f64 = 1e-9;

/// A mergeable, constant-memory streaming quantile sketch with bounded
/// relative error (DDSketch-style logarithmic buckets).
///
/// ```
/// use flowcon_metrics::sketch::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for v in 1..=1000 {
///     s.insert(v as f64);
/// }
/// let p50 = s.quantile(0.50).unwrap();
/// assert!((p50 - 500.0).abs() / 500.0 < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Configured relative accuracy `α`.
    alpha: f64,
    /// `γ = (1 + α) / (1 − α)`; bucket `k` covers `(γ^(k−1), γ^k]`.
    gamma: f64,
    /// `ln γ`, precomputed for the key computation on the insert path.
    ln_gamma: f64,
    /// Dense bucket counts; `counts[i]` is the count for key `offset + i`.
    /// The length always exactly covers `[lowest key, highest key]` seen,
    /// so the layout (and thus `PartialEq`) depends only on the sample
    /// multiset, never on insertion order.
    counts: Vec<u64>,
    /// Key of `counts[0]`.
    offset: i32,
    /// Samples `≤ MIN_TRACKABLE` (including exact zeros).
    zero_count: u64,
    /// Total samples, including the zero bucket.
    total: u64,
    /// Smallest sample seen (`+∞` when empty); quantiles clamp to it.
    min: f64,
    /// Largest sample seen (`−∞` when empty); quantiles clamp to it.
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// A sketch with the [`DEFAULT_ACCURACY`] (1 % relative error).
    pub fn new() -> Self {
        Self::with_accuracy(DEFAULT_ACCURACY)
    }

    /// A sketch whose quantiles carry relative error at most `alpha`
    /// (clamped to `(0, 0.5]`; smaller `alpha` means more buckets).
    pub fn with_accuracy(alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(1e-4, 0.5)
        } else {
            DEFAULT_ACCURACY
        };
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            counts: Vec::new(),
            offset: 0,
            zero_count: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative accuracy `α`.
    pub fn relative_accuracy(&self) -> f64 {
        self.alpha
    }

    /// Number of samples inserted (including merged-in samples).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether the sketch has seen no samples.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest sample seen, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// The logarithmic bucket key for a trackable value.
    fn key_of(&self, value: f64) -> i32 {
        (value.ln() / self.ln_gamma).ceil() as i32
    }

    /// Record one sample.
    ///
    /// Negative, NaN and infinite samples are ignored (sojourn times and
    /// queue waits are non-negative by construction; a quiet drop keeps
    /// the hot path branch-cheap).  Zero allocations once the workload's
    /// value range has been seen.
    pub fn insert(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= MIN_TRACKABLE {
            self.zero_count += 1;
            return;
        }
        let key = self.key_of(value);
        let idx = self.ensure_key(key);
        self.counts[idx] += 1;
    }

    /// Grow `counts` so `key` is addressable; returns its index.  The
    /// length is kept *exactly* `[lowest, highest]`-covering so layout is
    /// order-independent (capacity may over-allocate; `len` never does).
    fn ensure_key(&mut self, key: i32) -> usize {
        if self.counts.is_empty() {
            self.offset = key;
            self.counts.push(0);
            return 0;
        }
        if key < self.offset {
            let grow = (self.offset - key) as usize;
            self.counts.splice(0..0, std::iter::repeat(0).take(grow));
            self.offset = key;
            return 0;
        }
        let idx = (key - self.offset) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        idx
    }

    /// Merge another sketch into this one, bucket by bucket in ascending
    /// key order.
    ///
    /// Folding per-worker sketches in worker-index order yields a sketch
    /// bit-identical to inserting every sample sequentially — the property
    /// the sharded executor relies on.  Both sketches must share the same
    /// accuracy (debug-asserted; merging across accuracies would silently
    /// mis-bucket).
    pub fn merge(&mut self, other: &QuantileSketch) {
        debug_assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "merging sketches with different accuracies"
        );
        if other.total == 0 {
            return;
        }
        self.total += other.total;
        self.zero_count += other.zero_count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if !other.counts.is_empty() {
            self.ensure_key(other.offset);
            let hi_key = other.offset + (other.counts.len() - 1) as i32;
            self.ensure_key(hi_key);
            // Both ends are now addressable and `self.offset ≤ other.offset`.
            let lo = (other.offset - self.offset) as usize;
            for (i, &c) in other.counts.iter().enumerate() {
                self.counts[lo + i] += c;
            }
        }
    }

    /// The value at quantile `q ∈ [0, 1]`, or `None` when the sketch is
    /// empty.
    ///
    /// The estimate is the geometric midpoint of the bucket containing the
    /// rank-`⌊q·(n−1)⌋` sample, clamped to the observed `[min, max]` — so a
    /// single-sample sketch reports that sample exactly at every quantile,
    /// and any answer is within the configured relative accuracy of an
    /// exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.total - 1) as f64) as u64;
        if rank < self.zero_count {
            return Some(self.min.max(0.0).min(self.max));
        }
        let mut cum = self.zero_count;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                let key = self.offset + i as i32;
                let upper = (key as f64 * self.ln_gamma).exp();
                let mid = upper * 2.0 / (1.0 + self.gamma);
                return Some(mid.clamp(self.min, self.max));
            }
        }
        // Counts always cover `total − zero_count` samples; unreachable
        // unless the invariants above are broken.
        Some(self.max)
    }

    /// Clear all samples, keeping the allocated bucket range for reuse
    /// (the shape recycled per-shard scratch relies on).
    pub fn reset(&mut self) {
        self.counts.clear();
        self.offset = 0;
        self.zero_count = 0;
        self.total = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_reports_nothing() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample_is_reported_exactly_at_every_quantile() {
        let mut s = QuantileSketch::new();
        s.insert(37.5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(37.5));
        }
        assert_eq!(s.min(), Some(37.5));
        assert_eq!(s.max(), Some(37.5));
    }

    #[test]
    fn zeros_land_in_the_zero_bucket() {
        let mut s = QuantileSketch::new();
        for _ in 0..9 {
            s.insert(0.0);
        }
        s.insert(100.0);
        assert_eq!(s.count(), 10);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
    }

    #[test]
    fn relative_error_is_bounded_on_a_uniform_ramp() {
        let mut s = QuantileSketch::new();
        let n = 10_000;
        for i in 1..=n {
            s.insert(i as f64);
        }
        for q in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let exact = (q * (n - 1) as f64) as usize as f64 + 1.0;
            let got = s.quantile(q).unwrap();
            let rel = (got - exact).abs() / exact;
            assert!(rel <= 0.02, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
    }

    #[test]
    fn non_finite_and_negative_samples_are_ignored() {
        let mut s = QuantileSketch::new();
        s.insert(f64::NAN);
        s.insert(f64::INFINITY);
        s.insert(-1.0);
        assert!(s.is_empty());
        s.insert(2.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn merge_equals_sequential_insert_bit_for_bit() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 991) as f64 / 7.0).collect();
        let mut sequential = QuantileSketch::new();
        for &v in &values {
            sequential.insert(v);
        }
        let mut merged = QuantileSketch::new();
        for chunk in values.chunks(61) {
            let mut shard = QuantileSketch::new();
            for &v in chunk {
                shard.insert(v);
            }
            merged.merge(&shard);
        }
        assert_eq!(sequential, merged);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                sequential.quantile(q).unwrap().to_bits(),
                merged.quantile(q).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn merge_into_empty_adopts_the_other_sketch() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        b.insert(5.0);
        b.insert(0.0);
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn reset_recycles_without_leaking_state() {
        let mut s = QuantileSketch::new();
        s.insert(10.0);
        s.insert(0.0);
        s.reset();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        s.insert(3.0);
        assert_eq!(s.quantile(0.5), Some(3.0));
    }

    #[test]
    fn layout_is_insertion_order_independent() {
        let mut up = QuantileSketch::new();
        let mut down = QuantileSketch::new();
        let values = [0.5, 2.0, 80.0, 1000.0, 7.25];
        for &v in &values {
            up.insert(v);
        }
        for &v in values.iter().rev() {
            down.insert(v);
        }
        assert_eq!(up, down);
    }

    #[test]
    fn warm_inserts_do_not_allocate_new_buckets() {
        let mut s = QuantileSketch::new();
        for i in 1..=100 {
            s.insert(i as f64);
        }
        let len = s.counts.len();
        let cap = s.counts.capacity();
        for i in 1..=100 {
            s.insert(i as f64);
        }
        assert_eq!(s.counts.len(), len);
        assert_eq!(s.counts.capacity(), cap);
    }
}
