//! Deterministic, splittable random number generation.
//!
//! Experiments must be bit-for-bit reproducible from a single `u64` seed, and
//! independently parallelizable (parameter sweeps run one simulation per
//! thread).  We therefore implement **xoshiro256++** (Blackman & Vigna) with a
//! SplitMix64 seeder from scratch — ~60 lines, no dependency, and a `split`
//! operation that derives statistically independent child streams for
//! sub-components (one per container, one per workload, ...).

/// A xoshiro256++ pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal variate from Box–Muller.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
const fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl SimRng {
    /// Create a generator from a seed.  Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Derive an independent child generator.
    ///
    /// Mixes the parent's next output through SplitMix64 so that child
    /// streams do not overlap the parent stream in practice.  Used to hand
    /// each container / workload its own noise source so adding a job never
    /// perturbs the randomness seen by existing jobs.
    pub fn split(&mut self) -> SimRng {
        let mut sm = self.next_u64() ^ 0xA076_1D64_78BD_642F;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.  `lo` must be `<= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "range_f64: lo {lo} > hi {hi}");
        lo + (hi - lo) * self.f64()
    }

    /// Standard normal variate (Box–Muller, cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let (first, second) = box_muller(self.normal_pair_uniforms());
        self.spare_normal = Some(second);
        first
    }

    /// The two uniforms one Box–Muller pair consumes, `(u, v)` with
    /// `u ∈ (0, 1]` and `v ∈ [0, 1)`.
    ///
    /// Drawing these and deferring [`box_muller`] until the variates are
    /// read consumes the stream exactly as one [`SimRng::normal`] pair does
    /// (with no spare cached) and yields bit-identical variates.
    #[inline]
    pub fn normal_pair_uniforms(&mut self) -> (f64, f64) {
        // Avoid u == 0 so ln(u) is finite.
        let u = 1.0 - self.f64();
        let v = self.f64();
        (u, v)
    }

    /// Exponential variate with the given rate `lambda`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.f64();
        -u.ln() / lambda
    }
}

/// The Box–Muller transform: two independent standard normal variates
/// from the uniforms [`SimRng::normal_pair_uniforms`] draws.  The first is
/// what [`SimRng::normal`] returns, the second what it caches.
#[inline]
pub fn box_muller((u, v): (f64, f64)) -> (f64, f64) {
    let r = (-2.0 * u.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * v;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn split_streams_are_independent_of_parent_future() {
        let mut parent = SimRng::new(7);
        let mut child = parent.split();
        let child_vals: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        let parent_vals: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        assert_ne!(child_vals, parent_vals);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(17);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
