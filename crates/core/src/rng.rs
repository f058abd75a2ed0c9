//! Deterministic random sampling.
//!
//! Every stochastic component of the reproduction (workload generation,
//! allocation tie-breaking) draws from a [`SimRng`], a thin wrapper around a
//! built-in xoshiro256++ generator (the same algorithm `rand`'s `SmallRng`
//! uses on 64-bit platforms; implemented here because the build environment
//! cannot fetch external crates). Distribution sampling beyond the uniform
//! primitives (normal, lognormal, exponential) is implemented directly so
//! the workspace needs no `rand_distr` dependency either.

/// The xoshiro256++ core: fast, 256-bit state, excellent statistical
/// quality for simulation purposes (not cryptographic).
#[derive(Clone, Debug)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state with splitmix64, the
    /// seeding procedure recommended by the xoshiro authors.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256pp {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Derives the `index`-th member seed from a master seed with one
/// splitmix64 step: the master selects the stream position and the
/// finalizer's avalanche decorrelates adjacent indices. Unlike
/// [`SimRng::fork`], derivation is *random access* — device `i` of a fleet
/// gets the same seed regardless of which worker constructs it, or in what
/// order, which is what makes fleet runs byte-identical at any job count.
///
/// # Example
///
/// ```
/// use hps_core::rng::derive_seed;
///
/// assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
/// assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
/// ```
pub fn derive_seed(master: u64, index: u64) -> u64 {
    // splitmix64: stream position master + (index+1) strides, then finalize.
    let x = master.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random number generator for simulations.
///
/// # Example
///
/// ```
/// use hps_core::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform_u64(100), b.uniform_u64(100));
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: Xoshiro256pp,
    /// Spare normal deviate from the Box–Muller pair.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Identical seeds yield
    /// identical streams on every platform.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256pp::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; used to give each workload
    /// stream its own seed from a master seed.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.inner.next_u64())
    }

    /// Uniform float in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits, the standard conversion.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift with rejection of the biased low zone.
        loop {
            let x = self.inner.next_u64();
            let m = x as u128 * bound as u128;
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.inner.next_u64();
        }
        lo + self.uniform_u64(span + 1)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal deviate via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller requires u1 in (0, 1]; reject exact zeros.
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal deviate where the *underlying* normal has the given mean
    /// (`mu`) and standard deviation (`sigma`).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Lognormal deviate parameterized by the distribution's own mean and
    /// the sigma of the underlying normal — convenient for matching a trace's
    /// published mean inter-arrival time while choosing the burstiness.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive or `sigma` is negative.
    pub fn lognormal_with_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let mu = mean.ln() - sigma * sigma / 2.0;
        self.lognormal(mu, sigma)
    }

    /// Exponential deviate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        -mean * u.ln()
    }

    /// Samples an index from a weighted discrete distribution.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero/negative.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= w;
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.uniform_u64(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_across_instances() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(1_000_000), b.uniform_u64(1_000_000));
        }
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.uniform_u64(1 << 40), c2.uniform_u64(1 << 40));
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..1000 {
            let v = rng.uniform_range(5, 9);
            assert!((5..=9).contains(&v));
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = SimRng::seed_from(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_with_mean_matches_mean() {
        let mut rng = SimRng::seed_from(4);
        let n = 100_000;
        let target = 42.0;
        let total: f64 = (0..n).map(|_| rng.lognormal_with_mean(target, 1.0)).sum();
        let mean = total / n as f64;
        assert!((mean - target).abs() / target < 0.05, "mean {mean}");
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::seed_from(5);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| rng.exponential(7.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 7.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from(6);
        let weights = [1.0, 3.0];
        let mut counts = [0u32; 2];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn chance_edges() {
        let mut rng = SimRng::seed_from(7);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(5.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_weights_panic() {
        let mut rng = SimRng::seed_from(8);
        let _ = rng.weighted_index(&[]);
    }

    #[test]
    fn derived_seeds_are_random_access_and_distinct() {
        let direct = derive_seed(99, 1_000);
        // Same (master, index) from any call order.
        let _ = derive_seed(99, 0);
        assert_eq!(derive_seed(99, 1_000), direct);
        // Adjacent indices and adjacent masters decorrelate.
        let mut seen = std::collections::BTreeSet::new();
        for index in 0..10_000u64 {
            assert!(seen.insert(derive_seed(7, index)), "collision at {index}");
        }
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
    }

    #[test]
    fn derived_seeds_feed_independent_generators() {
        let mut a = SimRng::seed_from(derive_seed(5, 0));
        let mut b = SimRng::seed_from(derive_seed(5, 1));
        let same: usize = (0..64)
            .filter(|_| a.uniform_u64(1 << 32) == b.uniform_u64(1 << 32))
            .count();
        assert_eq!(same, 0, "adjacent device streams must not track each other");
    }
}
