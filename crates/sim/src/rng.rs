//! Deterministic random numbers for simulations.
//!
//! [`SimRng`] is the workspace's one generator: a self-contained
//! xoshiro256++ seeded via SplitMix64, with **no external dependencies**,
//! named sub-streams ([`SimRng::fork`]) and the two distributions the
//! paper's workloads need — log-normal (flow sizes, inter-arrivals,
//! failure processes, all per [1]/[25]) and exponential — implemented via
//! Box–Muller so no extra distribution crate is required.
//!
//! The generator is hand-rolled rather than pulled from the `rand` crate on
//! purpose: the paper's recovery-time figures are only reproducible if every
//! byte of randomness is pinned by the seed, independent of crate versions,
//! platforms, or `rand`'s internal algorithm choices. No `rand` crate is
//! linkable in this workspace, and `cargo run -p xtask -- lint` bans the
//! std sources of run-to-run variation (hash containers, wall clocks,
//! thread identity; root `clippy.toml`) in every crate and literal seeds
//! outside tests (`rng-stream`); this module is the one sanctioned
//! entropy source.

use std::fmt;

/// SplitMix64-style mixing of `(master_seed, stream)` into a derived seed.
///
/// `stream + 1` keeps stream 0 distinct from the master seed itself.
fn mix_stream(master_seed: u64, stream: u64) -> u64 {
    let mut z =
        master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of a log-normal distribution on the *log* scale.
///
/// If `X ~ LogNormal(mu, sigma)` then `ln X ~ Normal(mu, sigma)`. The
/// helper [`LogNormal::from_mean_sigma`] converts a desired linear-scale
/// mean instead, which is how the experiment configs are written.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LogNormal {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Standard deviation of `ln X`.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates the distribution from log-scale parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal { mu, sigma }
    }

    /// Creates the distribution from a desired *linear-scale* mean and a
    /// log-scale sigma: `mu = ln(mean) − sigma²/2`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn from_mean_sigma(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0, "log-normal mean must be positive");
        LogNormal {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    /// The linear-scale mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// A deterministic, seedable random source: xoshiro256++ seeded via
/// SplitMix64.
///
/// The output stream is a pure function of the 64-bit seed — stable across
/// platforms, compilers, and releases of this workspace.
///
/// # Examples
///
/// ```
/// use dcn_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.gen_u64(), b.gen_u64()); // same seed, same stream
/// ```
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed, expanded into the 256-bit
    /// state with SplitMix64 as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a named sub-stream, so adding
    /// draws to one component never perturbs another.
    ///
    /// This is the workspace's one way to split a master seed into
    /// per-component or per-cell streams (the `dcn-sweep` cell streams are
    /// forks of the master seed): the derived stream is a pure function of
    /// `(seed, stream)`, so it never depends on how much randomness any
    /// other stream consumed — or, in a parallel sweep, on which worker
    /// thread ran which cell in what order.
    pub fn fork(&self, stream: u64) -> SimRng {
        SimRng::new(mix_stream(self.seed, stream))
    }

    /// A uniform `u64` (xoshiro256++ step).
    pub fn gen_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` via Lemire multiply-shift (unbiased
    /// enough for simulation workloads and branch-free).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_index bound must be nonzero");
        ((u128::from(self.gen_u64()) * bound as u128) >> 64) as usize
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits.
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A standard normal via Box–Muller.
    pub fn gen_normal(&mut self) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1: f64 = 1.0 - self.gen_f64();
        let u2: f64 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A log-normal draw.
    pub fn gen_lognormal(&mut self, dist: LogNormal) -> f64 {
        (dist.mu + dist.sigma * self.gen_normal()).exp()
    }

    /// An exponential draw with the given rate (events per unit time).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn gen_exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u: f64 = 1.0 - self.gen_f64();
        -u.ln() / rate
    }

    /// Chooses a uniformly random element of a slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_index(items.len())]
    }
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..32 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = SimRng::new(7);
        let mut f1 = parent.fork(1);
        let mut parent2 = SimRng::new(7);
        let _ = parent2.gen_u64(); // consuming the parent...
        let mut f1_again = parent2.fork(1);
        // ...does not change what the fork produces.
        assert_eq!(f1.gen_u64(), f1_again.gen_u64());
        // And distinct streams differ.
        let mut f2 = parent.fork(2);
        assert_ne!(f1.gen_u64(), f2.gen_u64());
    }

    #[test]
    fn fork_draws_are_pinned() {
        // Recorded literals: any change to the SplitMix expansion, the
        // stream mixing, the xoshiro step, the Lemire reduction or the
        // 53-bit float conversion shows up here.
        let mut rng = SimRng::new(7).fork(3);
        let indices: Vec<usize> = (0..8).map(|_| rng.gen_index(10)).collect();
        assert_eq!(indices, [0, 1, 2, 6, 7, 6, 5, 8]);
        let floats: Vec<f64> = (0..4).map(|_| rng.gen_f64()).collect();
        assert_eq!(
            floats,
            [
                0.6577115949892233,
                0.9560610095814714,
                0.6869371585890617,
                0.720868907569445
            ]
        );
    }

    #[test]
    fn lognormal_mean_matches_parameterization() {
        let dist = LogNormal::from_mean_sigma(100_000.0, 1.0);
        assert!((dist.mean() - 100_000.0).abs() < 1e-6);
        let mut rng = SimRng::new(42);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.gen_lognormal(dist)).sum();
        let sample_mean = sum / n as f64;
        // Loose band: log-normal has heavy tails.
        assert!(
            (sample_mean / 100_000.0 - 1.0).abs() < 0.1,
            "sample mean {sample_mean}"
        );
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::new(43);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exponential(0.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_is_roughly_standard() {
        let mut rng = SimRng::new(44);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gen_index_stays_in_bounds() {
        let mut rng = SimRng::new(45);
        for _ in 0..1000 {
            assert!(rng.gen_index(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn gen_index_zero_panics() {
        SimRng::new(1).gen_index(0);
    }
}
