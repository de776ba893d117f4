//! Key-popularity distributions used by the workload generators.
//!
//! * [`Zipfian`] — YCSB's zipfian generator (Gray et al.'s algorithm, as in
//!   the YCSB `ZipfianGenerator`), plus a scrambled variant that spreads the
//!   hot items across the key space.
//! * [`GaussianPicker`] — memtier_benchmark's Gaussian access pattern over a
//!   key range (paper §8.1 uses memtier with a Gaussian distribution).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// YCSB-style zipfian generator over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
    rng: SmallRng,
    scrambled: bool,
}

impl Zipfian {
    /// YCSB's default skew constant.
    pub const DEFAULT_THETA: f64 = 0.99;

    /// Create a zipfian generator over `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n > 0, "empty key space");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2theta,
            rng: SmallRng::seed_from_u64(seed),
            scrambled: false,
        }
    }

    /// Scrambled variant: item ranks are hashed so popular keys scatter
    /// uniformly across the key space (YCSB's `ScrambledZipfianGenerator`).
    pub fn scrambled(mut self) -> Self {
        self.scrambled = true;
        self
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler–Maclaurin style approximation above.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // Integral of x^-theta from 10_000 to n.
            let a = 1.0 - theta;
            head + ((n as f64).powf(a) - 10_000f64.powf(a)) / a
        }
    }

    /// Draw the next key.
    pub fn next_key(&mut self) -> u64 {
        let u: f64 = self.rng.random();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        if self.scrambled {
            fnv1a(rank) % self.n
        } else {
            rank
        }
        // Note: zeta2theta retained for parity with the YCSB reference code.
    }

    /// Key-space size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Internal constant kept for parity with YCSB (used in incremental
    /// zetan updates, which we do not need for a fixed key space).
    pub fn zeta2theta(&self) -> f64 {
        self.zeta2theta
    }
}

/// 64-bit FNV-1a hash (YCSB's scrambling hash).
pub fn fnv1a(v: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for i in 0..8 {
        h ^= (v >> (8 * i)) & 0xff;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Gaussian key picker over `0..n` (memtier's `--key-pattern=G:G`).
#[derive(Debug, Clone)]
pub struct GaussianPicker {
    n: u64,
    mean: f64,
    stddev: f64,
    rng: SmallRng,
}

impl GaussianPicker {
    /// Create a picker centered mid-range with memtier's default stddev
    /// (range / 10).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "empty key space");
        GaussianPicker {
            n,
            mean: n as f64 / 2.0,
            stddev: n as f64 / 10.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draw the next key (clamped to range).
    pub fn next_key(&mut self) -> u64 {
        // Box–Muller.
        let u1: f64 = self.rng.random::<f64>().max(1e-12);
        let u2: f64 = self.rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = self.mean + z * self.stddev;
        v.clamp(0.0, (self.n - 1) as f64) as u64
    }
}

/// Uniform key picker over `0..n`.
#[derive(Debug, Clone)]
pub struct UniformPicker {
    n: u64,
    rng: SmallRng,
}

impl UniformPicker {
    /// Create a uniform picker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "empty key space");
        UniformPicker {
            n,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draw the next key.
    pub fn next_key(&mut self) -> u64 {
        self.rng.random_range(0..self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed() {
        let mut z = Zipfian::new(10_000, Zipfian::DEFAULT_THETA, 1);
        let mut counts = vec![0u64; 10_000];
        for _ in 0..200_000 {
            counts[z.next_key() as usize] += 1;
        }
        // Head items dominate.
        let head: u64 = counts[..10].iter().sum();
        let tail: u64 = counts[5000..5010].iter().sum();
        assert!(head > tail * 20, "head {head} tail {tail}");
        // Rank 0 is the most popular.
        let max_idx = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(max_idx, 0);
    }

    #[test]
    fn zipfian_in_range() {
        let mut z = Zipfian::new(97, 0.8, 7);
        for _ in 0..10_000 {
            assert!(z.next_key() < 97);
        }
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut z = Zipfian::new(10_000, Zipfian::DEFAULT_THETA, 1).scrambled();
        let mut counts = vec![0u64; 10_000];
        for _ in 0..200_000 {
            counts[z.next_key() as usize] += 1;
        }
        // Hottest key is no longer key 0, and hot keys exist above midrange.
        let max_idx = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_ne!(max_idx, 0);
        let upper_half: u64 = counts[5000..].iter().sum();
        assert!(upper_half > 40_000, "upper half {upper_half}");
    }

    #[test]
    fn gaussian_centers_mid_range() {
        let mut g = GaussianPicker::new(100_000, 3);
        let mut sum = 0f64;
        let mut lo = u64::MAX;
        let mut hi = 0;
        for _ in 0..50_000 {
            let k = g.next_key();
            sum += k as f64;
            lo = lo.min(k);
            hi = hi.max(k);
        }
        let mean = sum / 50_000.0;
        assert!((mean - 50_000.0).abs() < 2_000.0, "mean {mean}");
        assert!(hi < 100_000);
        // ~5 sigma tails rarely reach the extremes.
        assert!(lo > 1_000, "lo {lo}");
    }

    #[test]
    fn uniform_covers_range() {
        let mut u = UniformPicker::new(1000, 5);
        let mut seen = vec![false; 1000];
        for _ in 0..100_000 {
            seen[u.next_key() as usize] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > 990, "covered {covered}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Zipfian::new(1000, 0.9, 42);
        let mut b = Zipfian::new(1000, 0.9, 42);
        for _ in 0..100 {
            assert_eq!(a.next_key(), b.next_key());
        }
    }

    #[test]
    fn fnv_hash_is_stable() {
        assert_eq!(fnv1a(0), fnv1a(0));
        assert_ne!(fnv1a(1), fnv1a(2));
    }
}
