//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the small API subset it actually uses: [`rngs::SmallRng`], the [`Rng`]
//! extension methods `random` / `random_range` / `random_bool`, and
//! [`SeedableRng::seed_from_u64`], plus an exact jump-ahead,
//! [`rngs::SmallRng::advance`], for splitting one stream across threads.
//! The generator is xoshiro256++ seeded via SplitMix64 — high-quality and
//! deterministic, though its stream differs from upstream `rand` (nothing
//! in this repo pins upstream streams).

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Derive a full seed from a single `u64` (SplitMix64 expansion).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable from the "standard" distribution (subset of
/// `rand::distr::StandardUniform` coverage).
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

/// Ranges samplable by [`Rng::random_range`] (subset of
/// `rand::distr::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draw one value inside the range.
    fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_in<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f64 = Standard::sample(rng);
        self.start + u * (self.end - self.start)
    }
}

/// Core RNG interface plus the convenience samplers (subset of `rand::Rng`
/// merged with `rand::RngCore`).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Sample a value of `T` from the standard distribution.
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from `range`.
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_in(self)
    }

    /// Return `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        let u: f64 = Standard::sample(self);
        u < p
    }
}

/// RNG implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// A small, fast, non-cryptographic generator (xoshiro256++).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            SmallRng { s }
        }
    }

    /// One xoshiro256 state transition. It is linear over GF(2): every
    /// output bit is an XOR of input bits.
    #[inline]
    fn step(s: &mut [u64; 4]) {
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
    }

    /// A linear map on the 256-bit state, as the images of its 256 basis
    /// vectors: `cols[j]` is the map applied to the state with only bit j
    /// set (bit j is bit `j % 64` of word `j / 64`).
    type Gf2Map = [[u64; 4]; 256];

    fn apply(cols: &Gf2Map, v: [u64; 4]) -> [u64; 4] {
        let [mut a, mut b, mut c, mut d] = [0u64; 4];
        for (word, cols) in v.iter().zip(cols.chunks_exact(64)) {
            for (bit, col) in cols.iter().enumerate() {
                // All ones when the bit is set; branch-free, since the bits
                // are random.
                let mask = 0u64.wrapping_sub((word >> bit) & 1);
                a ^= col[0] & mask;
                b ^= col[1] & mask;
                c ^= col[2] & mask;
                d ^= col[3] & mask;
            }
        }
        [a, b, c, d]
    }

    impl SmallRng {
        /// Advance the state as `n` calls of [`Rng::next_u64`] would, in
        /// O(log n) steps: the transition's matrix is squared once per bit
        /// of `n` and applied for each set bit (256 x 256 bit operations
        /// per squaring; ~3 ms for an 80M-draw jump on a 2-vCPU Xeon).
        pub fn advance(&mut self, mut n: u64) {
            let mut cols: Gf2Map = [[0; 4]; 256];
            for (j, col) in cols.iter_mut().enumerate() {
                col[j / 64] = 1 << (j % 64);
                step(col);
            }
            while n != 0 {
                if n & 1 == 1 {
                    self.s = apply(&cols, self.s);
                }
                n >>= 1;
                if n != 0 {
                    let power = cols;
                    for col in cols.iter_mut() {
                        *col = apply(&power, *col);
                    }
                }
            }
        }
    }

    impl Rng for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            step(&mut self.s);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_interval_and_ranges() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f: f64 = r.random();
            assert!((0.0..1.0).contains(&f));
            let v = r.random_range(3u64..17);
            assert!((3..17).contains(&v));
            let i = r.random_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn advance_matches_repeated_draws() {
        for n in [0u64, 1, 63, 64, 65, 1000, 123_456] {
            let mut drawn = SmallRng::seed_from_u64(11);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut jumped = SmallRng::seed_from_u64(11);
            jumped.advance(n);
            assert_eq!(jumped, drawn, "n = {n}");
        }
    }

    #[test]
    fn advances_compose() {
        for (a, b) in [
            (0u64, 5u64),
            (1, 1),
            (64, 1000),
            (123_456, 789),
            (1 << 40, 3),
        ] {
            let mut twice = SmallRng::seed_from_u64(5);
            twice.advance(a);
            twice.advance(b);
            let mut once = SmallRng::seed_from_u64(5);
            once.advance(a + b);
            assert_eq!(twice, once, "{a} + {b}");
        }
    }

    #[test]
    fn bool_probability_rough() {
        let mut r = SmallRng::seed_from_u64(2);
        let hits = (0..10_000).filter(|_| r.random_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
