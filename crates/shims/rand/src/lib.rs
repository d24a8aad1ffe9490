//! Offline stand-in for the `rand` crate.
//!
//! The build environment of this repository has no access to crates.io, so
//! this crate provides the exact API subset the workspace uses:
//! [`SeedableRng::seed_from_u64`], the [`Rng`]/[`RngCore`] traits, the
//! [`RngExt`] extension with `random()` / `random_range()`, and the
//! [`rngs::StdRng`] / [`rngs::SmallRng`] generators.
//!
//! The generators are deterministic, high-quality xoshiro256++ /
//! SplitMix64 streams. They do **not** reproduce the bit streams of the
//! real `rand` crate — every experiment in this workspace derives its
//! randomness from explicit `u64` seeds, so only self-consistency matters.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Low-level uniform bit source.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Marker trait mirroring `rand::Rng`; automatically implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {}
impl<R: RngCore + ?Sized> Rng for R {}

/// Extension methods mirroring the `rand` 0.9 `random`/`random_range` API.
pub trait RngExt: RngCore {
    /// Samples a value uniformly over the type's natural domain
    /// (`[0, 1)` for floats, full range for integers, fair coin for bool).
    fn random<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Types that can be drawn from raw random bits (the `Standard`
/// distribution of the real crate).
pub trait Standard {
    /// Draws one value from `rng`.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)` (53-bit precision).
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges a value can be sampled from (`Range` and `RangeInclusive` over
/// the primitive numeric types).
pub trait SampleRange<T> {
    /// Samples one value uniformly; panics on an empty range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi - lo) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
sample_range_int!(i8, i16, i32, i64, isize);

macro_rules! sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let u = unit_f64(rng.next_u64()) as $t;
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let u = unit_f64(rng.next_u64()) as $t;
                lo + u * (hi - lo)
            }
        }
    )*};
}
sample_range_float!(f32, f64);

/// Generators seedable from a `u64`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose whole stream is a function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step, used for seeding and as the `SmallRng` engine.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Workhorse generator: xoshiro256++ (Blackman & Vigna), seeded via
    /// SplitMix64 as its authors recommend.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            let mut sm = state;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // An all-zero state would be a fixed point; SplitMix64 cannot
            // produce four zero outputs in a row, but be defensive anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
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
    }

    /// Small, fast generator: a bare SplitMix64 stream.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            // Pre-mix so that seeds 0, 1, 2… do not yield correlated
            // initial outputs.
            let mut s = state ^ 0x1234_5678_9ABC_DEF0;
            let _ = splitmix64(&mut s);
            Self { state: s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            splitmix64(&mut self.state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{SmallRng, StdRng};
    use super::{RngExt as _, SeedableRng};

    #[test]
    fn std_rng_is_reproducible() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..4).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.random_range(5usize..10);
            assert!((5..10).contains(&v));
            let w = r.random_range(1u64..=6);
            assert!((1..=6).contains(&w));
            let x = r.random_range(-3.0f64..-1.0);
            assert!((-3.0..-1.0).contains(&x));
            let y = r.random_range(0.1f64..=0.9);
            assert!((0.1..=0.9).contains(&y));
        }
    }

    #[test]
    fn integer_ranges_hit_all_values() {
        let mut r = StdRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..200 {
            seen[r.random_range(0usize..6)] = true;
        }
        assert_eq!(seen, [true; 6]);
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut r = StdRng::seed_from_u64(5);
        let heads = (0..1000).filter(|_| r.random::<bool>()).count();
        assert!((300..700).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn small_rng_works_and_differs_from_std() {
        let mut s = SmallRng::seed_from_u64(9);
        let mut d = SmallRng::seed_from_u64(9);
        assert_eq!(s.random::<u64>(), d.random::<u64>());
        let mut a = SmallRng::seed_from_u64(0);
        let mut b = SmallRng::seed_from_u64(1);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn rng_usable_through_mut_reference() {
        fn draw<R: super::Rng + ?Sized>(rng: &mut R) -> u64 {
            use super::RngExt as _;
            rng.random()
        }
        let mut r = StdRng::seed_from_u64(1);
        let _ = draw(&mut r);
    }
}
