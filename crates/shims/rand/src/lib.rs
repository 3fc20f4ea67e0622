//! Offline stand-in for the [`rand`](https://docs.rs/rand/0.8) crate.
//!
//! The build environment has no network access, so this workspace ships a
//! minimal, dependency-free reimplementation of exactly the `rand 0.8` API
//! surface the other crates use: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`] / [`Rng::gen_bool`] / [`Rng::gen`], and
//! [`distributions::Uniform`].
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — statistically
//! solid for test-data generation and fully deterministic per seed. The
//! *streams differ from upstream `rand`*; nothing in the workspace depends
//! on exact upstream values, only on per-seed determinism.

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed (SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::uniform::SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
        unit_f64(self.next_u64()) < p
    }

    /// A sample from the "standard" distribution of `T`
    /// (`f64` uniform in `[0, 1)`, `bool` fair, integers uniform).
    fn gen<T>(&mut self) -> T
    where
        T: distributions::Standard,
        Self: Sized,
    {
        T::sample_standard(self)
    }
}

impl<R: RngCore> Rng for R {}

/// `u64` bits → uniform `f64` in `[0, 1)` (53-bit mantissa).
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

pub mod rngs {
    //! Concrete generators.
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    ///
    /// (Upstream `StdRng` is ChaCha12; this shim trades the crypto-grade
    /// stream for zero dependencies. Determinism per seed is preserved.)
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // SplitMix64 expansion, as upstream does for small seeds.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
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
}

pub mod distributions {
    //! The small distribution vocabulary the workspace uses.
    use super::{unit_f64, RngCore};

    /// A distribution over `T` sampled with an explicit generator.
    pub trait Distribution<T> {
        /// Draws one sample.
        fn sample<R: RngCore>(&self, rng: &mut R) -> T;
    }

    /// The "standard" distribution, reached through [`Rng::gen`](crate::Rng::gen).
    pub trait Standard: Sized {
        /// Draws one standard sample.
        fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
    }

    impl Standard for f64 {
        fn sample_standard<R: RngCore>(rng: &mut R) -> f64 {
            unit_f64(rng.next_u64())
        }
    }
    impl Standard for bool {
        fn sample_standard<R: RngCore>(rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
    impl Standard for u64 {
        fn sample_standard<R: RngCore>(rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    /// Uniform distribution over `[lo, hi)`, the `Uniform::new` form.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
    }

    impl<T: Copy + PartialOrd> Uniform<T> {
        /// Uniform over the half-open range `[lo, hi)`.
        ///
        /// # Panics
        /// Panics when `lo >= hi`.
        pub fn new(lo: T, hi: T) -> Uniform<T> {
            assert!(lo < hi, "Uniform::new requires lo < hi");
            Uniform { lo, hi }
        }
    }

    impl<T> Distribution<T> for Uniform<T>
    where
        T: Copy + PartialOrd,
        std::ops::Range<T>: uniform::SampleRange<T>,
    {
        fn sample<R: RngCore>(&self, rng: &mut R) -> T {
            uniform::SampleRange::sample_single(self.lo..self.hi, rng)
        }
    }

    pub mod uniform {
        //! Range sampling used by [`Rng::gen_range`](super::super::Rng::gen_range).
        use super::super::{unit_f64, RngCore};
        use std::ops::{Range, RangeInclusive};

        /// A range that knows how to draw a uniform sample of itself.
        pub trait SampleRange<T> {
            /// Draws one sample from the range.
            fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
        }

        /// Uniform draw from `[0, span)` without modulo bias worth caring
        /// about for test workloads (span ≪ 2⁶⁴ here); 128-bit multiply
        /// keeps it unbiased enough and branch-free.
        #[inline]
        fn below(rng: &mut impl RngCore, span: u64) -> u64 {
            ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
        }

        // The span is computed in the type's *unsigned counterpart* ($u)
        // first: a plain `as u64` on a signed narrow type would
        // sign-extend spans wider than the type's MAX (e.g. -100i8..100).
        macro_rules! int_range {
            ($(($t:ty, $u:ty)),*) => {$(
                impl SampleRange<$t> for Range<$t> {
                    fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                        assert!(self.start < self.end, "empty gen_range");
                        let span = self.end.wrapping_sub(self.start) as $u as u64;
                        self.start.wrapping_add(below(rng, span) as $t)
                    }
                }
                impl SampleRange<$t> for RangeInclusive<$t> {
                    fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                        let (lo, hi) = (*self.start(), *self.end());
                        assert!(lo <= hi, "empty gen_range");
                        let span = hi.wrapping_sub(lo) as $u as u64;
                        if span == u64::MAX {
                            return rng.next_u64() as $t;
                        }
                        lo.wrapping_add(below(rng, span + 1) as $t)
                    }
                }
            )*};
        }
        int_range!(
            (u8, u8),
            (u16, u16),
            (u32, u32),
            (u64, u64),
            (usize, usize),
            (i8, u8),
            (i16, u16),
            (i32, u32),
            (i64, u64),
            (isize, usize)
        );

        // i128/u128 spans exceed u64; widen the draw.
        macro_rules! wide_range {
            ($($t:ty),*) => {$(
                impl SampleRange<$t> for Range<$t> {
                    fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                        assert!(self.start < self.end, "empty gen_range");
                        let span = self.end.wrapping_sub(self.start) as u128;
                        let draw = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                        self.start.wrapping_add((draw % span) as $t)
                    }
                }
                impl SampleRange<$t> for RangeInclusive<$t> {
                    fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                        let (lo, hi) = (*self.start(), *self.end());
                        assert!(lo <= hi, "empty gen_range");
                        let span = hi.wrapping_sub(lo) as u128;
                        if span == u128::MAX {
                            let draw = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                            return draw as $t;
                        }
                        let draw = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
                        lo.wrapping_add((draw % (span + 1)) as $t)
                    }
                }
            )*};
        }
        wide_range!(u128, i128);

        impl SampleRange<f64> for Range<f64> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> f64 {
                assert!(self.start < self.end, "empty gen_range");
                self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{distributions::Distribution, Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..10).map(|_| r.gen_range(0..1000u64)).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..10).map(|_| r.gen_range(0..1000u64)).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(8);
            (0..10).map(|_| r.gen_range(0..1000u64)).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let v = r.gen_range(10..20u64);
            assert!((10..20).contains(&v));
            let w = r.gen_range(-5i128..5);
            assert!((-5..5).contains(&w));
            let x = r.gen_range(0..=3usize);
            assert!(x <= 3);
            let f = r.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
            // narrow signed ranges wider than the type's MAX must not
            // sign-extend the span
            let y = r.gen_range(-100i8..100);
            assert!((-100..100).contains(&y));
            let z = r.gen_range(-30_000i16..=30_000);
            assert!((-30_000..=30_000).contains(&z));
        }
    }

    #[test]
    fn distribution_and_standard() {
        let mut r = StdRng::seed_from_u64(2);
        let u = super::distributions::Uniform::new(0usize, 7);
        let mut seen = [false; 7];
        for _ in 0..500 {
            seen[u.sample(&mut r)] = true;
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        let heads = (0..1000).filter(|_| r.gen_bool(0.5)).count();
        assert!((300..700).contains(&heads));
    }
}
