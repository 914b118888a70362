//! Minimal offline stand-in for the `rand` crate.
//!
//! Implements exactly the surface this workspace uses (see
//! `crates/shims/README.md`): a seedable generator, `gen_range` over
//! integer ranges, slice shuffling and a uniform distribution. The
//! generator is xoshiro256** seeded through SplitMix64 — statistically
//! solid for workload generation, deterministic per seed, not
//! cryptographic.

use core::ops::{Range, RangeInclusive};

/// Core trait: a source of `u64`s.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction (only `seed_from_u64` is provided).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Extension methods over [`RngCore`].
pub trait Rng: RngCore {
    /// Sample uniformly from an integer range.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// A uniformly random value (bool only, which is all we need).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Types samplable by [`Rng::gen`].
pub trait Standard {
    /// Draw one value.
    fn standard<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn standard<R: RngCore>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one value from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (reduce(rng.next_u64(), span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (reduce(rng.next_u64(), span + 1) as $t)
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// Map `x` into `0..span` by multiply-shift (Lemire); the bias of at most
/// `span / 2^64` is irrelevant for workload generation.
fn reduce(x: u64, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((x as u128 * span as u128) >> 64) as u64
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The standard generator: xoshiro256** (Blackman & Vigna).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // Avoid the all-zero state.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

pub mod seq {
    use super::RngCore;

    /// How many Fisher–Yates steps ahead [`SliceRandom::shuffle`] draws
    /// and prefetches its swap targets.
    ///
    /// A 2^23-tuple slice is 128 MiB, so each swap target is a DRAM miss;
    /// drawing `SHUFFLE_AHEAD` targets early keeps that many in flight.
    /// It is a constant because the distance only has to cover one miss
    /// at the loop's fixed per-step cost. Shuffling 2^23 16-byte tuples on
    /// a 2-vCPU x86-64 guest (best of 5) took 0.103 / 0.087 / 0.087 s at
    /// 8 / 16 / 32, against 0.117 s for the plain loop.
    pub(crate) const SHUFFLE_AHEAD: usize = 16;

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        /// Shuffle the slice in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        /// Fisher–Yates from the back: step `i` swaps slot `i` with a slot
        /// `j ≤ i` drawn from `rng`. The draws do not depend on the data,
        /// so each is taken `SHUFFLE_AHEAD` steps before its swap and
        /// its slot prefetched then; draws happen in the same order and
        /// number as in the plain loop, so the permutation and the
        /// generator's state afterwards are the same.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            let n = self.len();
            if n < 2 {
                return;
            }
            let base = self.as_ptr();
            let mut draw = |i: usize| {
                let j = super::reduce(rng.next_u64(), i as u64 + 1) as usize;
                // SAFETY: j <= i < n, so the address is inside the slice.
                prefetch(unsafe { base.add(j) });
                j
            };
            // Step k swaps slot n-1-k; `ahead[k % SHUFFLE_AHEAD]` holds its
            // target from the draw made SHUFFLE_AHEAD steps earlier.
            let steps = n - 1;
            let mut ahead = [0usize; SHUFFLE_AHEAD];
            for (k, slot) in ahead.iter_mut().enumerate().take(steps) {
                *slot = draw(n - 1 - k);
            }
            for k in 0..steps {
                let slot = &mut ahead[k % SHUFFLE_AHEAD];
                let j = *slot;
                if k + SHUFFLE_AHEAD < steps {
                    *slot = draw(n - 1 - k - SHUFFLE_AHEAD);
                }
                self.swap(n - 1 - k, j);
            }
        }
    }

    /// `PREFETCHT0` the line holding `ptr` (a no-op off x86-64). The shim
    /// has no dependencies, so it does not borrow `amac_mem`'s wrapper.
    #[inline(always)]
    fn prefetch<T>(ptr: *const T) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a prefetch is a hint; it never faults on any address.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = ptr;
    }
}

pub mod distributions {
    use super::{reduce, RngCore};

    /// A distribution over `T`.
    pub trait Distribution<T> {
        /// Draw one sample.
        fn sample<R: RngCore>(&self, rng: &mut R) -> T;
    }

    /// Uniform integer distribution over `[lo, hi)`.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
    }

    impl<T: Copy + PartialOrd> Uniform<T> {
        /// Uniform over the half-open range `[lo, hi)`.
        pub fn new(lo: T, hi: T) -> Self {
            assert!(lo < hi, "empty range");
            Uniform { lo, hi }
        }
    }

    macro_rules! impl_uniform {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Uniform<$t> {
                fn sample<R: RngCore>(&self, rng: &mut R) -> $t {
                    let span = (self.hi - self.lo) as u64;
                    self.lo + (reduce(rng.next_u64(), span) as $t)
                }
            }
        )*};
    }

    impl_uniform!(u8, u16, u32, u64, usize);
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(3u64..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(1u64..=5);
            assert!((1..=5).contains(&y));
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice sorted");
    }

    /// Plain Fisher–Yates, one draw per swap: the reference model the
    /// pipelined `shuffle` must reproduce.
    fn shuffle_plain<T>(v: &mut [T], rng: &mut StdRng) {
        for i in (1..v.len()).rev() {
            let j = super::reduce(rng.next_u64(), i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    #[test]
    fn shuffle_matches_plain_fisher_yates() {
        use super::seq::SHUFFLE_AHEAD as D;
        for n in [0, 1, 2, D - 1, D, D + 1, 10_000] {
            for seed in [0u64, 7, 0xDEAD_BEEF] {
                let mut got: Vec<u64> = (0..n as u64).collect();
                let mut want = got.clone();
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                got.shuffle(&mut a);
                shuffle_plain(&mut want, &mut b);
                assert_eq!(got, want, "permutation, n {n} seed {seed}");
                assert_eq!(a.next_u64(), b.next_u64(), "generator state after, n {n} seed {seed}");
            }
        }
    }
}
