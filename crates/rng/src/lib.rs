//! # rsti-rng — a dependency-free deterministic PRNG
//!
//! The workspace needs seeded randomness in three places: kernel key
//! generation (`rsti_pac`'s `PacKeys::random`), the random-program
//! generator (`rsti_workloads::generate_items`), and the randomized test
//! batteries that replace `proptest` (the build environment carries no
//! third-party registry, so every dependency must live in-tree).
//!
//! [`Rng64`] is xoshiro256++ seeded through SplitMix64 — the standard
//! small-state construction (Blackman & Vigna, 2019): sub-nanosecond
//! output, 256-bit state, and equidistribution properties far beyond what
//! seeded test generation needs. It is **not** cryptographic; the PA keys
//! it generates in tests stand in for a kernel CSPRNG.

#![warn(missing_docs)]

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (SplitMix64-expanded, so
    /// nearby seeds still give uncorrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng64 { s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)] }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }

    /// The next 128 uniformly random bits.
    pub fn next_u128(&mut self) -> u128 {
        ((self.next_u64() as u128) << 64) | self.next_u64() as u128
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Rejection sampling over the widest multiple of `span` keeps the
        // distribution exactly uniform.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 uniform mantissa bits, the same resolution `rand` uses.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(0, items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut r = Rng64::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(3, 13);
            assert!((3..13).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 10 values reached: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng64::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_700..=3_300).contains(&hits), "p=0.3 gave {hits}/10000");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn next_u64_looks_uniform_per_bit() {
        let mut r = Rng64::seed_from_u64(1234);
        let mut ones = [0u32; 64];
        for _ in 0..4096 {
            let v = r.next_u64();
            for (b, count) in ones.iter_mut().enumerate() {
                *count += ((v >> b) & 1) as u32;
            }
        }
        for (b, &c) in ones.iter().enumerate() {
            assert!((1700..=2400).contains(&c), "bit {b}: {c}/4096 ones");
        }
    }
}
