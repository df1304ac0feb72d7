//! Exact range reduction of 32-bit hashes without a division.
//!
//! A sketch reduces every row hash `h` to a cell index `h % m` for an `m`
//! fixed at construction. A hardware divider takes tens of cycles; the
//! Lemire–Kaser–Kurz "fastmod" (*Faster Remainder by Direct Computation*,
//! 2019) replaces it with two multiplications by a magic number computed
//! once: `M = ⌊(2⁶⁴ − 1)/m⌋ + 1 = ⌈2⁶⁴/m⌉`, then
//! `h % m = ⌊((M·h mod 2⁶⁴) · m) / 2⁶⁴⌋` and, for `m ≥ 2`,
//! `h / m = ⌊M·h / 2⁶⁴⌋`. Both are exact for every 32-bit `h` because
//! the 64-bit magic carries 32 bits more than `h` and `m` need.

/// `h % m` and `h / m` for 32-bit `h` by one precomputed reciprocal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastMod {
    /// The divisor, capped at `2³²`: every 32-bit `h` lies below a larger
    /// `m`, so `h % m = h = h % 2³²` there.
    m: u64,
    /// `⌈2⁶⁴/m⌉`; wraps to 0 for `m = 1`, where every remainder is 0 and
    /// the quotient is `h` itself.
    magic: u64,
}

impl FastMod {
    /// The reducer for divisor `m ≥ 1`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "cannot reduce modulo zero");
        let m = (m as u64).min(1 << 32);
        Self { m, magic: (u64::MAX / m).wrapping_add(1) }
    }

    /// `h % m`.
    #[inline]
    pub fn reduce(&self, h: u32) -> usize {
        let low = self.magic.wrapping_mul(u64::from(h));
        // The high word of a 64×64 product: below `m ≤ 2³²`.
        (((low as u128) * (self.m as u128)) >> 64) as usize
    }

    /// `n / m`.
    #[inline]
    pub fn quotient(&self, n: u32) -> usize {
        if self.magic == 0 {
            return n as usize; // m = 1
        }
        // The high word of a 64×32 product: at most `n`.
        (((self.magic as u128) * u128::from(n)) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomSource, Xoshiro256};

    const DIVISORS: [u64; 11] =
        [1, 2, 3, 63, 64, 65, 4_096, 131_072, (1 << 31) - 1, 1 << 31, u32::MAX as u64];

    fn hashes_around(m: u64) -> [u32; 8] {
        let near = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        [0, 1, near(m - 1), near(m), near(m + 1), 1 << 31, u32::MAX - 1, u32::MAX]
    }

    #[test]
    fn reduce_is_the_remainder_at_the_edges() {
        for m in DIVISORS {
            let r = FastMod::new(m as usize);
            for h in hashes_around(m) {
                assert_eq!(r.reduce(h) as u64, u64::from(h) % m, "{h} % {m}");
                assert_eq!(r.quotient(h) as u64, u64::from(h) / m, "{h} / {m}");
            }
        }
    }

    #[test]
    fn reduce_is_the_remainder_on_random_pairs() {
        let mut rng = Xoshiro256::new(0x00FA_570D);
        for i in 0..100_000u32 {
            // Half the divisors small, half anywhere below 2^32.
            let bound = if i % 2 == 0 { 1 << 16 } else { u64::from(u32::MAX) };
            let m = rng.next_range(1, bound + 1);
            let h = u32::try_from(rng.next_u64() >> 32).expect("a high word fits u32");
            let r = FastMod::new(m as usize);
            assert_eq!(r.reduce(h) as u64, u64::from(h) % m, "{h} % {m}");
            assert_eq!(r.quotient(h) as u64, u64::from(h) / m, "{h} / {m}");
        }
    }

    #[test]
    fn divisors_past_the_hash_range_leave_the_hash() {
        for m in [1u64 << 32, (1 << 32) + 1, 1 << 40] {
            let r = FastMod::new(m as usize);
            for h in hashes_around(u64::from(u32::MAX)) {
                assert_eq!(r.reduce(h), h as usize);
                assert_eq!(r.quotient(h), 0);
            }
        }
    }
}
