//! Hash primitives for the SHE reproduction.
//!
//! The paper uses BOBHash (Bob Jenkins' lookup3) for every sketch. This crate
//! provides:
//!
//! * [`Bob32`] — Jenkins lookup3 (`hashlittle`), implemented from the
//!   public-domain specification, seedable so that independent hash functions
//!   can be derived from one routine;
//! * [`Mix64`] — a splitmix64-style finalizer for fast hashing of integer
//!   keys (used where a 64-bit value is needed, e.g. HyperLogLog's `Hz`);
//! * [`HashFamily`] — `k` independent seeded hash functions with convenient
//!   range reduction, the building block of every multi-hash sketch;
//! * [`FastMod`] — `h % m` for 32-bit hashes by a reciprocal computed once,
//!   the cell-index reduction of every sketch's hot path;
//! * rank helpers ([`rank_of`]) used by HyperLogLog-style estimators;
//! * [`rng`] — deterministic in-tree PRNGs (SplitMix64, xoshiro256**) used
//!   by the workload generators and the seeded-loop test suites.
//!
//! All hashers are deterministic: the same `(seed, key)` pair always produces
//! the same value, which the experiment harness relies on for reproducibility.

mod bob;
mod family;
mod fastmod;
mod mix;
pub mod rng;

pub use bob::Bob32;
pub use family::HashFamily;
pub use fastmod::FastMod;
pub use mix::{mix64, Mix64};
pub use rng::{RandomSource, SplitMix64, Xoshiro256};

/// A key that can be fed to the hash primitives.
///
/// Sketches in this workspace hash raw byte strings; integer keys get a
/// fixed-width little-endian encoding so results do not depend on platform
/// endianness.
pub trait HashKey {
    /// Feed the key's canonical byte representation to `f`.
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R;
}

impl HashKey for [u8] {
    #[inline]
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self)
    }
}

impl HashKey for &[u8] {
    #[inline]
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self)
    }
}

impl<const N: usize> HashKey for [u8; N] {
    #[inline]
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self)
    }
}

impl HashKey for str {
    #[inline]
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.as_bytes())
    }
}

impl HashKey for &str {
    #[inline]
    fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.as_bytes())
    }
}

macro_rules! impl_hashkey_int {
    ($($t:ty),*) => {$(
        impl HashKey for $t {
            #[inline]
            fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
                f(&self.to_le_bytes())
            }
        }
    )*};
}

impl_hashkey_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

/// The HyperLogLog "rank": one plus the number of leading zeros of `v`
/// restricted to its low `bits` bits, capped so it fits the register width.
///
/// `rank_of(v, 32)` matches the paper's `ℓ_zero + 1` for 32-bit hash values:
/// a value whose top bit (of the 32) is set has rank 1; the all-zero value
/// saturates at `bits + 1`.
#[inline]
pub fn rank_of(v: u64, bits: u32) -> u8 {
    debug_assert!((1..=64).contains(&bits));
    let shifted = if bits == 64 { v } else { v & ((1u64 << bits) - 1) };
    let lz = (shifted << (64 - bits)).leading_zeros().min(bits);
    (lz + 1) as u8
}

/// Reduce a 64-bit hash to `[0, n)` without the modulo bias of `h % n` for
/// non-power-of-two `n` (Lemire's multiply-shift reduction).
#[inline]
pub fn reduce_range(h: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    (((h as u128) * (n as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_of_basics() {
        // Top bit of the 32-bit lane set => one leading zero? No: rank is
        // 1 + leading zeros, so top-bit-set means zero leading zeros => rank 1.
        assert_eq!(rank_of(0x8000_0000, 32), 1);
        assert_eq!(rank_of(0x4000_0000, 32), 2);
        assert_eq!(rank_of(0x0000_0001, 32), 32);
        // All-zero value saturates at bits + 1.
        assert_eq!(rank_of(0, 32), 33);
        assert_eq!(rank_of(0, 64), 65);
        assert_eq!(rank_of(u64::MAX, 64), 1);
    }

    #[test]
    fn rank_ignores_high_bits_outside_lane() {
        // Bits above the 32-bit lane must not affect the rank.
        assert_eq!(rank_of(0xFFFF_FFFF_0000_0001, 32), 32);
        assert_eq!(rank_of(0xdead_beef_8000_0000, 32), 1);
    }

    #[test]
    fn reduce_range_bounds() {
        for n in [1usize, 2, 3, 7, 64, 1000, 1 << 20] {
            for h in [0u64, 1, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
                assert!(reduce_range(h, n) < n);
            }
        }
        assert_eq!(reduce_range(u64::MAX, 1), 0);
    }

    #[test]
    fn reduce_range_is_roughly_uniform() {
        let n = 10;
        let mut buckets = [0u32; 10];
        for i in 0..100_000u64 {
            buckets[reduce_range(mix64(i), n)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b} out of range");
        }
    }

    #[test]
    fn hashkey_int_encoding_is_le() {
        0x0102_0304u32.with_bytes(|b| assert_eq!(b, &[4, 3, 2, 1]));
        "ab".with_bytes(|b| assert_eq!(b, b"ab"));
    }
}
