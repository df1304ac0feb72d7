//! Fixed-window sketch algorithms under the paper's Common Sketch Model.
//!
//! Section 3.1 of the SHE paper characterizes a fixed-window algorithm as a
//! triple `<C, K, F>`: a cell type (bit or counter), a number of hashed
//! locations, and an update function applied independently to each hashed
//! cell. This crate provides:
//!
//! * [`PackedArray`] — a cell store with an arbitrary bit width per cell
//!   (1 bit for Bloom/Bitmap, 5–8 bits for HyperLogLog registers, 24/32 bits
//!   for MinHash values and Count-Min counters);
//! * the [`CsmSpec`] trait — a direct encoding of `<C, K, F>`;
//! * [`FixedSketch`] — the generic fixed-window engine driven by a spec;
//! * the five concrete algorithms the paper enhances:
//!   [`BloomFilter`], [`Bitmap`], [`HyperLogLog`], [`CountMin`], [`MinHash`].
//!
//! The concrete types double as the **Ideal goal** of the evaluation: feeding
//! exactly the items of a window into a fresh fixed-window sketch gives the
//! accuracy SHE aspires to match.

// No silent truncation outside tests: a narrowing `as` carries
// `#[expect(clippy::cast_possible_truncation, reason = "…")]` stating
// its bound.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

mod bitmap;
mod bloom;
mod cells;
mod cm;
mod count_sketch;
mod csm;
mod hll;
mod minhash;

pub use bitmap::{Bitmap, BitmapSpec};
pub use bloom::{BloomFilter, BloomSpec};
pub use cells::PackedArray;
pub use cm::{CountMin, CountMinSpec};
pub use count_sketch::{median_i64, CountSketch, CountSketchSpec};
pub use csm::{row_chunks, CellUpdate, CsmSpec, FixedSketch, UPDATE_LANES};
pub use hll::{hll_alpha, hll_estimate_subset, HllSpec, HyperLogLog};
pub use minhash::{MinHash, MinHashSpec, MINHASH_CELL_BITS};

/// Estimate cardinality from a bitmap observation by maximum likelihood:
/// `-n * ln(u / n)` for `u` zero bits out of `n` (Whang et al.).
///
/// Returns 0 for an all-zero... rather: an untouched bitmap (`zeros == n`)
/// estimates 0; a saturated bitmap (`zeros == 0`) clamps to the last
/// resolvable point `n * ln(n)`.
pub fn bitmap_mle(zeros: usize, n: usize) -> f64 {
    assert!(n > 0, "bitmap must have at least one bit");
    assert!(zeros <= n, "cannot observe more zeros than bits");
    if zeros == n {
        return 0.0;
    }
    let u = zeros.max(1) as f64; // saturated bitmap: clamp to the last resolvable point
    -(n as f64) * (u / n as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_mle_boundaries() {
        assert_eq!(bitmap_mle(100, 100), 0.0);
        let sat = bitmap_mle(0, 100);
        assert!((sat - 100.0 * (100.0f64).ln()).abs() < 1e-9);
        // Monotone: fewer zeros => larger estimate.
        assert!(bitmap_mle(10, 100) > bitmap_mle(50, 100));
    }

    #[test]
    fn bitmap_mle_matches_expectation() {
        // If c distinct items hash into n bits, E[zeros] = n (1 - 1/n)^c,
        // so mle(E[zeros]) ≈ c for c << n ln n.
        let n = 10_000usize;
        let c = 3_000usize;
        let expected_zeros = (n as f64) * (1.0 - 1.0 / n as f64).powi(c as i32);
        let est = bitmap_mle(expected_zeros.round() as usize, n);
        let re = (est - c as f64).abs() / c as f64;
        assert!(re < 0.02, "relative error {re}");
    }
}
