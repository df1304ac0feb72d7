//! Linear-counting Bitmap (Whang et al., 1990): `<bit, 1, F(x,y)=1>`.

use crate::{bitmap_mle, CellUpdate, CsmSpec, FixedSketch};
use she_hash::{FastMod, HashFamily, HashKey};

/// CSM spec for the Bitmap: `m` bits, one hash function.
#[derive(Debug, Clone)]
pub struct BitmapSpec {
    m: usize,
    cell_of: FastMod,
    family: HashFamily,
}

impl BitmapSpec {
    /// `m` bits hashed by a single function derived from `seed`.
    pub fn new(m: usize, seed: u32) -> Self {
        assert!(m > 0);
        Self { m, cell_of: FastMod::new(m), family: HashFamily::new(1, seed) }
    }

    /// The single-function hash family (shared with SHE-BM).
    #[inline]
    pub fn family(&self) -> &HashFamily {
        &self.family
    }
}

impl CsmSpec for BitmapSpec {
    fn name(&self) -> &'static str {
        "bitmap"
    }
    fn num_cells(&self) -> usize {
        self.m
    }
    #[inline]
    fn cell_bits(&self) -> u32 {
        1
    }
    fn k(&self) -> usize {
        1
    }
    type Row = u32;
    #[inline]
    fn hash_rows<K: HashKey + ?Sized>(&self, key: &K, first: usize, out: &mut [u32]) {
        for (h, row) in out.iter_mut().zip(first..) {
            *h = self.family.hash(row, key);
        }
    }
    #[inline]
    fn row_update(&self, _row: usize, hash: u32) -> CellUpdate {
        CellUpdate { index: self.cell_of.reduce(hash), operand: 1 }
    }
    fn apply(&self, _operand: u64, _old: u64) -> u64 {
        1
    }
}

/// A classic fixed-window linear-counting bitmap.
#[derive(Debug, Clone)]
pub struct Bitmap {
    inner: FixedSketch<BitmapSpec>,
}

impl Bitmap {
    /// `m` bits.
    pub fn new(m: usize, seed: u32) -> Self {
        Self { inner: FixedSketch::new(BitmapSpec::new(m, seed)) }
    }

    /// Sized from a memory budget in bytes.
    pub fn with_memory(bytes: usize, seed: u32) -> Self {
        Self::new((bytes * 8).max(1), seed)
    }

    /// Insert an item.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.inner.insert(key);
    }

    /// Maximum-likelihood cardinality estimate `-m ln(u/m)`.
    pub fn estimate(&self) -> f64 {
        bitmap_mle(self.inner.cells().count_zeros(), self.inner.spec().num_cells())
    }

    /// Memory footprint in bits.
    #[inline]
    pub fn memory_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.inner.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_cardinality() {
        let mut bm = Bitmap::new(1 << 16, 3);
        let c = 10_000u64;
        for i in 0..c {
            bm.insert(&i);
            bm.insert(&i); // duplicates must not inflate the estimate
        }
        let est = bm.estimate();
        let re = (est - c as f64).abs() / c as f64;
        assert!(re < 0.05, "estimate {est}, relative error {re}");
    }

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(Bitmap::new(1024, 0).estimate(), 0.0);
    }

    #[test]
    fn clear_resets_estimate() {
        let mut bm = Bitmap::new(4096, 0);
        for i in 0..500u64 {
            bm.insert(&i);
        }
        assert!(bm.estimate() > 0.0);
        bm.clear();
        assert_eq!(bm.estimate(), 0.0);
    }

    #[test]
    fn memory_sizing() {
        assert_eq!(Bitmap::with_memory(2, 0).memory_bits(), 16);
    }
}
