//! Bloom filter (Bloom, 1970): `<bit, k, F(x,y)=1>`.

use crate::{CellUpdate, CsmSpec, FixedSketch};
use she_hash::{FastMod, HashFamily, HashKey};
use std::ops::ControlFlow;

/// CSM spec for a Bloom filter: an `m`-bit array with `k` hash functions.
#[derive(Debug, Clone)]
pub struct BloomSpec {
    m: usize,
    cell_of: FastMod,
    family: HashFamily,
}

impl BloomSpec {
    /// `m` bits, `k` hash functions, derived from `seed`.
    pub fn new(m: usize, k: usize, seed: u32) -> Self {
        assert!(m > 0 && k > 0);
        Self { m, cell_of: FastMod::new(m), family: HashFamily::new(k, seed) }
    }

    /// The hash family (shared with SHE-BF's query path).
    #[inline]
    pub fn family(&self) -> &HashFamily {
        &self.family
    }
}

impl CsmSpec for BloomSpec {
    fn name(&self) -> &'static str {
        "bloom"
    }
    fn num_cells(&self) -> usize {
        self.m
    }
    #[inline]
    fn cell_bits(&self) -> u32 {
        1
    }
    fn k(&self) -> usize {
        self.family.k()
    }
    type Row = u32;
    #[inline]
    fn hash_rows<K: HashKey + ?Sized>(&self, key: &K, first: usize, out: &mut [u32]) {
        self.family.hash_range(first, key, out);
    }
    #[inline]
    fn row_update(&self, _row: usize, hash: u32) -> CellUpdate {
        CellUpdate { index: self.cell_of.reduce(hash), operand: 1 }
    }
    fn apply(&self, _operand: u64, _old: u64) -> u64 {
        1
    }
}

/// A classic fixed-window Bloom filter.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    inner: FixedSketch<BloomSpec>,
}

impl BloomFilter {
    /// `m` bits, `k` hash functions.
    pub fn new(m: usize, k: usize, seed: u32) -> Self {
        Self { inner: FixedSketch::new(BloomSpec::new(m, k, seed)) }
    }

    /// Sized from a memory budget in bytes.
    pub fn with_memory(bytes: usize, k: usize, seed: u32) -> Self {
        Self::new((bytes * 8).max(k), k, seed)
    }

    /// Insert an item.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.inner.insert(key);
    }

    /// Membership query: true iff all `k` hashed bits are set.
    pub fn contains<K: HashKey + ?Sized>(&self, key: &K) -> bool {
        let cells = self.inner.cells();
        let found = self.inner.spec().try_for_each_update(key, |u| {
            if cells.get(u.index) == 1 {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        found.is_continue()
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

    /// Theoretical false-positive rate after `n` distinct insertions:
    /// `(1 - e^{-kn/m})^k`.
    pub fn theoretical_fpr(&self, n: usize) -> f64 {
        let m = self.inner.spec().num_cells() as f64;
        let k = self.inner.spec().k() as f64;
        (1.0 - (-k * n as f64 / m).exp()).powf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::new(1 << 14, 4, 1);
        for i in 0..1000u64 {
            bf.insert(&i);
        }
        for i in 0..1000u64 {
            assert!(bf.contains(&i), "false negative on {i}");
        }
    }

    #[test]
    fn fpr_close_to_theory() {
        let mut bf = BloomFilter::new(1 << 14, 4, 7);
        let n = 2000;
        for i in 0..n as u64 {
            bf.insert(&i);
        }
        let mut fp = 0;
        let probes = 20_000;
        for i in 0..probes as u64 {
            if bf.contains(&(i + 1_000_000)) {
                fp += 1;
            }
        }
        let fpr = fp as f64 / probes as f64;
        let theory = bf.theoretical_fpr(n);
        assert!((fpr - theory).abs() < 3.0 * theory.max(0.001), "fpr={fpr} theory={theory}");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bf = BloomFilter::new(1024, 3, 0);
        for i in 0..100u64 {
            assert!(!bf.contains(&i));
        }
    }

    #[test]
    fn clear_empties() {
        let mut bf = BloomFilter::new(1024, 3, 0);
        bf.insert(&5u64);
        assert!(bf.contains(&5u64));
        bf.clear();
        assert!(!bf.contains(&5u64));
    }

    #[test]
    fn memory_sizing() {
        let bf = BloomFilter::with_memory(128, 8, 0);
        assert_eq!(bf.memory_bits(), 1024);
    }
}
