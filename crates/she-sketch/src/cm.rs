//! Count-Min sketch (Cormode & Muthukrishnan, 2005) in the paper's
//! single-array form: `<counter, k, F(x,y)=y+1>`.
//!
//! Section 2.1 describes CM as *one* `n`-counter array with `k` hash
//! functions (the conjoined variant, like a counting Bloom filter), which is
//! also the form SHE wraps — one cell array that group cleaning can sweep.

use crate::{CellUpdate, CsmSpec, FixedSketch};
use she_hash::{FastMod, HashFamily, HashKey};
use std::ops::ControlFlow;

/// CSM spec for the single-array Count-Min: `m` counters of `counter_bits`
/// bits, `k` hash functions.
#[derive(Debug, Clone)]
pub struct CountMinSpec {
    m: usize,
    cell_of: FastMod,
    counter_bits: u32,
    family: HashFamily,
}

impl CountMinSpec {
    /// `m` counters of `counter_bits` bits, `k` hash functions.
    pub fn new(m: usize, counter_bits: u32, k: usize, seed: u32) -> Self {
        assert!(m > 0 && k > 0);
        assert!((2..=64).contains(&counter_bits));
        Self { m, cell_of: FastMod::new(m), counter_bits, family: HashFamily::new(k, seed) }
    }

    /// The hash family (shared with SHE-CM's query path).
    #[inline]
    pub fn family(&self) -> &HashFamily {
        &self.family
    }
}

impl CsmSpec for CountMinSpec {
    fn name(&self) -> &'static str {
        "count-min"
    }
    fn num_cells(&self) -> usize {
        self.m
    }
    #[inline]
    fn cell_bits(&self) -> u32 {
        self.counter_bits
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
    fn apply(&self, _operand: u64, old: u64) -> u64 {
        let max = if self.counter_bits == 64 { u64::MAX } else { (1u64 << self.counter_bits) - 1 };
        old.saturating_add(1).min(max)
    }
}

/// A classic fixed-window Count-Min sketch (single-array form).
#[derive(Debug, Clone)]
pub struct CountMin {
    inner: FixedSketch<CountMinSpec>,
}

impl CountMin {
    /// `m` counters of `counter_bits` bits, `k` hash functions.
    pub fn new(m: usize, counter_bits: u32, k: usize, seed: u32) -> Self {
        Self { inner: FixedSketch::new(CountMinSpec::new(m, counter_bits, k, seed)) }
    }

    /// Sized from a memory budget in bytes with 32-bit counters.
    pub fn with_memory(bytes: usize, k: usize, seed: u32) -> Self {
        Self::new(((bytes * 8) / 32).max(k), 32, k, seed)
    }

    /// Insert an item (adds 1 to each hashed counter).
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.inner.insert(key);
    }

    /// Frequency estimate: minimum over the `k` hashed counters.
    ///
    /// Never underestimates (over the fixed window) — collisions only add.
    pub fn query<K: HashKey + ?Sized>(&self, key: &K) -> u64 {
        let cells = self.inner.cells();
        let mut min = u64::MAX;
        let _ = self.inner.spec().try_for_each_update(key, |u| {
            min = min.min(cells.get(u.index));
            ControlFlow::<()>::Continue(())
        });
        min
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
    fn never_underestimates() {
        let mut cm = CountMin::new(1 << 12, 32, 4, 1);
        for i in 0..2000u64 {
            for _ in 0..(i % 5 + 1) {
                cm.insert(&i);
            }
        }
        for i in 0..2000u64 {
            assert!(cm.query(&i) > i % 5, "underestimate for {i}");
        }
    }

    #[test]
    fn exact_when_sparse() {
        let mut cm = CountMin::new(1 << 16, 32, 4, 2);
        for _ in 0..7 {
            cm.insert(&42u64);
        }
        assert_eq!(cm.query(&42u64), 7);
        assert_eq!(cm.query(&43u64), 0);
    }

    #[test]
    fn counters_saturate() {
        let mut cm = CountMin::new(64, 4, 2, 3);
        for _ in 0..100 {
            cm.insert(&1u64);
        }
        assert_eq!(cm.query(&1u64), 15);
    }

    #[test]
    fn memory_sizing() {
        let cm = CountMin::with_memory(1 << 20, 8, 0);
        assert_eq!(cm.memory_bits(), (1 << 20) * 8 / 32 * 32);
    }
}
