//! MinHash (Broder, 1997): `<counter, m, F(x,y)=min(h_i(x), y)>`.
//!
//! `m` hash functions, one minimum tracked per function; the Jaccard
//! similarity of two sets is estimated as the fraction of positions whose
//! minima agree. Per the paper's setup, hash outputs are 24-bit integers.
//!
//! Cell encoding: a cell value of `0` means "empty"; a non-empty cell stores
//! `hash + 1`. This keeps "empty" distinguishable inside SHE's zero-reset
//! group cleaning.

use crate::{CellUpdate, CsmSpec, FixedSketch};
use she_hash::{HashFamily, HashKey};

/// Bits per MinHash cell (24-bit hash outputs + the empty sentinel).
pub const MINHASH_CELL_BITS: u32 = 25;

const HASH_MASK: u32 = (1 << 24) - 1;

/// CSM spec for MinHash: `m` cells, each owned by its own hash function;
/// every insertion updates all `m`.
#[derive(Debug, Clone)]
pub struct MinHashSpec {
    family: HashFamily,
}

impl MinHashSpec {
    /// `m` hash functions / cells, derived from `seed`.
    pub fn new(m: usize, seed: u32) -> Self {
        assert!(m > 0);
        Self { family: HashFamily::new(m, seed) }
    }

    /// The hash family, one function per row.
    #[inline]
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// A row's operand `(h mod 2^24) + 1` from its raw hash `h` — the
    /// one definition of what a row offers its cell, shared by
    /// [`CsmSpec::row_update`] and SHE-MH's row-wise insert.
    #[inline]
    pub fn operand(h: u32) -> u32 {
        (h & HASH_MASK) + 1
    }
}

impl CsmSpec for MinHashSpec {
    fn name(&self) -> &'static str {
        "minhash"
    }
    fn num_cells(&self) -> usize {
        self.family.k()
    }
    #[inline]
    fn cell_bits(&self) -> u32 {
        MINHASH_CELL_BITS
    }
    fn k(&self) -> usize {
        self.family.k()
    }
    type Row = u32;
    /// One lane-wise pass over the row seeds (`she_hash::Bob32::hash_seeds`).
    #[inline]
    fn hash_rows<K: HashKey + ?Sized>(&self, key: &K, first: usize, out: &mut [u32]) {
        self.family.hash_range(first, key, out);
    }
    #[inline]
    fn row_update(&self, row: usize, hash: u32) -> CellUpdate {
        CellUpdate { index: row, operand: u64::from(Self::operand(hash)) }
    }
    fn apply(&self, operand: u64, old: u64) -> u64 {
        if old == 0 {
            operand
        } else {
            operand.min(old)
        }
    }
}

/// A classic fixed-window MinHash signature.
#[derive(Debug, Clone)]
pub struct MinHash {
    inner: FixedSketch<MinHashSpec>,
}

impl MinHash {
    /// `m` hash functions. Two signatures meant to be compared must share
    /// the same `seed`.
    pub fn new(m: usize, seed: u32) -> Self {
        Self { inner: FixedSketch::new(MinHashSpec::new(m, seed)) }
    }

    /// Sized from a memory budget in bytes.
    pub fn with_memory(bytes: usize, seed: u32) -> Self {
        Self::new(((bytes * 8) / MINHASH_CELL_BITS as usize).max(1), seed)
    }

    /// Insert an item into the signature.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.inner.insert(key);
    }

    /// Estimated Jaccard similarity with `other`: the fraction of positions
    /// whose minima agree (positions empty on both sides are skipped).
    pub fn similarity(&self, other: &MinHash) -> f64 {
        let m = self.inner.spec().num_cells();
        assert_eq!(m, other.inner.spec().num_cells(), "signature sizes differ");
        let mut used = 0usize;
        let mut matches = 0usize;
        for i in 0..m {
            let a = self.inner.cells().get(i);
            let b = other.inner.cells().get(i);
            if a == 0 && b == 0 {
                continue;
            }
            used += 1;
            if a == b {
                matches += 1;
            }
        }
        if used == 0 {
            0.0
        } else {
            matches as f64 / used as f64
        }
    }

    /// Number of hash functions / cells.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.inner.spec().num_cells()
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

    fn jaccard_streams(m: usize, shared: u64, only_a: u64, only_b: u64) -> (f64, f64) {
        let mut a = MinHash::new(m, 7);
        let mut b = MinHash::new(m, 7);
        for i in 0..shared {
            a.insert(&i);
            b.insert(&i);
        }
        for i in 0..only_a {
            a.insert(&(1_000_000 + i));
        }
        for i in 0..only_b {
            b.insert(&(2_000_000 + i));
        }
        let truth = shared as f64 / (shared + only_a + only_b) as f64;
        (a.similarity(&b), truth)
    }

    #[test]
    fn identical_sets_have_similarity_one() {
        let (est, truth) = jaccard_streams(128, 5000, 0, 0);
        assert_eq!(truth, 1.0);
        assert_eq!(est, 1.0);
    }

    #[test]
    fn disjoint_sets_have_similarity_near_zero() {
        let (est, _) = jaccard_streams(256, 0, 5000, 5000);
        assert!(est < 0.05, "estimate {est}");
    }

    #[test]
    fn half_overlap() {
        let (est, truth) = jaccard_streams(512, 4000, 2000, 2000);
        assert!((est - truth).abs() < 0.08, "estimate {est} truth {truth}");
    }

    #[test]
    fn empty_signatures_similarity_zero() {
        let a = MinHash::new(64, 0);
        let b = MinHash::new(64, 0);
        assert_eq!(a.similarity(&b), 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_sizes_panic() {
        let a = MinHash::new(64, 0);
        let b = MinHash::new(32, 0);
        let _ = a.similarity(&b);
    }

    #[test]
    fn order_and_duplicates_do_not_matter() {
        let mut a = MinHash::new(128, 3);
        let mut b = MinHash::new(128, 3);
        for i in 0..1000u64 {
            a.insert(&i);
        }
        for i in (0..1000u64).rev() {
            b.insert(&i);
            b.insert(&i);
        }
        assert_eq!(a.similarity(&b), 1.0);
    }

    #[test]
    fn updates_and_operands_are_the_per_row_hash() {
        // The row-hash definition, spelled out against the scalar family:
        // 70 rows crosses the `UPDATE_LANES` chunk boundary with a ragged
        // tail, and a long key takes the per-seed fallback.
        let (m, seed) = (70, 5);
        let spec = MinHashSpec::new(m, seed);
        let family = HashFamily::new(m, seed);
        let long = "a key longer than twelve bytes";
        let mut ups = Vec::new();
        let mut rows = vec![0u32; m];
        for round in 0..50u64 {
            let expect = |i: usize| {
                let h = if round % 2 == 0 { family.hash(i, &round) } else { family.hash(i, long) };
                u64::from(h & HASH_MASK) + 1
            };
            if round % 2 == 0 {
                spec.updates(&round, &mut ups);
                spec.hash_rows(&round, 0, &mut rows);
            } else {
                spec.updates(long, &mut ups);
                spec.hash_rows(long, 0, &mut rows);
            }
            assert_eq!(ups.len(), m);
            for (i, u) in ups.iter().enumerate() {
                assert_eq!((u.index, u.operand), (i, expect(i)), "round {round} row {i}");
                assert_eq!(u64::from(MinHashSpec::operand(rows[i])), expect(i));
            }
        }
    }

    #[test]
    fn signature_cells_match_a_scalar_replay() {
        // The fixed-window signature is unchanged by the lane-wise
        // `updates`: every cell is the minimum of the per-row hashes.
        let (m, seed) = (37, 3);
        let mut mh = MinHash::new(m, seed);
        let family = HashFamily::new(m, seed);
        let mut expect = vec![0u64; m];
        for key in 0..500u64 {
            mh.insert(&key);
            for (i, e) in expect.iter_mut().enumerate() {
                let op = u64::from(family.hash(i, &key) & HASH_MASK) + 1;
                *e = if *e == 0 { op } else { op.min(*e) };
            }
        }
        assert_eq!(mh.inner.cells().iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn memory_sizing() {
        let mh = MinHash::with_memory(1000, 0);
        assert_eq!(mh.num_hashes(), 8000 / MINHASH_CELL_BITS as usize);
    }
}
