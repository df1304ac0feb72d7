//! The Common Sketch Model: the `<C, K, F>` triple of Section 3.1.
//!
//! A [`CsmSpec`] describes a fixed-window algorithm entirely through:
//!
//! * the number and width of its cells (`C`),
//! * the hashed locations an item maps to (`K`), and
//! * the update function merging an item into a cell (`F`).
//!
//! Insertion is then algorithm-independent ([`FixedSketch::insert`]), and the
//! SHE framework reuses the *same* spec for its sliding-window engine — this
//! is what makes SHE "generic" in the paper's sense.

use crate::PackedArray;
use she_hash::HashKey;
use std::ops::{ControlFlow, Range};

/// Rows one lane-wise pass hashes: the length of every stack buffer of
/// rows, so no insert or point read allocates, whatever `k`.
pub const UPDATE_LANES: usize = 64;

/// The row ranges a key's `k` rows are hashed in, [`UPDATE_LANES`] at a
/// time, in row order.
#[inline]
pub fn row_chunks(k: usize) -> impl Iterator<Item = Range<usize>> {
    (0..k).step_by(UPDATE_LANES).map(move |first| first..k.min(first + UPDATE_LANES))
}

/// One hashed location plus the operand `F` needs there.
///
/// For a Bloom filter the operand is ignored (`F(x, y) = 1`); for
/// HyperLogLog it is the rank of `Hz(x)`; for MinHash it is the per-function
/// hash value whose minimum the cell tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellUpdate {
    /// Index of the hashed cell.
    pub index: usize,
    /// Operand handed to [`CsmSpec::apply`].
    pub operand: u64,
}

/// A fixed-window algorithm expressed as the paper's `<C, K, F>` triple.
pub trait CsmSpec {
    /// Human-readable algorithm name (used by the experiment harness).
    fn name(&self) -> &'static str;

    /// `M`: number of cells in the data structure.
    fn num_cells(&self) -> usize;

    /// Bit width of one cell (the `C` in `<C, K, F>`: 1 for bits, wider for
    /// counters).
    fn cell_bits(&self) -> u32;

    /// `K`: how many cells one insertion touches.
    fn k(&self) -> usize;

    /// The raw hash material of one row — what [`CsmSpec::hash_rows`]
    /// writes and [`CsmSpec::row_update`] turns into a cell update: one
    /// 32-bit hash for the one-hash-per-row specs (BF, BM, CM, MinHash),
    /// a pair where a row takes two (HLL's index and rank, the count
    /// sketch's location and sign).
    type Row: Copy + Default;

    /// Hash rows `first..first + out.len()` of `key` into `out`
    /// (`first + out.len() ≤ k()`).
    fn hash_rows<K: HashKey + ?Sized>(&self, key: &K, first: usize, out: &mut [Self::Row]);

    /// The cell update row `row` makes from its hash: the row→cell map,
    /// split from the hashing so a caller that already holds a key's rows
    /// (a shard feeding several sketches from one hash pass) applies them
    /// without hashing again.
    fn row_update(&self, row: usize, hash: Self::Row) -> CellUpdate;

    /// Visit `key`'s [`CsmSpec::k`] updates in row order until `f`
    /// breaks. The rows are hashed [`UPDATE_LANES`] at a time into a
    /// stack buffer, so the walk allocates nothing. Always inlined, so
    /// that `f`'s state stays in registers (an outlined walk cost SHE-CM's
    /// frozen read ~45 %).
    #[inline(always)]
    fn try_for_each_update<K: HashKey + ?Sized, B>(
        &self,
        key: &K,
        mut f: impl FnMut(CellUpdate) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut buf = [Self::Row::default(); UPDATE_LANES];
        for chunk in row_chunks(self.k()) {
            let rows = &mut buf[..chunk.len()];
            self.hash_rows(key, chunk.start, rows);
            for (row, &hash) in chunk.zip(rows.iter()) {
                f(self.row_update(row, hash))?;
            }
        }
        ControlFlow::Continue(())
    }

    /// `key`'s [`CsmSpec::k`] updates in row order, collected into `out`
    /// (cleared first) — for callers that want them as a list.
    fn updates<K: HashKey + ?Sized>(&self, key: &K, out: &mut Vec<CellUpdate>) {
        out.clear();
        let _ = self.try_for_each_update(key, |u| {
            out.push(u);
            ControlFlow::<()>::Continue(())
        });
    }

    /// `F(x, y)`: merge `operand` into the old cell value `old`.
    ///
    /// Must be idempotent-safe under SHE's re-insertion semantics (applying
    /// the same update twice gives the same cell value as applying it once)
    /// for one-sided-error algorithms; Count-Min deliberately is not, being
    /// a counter.
    fn apply(&self, operand: u64, old: u64) -> u64;
}

/// The generic fixed-window engine: a [`PackedArray`] driven by a spec.
///
/// This is the "original algorithm" of the paper. Query logic lives on the
/// concrete wrappers (e.g. [`crate::BloomFilter::contains`]) because each
/// task reads the cells differently.
#[derive(Debug, Clone)]
pub struct FixedSketch<S: CsmSpec> {
    spec: S,
    cells: PackedArray,
}

impl<S: CsmSpec> FixedSketch<S> {
    /// Build an empty sketch from its spec.
    pub fn new(spec: S) -> Self {
        let cells = PackedArray::new(spec.num_cells(), spec.cell_bits());
        Self { spec, cells }
    }

    /// The spec driving this sketch.
    #[inline]
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// Read access to the raw cells.
    #[inline]
    pub fn cells(&self) -> &PackedArray {
        &self.cells
    }

    /// Mutable access to the raw cells (used by tests and the Ideal replay).
    #[inline]
    pub fn cells_mut(&mut self) -> &mut PackedArray {
        &mut self.cells
    }

    /// Memory footprint in bits (cells only; fixed-window sketches carry no
    /// auxiliary state).
    #[inline]
    pub fn memory_bits(&self) -> usize {
        self.cells.memory_bits()
    }

    /// Insert one item: update all `K` hashed cells with `F`.
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        let _ = self.spec.try_for_each_update(key, |u| {
            let old = self.cells.get(u.index);
            self.cells.set(u.index, self.spec.apply(u.operand, old));
            ControlFlow::<()>::Continue(())
        });
    }

    /// Reset to the empty state.
    pub fn clear(&mut self) {
        self.cells.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy spec: 8-bit saturating counters, single hash.
    struct Toy {
        m: usize,
    }

    impl CsmSpec for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn num_cells(&self) -> usize {
            self.m
        }
        fn cell_bits(&self) -> u32 {
            8
        }
        fn k(&self) -> usize {
            1
        }
        type Row = u32;
        fn hash_rows<K: HashKey + ?Sized>(&self, key: &K, _first: usize, out: &mut [u32]) {
            out[0] = key.with_bytes(|b| she_hash::Bob32::new(0).hash(b));
        }
        fn row_update(&self, _row: usize, hash: u32) -> CellUpdate {
            CellUpdate { index: hash as usize % self.m, operand: 0 }
        }
        fn apply(&self, _operand: u64, old: u64) -> u64 {
            (old + 1).min(255)
        }
    }

    #[test]
    fn generic_insert_applies_f() {
        let mut s = FixedSketch::new(Toy { m: 16 });
        for _ in 0..5 {
            s.insert(&42u64);
        }
        let mut upd = Vec::new();
        s.spec().updates(&42u64, &mut upd);
        assert_eq!(s.cells().get(upd[0].index), 5);
        assert_eq!(s.memory_bits(), 16 * 8);
        s.clear();
        assert_eq!(s.cells().count_zeros(), 16);
    }

    #[test]
    fn bloom_and_count_min_updates_are_the_per_row_index() {
        use she_hash::HashFamily;
        // The lane-wise `updates` against the scalar `HashFamily::index`:
        // k = 8 is the served default, 70 crosses the `UPDATE_LANES`
        // chunk boundary with a ragged tail, and a long key takes the
        // per-seed fallback. m = 1000 is no power of two.
        use crate::{BloomSpec, CountMinSpec};
        let long = "a key longer than twelve bytes";
        for (k, seed) in [(8, 1), (70, 5)] {
            let family = HashFamily::new(k, seed);
            let bf = BloomSpec::new(1000, k, seed);
            let cm = CountMinSpec::new(1000, 32, k, seed);
            let (mut got_bf, mut got_cm) = (Vec::new(), Vec::new());
            for round in 0..50u64 {
                let expect: Vec<CellUpdate> = (0..k)
                    .map(|i| {
                        let index = if round % 2 == 0 {
                            family.index(i, &round, 1000)
                        } else {
                            family.index(i, long, 1000)
                        };
                        CellUpdate { index, operand: 1 }
                    })
                    .collect();
                if round % 2 == 0 {
                    bf.updates(&round, &mut got_bf);
                    cm.updates(&round, &mut got_cm);
                } else {
                    bf.updates(long, &mut got_bf);
                    cm.updates(long, &mut got_cm);
                }
                assert_eq!(got_bf, expect, "bloom k={k} round {round}");
                assert_eq!(got_cm, expect, "count-min k={k} round {round}");
            }
        }
    }

    #[test]
    fn saturation() {
        let mut s = FixedSketch::new(Toy { m: 1 });
        for _ in 0..1000 {
            s.insert(&1u64);
        }
        assert_eq!(s.cells().get(0), 255);
    }
}
