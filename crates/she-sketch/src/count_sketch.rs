//! Count sketch (Charikar, Chen, Farach-Colton 2002):
//! `<counter, k, F(x,y) = y ± 1>`.
//!
//! Not one of the paper's five showcases, but squarely inside the Common
//! Sketch Model — included to demonstrate the framework's genericity (the
//! paper: "a generic framework which can adapt common fixed window
//! algorithms"). Each item adds `sign_i(x)` to counter `h_i(x)`; the query
//! is the median of the sign-corrected counters. Unlike Count-Min the
//! error is two-sided, which exercises SHE's young-cell-inclusive query
//! strategy.

use crate::{CellUpdate, CsmSpec, FixedSketch};
use she_hash::{FastMod, HashFamily, HashKey};
use std::ops::ControlFlow;

/// Signed counters are stored as 32-bit two's complement inside the
/// packed cell array.
const CS_CELL_BITS: u32 = 32;

#[inline]
fn to_cell(v: i32) -> u64 {
    v as u32 as u64
}

#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the cell holds a 32-bit two's-complement counter in its low bits"
)]
fn from_cell(c: u64) -> i32 {
    c as u32 as i32
}

/// CSM spec for the count sketch: `m` signed counters, `k` (location,
/// sign) hash pairs.
#[derive(Debug, Clone)]
pub struct CountSketchSpec {
    m: usize,
    cell_of: FastMod,
    locs: HashFamily,
    signs: HashFamily,
}

impl CountSketchSpec {
    /// `m` counters, `k` hash pairs.
    pub fn new(m: usize, k: usize, seed: u32) -> Self {
        assert!(m > 0 && k > 0);
        Self {
            m,
            cell_of: FastMod::new(m),
            locs: HashFamily::new(k, seed),
            signs: HashFamily::new(k, seed ^ 0x00C0_FFEE),
        }
    }

    /// `+1` or `-1` for hash pair `i`.
    #[inline]
    pub fn sign<K: HashKey + ?Sized>(&self, i: usize, key: &K) -> i32 {
        if self.signs.hash(i, key) & 1 == 1 {
            1
        } else {
            -1
        }
    }

    /// Location for hash pair `i`.
    #[inline]
    pub fn location<K: HashKey + ?Sized>(&self, i: usize, key: &K) -> usize {
        self.cell_of.reduce(self.locs.hash(i, key))
    }
}

impl CsmSpec for CountSketchSpec {
    fn name(&self) -> &'static str {
        "count-sketch"
    }
    fn num_cells(&self) -> usize {
        self.m
    }
    fn cell_bits(&self) -> u32 {
        CS_CELL_BITS
    }
    fn k(&self) -> usize {
        self.locs.k()
    }
    /// `(h_i(key), s_i(key))`: the location hash and the sign hash.
    type Row = (u32, u32);
    fn hash_rows<K: HashKey + ?Sized>(&self, key: &K, first: usize, out: &mut [(u32, u32)]) {
        key.with_bytes(|b| {
            for (row, i) in out.iter_mut().zip(first..) {
                *row = (self.locs.hash(i, b), self.signs.hash(i, b));
            }
        });
    }
    fn row_update(&self, _row: usize, (loc, sign): (u32, u32)) -> CellUpdate {
        // Operand encodes the sign: 1 => +1, 0 => −1.
        CellUpdate { index: self.cell_of.reduce(loc), operand: u64::from(sign & 1) }
    }
    fn apply(&self, operand: u64, old: u64) -> u64 {
        let delta = if operand == 1 { 1i32 } else { -1i32 };
        to_cell(from_cell(old).saturating_add(delta))
    }
}

/// Median of a small value list (the count-sketch combiner, SHE-CS's
/// too): `0` for none, the mean of the middle two rounded toward zero for
/// an even count.
pub fn median_i64(vals: &mut [i64]) -> i64 {
    if vals.is_empty() {
        return 0;
    }
    vals.sort_unstable();
    let n = vals.len();
    if n % 2 == 1 {
        vals[n / 2]
    } else {
        (vals[n / 2 - 1] + vals[n / 2]) / 2
    }
}

/// A classic fixed-window count sketch.
#[derive(Debug, Clone)]
pub struct CountSketch {
    inner: FixedSketch<CountSketchSpec>,
}

impl CountSketch {
    /// `m` counters, `k` hash pairs.
    pub fn new(m: usize, k: usize, seed: u32) -> Self {
        Self { inner: FixedSketch::new(CountSketchSpec::new(m, k, seed)) }
    }

    /// Sized from a memory budget in bytes (32-bit counters).
    pub fn with_memory(bytes: usize, k: usize, seed: u32) -> Self {
        Self::new(((bytes * 8) / 32).max(k), k, seed)
    }

    /// Insert an item.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.inner.insert(key);
    }

    /// Frequency estimate: the median of the sign-corrected counters
    /// (two-sided error, unbiased).
    pub fn query<K: HashKey + ?Sized>(&self, key: &K) -> i64 {
        let cells = self.inner.cells();
        let mut vals = Vec::with_capacity(self.inner.spec().k());
        let _ = self.inner.spec().try_for_each_update(key, |u| {
            let c = i64::from(from_cell(cells.get(u.index)));
            vals.push(if u.operand == 1 { c } else { -c });
            ControlFlow::<()>::Continue(())
        });
        median_i64(&mut vals)
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
    fn signed_cell_roundtrip() {
        for v in [-5i32, -1, 0, 1, 12345, i32::MIN, i32::MAX] {
            assert_eq!(from_cell(to_cell(v)), v);
        }
    }

    #[test]
    fn median_combiner() {
        assert_eq!(median_i64(&mut [3, 1, 2]), 2);
        assert_eq!(median_i64(&mut [4, 1, 2, 3]), 2);
        assert_eq!(median_i64(&mut []), 0);
        assert_eq!(median_i64(&mut [-7]), -7);
    }

    #[test]
    fn estimates_frequencies_with_low_bias() {
        let mut cs = CountSketch::new(1 << 12, 5, 1);
        for i in 0..2_000u64 {
            for _ in 0..(i % 7 + 1) {
                cs.insert(&i);
            }
        }
        let mut total_err = 0i64;
        for i in 0..2_000u64 {
            let truth = (i % 7 + 1) as i64;
            total_err += (cs.query(&i) - truth).abs();
        }
        // σ per estimate ≈ sqrt(F2/m) ≈ 3; the median of 5 lands around 2.
        let mean_abs = total_err as f64 / 2_000.0;
        assert!(mean_abs < 3.5, "mean absolute error {mean_abs}");
    }

    #[test]
    fn absent_keys_estimate_near_zero() {
        let mut cs = CountSketch::new(1 << 12, 5, 2);
        for i in 0..3_000u64 {
            cs.insert(&i);
        }
        let mut sum = 0i64;
        for i in 0..1_000u64 {
            sum += cs.query(&(i + 1_000_000)).abs();
        }
        assert!(sum < 2_000, "absent-key noise {sum}");
    }

    #[test]
    fn two_sided_errors_occur() {
        // Count sketch (unlike Count-Min) may under-estimate: verify the
        // error really is two-sided on a crowded sketch.
        let mut cs = CountSketch::new(64, 3, 3);
        for i in 0..5_000u64 {
            cs.insert(&i);
        }
        let under = (0..200u64).filter(|k| cs.query(k) < 1).count();
        assert!(under > 0, "expected some under-estimates on a crowded sketch");
    }
}
