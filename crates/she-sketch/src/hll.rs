//! HyperLogLog (Flajolet et al., 2007): `<counter, 1, F(x,y)=max(rank, y)>`.
//!
//! Registers store the rank `ρ = 1 + leading-zeros` of a 32-bit hash, as in
//! the paper's C++ release (32-bit `Hz`, 5-bit registers). The estimator uses
//! the standard bias constant plus the small-range linear-counting
//! correction; SHE-HLL reuses [`hll_estimate_subset`] to estimate from only
//! the age-legal registers and scale back up to the full array.

use crate::{CellUpdate, CsmSpec, FixedSketch};
use she_hash::{rank_of, FastMod, HashFamily, HashKey};

/// The HyperLogLog bias-correction constant `α_m`.
pub fn hll_alpha(m: usize) -> f64 {
    match m {
        0..=16 => 0.673,
        17..=32 => 0.697,
        33..=64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// Raw-estimate + linear-counting correction over an arbitrary register
/// subset.
///
/// `registers` are the observed register values (rank, 0 = empty) of `k`
/// registers sampled from an array of `m_total`; the returned estimate is
/// for the full array (i.e. scaled by `m_total / k`). With `k == m_total`
/// this is the classic HLL estimator.
pub fn hll_estimate_subset(registers: impl Iterator<Item = u64>, m_total: usize) -> f64 {
    let mut k = 0usize;
    let mut zeros = 0usize;
    let mut sum = 0.0f64;
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a register holds a rank ≤ 65, far below i32::MAX"
    )]
    for r in registers {
        k += 1;
        if r == 0 {
            zeros += 1;
        }
        sum += 2.0f64.powi(-(r as i32));
    }
    if k == 0 {
        return 0.0;
    }
    // Raw estimate for the k-register sample, scaled to the full array:
    // α_k · k · m_total / Σ 2^{-ρ_j}  (the paper's Ĉ = c·k·(Σ2^{-ℓj})^{-1}·M).
    let raw = hll_alpha(k) * k as f64 * m_total as f64 / sum;
    // Small-range correction: within the sample, linear counting.
    let small_threshold = 2.5 * k as f64 * (m_total as f64 / k as f64);
    if raw <= small_threshold && zeros > 0 {
        let lc = (k as f64) * (k as f64 / zeros as f64).ln();
        return lc * m_total as f64 / k as f64;
    }
    raw
}

/// CSM spec for HyperLogLog: `m` registers of `reg_bits` bits.
#[derive(Debug, Clone)]
pub struct HllSpec {
    m: usize,
    register_of: FastMod,
    reg_bits: u32,
    hc: HashFamily,
    hz: HashFamily,
}

impl HllSpec {
    /// `m` registers of `reg_bits` bits (the paper uses 5), seeds derived
    /// from `seed`.
    pub fn new(m: usize, reg_bits: u32, seed: u32) -> Self {
        assert!(m > 0);
        assert!((4..=8).contains(&reg_bits), "HLL registers are 4..=8 bits");
        Self {
            m,
            register_of: FastMod::new(m),
            reg_bits,
            hc: HashFamily::new(1, seed),
            hz: HashFamily::new(1, seed ^ 0x5bd1_e995),
        }
    }

    /// Register-index hash (shared with SHE-HLL).
    #[inline]
    pub fn hc(&self) -> &HashFamily {
        &self.hc
    }

    /// The rank operand for `key`: `ρ(Hz(key))` capped to the register width.
    #[inline]
    pub fn rank<K: HashKey + ?Sized>(&self, key: &K) -> u64 {
        self.rank_of_hash(self.hz.hash(0, key))
    }

    /// `ρ(hz)` capped to the register width.
    #[inline]
    fn rank_of_hash(&self, hz: u32) -> u64 {
        let max = (1u64 << self.reg_bits) - 1;
        u64::from(rank_of(u64::from(hz), 32)).min(max)
    }
}

impl CsmSpec for HllSpec {
    fn name(&self) -> &'static str {
        "hyperloglog"
    }
    fn num_cells(&self) -> usize {
        self.m
    }
    fn cell_bits(&self) -> u32 {
        self.reg_bits
    }
    fn k(&self) -> usize {
        1
    }
    /// `(Hc(key), Hz(key))`: the register hash and the rank hash.
    type Row = (u32, u32);
    #[inline]
    fn hash_rows<K: HashKey + ?Sized>(&self, key: &K, _first: usize, out: &mut [(u32, u32)]) {
        for row in out {
            *row = key.with_bytes(|b| (self.hc.hash(0, b), self.hz.hash(0, b)));
        }
    }
    #[inline]
    fn row_update(&self, _row: usize, (hc, hz): (u32, u32)) -> CellUpdate {
        CellUpdate { index: self.register_of.reduce(hc), operand: self.rank_of_hash(hz) }
    }
    fn apply(&self, operand: u64, old: u64) -> u64 {
        operand.max(old)
    }
}

/// A classic fixed-window HyperLogLog.
#[derive(Debug, Clone)]
pub struct HyperLogLog {
    inner: FixedSketch<HllSpec>,
}

impl HyperLogLog {
    /// `m` registers of `reg_bits` bits.
    pub fn new(m: usize, reg_bits: u32, seed: u32) -> Self {
        Self { inner: FixedSketch::new(HllSpec::new(m, reg_bits, seed)) }
    }

    /// Sized from a memory budget in bytes (5-bit registers as in the paper).
    pub fn with_memory(bytes: usize, seed: u32) -> Self {
        Self::new(((bytes * 8) / 5).max(16), 5, seed)
    }

    /// Insert an item.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.inner.insert(key);
    }

    /// Cardinality estimate with bias and small-range corrections.
    pub fn estimate(&self) -> f64 {
        hll_estimate_subset(self.inner.cells().iter(), self.inner.spec().num_cells())
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
    fn estimates_large_cardinality() {
        let mut hll = HyperLogLog::new(1 << 12, 5, 1);
        let c = 200_000u64;
        for i in 0..c {
            hll.insert(&i);
            if i % 3 == 0 {
                hll.insert(&i); // duplicates are free
            }
        }
        let est = hll.estimate();
        let re = (est - c as f64).abs() / c as f64;
        // Theoretical σ ≈ 1.04/sqrt(4096) ≈ 1.6%; allow 4σ.
        assert!(re < 0.07, "estimate {est}, relative error {re}");
    }

    #[test]
    fn small_range_correction_kicks_in() {
        let mut hll = HyperLogLog::new(1 << 10, 5, 2);
        let c = 100u64;
        for i in 0..c {
            hll.insert(&i);
        }
        let est = hll.estimate();
        let re = (est - c as f64).abs() / c as f64;
        assert!(re < 0.15, "estimate {est}, relative error {re}");
    }

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(HyperLogLog::new(256, 5, 0).estimate(), 0.0);
    }

    #[test]
    fn subset_estimator_full_equals_classic() {
        // With the full register set, the subset estimator is the classic
        // HLL estimate — sanity-check scaling factors cancel.
        let mut hll = HyperLogLog::new(512, 6, 3);
        for i in 0..50_000u64 {
            hll.insert(&i);
        }
        let full = hll.estimate();
        let via_subset = hll_estimate_subset(hll.inner.cells().iter(), 512);
        assert_eq!(full, via_subset);
    }

    #[test]
    fn subset_estimator_half_sample_is_close() {
        let mut hll = HyperLogLog::new(1 << 12, 5, 4);
        let c = 300_000u64;
        for i in 0..c {
            hll.insert(&i);
        }
        // Estimate from only the even registers, scaled back to 4096.
        let regs: Vec<u64> =
            (0..1 << 12).filter(|i| i % 2 == 0).map(|i| hll.inner.cells().get(i)).collect();
        let est = hll_estimate_subset(regs.into_iter(), 1 << 12);
        let re = (est - c as f64).abs() / c as f64;
        assert!(re < 0.12, "estimate {est}, relative error {re}");
    }

    #[test]
    fn alpha_constants() {
        assert_eq!(hll_alpha(16), 0.673);
        assert_eq!(hll_alpha(32), 0.697);
        assert_eq!(hll_alpha(64), 0.709);
        assert!((hll_alpha(4096) - 0.7213 / (1.0 + 1.079 / 4096.0)).abs() < 1e-12);
    }

    #[test]
    fn rank_caps_at_register_width() {
        let spec = HllSpec::new(16, 5, 0);
        for i in 0..10_000u64 {
            assert!(spec.rank(&i) <= 31);
        }
    }
}
