//! SHE-HLL: sliding-window cardinality via HyperLogLog (Section 4.3).
//!
//! Each HyperLogLog register is its own group (`w = 1`, per §4.3). Insertion
//! applies `F(x, y) = max(ρ(Hz(x)), y)` to one register after `CheckGroup`.
//! The query keeps the registers whose age is legal (`≥ βN`) and feeds them
//! to the subset estimator `Ĉ = α_k · k · M / Σ 2^{-ℓ_j}` (the paper's
//! `Ĉ = c·k·(Σ2^{-ℓj})^{-1}·M`), including the standard small-range
//! correction.

use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{hll_estimate_subset, CsmSpec, HllSpec};

/// Sliding-window HyperLogLog (hardware version of SHE).
///
/// ```
/// use she_core::SheHyperLogLog;
///
/// let mut hll = SheHyperLogLog::builder()
///     .window(65_536)
///     .memory_bytes(8 << 10)
///     .build();
/// for i in 0..200_000u64 {
///     hll.insert(&i);
/// }
/// let est = hll.estimate();
/// assert!((est - 65_536.0).abs() / 65_536.0 < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct SheHyperLogLog {
    engine: She<HllSpec>,
}

/// Builder for [`SheHyperLogLog`] with the paper's defaults
/// (`w = 1`, `α = 0.2`, 5-bit registers, `N = 2^21`).
#[derive(Debug, Clone)]
pub struct SheHyperLogLogBuilder {
    window: u64,
    memory_bits: usize,
    reg_bits: u32,
    alpha: f64,
    beta: f64,
    seed: u32,
}

impl Default for SheHyperLogLogBuilder {
    fn default() -> Self {
        Self {
            window: 1 << 21,
            memory_bits: 8 << 13, // 8 KB
            reg_bits: 5,
            alpha: 0.2,
            beta: 0.9,
            seed: 1,
        }
    }
}

impl SheHyperLogLogBuilder {
    /// Sliding-window size `N` in items.
    pub fn window(mut self, n: u64) -> Self {
        self.window = n;
        self
    }

    /// Memory budget in bytes (register payload; marks come on top).
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.memory_bits = bytes * 8;
        self
    }

    /// Register width in bits (paper: 5).
    pub fn register_bits(mut self, bits: u32) -> Self {
        self.reg_bits = bits;
        self
    }

    /// `α = (Tcycle − N)/N`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Legal-age fraction `β`.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Hash seed.
    pub fn seed(mut self, seed: u32) -> Self {
        self.seed = seed;
        self
    }

    /// Build the sketch.
    pub fn build(self) -> SheHyperLogLog {
        let m = (self.memory_bits / self.reg_bits as usize).max(16);
        let cfg = SheConfig::builder()
            .window(self.window)
            .alpha(self.alpha)
            .group_cells(1) // w = 1 per §4.3
            .beta(self.beta)
            .build();
        SheHyperLogLog { engine: She::new(HllSpec::new(m, self.reg_bits, self.seed), cfg) }
    }
}

impl SheHyperLogLog {
    /// Start building with the paper defaults.
    pub fn builder() -> SheHyperLogLogBuilder {
        SheHyperLogLogBuilder::default()
    }

    /// Insert an item at the next time step.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.engine.insert(key);
    }

    /// Estimated cardinality of the sliding window.
    pub fn estimate(&mut self) -> f64 {
        let beta_n = self.engine.config().beta * self.engine.config().window as f64;
        let m = self.engine.spec().num_cells();
        let mut legal = Vec::with_capacity(m);
        self.engine.for_each_group(
            |_| {},
            |g| {
                if (g.age() as f64) >= beta_n {
                    legal.extend(g.cells());
                }
            },
        );
        hll_estimate_subset(legal.into_iter(), m)
    }

    /// Multi-window query: estimate the cardinality of the last `n` items
    /// for any `n < Tcycle` (the HLL analogue of
    /// [`crate::SheBitmap::estimate_at`]): registers whose age is within
    /// `tolerance` of `n` record (almost exactly) the last `n` items; the
    /// subset estimator scales their harmonic mean to the full array.
    pub fn estimate_at(&mut self, n: u64, tolerance: f64) -> f64 {
        assert!(n > 0 && tolerance >= 0.0);
        assert!(
            n < self.engine.config().t_cycle,
            "query window {n} must be below Tcycle {}",
            self.engine.config().t_cycle
        );
        let m = self.engine.spec().num_cells();
        let lo = n as f64 * (1.0 - tolerance);
        let hi = n as f64 * (1.0 + tolerance);
        let mut legal = Vec::new();
        self.engine.for_each_group(
            |_| {},
            |g| {
                if (g.age() as f64) >= lo && (g.age() as f64) <= hi {
                    // audit:allow(growth): at most M registers — the groups partition the M-cell array
                    legal.extend(g.cells());
                }
            },
        );
        hll_estimate_subset(legal.into_iter(), m)
    }

    /// Advance logical time without inserting.
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        self.engine.advance_time(dt);
    }

    /// The underlying generic engine.
    #[inline]
    pub fn engine(&self) -> &She<HllSpec> {
        &self.engine
    }

    /// Mutable engine access for the snapshot layer.
    pub(crate) fn engine_mut(&mut self) -> &mut She<HllSpec> {
        &mut self.engine
    }

    /// Current logical time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.engine.now()
    }

    /// Memory footprint in bits.
    #[inline]
    pub fn memory_bits(&self) -> usize {
        self.engine.memory_bits()
    }

    /// Reset to empty at time zero.
    pub fn clear(&mut self) {
        self.engine.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle sweep — the per-cell loop the estimators ran before
    /// group views: check every register's group (`w = 1`), then read its
    /// age and value. Returns the legal registers in index order.
    fn per_cell_legal(hll: &mut SheHyperLogLog, legal: impl Fn(f64) -> bool) -> Vec<u64> {
        let e = hll.engine_mut();
        (0..e.num_groups())
            .filter_map(|gid| {
                e.check_group(gid);
                legal(e.group_age(gid) as f64).then(|| e.peek_cell(gid))
            })
            .collect()
    }

    #[test]
    fn group_sweep_is_bit_for_bit_the_per_cell_sweep() {
        use crate::SnapshotState;
        use she_hash::{RandomSource, Xoshiro256};

        let window = 300u64;
        let b = SheHyperLogLog::builder().window(window).memory_bytes(200).alpha(0.5).seed(4);
        // `pair` = [fast, oracle]; `other` is a second stream to merge.
        let (mut pair, mut other) = ([b.clone().build(), b.clone().build()], b.build());
        let cfg = *other.engine().config();
        let m = other.engine().spec().num_cells();
        let mut rng = Xoshiro256::new(0x4119);
        let mut saved = other.save_snapshot();
        for step in 0..6 * window {
            let key = rng.next_range(0, 4 * window);
            let op = rng.next_below(48);
            other.insert(&(key + 1));
            if op == 4 {
                saved = pair[0].save_snapshot();
            }
            for s in &mut pair {
                match op {
                    0 => s.advance_time(key % (2 * cfg.t_cycle)),
                    1 => s.load_snapshot(&saved).expect("load"),
                    2 => s.merge_snapshot(&other.save_snapshot()).expect("merge"),
                    3 if key.is_multiple_of(4) => s.clear(),
                    4 => {}
                    _ => s.insert(&key),
                }
            }
            let [fast, oracle] = &mut pair;
            let beta_n = cfg.beta * cfg.window as f64;
            let want = hll_estimate_subset(per_cell_legal(oracle, |a| a >= beta_n).into_iter(), m);
            assert_eq!(fast.estimate().to_bits(), want.to_bits(), "step {step}");
            let n = 1 + key % (cfg.t_cycle - 1);
            let (lo, hi) = (n as f64 * 0.75, n as f64 * 1.25);
            let legal = per_cell_legal(oracle, |a| a >= lo && a <= hi);
            let want = hll_estimate_subset(legal.into_iter(), m);
            assert_eq!(fast.estimate_at(n, 0.25).to_bits(), want.to_bits(), "step {step}: n {n}");
            assert_eq!(fast.save_snapshot(), oracle.save_snapshot(), "step {step}: snapshot bytes");
        }
    }

    #[test]
    fn estimates_window_cardinality() {
        let window = 1u64 << 16;
        let mut hll =
            SheHyperLogLog::builder().window(window).memory_bytes(8 << 10).seed(2).build();
        for i in 0..5 * window {
            hll.insert(&i);
        }
        let est = hll.estimate();
        let re = (est - window as f64).abs() / window as f64;
        // 8 KB of 5-bit regs = 13k registers; σ ≈ 1%. Aged regs add bias
        // bounded by αT/4C = 5% (Eq. 4). Allow 15%.
        assert!(re < 0.15, "estimate {est}, relative error {re}");
    }

    #[test]
    fn skewed_duplicates_do_not_inflate() {
        let window = 1u64 << 16;
        let mut hll = SheHyperLogLog::builder().window(window).memory_bytes(4 << 10).build();
        // 8 copies of each key: window cardinality = window / 8.
        for i in 0..4 * window {
            hll.insert(&(i / 8));
        }
        let truth = window as f64 / 8.0;
        let est = hll.estimate();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.2, "estimate {est} truth {truth} re {re}");
    }

    #[test]
    fn empty_estimates_zero() {
        let mut hll = SheHyperLogLog::builder().build();
        assert_eq!(hll.estimate(), 0.0);
    }

    #[test]
    fn estimate_at_tracks_sub_windows() {
        let window = 1u64 << 15;
        let mut hll = SheHyperLogLog::builder()
            .window(window)
            .memory_bytes(16 << 10)
            .alpha(0.5)
            .seed(6)
            .build();
        for i in 0..5 * window {
            hll.insert(&i); // distinct stream: F(n) = n
        }
        for frac in [0.5f64, 1.0, 1.4] {
            let n = (window as f64 * frac) as u64;
            let est = hll.estimate_at(n, 0.25);
            let re = (est - n as f64).abs() / n as f64;
            assert!(re < 0.35, "n={n}: estimate {est}, re {re}");
        }
    }

    #[test]
    fn registers_are_their_own_groups() {
        let hll = SheHyperLogLog::builder().memory_bytes(1 << 10).build();
        assert_eq!(hll.engine().num_groups(), hll.engine().spec().num_cells());
    }
}
