//! SHE-CM: sliding-window frequency via Count-Min (Section 4.4).
//!
//! Insertion adds one to each of the `k` hashed counters (after
//! `CheckGroup`). The query takes the minimum over the hashed counters whose
//! age is at least `N` — young counters may have lost in-window increments
//! to cleaning, and using them would break Count-Min's
//! never-underestimates guarantee (§4.4). If every hashed counter is young
//! (rare for α ≥ 1), the query falls back to the plain minimum as a
//! best-effort answer.

use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{CountMinSpec, CsmSpec};
use std::ops::ControlFlow;

/// Sliding-window Count-Min sketch (hardware version of SHE).
///
/// ```
/// use she_core::SheCountMin;
///
/// let mut cm = SheCountMin::builder()
///     .window(8_192)
///     .memory_bytes(256 << 10)
///     .build();
/// // Key 7 recurs every 8 items: 1024 occurrences per window.
/// for i in 0..32_768u64 {
///     cm.insert(&(if i % 8 == 0 { 7 } else { i }));
/// }
/// let est = cm.query(&7u64);
/// assert!(est >= 1_024, "never underestimates in-window counts");
/// assert!(est < 3_000);
/// ```
#[derive(Debug, Clone)]
pub struct SheCountMin {
    engine: She<CountMinSpec>,
}

/// Builder for [`SheCountMin`] with the paper's defaults
/// (`k = 8`, `w = 64`, `α = 1`, 32-bit counters).
#[derive(Debug, Clone)]
pub struct SheCountMinBuilder {
    window: u64,
    memory_bits: usize,
    counter_bits: u32,
    k: usize,
    alpha: f64,
    group_cells: usize,
    seed: u32,
}

impl Default for SheCountMinBuilder {
    fn default() -> Self {
        Self {
            window: 1 << 16,
            memory_bits: 8 << 23, // 8 MB... scaled by callers; see builders
            counter_bits: 32,
            k: 8,
            alpha: 1.0,
            group_cells: 64,
            seed: 1,
        }
    }
}

impl SheCountMinBuilder {
    /// Sliding-window size `N` in items.
    pub fn window(mut self, n: u64) -> Self {
        self.window = n;
        self
    }

    /// Memory budget in bytes.
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.memory_bits = bytes * 8;
        self
    }

    /// Counter width in bits.
    pub fn counter_bits(mut self, bits: u32) -> Self {
        self.counter_bits = bits;
        self
    }

    /// Number of hash functions `k` (paper: 8 for SHE-CM).
    pub fn hash_functions(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// `α = (Tcycle − N)/N` (paper default 1 for SHE-CM).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Cells per group `w`.
    pub fn group_cells(mut self, w: usize) -> Self {
        self.group_cells = w;
        self
    }

    /// Hash seed.
    pub fn seed(mut self, seed: u32) -> Self {
        self.seed = seed;
        self
    }

    /// Build the sketch.
    pub fn build(self) -> SheCountMin {
        let m = (self.memory_bits / self.counter_bits as usize).max(self.k.max(self.group_cells));
        let cfg = SheConfig::builder()
            .window(self.window)
            .alpha(self.alpha)
            .group_cells(self.group_cells.min(m))
            .build();
        SheCountMin {
            engine: She::new(CountMinSpec::new(m, self.counter_bits, self.k, self.seed), cfg),
        }
    }
}

impl SheCountMin {
    /// Start building with the paper defaults.
    pub fn builder() -> SheCountMinBuilder {
        SheCountMinBuilder::default()
    }

    /// Insert an item at the next time step.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.engine.insert(key);
    }

    /// Estimated frequency of `key` within the sliding window.
    pub fn query<K: HashKey + ?Sized>(&mut self, key: &K) -> u64 {
        let mut mins = Mins::default();
        let _ = self.engine.try_for_each_update(key, |engine, u| {
            let mature = engine.check_mature(engine.group_of(u.index));
            mins.offer(engine.peek_cell(u.index), mature);
            ControlFlow::<()>::Continue(())
        });
        mins.estimate()
    }

    /// [`SheCountMin::insert`] of a key whose row hashes the caller already
    /// holds: `rows[..k]`, from a family this one's is a prefix of.
    #[inline]
    pub(crate) fn insert_rows(&mut self, rows: &[u32]) {
        self.engine.insert_rows(&rows[..self.engine.spec().k()]);
    }

    /// Estimated frequency, **frozen read**: answers exactly what
    /// [`SheCountMin::query`] would on the same state, without running
    /// `CheckGroup` — a counter whose group is due for cleaning reads as
    /// zero ([`She::peek_cell_effective`]), and maturity is observed
    /// purely. Nothing mutates, so two sketches with equal insert *and*
    /// mutating-query histories answer identically however often either
    /// is read frozen — the read-path mirror's bit-for-bit property. Equal
    /// insert histories alone are not enough (see
    /// [`crate::SheBloomFilter::contains_frozen`]).
    pub fn query_frozen<K: HashKey + ?Sized>(&self, key: &K) -> u64 {
        let engine = &self.engine;
        let mut mins = Mins::default();
        let _ = engine.spec().try_for_each_update(key, |u| {
            let mature = engine.observe_mature(engine.group_of(u.index));
            mins.offer(engine.peek_cell_effective(u.index), mature);
            ControlFlow::<()>::Continue(())
        });
        mins.estimate()
    }

    /// Time-mark signature of the groups `key` hashes to (see
    /// [`She::mark_sig`]): changes iff one of those groups' marks
    /// flips. Pure.
    pub fn mark_sig<K: HashKey + ?Sized>(&self, key: &K) -> u64 {
        self.engine.mark_sig(key)
    }

    /// Advance logical time without inserting.
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        self.engine.advance_time(dt);
    }

    /// The underlying generic engine.
    #[inline]
    pub fn engine(&self) -> &She<CountMinSpec> {
        &self.engine
    }

    /// Mutable engine access for the snapshot layer.
    pub(crate) fn engine_mut(&mut self) -> &mut She<CountMinSpec> {
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

/// The two minima a SHE-CM read keeps: over the mature counters, and
/// over all of them — the best-effort answer when every hashed counter
/// is young.
#[derive(Debug, Default)]
struct Mins {
    mature: Option<u64>,
    any: Option<u64>,
}

impl Mins {
    #[inline]
    fn offer(&mut self, v: u64, mature: bool) {
        self.any = Some(self.any.map_or(v, |m| m.min(v)));
        if mature {
            self.mature = Some(self.mature.map_or(v, |m| m.min(v)));
        }
    }

    #[inline]
    fn estimate(&self) -> u64 {
        self.mature.or(self.any).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_in_window_frequencies() {
        let window = 1u64 << 14;
        let mut cm = SheCountMin::builder().window(window).memory_bytes(1 << 20).seed(4).build();
        // Steady stream where key `i % 1024` recurs every 1024 items: each
        // key appears window/1024 = 16 times per window.
        for i in 0..4 * window {
            cm.insert(&(i % 1024));
        }
        let truth = (window / 1024) as f64;
        let mut sum_re = 0.0;
        for k in 0..1024u64 {
            let est = cm.query(&k) as f64;
            sum_re += (est - truth).abs() / truth;
        }
        let are = sum_re / 1024.0;
        assert!(are < 0.5, "average relative error {are}");
    }

    #[test]
    fn mature_counters_never_underestimate() {
        let window = 1u64 << 12;
        let mut cm = SheCountMin::builder().window(window).memory_bytes(1 << 20).build();
        // A heavy key with exactly 64 occurrences in the current window.
        for i in 0..2 * window {
            if i % (window / 64) == 0 {
                cm.insert(&u64::MAX);
            } else {
                cm.insert(&i);
            }
        }
        let est = cm.query(&u64::MAX);
        assert!(est >= 64, "underestimated heavy key: {est} < 64");
    }

    #[test]
    fn absent_key_estimates_small() {
        let window = 1u64 << 12;
        let mut cm = SheCountMin::builder().window(window).memory_bytes(1 << 20).build();
        for i in 0..2 * window {
            cm.insert(&i);
        }
        assert!(cm.query(&0xdead_beef_dead_beefu64) <= 4);
    }

    #[test]
    fn frozen_query_matches_mutating_query() {
        let window = 1u64 << 10;
        let mut a = SheCountMin::builder().window(window).memory_bytes(64 << 10).seed(9).build();
        let mut b = SheCountMin::builder().window(window).memory_bytes(64 << 10).seed(9).build();
        let mut x = 0xDEAD_BEEFu64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = x % 512;
            a.insert(&key);
            b.insert(&key);
            if i % 193 == 0 {
                for probe in [key, x % 2048] {
                    assert_eq!(
                        a.query_frozen(&probe),
                        b.query(&probe),
                        "probe {probe} at step {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn expired_heavy_key_fades() {
        let window = 1u64 << 12;
        let mut cm = SheCountMin::builder().window(window).memory_bytes(1 << 20).build();
        for _ in 0..1000 {
            cm.insert(&7u64);
        }
        // Two full windows of fresh traffic push the key far out.
        for i in 0..8 * window {
            cm.insert(&(i + 100));
        }
        let est = cm.query(&7u64);
        assert!(est < 100, "expired key still estimated at {est}");
    }
}
