//! SHE-CM: sliding-window frequency via Count-Min (Section 4.4).
//!
//! Insertion adds one to each of the `k` hashed counters (after
//! `CheckGroup`). The query takes the minimum over the hashed counters whose
//! age is at least `N` — young counters may have lost in-window increments
//! to cleaning, and using them would break Count-Min's
//! never-underestimates guarantee (§4.4). If every hashed counter is young
//! (rare for α ≥ 1), the query falls back to the plain minimum as a
//! best-effort answer. A mutating read is the frozen read plus the
//! cleaning of the due groups of its `k` rows (`She::check_rows`).

use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{CountMinSpec, CsmSpec};

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
        let (estimate, due) = self.read(key);
        if due {
            self.engine.check_rows(key, self.engine.spec().k());
        }
        estimate
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
    /// zero, and maturity is observed purely. Nothing mutates, so two
    /// sketches with equal insert *and* mutating-query histories answer
    /// identically however often either is read frozen — the read-path
    /// mirror's bit-for-bit property. Equal insert histories alone are not
    /// enough (see
    /// [`crate::SheBloomFilter::contains_frozen`]).
    pub fn query_frozen<K: HashKey + ?Sized>(&self, key: &K) -> u64 {
        self.read(key).0
    }

    /// Both frequency reads ([`She::read_rows`]): the minimum over the
    /// mature rows, else over all rows (every counter young), and whether
    /// a row's group is due.
    #[inline(always)]
    fn read<K: HashKey + ?Sized>(&self, key: &K) -> (u64, bool) {
        let (mut due, mut mature, mut mature_min, mut any_min) = (false, false, u64::MAX, u64::MAX);
        self.engine.read_rows(key, |_, r| {
            // A young counter offers u64::MAX to the mature minimum.
            mature_min = mature_min.min(r.value | u64::from(r.mature).wrapping_sub(1));
            any_min = any_min.min(r.value);
            (due, mature) = (due | r.due, mature | r.mature);
        });
        (if mature { mature_min } else { any_min }, due)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{assert_pass_is_the_walk, PassOracle};
    use std::ops::ControlFlow;

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

    /// The per-row walk the pass replaced: per row, `CheckGroup` (or, for
    /// the frozen read, a due group's counter read as zero), then
    /// maturity, then the counter, into the minimum over the mature rows
    /// and the one over all rows.
    impl PassOracle for SheCountMin {
        type Spec = CountMinSpec;
        fn she(&self) -> &She<CountMinSpec> {
            &self.engine
        }
        fn insert_key(&mut self, key: u64) {
            self.insert(&key);
        }
        fn advance(&mut self, dt: u64) {
            self.advance_time(dt);
        }
        fn clear_all(&mut self) {
            self.clear();
        }
        fn pass(&mut self, key: u64, mutating: bool) -> u64 {
            if mutating {
                self.query(&key)
            } else {
                self.query_frozen(&key)
            }
        }
        fn walk(&mut self, key: u64, mutating: bool) -> u64 {
            let (mut mature, mut any) = (None::<u64>, None::<u64>);
            let mut offer = |v: u64, is_mature: bool| {
                any = Some(any.map_or(v, |m| m.min(v)));
                if is_mature {
                    mature = Some(mature.map_or(v, |m| m.min(v)));
                }
                ControlFlow::<()>::Continue(())
            };
            if mutating {
                let _ = self.engine.try_for_each_update(&key, |engine, u| {
                    let gid = engine.group_of(u.index);
                    engine.check_group(gid);
                    offer(engine.peek_cell(u.index), engine.observe_mature(gid))
                });
            } else {
                let engine = &self.engine;
                let _ = engine.spec().try_for_each_update(&key, |u| {
                    let gid = engine.group_of(u.index);
                    let v = if engine.group_due(gid) { 0 } else { engine.peek_cell(u.index) };
                    offer(v, engine.observe_mature(gid))
                });
            }
            mature.or(any).unwrap_or(0)
        }
    }

    /// The point-read pass answers, and cleans, exactly as the per-row
    /// walk, frozen and mutating, after every op: the served `k = 8,
    /// w = 64`; `k = 1`; `k = 3` over `w = 48` with 7-bit counters, some
    /// straddling words, and a short last group (1142 = 23·48 + 38);
    /// `Tcycle = 32 < G = 256`; and `k = 70 > UPDATE_LANES`, two chunks
    /// of rows.
    #[test]
    fn pass_answers_and_cleans_as_the_per_row_walk() {
        for (case, (window, bytes, bits, k, w)) in [
            (256, 4 << 10, 32, 8, 64),
            (128, 2 << 10, 32, 1, 64),
            (200, 1000, 7, 3, 48),
            (16, 4 << 10, 32, 4, 4),
            (64, 4 << 10, 32, 70, 64),
        ]
        .into_iter()
        .enumerate()
        {
            let new = || {
                SheCountMin::builder()
                    .window(window)
                    .memory_bytes(bytes)
                    .counter_bits(bits)
                    .hash_functions(k)
                    .alpha(1.0)
                    .group_cells(w)
                    .seed(case as u32 + 1)
                    .build()
            };
            let (covered, _) = assert_pass_is_the_walk(new, 0xC3 + case as u64, 4000);
            assert!(covered > 50, "case {case}: {covered} reads covered a due group");
        }
    }
}
