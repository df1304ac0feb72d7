//! SHE-BF: sliding-window membership (Section 4.2).
//!
//! Insertion sets the `k` hashed bits (after `CheckGroup`). Queries ignore
//! hashed bits whose group is *young* (`age < N`) — they may have lost
//! in-window items to cleaning — and answer "absent" iff some mature hashed
//! bit is zero. Like the original Bloom filter, SHE-BF therefore has
//! one-sided error: no false negatives for items inside the window, only
//! false positives (hash collisions + aged information). A mutating read
//! is the frozen read plus the cleaning of the due groups it covered.

use crate::{analysis, She, SheConfig};
use she_hash::HashKey;
use she_sketch::{BloomSpec, CsmSpec};

/// Sliding-window Bloom filter (hardware version of SHE).
#[derive(Debug, Clone)]
pub struct SheBloomFilter {
    engine: She<BloomSpec>,
}

/// Builder for [`SheBloomFilter`] with the paper's §7.1 defaults
/// (`k = 8` hash functions, `w = 64`, α from Eq. 2 when derivable, else 3).
#[derive(Debug, Clone)]
pub struct SheBloomFilterBuilder {
    window: u64,
    memory_bits: usize,
    k: usize,
    alpha: Option<f64>,
    group_cells: usize,
    seed: u32,
}

impl Default for SheBloomFilterBuilder {
    fn default() -> Self {
        Self {
            window: 1 << 16,
            memory_bits: 64 << 13, // 64 KB
            k: 8,
            alpha: None,
            group_cells: 64,
            seed: 1,
        }
    }
}

impl SheBloomFilterBuilder {
    /// Sliding-window size `N` in items.
    pub fn window(mut self, n: u64) -> Self {
        self.window = n;
        self
    }

    /// Memory budget in bytes (bit-array payload).
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.memory_bits = bytes * 8;
        self
    }

    /// Number of hash functions `k`.
    pub fn hash_functions(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Override α (default: the Eq. 2 optimum for an all-distinct window).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
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

    /// Build the filter.
    pub fn build(self) -> SheBloomFilter {
        let m = self.memory_bits.max(self.group_cells);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "lossless on 64-bit targets; the window is a count of items the engine holds in memory"
        )]
        let alpha = self.alpha.unwrap_or_else(|| {
            // Eq. 2 with the conservative all-distinct window C = N.
            analysis::optimal_alpha_bf(m, self.k, self.window as usize)
        });
        let cfg = SheConfig::builder()
            .window(self.window)
            .alpha(alpha)
            .group_cells(self.group_cells.min(m))
            .build();
        SheBloomFilter { engine: She::new(BloomSpec::new(m, self.k, self.seed), cfg) }
    }
}

impl SheBloomFilter {
    /// Start building with the paper defaults.
    pub fn builder() -> SheBloomFilterBuilder {
        SheBloomFilterBuilder::default()
    }

    /// Insert an item at the next time step.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.engine.insert(key);
    }

    /// [`SheBloomFilter::insert`] of a key whose row hashes the caller already
    /// holds: `rows[..k]`, from a family this one's is a prefix of.
    #[inline]
    pub(crate) fn insert_rows(&mut self, rows: &[u32]) {
        self.engine.insert_rows(&rows[..self.engine.spec().k()]);
    }

    /// Sliding-window membership query.
    ///
    /// Takes `&mut self` because queries run `CheckGroup` on the hashed
    /// groups (Algorithm 1), possibly cleaning them — exactly as on the
    /// hardware pipeline: up to the first mature zero bit (all rows when
    /// there is none), so the groups of later rows are not checked.
    pub fn contains<K: HashKey + ?Sized>(&mut self, key: &K) -> bool {
        let (present, checked) = self.read(key);
        if let Some(rows) = checked {
            self.engine.check_rows(key, rows);
        }
        present
    }

    /// Sliding-window membership, **frozen read**: answers exactly what
    /// [`SheBloomFilter::contains`] would on the same state, without
    /// running `CheckGroup` — a hashed bit whose group is due for
    /// cleaning reads as zero, and maturity is observed purely. Because
    /// nothing mutates, two engines with equal insert *and*
    /// mutating-query histories answer identically
    /// however often either is read frozen — the property the read-path
    /// mirror relies on. Equal insert histories alone are not enough: a
    /// [`SheBloomFilter::contains`] that cleans a due group stores the
    /// flipped mark, so at the next flip that group is due again, while an
    /// unqueried twin's group stops being due and its stale bits read as
    /// live (Eq. 1's unswept groups).
    pub fn contains_frozen<K: HashKey + ?Sized>(&self, key: &K) -> bool {
        self.read(key).0
    }

    /// Both membership reads ([`She::read_rows`]): a bit that is mature
    /// and reads zero answers absent (young bits are ignored), and, if a
    /// row up to the first such bit (all rows when there is none) is due,
    /// how many rows `contains` checks.
    #[inline(always)]
    fn read<K: HashKey + ?Sized>(&self, key: &K) -> (bool, Option<usize>) {
        let (mut absent, mut due, mut rows) = (false, false, 0);
        self.engine.read_rows(key, |_, r| {
            // The rows up to and including the first absent one.
            (due, rows) = (due | (r.due & !absent), rows + usize::from(!absent));
            absent |= r.mature & (r.value == 0);
        });
        (!absent, due.then_some(rows))
    }

    /// Time-mark signature of the groups `key` hashes to (see
    /// [`She::mark_sig`]): changes iff one of those groups' marks
    /// flips, i.e. iff a future [`SheBloomFilter::contains`] could see a
    /// cleaning this key's cached answer predates. Pure.
    pub fn mark_sig<K: HashKey + ?Sized>(&self, key: &K) -> u64 {
        self.engine.mark_sig(key)
    }

    /// Advance logical time without inserting.
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        self.engine.advance_time(dt);
    }

    /// The underlying generic engine (ages, groups, config).
    #[inline]
    pub fn engine(&self) -> &She<BloomSpec> {
        &self.engine
    }

    /// Mutable engine access for the snapshot layer.
    pub(crate) fn engine_mut(&mut self) -> &mut She<BloomSpec> {
        &mut self.engine
    }

    /// Current logical time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.engine.now()
    }

    /// Memory footprint in bits (bit array + marks + item counter).
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

    fn filter(window: u64, kb: usize, alpha: f64) -> SheBloomFilter {
        SheBloomFilter::builder().window(window).memory_bytes(kb << 10).alpha(alpha).seed(3).build()
    }

    #[test]
    fn one_sided_error_within_window() {
        let mut bf = filter(1 << 12, 32, 3.0);
        for i in 0..(3 << 12) as u64 {
            bf.insert(&i);
        }
        // Every item of the last window must be reported present.
        let lo = (3 << 12) - (1 << 12);
        for i in lo..(3 << 12) as u64 {
            assert!(bf.contains(&i), "false negative on in-window item {i}");
        }
    }

    #[test]
    fn expired_items_are_eventually_rejected() {
        let mut bf = filter(1 << 10, 32, 3.0);
        bf.insert(&424242u64);
        // Push the window far past the item with fresh distinct keys.
        for i in 0..(40 << 10) as u64 {
            bf.insert(&(i + 1_000_000));
        }
        assert!(!bf.contains(&424242u64), "item older than Tcycle must expire");
    }

    #[test]
    fn fpr_is_small_with_adequate_memory() {
        let window = 1u64 << 12;
        let mut bf = filter(window, 64, 3.0);
        for i in 0..8 * window {
            bf.insert(&i);
        }
        let mut fp = 0;
        let probes = 10_000u64;
        for i in 0..probes {
            if bf.contains(&(i + 10_000_000)) {
                fp += 1;
            }
        }
        let fpr = fp as f64 / probes as f64;
        assert!(fpr < 0.01, "fpr {fpr} too high for 64 KB / 4K window");
    }

    #[test]
    fn default_alpha_comes_from_eq2() {
        let bf = SheBloomFilter::builder().window(1 << 12).memory_bytes(8 << 10).build();
        let alpha = bf.engine().config().alpha();
        assert!(alpha > 0.0 && alpha < 50.0, "alpha {alpha} out of sane range");
    }

    #[test]
    fn frozen_contains_matches_mutating_contains() {
        // Seeded random insert history; at every probe point the frozen
        // read must equal what contains() answers on a same-history twin
        // (probing the twin first so its query-time cleanings cannot
        // influence the comparison).
        let mut a = filter(1 << 10, 8, 1.5);
        let mut b = filter(1 << 10, 8, 1.5);
        let mut x = 0x9E37_79B9u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = x % 4096;
            a.insert(&key);
            b.insert(&key);
            if i % 257 == 0 {
                for probe in [key, x % 8192, i] {
                    assert_eq!(
                        a.contains_frozen(&probe),
                        b.contains(&probe),
                        "probe {probe} at step {i}"
                    );
                }
            }
        }
    }

    /// Frozen reads agree for equal insert *and* mutating-query histories,
    /// not for equal inserts alone. Three filters see 200 inserts; two are
    /// then read through `contains` ⅝ or ¾ `Tcycle` later, cleaning the
    /// groups that flipped since. One idle `Tcycle` on, the queried pair
    /// still agree bit for bit, but the unqueried filter's uncleaned
    /// groups are no longer due (their 1-bit mark wrapped): 27–73 of the
    /// 200 expired keys read present, against 2–5 (seeds 1–6).
    #[test]
    fn frozen_reads_agree_only_for_equal_query_histories() {
        for (case, eighths) in [(1u32, 5u64), (2, 6), (3, 5), (4, 6)] {
            let build = || {
                SheBloomFilter::builder()
                    .window(256)
                    .memory_bytes(256)
                    .hash_functions(4)
                    .seed(case)
                    .build()
            };
            let (mut idle, mut queried, mut twin) = (build(), build(), build());
            let tc = idle.engine().config().t_cycle;
            let keys: Vec<u64> =
                (0..200).map(|i| she_hash::mix64((u64::from(case) << 32) | i)).collect();
            for bf in [&mut idle, &mut queried, &mut twin] {
                for key in &keys {
                    bf.insert(key);
                }
                bf.advance_time(tc * eighths / 8);
            }
            for key in &keys {
                assert_eq!(queried.contains(key), twin.contains(key), "case {case}");
            }
            for bf in [&mut idle, &mut queried, &mut twin] {
                bf.advance_time(tc);
            }
            for key in &keys {
                assert_eq!(queried.contains_frozen(key), twin.contains_frozen(key), "case {case}");
            }
            let stale =
                |bf: &SheBloomFilter| keys.iter().filter(|k| bf.contains_frozen(*k)).count();
            let (idle_stale, queried_stale) = (stale(&idle), stale(&queried));
            assert!(
                idle_stale >= 20 && idle_stale > 3 * queried_stale,
                "case {case}: unqueried {idle_stale} vs queried {queried_stale} expired keys present"
            );
        }
    }

    #[test]
    fn frozen_reads_never_mutate() {
        let mut bf = filter(1 << 10, 8, 1.5);
        for i in 0..5_000u64 {
            bf.insert(&i);
        }
        bf.advance_time(bf.engine().config().t_cycle / 2);
        let before: Vec<u64> = (0..64).map(|i| bf.engine().peek_cell(i)).collect();
        for probe in 0..2_000u64 {
            let _ = bf.contains_frozen(&probe);
            let _ = bf.mark_sig(&probe);
        }
        let after: Vec<u64> = (0..64).map(|i| bf.engine().peek_cell(i)).collect();
        assert_eq!(before, after);
        assert_eq!(bf.now(), 5_000 + bf.engine().config().t_cycle / 2);
    }

    #[test]
    fn clear_forgets_everything() {
        let mut bf = filter(1 << 10, 8, 2.0);
        for i in 0..5000u64 {
            bf.insert(&i);
        }
        bf.clear();
        assert_eq!(bf.now(), 0);
        let mut hits = 0;
        for i in 4000..5000u64 {
            if bf.contains(&i) {
                hits += 1;
            }
        }
        // After clear, at t=0 every group has age < N... except offset
        // wrap-around makes most groups "aged" with zeroed cells, so items
        // are rejected; young groups answer vacuously-true. Either way the
        // sketch holds no data: allow only vacuous positives.
        assert!(hits <= 1000);
    }

    /// The per-row walk the pass replaced: per row, `CheckGroup` (or, for
    /// the frozen read, a due group's bit read as zero), then maturity,
    /// then the bit, stopping at the first mature zero bit.
    impl PassOracle for SheBloomFilter {
        type Spec = BloomSpec;
        fn she(&self) -> &She<BloomSpec> {
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
            u64::from(if mutating { self.contains(&key) } else { self.contains_frozen(&key) })
        }
        fn walk(&mut self, key: u64, mutating: bool) -> u64 {
            // A mature zero bit answers absent.
            let stop = |mature: bool, bit: u64| {
                if mature && bit == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            };
            let walk = if mutating {
                self.engine.try_for_each_update(&key, |engine, u| {
                    let gid = engine.group_of(u.index);
                    engine.check_group(gid);
                    stop(engine.observe_mature(gid), engine.peek_cell(u.index))
                })
            } else {
                let engine = &self.engine;
                engine.spec().try_for_each_update(&key, |u| {
                    let gid = engine.group_of(u.index);
                    let bit = if engine.group_due(gid) { 0 } else { engine.peek_cell(u.index) };
                    stop(engine.observe_mature(gid), bit)
                })
            };
            u64::from(walk.is_continue())
        }
    }

    /// The point-read pass answers, and cleans, exactly as the per-row
    /// walk, frozen and mutating, after every op: the served `k = 8,
    /// w = 64`; `k = 1`; `k = 3` over `w = 48` with a short last group
    /// (8000 = 166·48 + 32 bits); `Tcycle = 32 < G = 512`; and
    /// `k = 70 > UPDATE_LANES`, two chunks of rows.
    #[test]
    fn pass_answers_and_cleans_as_the_per_row_walk() {
        for (case, (window, bytes, k, w)) in [
            (256, 1 << 10, 8, 64),
            (128, 512, 1, 64),
            (200, 1000, 3, 48),
            (16, 512, 4, 8),
            (64, 2048, 70, 64),
        ]
        .into_iter()
        .enumerate()
        {
            let new = || {
                SheBloomFilter::builder()
                    .window(window)
                    .memory_bytes(bytes)
                    .hash_functions(k)
                    .alpha(1.0)
                    .group_cells(w)
                    .seed(case as u32 + 1)
                    .build()
            };
            let (covered, left_due) = assert_pass_is_the_walk(new, 0xBF + case as u64, 4000);
            assert!(covered > 50, "case {case}: {covered} reads covered a due group");
            if k > 1 {
                assert!(left_due > 5, "case {case}: {left_due} early exits left a due group");
            }
        }
    }
}
