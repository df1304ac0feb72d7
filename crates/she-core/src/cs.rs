//! SHE-CS: sliding-window frequency via the count sketch — a sixth CSM
//! instance demonstrating the framework's genericity beyond the paper's
//! five showcases.
//!
//! Count sketch has two-sided error, so (per §3.2's age-sensitive
//! selection) the query may include young cells whose age is close to `N`:
//! the legal range is `[βN, Tcycle)` with `β < 1`, like SHE-BM.

use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{median_i64, CountSketchSpec, CsmSpec, UPDATE_LANES};

/// Sliding-window count sketch (hardware version of SHE).
#[derive(Debug, Clone)]
pub struct SheCountSketch {
    engine: She<CountSketchSpec>,
}

/// Builder for [`SheCountSketch`] (defaults: `k = 5`, `w = 64`, `α = 1`,
/// `β = 0.9`).
#[derive(Debug, Clone)]
pub struct SheCountSketchBuilder {
    window: u64,
    memory_bits: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    group_cells: usize,
    seed: u32,
}

impl Default for SheCountSketchBuilder {
    fn default() -> Self {
        Self {
            window: 1 << 16,
            memory_bits: 8 << 23,
            k: 5,
            alpha: 1.0,
            beta: 0.9,
            group_cells: 64,
            seed: 1,
        }
    }
}

impl SheCountSketchBuilder {
    /// Sliding-window size `N` in items.
    pub fn window(mut self, n: u64) -> Self {
        self.window = n;
        self
    }

    /// Memory budget in bytes (32-bit counters).
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.memory_bits = bytes * 8;
        self
    }

    /// Number of (location, sign) hash pairs.
    pub fn hash_functions(mut self, k: usize) -> Self {
        self.k = k;
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
    pub fn build(self) -> SheCountSketch {
        let m = (self.memory_bits / 32).max(self.k.max(self.group_cells));
        let cfg = SheConfig::builder()
            .window(self.window)
            .alpha(self.alpha)
            .group_cells(self.group_cells.min(m))
            .beta(self.beta)
            .build();
        SheCountSketch { engine: She::new(CountSketchSpec::new(m, self.k, self.seed), cfg) }
    }
}

impl SheCountSketch {
    /// Start building with defaults.
    pub fn builder() -> SheCountSketchBuilder {
        SheCountSketchBuilder::default()
    }

    /// Insert an item at the next time step.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.engine.insert(key);
    }

    /// Estimated frequency of `key` within the sliding window: the median
    /// of the sign-corrected legal counters (of all of them when none is
    /// legal). One pass over the key's rows (`She::read_rows`) reads
    /// the counters as `CheckGroup` leaves them against the legal ranges
    /// taken once, into stack buffers (a heap one only past
    /// [`UPDATE_LANES`] rows); then `CheckGroup` on every row's group
    /// when one of them is due.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`value as u32`: the cell holds a 32-bit two's-complement counter in its low bits"
    )]
    pub fn query<K: HashKey + ?Sized>(&mut self, key: &K) -> i64 {
        let (engine, mut due) = (&self.engine, false);
        let (k, [a, b]) = (engine.spec().k(), engine.legal_groups());
        let mut stack = [0i64; 2 * UPDATE_LANES];
        let mut heap = vec![0; if k > UPDATE_LANES { 2 * k } else { 0 }];
        let vals = if heap.is_empty() { &mut stack[..2 * k] } else { &mut heap[..] };
        let (all, legal) = vals.split_at_mut(k);
        let mut n = 0;
        engine.read_rows(key, |row, r| {
            let sign = if r.update.operand == 1 { 1 } else { -1 };
            let v = i64::from(r.value as u32 as i32) * sign;
            (all[row], legal[n], due) = (v, v, due | r.due);
            n += usize::from(a.contains(&r.gid) || b.contains(&r.gid));
        });
        let estimate = median_i64(if n > 0 { &mut legal[..n] } else { all });
        if due {
            self.engine.check_rows(key, k);
        }
        estimate
    }

    /// Advance logical time without inserting.
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        self.engine.advance_time(dt);
    }

    /// The underlying generic engine.
    #[inline]
    pub fn engine(&self) -> &She<CountSketchSpec> {
        &self.engine
    }

    /// Mutable engine access for the snapshot layer.
    pub(crate) fn engine_mut(&mut self) -> &mut She<CountSketchSpec> {
        &mut self.engine
    }

    /// Memory footprint in bits.
    #[inline]
    pub fn memory_bits(&self) -> usize {
        self.engine.memory_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{assert_pass_is_the_walk, PassOracle};
    use std::ops::ControlFlow;

    #[test]
    fn counts_in_window_frequencies() {
        let window = 1u64 << 13;
        let mut cs = SheCountSketch::builder().window(window).memory_bytes(1 << 20).build();
        // 512 recurring keys: each appears window/512 = 16 times per window.
        for i in 0..4 * window {
            cs.insert(&(i % 512));
        }
        let truth = (window / 512) as f64;
        let mut sum = 0.0;
        for k in 0..512u64 {
            sum += (cs.query(&k) as f64 - truth).abs() / truth;
        }
        let are = sum / 512.0;
        assert!(are < 0.6, "ARE {are}");
    }

    #[test]
    fn expired_heavy_key_fades() {
        let window = 1u64 << 10;
        let mut cs = SheCountSketch::builder().window(window).memory_bytes(1 << 20).build();
        for _ in 0..500 {
            cs.insert(&99u64);
        }
        for i in 0..8 * window {
            cs.insert(&(i + 1000));
        }
        let est = cs.query(&99u64);
        assert!(est.abs() < 60, "stale estimate {est}");
    }

    #[test]
    fn absent_key_near_zero() {
        let window = 1u64 << 12;
        let mut cs = SheCountSketch::builder().window(window).memory_bytes(1 << 20).build();
        for i in 0..2 * window {
            cs.insert(&i);
        }
        assert!(cs.query(&0xdead_beefu64).abs() <= 4);
    }

    #[test]
    fn estimates_can_be_negative_on_crowding() {
        // Two-sided error is preserved through the SHE wrapper.
        let mut cs =
            SheCountSketch::builder().window(1 << 10).memory_bytes(256).group_cells(8).build();
        for i in 0..20_000u64 {
            cs.insert(&i);
        }
        let any_negative = (0..500u64).any(|k| cs.query(&(k + 1_000_000)) < 0);
        assert!(any_negative, "expected two-sided noise on a crowded sketch");
    }

    /// The per-row walk the pass replaced: per row, `CheckGroup`, then the
    /// signed counter into the legal list (legal ranges asked per row) and
    /// the fallback list, each a `Vec`. SHE-CS has no frozen read, so both
    /// read kinds are `query`.
    impl PassOracle for SheCountSketch {
        type Spec = CountSketchSpec;
        fn she(&self) -> &She<CountSketchSpec> {
            &self.engine
        }
        fn insert_key(&mut self, key: u64) {
            self.insert(&key);
        }
        fn advance(&mut self, dt: u64) {
            self.advance_time(dt);
        }
        fn clear_all(&mut self) {
            self.engine.clear();
        }
        fn pass(&mut self, key: u64, _mutating: bool) -> u64 {
            self.query(&key) as u64
        }
        fn walk(&mut self, key: u64, _mutating: bool) -> u64 {
            let (mut vals, mut fallback) = (Vec::new(), Vec::new());
            let _ = self.engine.try_for_each_update(&key, |engine, u| {
                let gid = engine.group_of(u.index);
                engine.check_group(gid);
                let raw = i64::from(engine.peek_cell(u.index) as u32 as i32);
                let v = if u.operand == 1 { raw } else { -raw };
                fallback.push(v);
                if engine.legal_groups().iter().any(|gids| gids.contains(&gid)) {
                    vals.push(v);
                }
                ControlFlow::<()>::Continue(())
            });
            median_i64(if vals.is_empty() { &mut fallback } else { &mut vals }) as u64
        }
    }

    /// The point-read pass answers, and cleans, exactly as the per-row
    /// walk after every op: the default `k = 5, w = 64`; `k = 1`; `k = 4`
    /// over `w = 48` with a short last group (250 = 5·48 + 10); `Tcycle =
    /// 32 < G = 256`; and `k = 70 > UPDATE_LANES`, whose counters spill to
    /// the heap.
    #[test]
    fn pass_answers_and_cleans_as_the_per_row_walk() {
        for (case, (window, bytes, k, w)) in [
            (256, 4 << 10, 5, 64),
            (128, 2 << 10, 1, 64),
            (200, 1000, 4, 48),
            (16, 4 << 10, 4, 4),
            (64, 4 << 10, 70, 64),
        ]
        .into_iter()
        .enumerate()
        {
            let new = || {
                SheCountSketch::builder()
                    .window(window)
                    .memory_bytes(bytes)
                    .hash_functions(k)
                    .alpha(1.0)
                    .group_cells(w)
                    .seed(case as u32 + 1)
                    .build()
            };
            let (covered, _) = assert_pass_is_the_walk(new, 0xC5 + case as u64, 3000);
            assert!(covered > 50, "case {case}: {covered} reads covered a due group");
        }
    }
}
