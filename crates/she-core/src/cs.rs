//! SHE-CS: sliding-window frequency via the count sketch — a sixth CSM
//! instance demonstrating the framework's genericity beyond the paper's
//! five showcases.
//!
//! Count sketch has two-sided error, so (per §3.2's age-sensitive
//! selection) the query may include young cells whose age is close to `N`:
//! the legal range is `[βN, Tcycle)` with `β < 1`, like SHE-BM.

use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{CountSketchSpec, CsmSpec};
use std::ops::ControlFlow;

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
    /// of the sign-corrected legal counters.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`peek_cell(..) as u32`: the cell holds a 32-bit two's-complement counter in its low bits"
    )]
    pub fn query<K: HashKey + ?Sized>(&mut self, key: &K) -> i64 {
        let k = self.engine.spec().k();
        let mut vals: Vec<i64> = Vec::with_capacity(k);
        let mut fallback: Vec<i64> = Vec::with_capacity(k);
        let _ = self.engine.try_for_each_update(key, |engine, u| {
            let gid = engine.group_of(u.index);
            engine.check_group(gid);
            let raw = engine.peek_cell(u.index) as u32 as i32 as i64;
            let sign = if u.operand == 1 { 1 } else { -1 };
            fallback.push(raw * sign);
            if engine.legal_groups().iter().any(|gids| gids.contains(&gid)) {
                vals.push(raw * sign);
            }
            ControlFlow::<()>::Continue(())
        });
        if vals.is_empty() {
            vals = fallback;
        }
        median(&mut vals)
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

fn median(vals: &mut [i64]) -> i64 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
