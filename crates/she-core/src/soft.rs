//! The software version of SHE (Section 3.2).
//!
//! A conceptual cleaning process sweeps the cell array left-to-right at
//! constant speed, finishing one pass per `Tcycle`, then wraps around. On a
//! CPU we realize it lazily: every operation first advances the cleaner from
//! its last position to where it should be *now* and zeroes the cells it
//! passed. This is observably identical to a concurrent cleaner thread but
//! deterministic, which the tests rely on.
//!
//! The hardware version ([`crate::She`]) replaces the per-cell sweep with
//! per-group time marks; with `w = 1` the two versions' cell ages agree to
//! within one cleaning step (see the cross-version tests in
//! `tests/soft_vs_hw.rs`).

use crate::SheConfig;
use she_hash::HashKey;
use she_sketch::{CsmSpec, PackedArray};
use std::ops::ControlFlow;

/// Software-version SHE engine: continuous circular cleaning.
#[derive(Debug, Clone)]
pub struct SoftClock<S: CsmSpec> {
    spec: S,
    cfg: SheConfig,
    cells: PackedArray,
    /// Logical clock (insertions so far).
    t: u64,
    /// Total cells cleaned since the start (the cleaner's absolute count).
    cleaned: u64,
}

impl<S: CsmSpec> SoftClock<S> {
    /// Wrap `spec` with the software cleaning process per `cfg`
    /// (`group_cells` is ignored — the software version cleans single
    /// cells).
    pub fn new(spec: S, cfg: SheConfig) -> Self {
        cfg.validate();
        let cells = PackedArray::new(spec.num_cells(), spec.cell_bits());
        Self { spec, cfg, cells, t: 0, cleaned: 0 }
    }

    /// The wrapped CSM spec.
    #[inline]
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// The sliding-window configuration.
    #[inline]
    pub fn config(&self) -> &SheConfig {
        &self.cfg
    }

    /// Current logical time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Total cells the cleaner should have cleaned by time `t`:
    /// `floor(t · M / Tcycle)`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a cleaned-cell count: reaching 2^64 takes 2^64·Tcycle/M ticks of a clock that advances per item"
    )]
    fn target_count(&self, t: u64) -> u64 {
        ((t as u128 * self.cells.len() as u128) / self.cfg.t_cycle as u128) as u64
    }

    /// Advance the lazy cleaner to the present.
    fn catch_up(&mut self) {
        let target = self.target_count(self.t);
        let m = self.cells.len() as u64;
        if target <= self.cleaned {
            return;
        }
        if target - self.cleaned >= m {
            self.cells.clear();
        } else {
            for j in self.cleaned + 1..=target {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "the index is below m, the cell array's usize length"
                )]
                self.cells.set(((j - 1) % m) as usize, 0);
            }
        }
        self.cleaned = target;
    }

    /// Advance the clock without inserting.
    pub fn advance_time(&mut self, dt: u64) {
        self.t += dt;
        self.catch_up();
    }

    /// Insert one item (advances the clock by one, then updates the hashed
    /// cells — insertion is independent of the cleaning, per §3.2).
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.t += 1;
        self.catch_up();
        let _ = self.spec.try_for_each_update(key, |u| {
            let old = self.cells.get(u.index);
            self.cells.set(u.index, self.spec.apply(u.operand, old));
            ControlFlow::<()>::Continue(())
        });
    }

    /// Age of cell `i`: time since its latest cleaning, or the full elapsed
    /// time if it has never been cleaned.
    pub fn cell_age(&self, i: usize) -> u64 {
        let m = self.cells.len() as u64;
        let c = self.target_count(self.t);
        // Largest count j ≤ c with (j - 1) % m == i, i.e. j ≡ i+1 (mod m).
        let i1 = i as u64 + 1;
        if c < i1 {
            return self.t; // never cleaned
        }
        let j = c - (c - i1) % m;
        // Count j is reached at the earliest time s with floor(s·m/Tc) ≥ j.
        let tc = self.cfg.t_cycle as u128;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "j ≤ floor(t·m/Tcycle), so ⌈j·Tcycle/m⌉ ≤ t fits u64"
        )]
        let s = (j as u128 * tc).div_ceil(m as u128) as u64;
        self.t.saturating_sub(s)
    }

    /// Read a cell (the cleaner has already caught up on every mutation).
    #[inline]
    pub fn read_cell(&self, i: usize) -> u64 {
        self.cells.get(i)
    }

    /// Membership query in the Bloom-filter style of Fig. 3: ignore young
    /// cells (`age < N`), answer "absent" iff some mature hashed cell is
    /// zero.
    ///
    /// Only meaningful when the spec is a Bloom-filter-like bit array; the
    /// hardware adapters provide the full per-task query suites.
    pub fn contains_bf<K: HashKey + ?Sized>(&mut self, key: &K) -> bool {
        self.catch_up();
        let mut ups = Vec::new();
        self.spec.updates(key, &mut ups);
        for u in &ups {
            if self.cell_age(u.index) < self.cfg.window {
                continue; // young: ignored by age-sensitive selection
            }
            if self.cells.get(u.index) == 0 {
                return false;
            }
        }
        true
    }

    /// Memory footprint in bits (cells + the 32-bit item counter; the
    /// conceptual cleaner needs only its position, folded into the counter).
    pub fn memory_bits(&self) -> usize {
        self.cells.memory_bits() + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use she_sketch::BloomSpec;

    fn soft(window: u64, alpha: f64, m: usize) -> SoftClock<BloomSpec> {
        let cfg = SheConfig::builder().window(window).alpha(alpha).group_cells(1).build();
        SoftClock::new(BloomSpec::new(m, 4, 9), cfg)
    }

    #[test]
    fn cleaner_sweeps_one_pass_per_cycle() {
        let mut s = soft(100, 0.2, 120); // Tcycle = 120, M = 120: 1 cell/unit
                                         // Set every bit by hand, then advance half a cycle.
        for i in 0..120 {
            s.cells.set(i, 1);
        }
        s.advance_time(60);
        // The first 60 cells were swept.
        assert_eq!(s.cells.count_zeros_in(0, 60), 60);
        assert_eq!(s.cells.count_zeros_in(60, 60), 0);
        s.advance_time(60);
        assert_eq!(s.cells.count_zeros(), 120);
    }

    #[test]
    fn big_jump_clears_everything_once() {
        let mut s = soft(100, 0.2, 120);
        for i in 0..120 {
            s.cells.set(i, 1);
        }
        s.advance_time(10 * 120);
        assert_eq!(s.cells.count_zeros(), 120);
    }

    #[test]
    fn ages_reflect_sweep_position() {
        let mut s = soft(100, 0.2, 120);
        s.advance_time(60);
        // Cell 0 was cleaned at t=1, so age 59; cell 59 cleaned at t=60, age 0.
        assert_eq!(s.cell_age(0), 59);
        assert_eq!(s.cell_age(59), 0);
        // Cell 100 has never been cleaned: age = full elapsed time.
        assert_eq!(s.cell_age(100), 60);
    }

    #[test]
    fn fig3_example_semantics() {
        // The paper's Fig. 3: young hashed bits are ignored; a zero mature
        // bit proves absence.
        let mut s = soft(1000, 0.5, 4096);
        s.insert(&111u64);
        // Immediately after insertion most groups are "never cleaned" (aged
        // semantics) so the item is found.
        assert!(s.contains_bf(&111u64));
        // After far more than a full cycle the bits are swept and the item
        // expires.
        s.advance_time(3 * s.config().t_cycle);
        assert!(!s.contains_bf(&111u64));
    }

    #[test]
    fn no_false_negatives_within_window() {
        let mut s = soft(500, 1.0, 1 << 14);
        for i in 0..2000u64 {
            s.insert(&i);
        }
        // The last 500 items are within the window; none may be missed.
        for i in 1500..2000u64 {
            assert!(s.contains_bf(&i), "false negative on {i}");
        }
    }
}
