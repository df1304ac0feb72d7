//! SHE-MH: sliding-window similarity via MinHash (Section 4.5).
//!
//! Two streams are summarized by two [`SheMinHash`] signatures built with
//! the *same seed* (so hash function `i` agrees across the pair). Each
//! signature cell is its own group (`w = 1`); an insertion updates every
//! cell with `F(x, y) = min(h_i(x), y)` after `CheckGroup`. The similarity
//! query keeps index positions legal (`age ≥ βN`) on *both* sides and
//! reports the fraction of those positions whose minima agree (`u / k`).
//!
//! ## The row-wise insert
//!
//! SHE-MH is the one adapter where an insert touches *every* cell
//! (`K = M`, `w = 1`), so [`SheMinHash::insert`] does not go through the
//! generic per-cell loop of [`She::insert`]. It is one pass over three
//! flat arrays — the row operands (hashed lane-wise,
//! `MinHashSpec::operands`), the decoded minima, and nothing else — and
//! is bit-for-bit the generic loop: same hash per row, same `CheckGroup`
//! instants, same packed cells, same snapshot bytes (the generic loop is
//! the oracle of this module's tests). Two cached facts make that
//! possible, under one validity word:
//!
//! * `settled_until` — every group has been checked at the current mark
//!   and none flips before this instant. Because every insert checks
//!   every group, the 128 mark tests collapse to `t < settled_until`;
//!   when that trips, `settle()` runs `check_group(0..M)` exactly as the
//!   generic loop would and takes the minimum next flip.
//! * `mins` — the cells decoded (`u32::MAX` for an empty cell), rebuilt
//!   by the same `settle()`. The per-key work is `operands[i] < mins[i]`;
//!   the packed array is written only for the rare rows whose minimum
//!   drops.
//!
//! `settled_until = 0` means "unknown" and is set by every other writer
//! of the cells: `engine_mut()` (restore, merge, reconcile), `clear()`,
//! and a `similarity()` whose `check_group` actually cleaned a group
//! (possible only after `advance_time`).

use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{CsmSpec, MinHashSpec};

/// `mins` entry of an empty cell: above every operand (`≤ 2^24`), so the
/// first offer always lands — `F(x, 0) = h(x)`.
const EMPTY: u32 = u32::MAX;

/// Sliding-window MinHash signature (hardware version of SHE).
///
/// ```
/// use she_core::SheMinHash;
///
/// let builder = SheMinHash::builder().window(4_096).num_hashes(256).seed(7);
/// let (mut a, mut b) = (builder.clone().build(), builder.build());
/// for i in 0..16_384u64 {
///     a.insert(&i);
///     b.insert(&i); // identical streams
/// }
/// assert!(a.similarity(&mut b) > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct SheMinHash {
    engine: She<MinHashSpec>,
    /// Row operands of the key being inserted (scratch, one per row).
    operands: Vec<u32>,
    /// The cells decoded, [`EMPTY`] for zero; meaningful only while
    /// `settled_until != 0`.
    mins: Vec<u32>,
    /// Every group is checked at its current mark and none flips before
    /// this instant; `0` = unknown (and `mins` stale).
    settled_until: u64,
}

/// Builder for [`SheMinHash`] with the paper's defaults (`w = 1`, `α = 0.2`,
/// 24-bit hash outputs).
#[derive(Debug, Clone)]
pub struct SheMinHashBuilder {
    window: u64,
    num_hashes: usize,
    alpha: f64,
    beta: f64,
    seed: u32,
}

impl Default for SheMinHashBuilder {
    fn default() -> Self {
        // β = 0.5: MinHash has two-sided error, so §3.2's remark applies —
        // young cells with substantial age are nearly unbiased for
        // stationary streams, and including them more than doubles the
        // usable sample (legal fraction 1 − β/(1+α)).
        Self { window: 1 << 16, num_hashes: 256, alpha: 0.2, beta: 0.5, seed: 1 }
    }
}

impl SheMinHashBuilder {
    /// Sliding-window size `N` in items.
    pub fn window(mut self, n: u64) -> Self {
        self.window = n;
        self
    }

    /// Number of hash functions / signature cells.
    pub fn num_hashes(mut self, m: usize) -> Self {
        self.num_hashes = m;
        self
    }

    /// Memory budget in bytes (25-bit cells as in `she_sketch::MinHash`).
    pub fn memory_bytes(mut self, bytes: usize) -> Self {
        self.num_hashes = ((bytes * 8) / she_sketch::MINHASH_CELL_BITS as usize).max(1);
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

    /// Hash seed — must match between the two signatures being compared.
    pub fn seed(mut self, seed: u32) -> Self {
        self.seed = seed;
        self
    }

    /// Build the signature.
    pub fn build(self) -> SheMinHash {
        let cfg = SheConfig::builder()
            .window(self.window)
            .alpha(self.alpha)
            .group_cells(1) // w = 1 per §4.5
            .beta(self.beta)
            .build();
        SheMinHash {
            engine: She::new(MinHashSpec::new(self.num_hashes, self.seed), cfg),
            operands: vec![0; self.num_hashes],
            mins: vec![EMPTY; self.num_hashes],
            settled_until: 0,
        }
    }
}

impl SheMinHash {
    /// Start building with the paper defaults.
    pub fn builder() -> SheMinHashBuilder {
        SheMinHashBuilder::default()
    }

    /// Insert an item at the next time step (module docs, *The row-wise
    /// insert*).
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        debug_assert!(self.settled_until == 0 || self.mins_are_decoded_cells());
        self.engine.advance_time(1); // the item clock: one insert, one tick
        if self.engine.now() >= self.settled_until {
            self.settle();
        }
        self.engine.spec().operands(0, key, &mut self.operands);
        // One branch-free compare over two flat arrays; a row's minimum
        // drops on a vanishing fraction of inserts once the window fills.
        let drops =
            self.operands.iter().zip(&self.mins).fold(false, |any, (op, min)| any | (op < min));
        if drops {
            for (i, (&op, min)) in self.operands.iter().zip(&mut self.mins).enumerate() {
                if op < *min {
                    *min = op;
                    self.engine.write_cell(i, u64::from(op));
                }
            }
        }
    }

    /// Check every group at the current time — what the generic insert
    /// does per key — then cache how long that stays true and re-decode
    /// the cells the checks may have cleaned.
    #[cold]
    fn settle(&mut self) {
        let mut until = u64::MAX;
        for (i, min) in self.mins.iter_mut().enumerate() {
            self.engine.check_group(i); // w = 1: cell i is group i
            until = until.min(self.engine.next_flip(i));
            *min = decode(self.engine.peek_cell(i));
        }
        self.settled_until = until;
    }

    fn mins_are_decoded_cells(&self) -> bool {
        self.mins.iter().enumerate().all(|(i, &min)| min == decode(self.engine.peek_cell(i)))
    }

    /// Estimated Jaccard similarity between this signature's window and
    /// `other`'s window.
    ///
    /// Positions are compared only when legal on both sides; positions empty
    /// on both sides are skipped (as in the fixed-window estimator).
    pub fn similarity(&mut self, other: &mut SheMinHash) -> f64 {
        let m = self.engine.spec().num_cells();
        assert_eq!(m, other.engine.spec().num_cells(), "signature sizes differ");
        let beta_n_a = self.engine.config().beta * self.engine.config().window as f64;
        let beta_n_b = other.engine.config().beta * other.engine.config().window as f64;
        let mut used = 0usize;
        let mut matches = 0usize;
        for i in 0..m {
            // w = 1: cell i is group i on both sides. A check that cleans
            // (the clock was advanced past a flip) writes a cell behind
            // the insert path's caches.
            if self.engine.check_group(i) {
                self.settled_until = 0;
            }
            if other.engine.check_group(i) {
                other.settled_until = 0;
            }
            let legal_a = self.engine.group_age(i) as f64 >= beta_n_a;
            let legal_b = other.engine.group_age(i) as f64 >= beta_n_b;
            if !legal_a || !legal_b {
                continue;
            }
            let a = self.engine.peek_cell(i);
            let b = other.engine.peek_cell(i);
            if a == 0 && b == 0 {
                continue;
            }
            used += 1;
            if a == b {
                matches += 1;
            }
        }
        if used == 0 {
            0.0
        } else {
            matches as f64 / used as f64
        }
    }

    /// Advance logical time without inserting.
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        self.engine.advance_time(dt);
    }

    /// The underlying generic engine.
    #[inline]
    pub fn engine(&self) -> &She<MinHashSpec> {
        &self.engine
    }

    /// Mutable engine access for the snapshot layer (restore, merge):
    /// whatever it writes, the insert path's caches no longer describe.
    pub(crate) fn engine_mut(&mut self) -> &mut She<MinHashSpec> {
        self.settled_until = 0;
        &mut self.engine
    }

    /// Current logical time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.engine.now()
    }

    /// Number of hash functions / cells.
    #[inline]
    pub fn num_hashes(&self) -> usize {
        self.engine.spec().num_cells()
    }

    /// Memory footprint in bits.
    #[inline]
    pub fn memory_bits(&self) -> usize {
        self.engine.memory_bits()
    }

    /// Reset to empty at time zero.
    pub fn clear(&mut self) {
        self.engine_mut().clear();
    }
}

/// A stored cell as a `mins` entry. Cells are 25 bits wide, so the
/// fallback is unreachable; it reads as "no minimum" rather than panics.
#[inline]
fn decode(cell: u64) -> u32 {
    match cell {
        0 => EMPTY,
        v => u32::try_from(v).unwrap_or(EMPTY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(window: u64, m: usize) -> (SheMinHash, SheMinHash) {
        let b = SheMinHash::builder().window(window).num_hashes(m).seed(11);
        (b.clone().build(), b.build())
    }

    /// One step of the equivalence drive; `side` picks signature A or B.
    enum Op {
        Insert(usize, u64),
        InsertStr(usize, String),
        Advance(usize, u64),
        Similarity,
        Load(usize, Vec<u8>),
        Merge(usize, Vec<u8>),
        Clear(usize),
    }

    /// Apply `op` to a signature pair. With `generic`, inserts take the
    /// oracle: the per-cell `She::insert` loop (reached through
    /// `engine_mut`, which also leaves the caches "unknown", so an oracle
    /// never settles). Returns the similarity bits when `op` queries.
    fn apply(pair: &mut [SheMinHash; 2], op: &Op, generic: bool) -> Option<u64> {
        use crate::SnapshotState;
        match op {
            Op::Insert(s, key) if generic => pair[*s].engine_mut().insert(key),
            Op::Insert(s, key) => pair[*s].insert(key),
            Op::InsertStr(s, key) if generic => pair[*s].engine_mut().insert(key.as_str()),
            Op::InsertStr(s, key) => pair[*s].insert(key.as_str()),
            Op::Advance(s, dt) => pair[*s].advance_time(*dt),
            Op::Similarity => {
                let [a, b] = pair;
                return Some(a.similarity(b).to_bits());
            }
            Op::Load(s, snap) => pair[*s].load_snapshot(snap).expect("load"),
            Op::Merge(s, snap) => pair[*s].merge_snapshot(snap).expect("merge"),
            Op::Clear(s) => pair[*s].clear(),
        }
        None
    }

    #[test]
    fn row_wise_insert_is_bit_for_bit_the_generic_insert() {
        use crate::SnapshotState;
        use she_hash::{RandomSource, Xoshiro256};

        // m = 5 and 67 are multiples of neither 4 nor 64 (ragged vector
        // tails, a ragged `updates` chunk); 130 crosses two chunks.
        for (case, (window, m)) in
            [(64u64, 5usize), (100, 67), (256, 128), (1_000, 130)].into_iter().enumerate()
        {
            let b = SheMinHash::builder().window(window).num_hashes(m).seed(11);
            let mut fast = [b.clone().build(), b.clone().build()];
            let mut oracle = [b.clone().build(), b.build()];
            let mut rng = Xoshiro256::new(0x5EED + case as u64);
            let t_cycle = fast[0].engine().config().t_cycle;
            let mut saved = [fast[0].save_snapshot(), fast[1].save_snapshot()];
            let mut inserted = [0u64; 2];
            let (mut queries, mut step) = (0u64, 0u64);

            // At least six windows of inserts on each side, whatever the
            // clears and roll-backs in between do to the clocks.
            while inserted[0].min(inserted[1]) < 6 * window {
                step += 1;
                let side = rng.next_below(2);
                let key = rng.next_range(0, 4 * window);
                // A flip-crossing jump is followed at once by the query
                // that then has cleaning to do behind the insert caches.
                let ops = match rng.next_below(48) {
                    0 => vec![Op::Advance(side, key % 7)],
                    1 => vec![Op::Advance(side, t_cycle / 3 + key % t_cycle), Op::Similarity],
                    2 => vec![Op::Similarity],
                    3 => vec![
                        Op::InsertStr(side, format!("k{key}")),
                        Op::InsertStr(side, format!("a-key-longer-than-one-block-{key}")),
                    ],
                    4 => {
                        saved = [fast[0].save_snapshot(), fast[1].save_snapshot()];
                        vec![]
                    }
                    5 => vec![Op::Load(side, saved[side].clone())],
                    // The other stream's state, its clock elsewhere.
                    6 => vec![Op::Merge(side, fast[1 - side].save_snapshot())],
                    7 if key.is_multiple_of(8) => vec![Op::Clear(side)],
                    _ => vec![Op::Insert(side, key)],
                };
                for op in &ops {
                    if let Op::Insert(s, _) | Op::InsertStr(s, _) = op {
                        inserted[*s] += 1;
                    }
                    let (got, want) = (apply(&mut fast, op, false), apply(&mut oracle, op, true));
                    assert_eq!(got, want, "case {case} step {step}: similarity bits");
                    queries += u64::from(got.is_some());
                    for s in 0..2 {
                        assert_eq!(
                            fast[s].save_snapshot(),
                            oracle[s].save_snapshot(),
                            "case {case} (N={window}, m={m}) step {step} side {s}: snapshot bytes"
                        );
                    }
                }
            }
            assert!(queries > 10, "case {case}: only {queries} similarity queries");
        }
    }

    #[test]
    fn identical_windows_score_high() {
        let window = 1u64 << 12;
        let (mut a, mut b) = pair(window, 256);
        for i in 0..3 * window {
            a.insert(&i);
            b.insert(&i);
        }
        let s = a.similarity(&mut b);
        assert!(s > 0.95, "similarity {s} for identical streams");
    }

    #[test]
    fn disjoint_windows_score_low() {
        let window = 1u64 << 12;
        let (mut a, mut b) = pair(window, 256);
        for i in 0..3 * window {
            a.insert(&i);
            b.insert(&(i + 1_000_000_000));
        }
        let s = a.similarity(&mut b);
        assert!(s < 0.1, "similarity {s} for disjoint streams");
    }

    #[test]
    fn partial_overlap_tracks_truth() {
        let window = 1u64 << 13;
        let (mut a, mut b) = pair(window, 512);
        // Per step, both streams see key i with probability 1/2 (shared
        // space), else disjoint keys: Jaccard ≈ 1/3.
        for i in 0..3 * window {
            if i % 2 == 0 {
                a.insert(&i);
                b.insert(&i);
            } else {
                a.insert(&(i + 1_000_000_000));
                b.insert(&(i + 2_000_000_000));
            }
        }
        let truth = 1.0 / 3.0;
        let s = a.similarity(&mut b);
        assert!((s - truth).abs() < 0.12, "similarity {s} truth {truth}");
    }

    #[test]
    fn empty_pair_scores_zero() {
        let (mut a, mut b) = pair(1 << 10, 64);
        assert_eq!(a.similarity(&mut b), 0.0);
    }

    #[test]
    fn similarity_reacts_to_stream_drift() {
        // The sliding-window property: after one stream changes its key
        // space, similarity decays once the old window slides out.
        let window = 1u64 << 12;
        let (mut a, mut b) = pair(window, 256);
        for i in 0..2 * window {
            a.insert(&i);
            b.insert(&i);
        }
        let before = a.similarity(&mut b);
        for i in 0..3 * window {
            a.insert(&i);
            b.insert(&(i + 1_000_000_000));
        }
        let after = a.similarity(&mut b);
        assert!(before > 0.9, "before {before}");
        assert!(after < before - 0.5, "after {after} did not decay from {before}");
    }
}
