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
//! generic per-cell loop of [`She::insert`]. It is one pass over two flat
//! arrays — the row hashes (hashed lane-wise, [`UPDATE_LANES`] rows at a
//! time into a stack buffer) and the decoded minima — and is bit-for-bit
//! the generic loop: same hash per row, same `CheckGroup` instants, same
//! packed cells, same snapshot bytes (the generic loop is the oracle of
//! this module's tests). Two cached facts make that possible, under one
//! validity word:
//!
//! * `settled_until` — every group has been checked at the current mark
//!   and none flips before this instant. Because every insert checks
//!   every group, the 128 mark tests collapse to `t < settled_until`;
//!   when that trips, `settle()` runs `check_group` as the generic loop
//!   would, on the rows that can be due: those flipped since the last
//!   settle (`She::flipped_since` against the flip count it took; every
//!   row while unknown, or `G` or more flips behind). The new
//!   `settled_until` is the clock's next flip instant (`She::next_flip_at`).
//! * `mins` — the cells decoded (`u32::MAX` for an empty cell),
//!   re-decoded by the same `settle()` on the rows it checks. The per-key
//!   work is `operand(rows[i]) < mins[i]`; the packed array is written
//!   only for the rare rows whose minimum drops.
//!
//! `settled_until = 0` means "unknown" and is set by every other writer
//! of the cells: `engine_mut()` (restore, merge, reconcile) and
//! `clear()`. An `advance_time` past `settled_until` needs no mark of its
//! own: the next insert or `similarity()` finds `t ≥ settled_until`.
//!
//! ## The last-insert memo
//!
//! `F = min` gives the insert an exact shortcut (§4.5 with Algorithm 1's
//! staggered offsets). Right after key `k` is inserted, every row's
//! minimum is at most `k`'s operand there, and a minimum only falls until
//! its group is cleaned. So a later insert of `k` can lower only the rows
//! whose group flipped in between; every other row already holds a
//! minimum no larger than `k`'s operand, and offering it is a no-op.
//!
//! The memo is direct-mapped: `MEMO_SLOTS` (1 024) slots, each an 8-byte key
//! and the engine's flip count at its last insert. The flips come round
//! the groups in `gid` order, so the rows flipped since are one or two
//! row ranges — `She::flipped_since`, the function SHE-BM's sweep
//! (`check_due`) uses too. On a hit the insert hashes and offers only
//! those rows. A miss, a key that is not 8 bytes long, or `G` or more
//! flips since (a cycle or more) takes the full 128-row pass. The stored
//! key is compared in full: a fingerprint's false match would skip a row
//! whose minimum the insert lowers. Every write that is not an insert —
//! restore, merge, reconcile, `clear()` — goes through `engine_mut()`,
//! which empties the memo. On the benchmark's Zipf-1.05 trace routed to
//! four shards, 41 % of inserts hash no row at all and the mean falls
//! from 128 rows to ≈ 45.
//!
//! The memo takes 16 bytes a slot: 16 KiB per signature, 32 KiB of the
//! ≈ 88 KB a default shard holds (`sharded.rs`'s resident-bytes test;
//! its counted state is 50 524 B). [`SheMinHash::memory_bits`] leaves the
//! memo out, as it leaves out `mins`: both are caches of the insert path,
//! not the paper's sketch state. No snapshot carries them, and a
//! signature restored without them inserts and answers exactly as the
//! one that had them.
//!
//! ## Similarity
//!
//! `similarity()` settles each side that is not settled — `check_group`
//! on every row that can be due, as a full check would, also refreshing
//! `mins` — and then compares the two `mins` arrays only inside the rows
//! legal on both sides.
//!
//! With `w = 1`, a side's legal rows are its groups of legal age, at most
//! two row ranges read off its clock (`She::legal_groups`), repeated
//! offsets (`Tcycle < G`) included.
//! The two sides' ranges meet in at most four ranges, and there the rows
//! are compared in 32-bit lanes: a row counts when not both sides are
//! empty, and matches when the minima are equal. No row's age is tested,
//! and the rows outside the ranges are not read.

use crate::engine::FlipCount;
use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{CsmSpec, MinHashSpec, UPDATE_LANES};
use std::ops::Range;

/// `mins` entry of an empty cell: above every operand (`≤ 2^24`), so the
/// first offer always lands — `F(x, 0) = h(x)`.
const EMPTY: u32 = u32::MAX;

/// Slots of the last-insert memo (module docs, *The last-insert memo*).
const MEMO_SLOTS: usize = 1 << 10;

/// Direct-mapped memo of the flip count at which an 8-byte key was last
/// inserted. Not sketch state: no snapshot or `memory_bits` sees it.
#[derive(Clone)]
struct Memo(Box<[(u64, u64); MEMO_SLOTS]>);

/// The flip count of an empty slot: ahead of every count, so that
/// `flipped_since` has no answer for it and the insert takes the full pass.
const NEVER: u64 = u64::MAX;

impl Memo {
    fn new() -> Self {
        Self(Box::new([(0, NEVER); MEMO_SLOTS]))
    }

    /// Record that `key` was inserted at flip count `count`; return the
    /// count at its previous insert, [`NEVER`] when the slot holds another
    /// key. The stored key is compared in full: a false match would skip
    /// a row whose minimum the insert lowers.
    #[inline]
    fn swap(&mut self, key: u64, count: u64) -> u64 {
        let (last_key, last) = std::mem::replace(&mut self.0[Self::slot(key)], (key, count));
        if last_key == key {
            last
        } else {
            NEVER
        }
    }

    fn clear(&mut self) {
        self.0.fill((0, NEVER));
    }

    /// `key`'s slot: the top bits of a multiplicative hash.
    #[inline]
    fn slot(key: u64) -> usize {
        #[expect(clippy::cast_possible_truncation, reason = "the top 10 bits of a u64")]
        let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.ilog2())) as usize;
        slot
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Memo({MEMO_SLOTS} slots)")
    }
}

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
    /// The cells decoded, [`EMPTY`] for zero; meaningful only while
    /// `settled_until != 0`.
    mins: Vec<u32>,
    /// Every group is checked at its current mark and none flips before
    /// this instant; `0` = unknown (and `mins` stale).
    settled_until: u64,
    /// The engine's flip count, taken by the last settle: no flip since.
    flips: FlipCount,
    /// When each recently inserted 8-byte key was last inserted.
    memo: Memo,
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
        let engine = She::new(MinHashSpec::new(self.num_hashes, self.seed), cfg);
        SheMinHash {
            flips: engine.flip_count(),
            engine,
            mins: vec![EMPTY; self.num_hashes],
            settled_until: 0,
            memo: Memo::new(),
        }
    }
}

impl SheMinHash {
    /// Start building with the paper defaults.
    pub fn builder() -> SheMinHashBuilder {
        SheMinHashBuilder::default()
    }

    /// Insert an item at the next time step (module docs, *The row-wise
    /// insert* and *The last-insert memo*).
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.tick();
        let word = key.with_bytes(|b| <[u8; 8]>::try_from(b).ok().map(u64::from_le_bytes));
        let last = word.map_or(NEVER, |word| self.memo.swap(word, self.flips.count()));
        let [a, b] =
            self.engine.flipped_since(last, self.flips).unwrap_or([0..self.num_hashes(), 0..0]);
        self.offer_key(key, a);
        self.offer_key(key, b);
    }

    /// Hash `key`'s rows `rows`, [`UPDATE_LANES`] at a time into a stack
    /// buffer, and offer each chunk.
    #[inline]
    fn offer_key<K: HashKey + ?Sized>(&mut self, key: &K, rows: Range<usize>) {
        let mut buf = [0u32; UPDATE_LANES];
        for first in rows.clone().step_by(UPDATE_LANES) {
            let hashes = &mut buf[..(rows.end - first).min(UPDATE_LANES)];
            self.engine.spec().hash_rows(key, first, hashes);
            self.offer(first, hashes);
        }
    }

    /// The item clock — one insert, one tick — with every group settled
    /// at the new time.
    #[inline]
    fn tick(&mut self) {
        self.engine.advance_time(1);
        self.ensure_settled();
    }

    /// Settle every group at the current time unless that still holds
    /// from the last settle (no flip since).
    #[inline]
    fn ensure_settled(&mut self) {
        debug_assert!(self.settled_until == 0 || self.mins_are_decoded_cells());
        if self.engine.now() >= self.settled_until {
            self.settle();
        }
    }

    /// Offer the operands of rows `first..first + rows.len()` to their
    /// cells' minima.
    #[inline]
    fn offer(&mut self, first: usize, rows: &[u32]) {
        let mins = &mut self.mins[first..first + rows.len()];
        // One branch-free compare over two flat arrays; a row's minimum
        // drops on a vanishing fraction of inserts once the window fills.
        let drops = rows
            .iter()
            .zip(mins.iter())
            .fold(false, |any, (&h, &min)| any | (MinHashSpec::operand(h) < min));
        if drops {
            for (i, (&h, min)) in (first..).zip(rows.iter().zip(mins.iter_mut())) {
                let op = MinHashSpec::operand(h);
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
    ///
    /// Only the rows flipped since the last settle can be due
    /// ([`She::flipped_since`]; `w = 1`, so row `i` is group `i`): every
    /// other row was checked then and has not flipped since. While
    /// unknown, or `G` or more flips behind, every row is checked.
    #[cold]
    fn settle(&mut self) {
        let now = self.engine.flip_count();
        let known = if self.settled_until == 0 { None } else { Some(self.flips.count()) };
        let [a, b] = known
            .and_then(|s| self.engine.flipped_since(s, now))
            .unwrap_or([0..self.num_hashes(), 0..0]);
        for i in a.chain(b) {
            self.engine.check_group(i);
            self.mins[i] = decode(self.engine.peek_cell(i));
        }
        self.settled_until = self.engine.next_flip_at();
        self.flips = now;
    }

    fn mins_are_decoded_cells(&self) -> bool {
        self.mins.iter().enumerate().all(|(i, &min)| min == decode(self.engine.peek_cell(i)))
    }

    /// Estimated Jaccard similarity between this signature's window and
    /// `other`'s window.
    ///
    /// Positions are compared only when legal on both sides; positions empty
    /// on both sides are skipped (as in the fixed-window estimator).
    ///
    /// Each side is settled first unless it already is — the `CheckGroup`
    /// on every row that the insert path runs, which also leaves `mins`
    /// the decoded cells (module docs, *Similarity*). A side's legal rows
    /// are then at most two row ranges, and the `mins` are compared only
    /// where a range of one side meets a range of the other.
    pub fn similarity(&mut self, other: &mut SheMinHash) -> f64 {
        let m = self.num_hashes();
        assert_eq!(m, other.num_hashes(), "signature sizes differ");
        self.ensure_settled();
        other.ensure_settled();
        let (mut used, mut matches) = (0usize, 0usize);
        let (legal_a, legal_b) = (self.engine.legal_groups(), other.engine.legal_groups());
        for ra in legal_a {
            for rb in legal_b.clone() {
                let rows = ra.start.max(rb.start)..ra.end.min(rb.end);
                if rows.is_empty() {
                    continue;
                }
                // EMPTY is all ones, so `a & b` is EMPTY only when both
                // rows are; a pair of empty rows is equal but not counted.
                let (mut both, mut equal) = (0u32, 0u32);
                for (&a, &b) in self.mins[rows.clone()].iter().zip(&other.mins[rows.clone()]) {
                    both += u32::from(a & b != EMPTY);
                    equal += u32::from(a == b);
                }
                let empty = rows.len() - both as usize;
                (used, matches) = (used + both as usize, matches + equal as usize - empty);
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

    /// Mutable engine access for the snapshot layer (restore, merge,
    /// reconcile) and `clear`: whatever it writes, the insert path's
    /// caches and memo no longer describe.
    pub(crate) fn engine_mut(&mut self) -> &mut She<MinHashSpec> {
        self.settled_until = 0;
        self.memo.clear();
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

    /// Bytes on the heap: the engine's, `mins` and the memo.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.engine.heap_bytes()
            + std::mem::size_of_val(&self.mins[..])
            + std::mem::size_of_val(&*self.memo.0)
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

    /// The row-wise insert, memo included, is the generic per-cell loop:
    /// snapshot bytes after every op and similarity bits on every query,
    /// and a query right after every op that flips a group on either
    /// side, so that a settle that leaves a flipped row's `mins` behind
    /// shows in the bits.
    /// The drive mixes a uniform key stream with hot-key phases (at most
    /// eight keys, so most inserts meet the memo), two keys sharing one
    /// memo slot inserted alternately, repeats of one key across idle
    /// jumps of `k·Tcycle − 1`, `k·Tcycle` and `k·Tcycle + 1`, string keys
    /// of 8 bytes (memoised) and of other lengths (not), and restores,
    /// merges and clears, which must empty the memo.
    #[test]
    fn row_wise_insert_is_bit_for_bit_the_generic_insert() {
        use crate::SnapshotState;
        use she_hash::{RandomSource, Xoshiro256};

        // Two keys that share a memo slot.
        let twins = (7u64, (8u64..).find(|&k| Memo::slot(k) == Memo::slot(7)).expect("a twin"));
        // m = 5 and 67 are multiples of neither 4 nor 64 (ragged vector
        // tails, a ragged `updates` chunk); 130 crosses two chunks. N = 64
        // with 130 rows has Tcycle = 77 < G, so rows share offsets and
        // several flip at one instant.
        for (case, (window, m)) in [(64u64, 5usize), (100, 67), (256, 128), (1_000, 130), (64, 130)]
            .into_iter()
            .enumerate()
        {
            let b = SheMinHash::builder().window(window).num_hashes(m).seed(11);
            let mut fast = [b.clone().build(), b.clone().build()];
            let mut oracle = [b.clone().build(), b.build()];
            let mut rng = Xoshiro256::new(0x5EED + case as u64);
            let t_cycle = fast[0].engine().config().t_cycle;
            let mut saved = [fast[0].save_snapshot(), fast[1].save_snapshot()];
            let mut inserted = [0u64; 2];
            let (mut queries, mut step) = (0u64, 0u64);
            let flips = |pair: &[SheMinHash; 2]| pair.each_ref().map(|s| s.engine.flip_count());
            let mut last_flips = flips(&fast);

            // At least eight windows of inserts on each side, whatever the
            // clears and roll-backs in between do to the clocks.
            while inserted[0].min(inserted[1]) < 8 * window {
                step += 1;
                let side = rng.next_below(2);
                // Every other stretch of 2N steps is a hot-key phase.
                let hot = (step / (2 * window)).is_multiple_of(2);
                let key =
                    if hot { rng.next_below(8) as u64 } else { rng.next_range(0, 4 * window) };
                // A flip-crossing jump is followed at once by the query
                // that then has cleaning to do behind the insert caches.
                let ops = match rng.next_below(48) {
                    0 => vec![Op::Advance(side, key % 7)],
                    1 => vec![Op::Advance(side, t_cycle / 3 + key % t_cycle), Op::Similarity],
                    2 => vec![Op::Similarity],
                    3 => vec![
                        Op::InsertStr(side, format!("k{key}")),
                        Op::InsertStr(side, format!("{key:08}")),
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
                    // The other stream's state, its clock near this one's.
                    8 => vec![Op::Load(side, fast[1 - side].save_snapshot())],
                    9 => [twins.0, twins.1, twins.0, twins.1].map(|k| Op::Insert(side, k)).into(),
                    10 => {
                        let jump = (1 + key % 3) * t_cycle + rng.next_below(3) as u64 - 1;
                        vec![Op::Insert(side, key), Op::Advance(side, jump), Op::Insert(side, key)]
                    }
                    _ => vec![Op::Insert(side, key)],
                };
                for op in &ops {
                    if let Op::Insert(s, _) | Op::InsertStr(s, _) = op {
                        inserted[*s] += 1;
                    }
                    let (got, want) = (apply(&mut fast, op, false), apply(&mut oracle, op, true));
                    assert_eq!(got, want, "case {case} step {step}: similarity bits");
                    queries += u64::from(got.is_some());
                    if flips(&fast) != last_flips {
                        last_flips = flips(&fast);
                        let (got, want) = (
                            apply(&mut fast, &Op::Similarity, false),
                            apply(&mut oracle, &Op::Similarity, true),
                        );
                        assert_eq!(got, want, "case {case} step {step}: similarity after a flip");
                    }
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

    /// The oracle similarity: the per-row loop `similarity` ran before it
    /// settled — `CheckGroup` on row `i` of both sides (through
    /// `engine_mut`, which leaves the insert caches unknown), the `f64`
    /// legal-age test, and the packed cells.
    fn per_row_similarity(a: &mut SheMinHash, b: &mut SheMinHash) -> f64 {
        let beta_n = |s: &SheMinHash| s.engine().config().beta * s.engine().config().window as f64;
        let (beta_n_a, beta_n_b) = (beta_n(a), beta_n(b));
        let (a, b) = (a.engine_mut(), b.engine_mut());
        let (mut used, mut matches) = (0usize, 0usize);
        for i in 0..a.spec().num_cells() {
            a.check_group(i);
            b.check_group(i);
            if (a.group_age(i) as f64) < beta_n_a || (b.group_age(i) as f64) < beta_n_b {
                continue;
            }
            let (x, y) = (a.peek_cell(i), b.peek_cell(i));
            if x == 0 && y == 0 {
                continue;
            }
            used += 1;
            matches += usize::from(x == y);
        }
        if used == 0 {
            0.0
        } else {
            matches as f64 / used as f64
        }
    }

    /// The oracle similarity of settled signatures: the per-row pass
    /// `similarity` ran before it compared row ranges — every row's age
    /// against the least legal age, then one pass over both `mins` arrays.
    fn legal_rows_similarity(a: &mut SheMinHash, b: &mut SheMinHash) -> f64 {
        a.ensure_settled();
        b.ensure_settled();
        let legal = |s: &SheMinHash| -> Vec<bool> {
            let cfg = s.engine.config();
            let min_age = crate::engine::min_legal_age(cfg.beta * cfg.window as f64);
            (0..s.num_hashes()).map(|i| s.engine.group_age(i) >= min_age).collect()
        };
        let (mut used, mut matches) = (0usize, 0usize);
        for (((&min_a, &min_b), legal_a), legal_b) in
            a.mins.iter().zip(&b.mins).zip(legal(a)).zip(legal(b))
        {
            let counted = legal_a & legal_b & !(min_a == EMPTY && min_b == EMPTY);
            used += usize::from(counted);
            matches += usize::from(counted & (min_a == min_b));
        }
        if used == 0 {
            0.0
        } else {
            matches as f64 / used as f64
        }
    }

    #[test]
    fn similarity_is_bit_for_bit_the_per_row_loop() {
        use crate::SnapshotState;
        use she_hash::{RandomSource, Xoshiro256};

        // βN = 50 (integral); 900.000…01, so age 900 is not legal (130
        // rows: two insert chunks); 233.1, non-integral; and N = 64 with
        // 130 rows, Tcycle = 77 < G, so rows share offsets.
        for (case, (window, m, beta)) in
            [(100u64, 67usize, 0.5), (1_000, 130, 0.9), (333, 64, 0.7), (64, 130, 0.5)]
                .into_iter()
                .enumerate()
        {
            let b = SheMinHash::builder().window(window).num_hashes(m).beta(beta).seed(11);
            let mut fast = [b.clone().build(), b.clone().build()];
            let mut oracle = [b.clone().build(), b.build()];
            let mut rng = Xoshiro256::new(0x51A1 + case as u64);
            let t_cycle = fast[0].engine().config().t_cycle;
            let mut saved = [fast[0].save_snapshot(), fast[1].save_snapshot()];
            // Queries that cleaned a group, that met different clocks, that
            // met a row empty on both sides, and that read something.
            let (mut cleaned, mut skewed, mut empty, mut nonzero) = (0, 0, 0, 0);
            for step in 0..12 * window {
                let side = rng.next_below(2);
                let key = rng.next_range(0, 4 * window);
                let jump = t_cycle / 3 + key % t_cycle;
                let ops = match rng.next_below(40) {
                    0 => vec![Op::Advance(side, key % 7)],
                    // An idle jump past flips: the next query cleans.
                    1 => vec![Op::Advance(side, jump)],
                    // The same jump on both sides: the rows both clean are
                    // empty on both.
                    2 => vec![Op::Advance(0, jump), Op::Advance(1, jump)],
                    3 => {
                        saved = [fast[0].save_snapshot(), fast[1].save_snapshot()];
                        continue;
                    }
                    4 => vec![Op::Load(side, saved[side].clone())],
                    // The other stream's state, its clock elsewhere.
                    5 => vec![Op::Merge(side, fast[1 - side].save_snapshot())],
                    6 if key.is_multiple_of(4) => vec![Op::Clear(side)],
                    _ => vec![Op::Insert(side, key)],
                };
                for op in &ops {
                    apply(&mut fast, op, false);
                    apply(&mut oracle, op, false);
                }
                let before = [oracle[0].save_snapshot(), oracle[1].save_snapshot()];
                let ([fa, fb], [oa, ob]) = (&mut fast, &mut oracle);
                let (fa, fb, oa, ob) =
                    if step % 2 == 0 { (fa, fb, oa, ob) } else { (fb, fa, ob, oa) };
                let rows = legal_rows_similarity(&mut fa.clone(), &mut fb.clone());
                let (got, want) = (fa.similarity(fb), per_row_similarity(oa, ob));
                let at = format!("case {case} (N={window}, m={m}, β={beta}) step {step}");
                assert_eq!(got.to_bits(), want.to_bits(), "{at}: similarity bits");
                assert_eq!(got.to_bits(), rows.to_bits(), "{at}: similarity bits, per-row pass");
                for s in 0..2 {
                    assert_eq!(
                        fast[s].save_snapshot(),
                        oracle[s].save_snapshot(),
                        "{at} side {s}: snapshot bytes"
                    );
                }
                cleaned +=
                    usize::from(before != [oracle[0].save_snapshot(), oracle[1].save_snapshot()]);
                skewed += usize::from(fast[0].now() != fast[1].now());
                let [fa, fb] = &fast;
                empty += usize::from(fa.mins.iter().zip(&fb.mins).any(|(&a, &b)| a & b == EMPTY));
                nonzero += usize::from(got != 0.0);
            }
            assert!(
                cleaned > 20 && skewed > 500 && empty > 20 && nonzero > 100,
                "case {case}: {cleaned} / {skewed} / {empty} / {nonzero}"
            );
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
