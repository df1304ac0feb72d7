//! The generic hardware-version SHE engine (Section 3.3, Algorithm 1).
//!
//! The cell array of a CSM algorithm is split into `G` groups of `w` cells.
//! Group `gid` carries:
//!
//! * a static time offset `d_gid = -floor(Tcycle · gid / G)`, spreading the
//!   groups' cleaning deadlines evenly over one cycle, and
//! * a stored 1-bit time mark `m[gid]`.
//!
//! The *current* mark of a group is `floor((t + d_gid)/Tcycle) mod 2` — it
//! flips exactly once per `Tcycle`. When an operation touches a group whose
//! stored mark differs from the current mark, the group is reset to zero and
//! the mark updated (`CheckGroup`); a group untouched for a full cycle keeps
//! stale data, which is the on-demand-cleaning error analyzed in §5.1.
//!
//! A group's **age** is `(t + d_gid) mod Tcycle`: the time since its last
//! *scheduled* cleaning. Ages classify cells as young (`age < N`), perfect
//! (`age == N`), or aged (`age > N`) — the basis of age-sensitive selection.
//!
//! [`She::insert`] is Algorithm 1 verbatim — hash, then `CheckGroup` +
//! `F` per hashed cell — and the insert path of every adapter whose `K`
//! is a handful of cells (BF, BM, CM, HLL, CS). SHE-MH (`K = M`, `w = 1`)
//! walks all of its cells itself in one row-wise pass (`mh.rs`) built on
//! `advance_time(1)`, `check_group` and the crate-private `next_flip` /
//! `write_cell`; this loop is the oracle that pass is tested bit-for-bit
//! against.

use crate::SheConfig;
use she_hash::HashKey;
use she_sketch::{CellUpdate, CsmSpec, PackedArray};

/// Age classification of a cell/group at query time (Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellAge {
    /// Cleaned more recently than one window ago: records a *smaller*
    /// window. Using it risks false negatives / underestimation.
    Young,
    /// Cleaned exactly one window ago: records the sliding window exactly.
    Perfect,
    /// Cleaned more than one window ago: records a *larger* window. Using it
    /// risks false positives / overestimation but never misses in-window
    /// items.
    Aged,
}

/// The generic sliding-window engine wrapping any [`CsmSpec`].
///
/// The five task adapters ([`crate::SheBloomFilter`] etc.) own a `She<S>` and
/// add their task-specific query strategy on top.
#[derive(Debug, Clone)]
pub struct She<S: CsmSpec> {
    spec: S,
    cfg: SheConfig,
    cells: PackedArray,
    /// Per-group metadata, kept together so the insertion fast path touches
    /// a single cache line per hashed group.
    groups: Vec<GroupMeta>,
    /// `floor(Tcycle · gid / G)` per group (the negated offset `-d_gid`).
    /// Only read on query paths; the insert path works off `GroupMeta`.
    neg_offsets: Vec<u64>,
    /// Item counter — the logical clock `t_cur`. Counts insertions, so a
    /// count-based window of `N` items is `N` time units (the paper assumes
    /// uniform arrival for time-based windows).
    t: u64,
    scratch: Vec<CellUpdate>,
}

/// A counter snapshot of one engine, cheap to take and `Copy` — the unit
/// a serving layer (`she-server`) reports per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Logical time (items inserted so far).
    pub now: u64,
    /// Configured window length.
    pub window: u64,
    /// Number of time-mark groups `G`.
    pub num_groups: usize,
    /// Total footprint in bits (cells + marks + counter).
    pub memory_bits: usize,
}

/// Per-group pipeline state packed into one word: the stored time mark
/// (what the hardware keeps in its mark memory), a lazily-maintained cache
/// of the *current* mark (which the FPGA computes combinationally each
/// cycle but a CPU would otherwise re-derive with a 128-bit division per
/// insertion), and the time of the next mark flip. One `u64` per group
/// keeps the metadata array at 1 bit per cell for `w = 64`, so the
/// insertion fast path stays cache-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupMeta(u64);

const STORED_BIT: u64 = 1 << 63;
const CUR_BIT: u64 = 1 << 62;
const FLIP_MASK: u64 = CUR_BIT - 1;

impl GroupMeta {
    #[inline]
    fn new(next_flip: u64, stored_mark: bool, cur_mark: bool) -> Self {
        debug_assert!(next_flip <= FLIP_MASK, "clock exceeds 2^62");
        Self(
            next_flip
                | if stored_mark { STORED_BIT } else { 0 }
                | if cur_mark { CUR_BIT } else { 0 },
        )
    }
    #[inline]
    fn next_flip(self) -> u64 {
        self.0 & FLIP_MASK
    }
    #[inline]
    fn stored_mark(self) -> bool {
        self.0 & STORED_BIT != 0
    }
    #[inline]
    fn cur_mark(self) -> bool {
        self.0 & CUR_BIT != 0
    }
    #[inline]
    fn set_stored(&mut self, v: bool) {
        self.0 = (self.0 & !STORED_BIT) | if v { STORED_BIT } else { 0 };
    }
}

impl<S: CsmSpec> She<S> {
    /// Wrap `spec` with sliding-window behaviour per `cfg`.
    pub fn new(spec: S, cfg: SheConfig) -> Self {
        cfg.validate();
        let m = spec.num_cells();
        assert!(
            cfg.group_cells <= m,
            "group size w={} exceeds the cell count M={m}",
            cfg.group_cells
        );
        let g = m.div_ceil(cfg.group_cells);
        let neg_offsets: Vec<u64> =
            (0..g).map(|gid| ((cfg.t_cycle as u128 * gid as u128) / g as u128) as u64).collect();
        let cells = PackedArray::new(m, spec.cell_bits());
        // Stored marks start equal to the current marks at t = 0 so that the
        // zeroed cells are not spuriously "due" for cleaning. Each group's
        // mark next flips at its offset (mod Tcycle), strictly after t = 0.
        let mut engine = Self {
            spec,
            cfg,
            cells,
            groups: vec![GroupMeta::new(0, false, false); g],
            neg_offsets,
            t: 0,
            scratch: Vec::new(),
        };
        for gid in 0..g {
            let mark = engine.current_mark(gid);
            let ofs = engine.neg_offsets[gid];
            engine.groups[gid] =
                GroupMeta::new(if ofs > 0 { ofs } else { engine.cfg.t_cycle }, mark, mark);
        }
        engine
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

    /// Number of groups `G`.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Current logical time (number of insertions so far).
    #[inline]
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Advance the logical clock without inserting (time-based windows with
    /// idle periods).
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        self.t += dt;
    }

    /// Memory footprint in bits: cells plus one mark bit per group plus the
    /// 32-bit item counter (the FPGA implementation's register).
    pub fn memory_bits(&self) -> usize {
        self.cells.memory_bits() + self.num_groups() + 32
    }

    /// One-call counter snapshot — what a serving layer exports per shard.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            now: self.t,
            window: self.cfg.window,
            num_groups: self.num_groups(),
            memory_bits: self.memory_bits(),
        }
    }

    /// Group id owning cell `index`.
    #[inline]
    pub fn group_of(&self, index: usize) -> usize {
        index / self.cfg.group_cells
    }

    /// First cell index of group `gid`.
    #[inline]
    fn group_start(&self, gid: usize) -> usize {
        gid * self.cfg.group_cells
    }

    /// Number of cells in group `gid` (the last group may be short).
    #[inline]
    fn group_len(&self, gid: usize) -> usize {
        let start = self.group_start(gid);
        self.cfg.group_cells.min(self.cells.len() - start)
    }

    /// The current time mark `floor((t + d_gid)/Tcycle) mod 2`.
    #[inline]
    fn current_mark(&self, gid: usize) -> bool {
        let tc = self.cfg.t_cycle as i128;
        let shifted = self.t as i128 - self.neg_offsets[gid] as i128;
        shifted.div_euclid(tc).rem_euclid(2) == 1
    }

    /// The group's age: time since its last scheduled cleaning,
    /// `(t + d_gid) mod Tcycle ∈ [0, Tcycle)`.
    #[inline]
    pub fn group_age(&self, gid: usize) -> u64 {
        let tc = self.cfg.t_cycle as i128;
        let shifted = self.t as i128 - self.neg_offsets[gid] as i128;
        shifted.rem_euclid(tc) as u64
    }

    /// The group's **mark epoch**: how many mark flips group `gid` has
    /// scheduled up to (and including) the current clock, counted from
    /// `t = 0`. The epoch increments by exactly one at each flip instant
    /// `t = ofs_gid + j·Tcycle`, so two observations with equal epochs
    /// bracket *no* flip of this group — the invariant the read path's
    /// [`MarkCache`](crate) signatures rest on. Pure: never cleans.
    #[inline]
    pub fn mark_epoch(&self, gid: usize) -> u64 {
        let tc = self.cfg.t_cycle;
        // ofs < Tcycle, so t + tc - ofs never underflows; equals
        // floor((t - ofs)/Tcycle) + 1 for every t ≥ 0 (also t < ofs).
        (self.t + tc - self.neg_offsets[gid]) / tc
    }

    /// Observe the group's *current* mark without mutating anything —
    /// the pure counterpart of the cached mark [`She::check_group`]
    /// refreshes. Equal to `current_mark(gid)` on every state.
    #[inline]
    pub fn observe_mark(&self, gid: usize) -> bool {
        self.mark_epoch(gid).is_multiple_of(2)
    }

    /// Whether group `gid` is **due** for cleaning: its stored mark
    /// disagrees with the observed current mark, so the next
    /// [`She::check_group`] will zero its cells. Pure.
    #[inline]
    pub fn group_due(&self, gid: usize) -> bool {
        self.groups[gid].stored_mark() != self.observe_mark(gid)
    }

    /// Whether the group is mature (`age ≥ N`) — the pure half of
    /// [`She::check_mature`]: maturity depends only on the clock, never
    /// on whether the lazy cleaning has run yet.
    #[inline]
    pub fn observe_mature(&self, gid: usize) -> bool {
        self.group_age(gid) >= self.cfg.window
    }

    /// Read a cell *as the next `check_group` would leave it*: zero when
    /// the owning group is due for cleaning, the raw stored value
    /// otherwise. Pure — frozen-read query variants use this so two
    /// engines with identical insert histories answer identically no
    /// matter how differently they have been queried.
    #[inline]
    pub fn peek_cell_effective(&self, index: usize) -> u64 {
        if self.group_due(self.group_of(index)) {
            0
        } else {
            self.cells.get(index)
        }
    }

    /// Fold a 64-bit **time-mark signature** over the groups the hashed
    /// cells of `updates` touch. The signature changes whenever any
    /// touched group's *observation context* changes: its
    /// [`She::mark_epoch`] steps (a cleaning the answer predates becomes
    /// possible) or its [`She::observe_mature`] bit flips (the query's
    /// age-sensitive cell selection changes). Between those instants it is
    /// stable no matter how many inserts land — the invalidation key of
    /// the read path's `MarkCache`. A wrapping sum of per-group mixes, so
    /// a group hashed twice still contributes. Pure.
    pub fn mark_sig_of(&self, updates: &[CellUpdate]) -> u64 {
        let mut sig = 0u64;
        for u in updates {
            let gid = u.group(self.cfg.group_cells);
            let epoch = (self.mark_epoch(gid) << 1) | u64::from(self.observe_mature(gid));
            sig = sig
                .wrapping_add(she_hash::mix64(crate::convert::u64_of(gid).rotate_left(32) ^ epoch));
        }
        sig
    }

    /// Age of the group owning `index` (cells share their group's age).
    #[inline]
    pub fn cell_age(&self, index: usize) -> u64 {
        self.group_age(self.group_of(index))
    }

    /// Classify a group by its age relative to the window `N`.
    pub fn classify(&self, gid: usize) -> CellAge {
        let age = self.group_age(gid);
        match age.cmp(&self.cfg.window) {
            std::cmp::Ordering::Less => CellAge::Young,
            std::cmp::Ordering::Equal => CellAge::Perfect,
            std::cmp::Ordering::Greater => CellAge::Aged,
        }
    }

    /// Bring the cached current mark of `gid` up to the present.
    #[inline]
    fn refresh_cur_mark(&mut self, gid: usize) -> bool {
        let meta = self.groups[gid];
        if self.t < meta.next_flip() {
            return meta.cur_mark(); // fast path: no flip since last look
        }
        let tc = self.cfg.t_cycle;
        let flips = (self.t - meta.next_flip()) / tc + 1;
        let cur = meta.cur_mark() ^ (flips % 2 == 1);
        let updated = GroupMeta::new(meta.next_flip() + flips * tc, meta.stored_mark(), cur);
        self.groups[gid] = updated;
        cur
    }

    /// `CheckGroup` of Algorithm 1: lazily reset the group if its stored
    /// mark disagrees with the current mark. Returns true if a reset
    /// happened.
    pub fn check_group(&mut self, gid: usize) -> bool {
        let cur = self.refresh_cur_mark(gid);
        debug_assert_eq!(cur, self.current_mark(gid), "mark cache out of sync");
        if self.groups[gid].stored_mark() != cur {
            self.groups[gid].set_stored(cur);
            let (start, len) = (self.group_start(gid), self.group_len(gid));
            self.cells.clear_range(start, len);
            true
        } else {
            false
        }
    }

    /// `CheckMature` of Algorithm 1: check the group, then report whether it
    /// is mature (perfect or aged, `age ≥ N`) — usable by one-sided-error
    /// queries.
    pub fn check_mature(&mut self, gid: usize) -> bool {
        self.check_group(gid);
        self.group_age(gid) >= self.cfg.window
    }

    /// Whether the group's age lies in the legal range `[βN, Tcycle)` used
    /// by two-sided estimators. Checks (and possibly cleans) the group
    /// first.
    pub fn check_legal(&mut self, gid: usize) -> bool {
        self.check_group(gid);
        self.group_age(gid) as f64 >= self.cfg.beta * self.cfg.window as f64
    }

    /// Insert one item: advance the clock, then for every hashed cell run
    /// `CheckGroup` on its group and apply the update function `F`.
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.t += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        self.spec.updates(key, &mut scratch);
        for u in &scratch {
            self.check_group(self.group_of(u.index));
            let old = self.cells.get(u.index);
            self.cells.set(u.index, self.spec.apply(u.operand, old));
        }
        self.scratch = scratch;
    }

    /// The cached instant of group `gid`'s next mark flip. Right after a
    /// [`She::check_group`] at the current time it lies strictly after
    /// `now()`, and until the clock reaches it checking the group again is
    /// a no-op.
    #[inline]
    pub(crate) fn next_flip(&self, gid: usize) -> u64 {
        self.groups[gid].next_flip()
    }

    /// Store `v` in cell `index` without touching marks. The caller has
    /// already checked the owning group at the current time.
    #[inline]
    pub(crate) fn write_cell(&mut self, index: usize, v: u64) {
        self.cells.set(index, v);
    }

    /// Read a cell *after* checking its group (query-path accessor).
    pub fn read_cell(&mut self, index: usize) -> u64 {
        self.check_group(self.group_of(index));
        self.cells.get(index)
    }

    /// Read a cell without touching marks (test/debug accessor; may observe
    /// stale pre-cleaning data).
    #[inline]
    pub fn peek_cell(&self, index: usize) -> u64 {
        self.cells.get(index)
    }

    /// Check every group (a query-time sweep used by whole-array estimators)
    /// and then visit each group as `(gid, age, cell values)`.
    pub fn for_each_group(&mut self, mut f: impl FnMut(usize, u64, &mut dyn Iterator<Item = u64>)) {
        for gid in 0..self.num_groups() {
            self.check_group(gid);
            let age = self.group_age(gid);
            let (start, len) = (self.group_start(gid), self.group_len(gid));
            let cells = &self.cells;
            let mut iter = (start..start + len).map(move |i| cells.get(i));
            f(gid, age, &mut iter);
        }
    }

    /// Compute the hashed cell updates for `key` into `out` (query helper
    /// shared by the adapters).
    #[inline]
    pub fn updates_for<K: HashKey + ?Sized>(&self, key: &K, out: &mut Vec<CellUpdate>) {
        self.spec.updates(key, out);
    }

    /// Whether a clock arriving from outside (restore, merge) leaves the
    /// mark arithmetic room. Next-flip instants run up to one `Tcycle`
    /// ahead of the clock and share their word with the two mark bits, so
    /// `t + 2·Tcycle` must stay below `2^62`; past that a flip instant
    /// would spill into the stored/current mark bits.
    pub(crate) fn clock_fits(&self, t: u64) -> bool {
        let ahead = self.cfg.t_cycle.checked_mul(2).and_then(|c| t.checked_add(c));
        ahead.is_some_and(|end| end <= FLIP_MASK)
    }

    /// Snapshot support: the clock and the stored marks.
    pub(crate) fn snapshot_state(&self) -> (u64, Vec<bool>, &PackedArray) {
        (self.t, self.groups.iter().map(|m| m.stored_mark()).collect(), &self.cells)
    }

    /// Snapshot support: restore `(clock, stored marks, cell words)` and
    /// rebuild the lazy mark caches.
    pub(crate) fn restore_state(&mut self, t: u64, marks: &[bool], words: &[u64]) {
        assert_eq!(marks.len(), self.groups.len());
        self.t = t;
        self.cells.copy_from_words(words);
        let tc = self.cfg.t_cycle;
        for (gid, &stored) in marks.iter().enumerate() {
            let cur = self.current_mark(gid);
            // Next flip: the smallest `ofs + j·Tcycle` strictly greater
            // than `t`.
            let ofs = self.neg_offsets[gid];
            let j = (self.t + tc - ofs) / tc; // ≥ 1 since t ≥ 0, ofs < Tc
            self.groups[gid] = GroupMeta::new(ofs + j * tc, stored, cur);
        }
    }

    /// Snapshot support: merge another engine's `(clock, stored marks,
    /// cell words)` into this one cell-wise under `mode`.
    ///
    /// The clock advances to `max(t, t_other)`. Every local group is
    /// first `CheckGroup`ed at the merged time (cleaning it if due, and
    /// leaving its stored mark equal to its current mark); the other
    /// state's group is then included iff *its* stored mark also equals
    /// the current mark — a group whose mark disagrees is due for
    /// cleaning and would contribute only expired cells. Because each
    /// side's contribution is "its live cells, else zero" and every
    /// [`MergeMode`] operator is commutative with zero as identity, the
    /// merge commutes cell-for-cell.
    pub(crate) fn merge_state(
        &mut self,
        t_other: u64,
        marks_other: &[bool],
        words_other: &[u64],
        mode: crate::snapshot::MergeMode,
    ) {
        assert_eq!(marks_other.len(), self.groups.len());
        self.t = self.t.max(t_other);
        let mut other = PackedArray::new(self.cells.len(), self.cells.cell_bits());
        other.copy_from_words(words_other);
        for (gid, &mark_other) in marks_other.iter().enumerate() {
            self.check_group(gid);
            let cur = self.groups[gid].stored_mark();
            if mark_other != cur {
                continue; // other's group is due for cleaning: all expired
            }
            let (start, len) = (self.group_start(gid), self.group_len(gid));
            for i in start..start + len {
                let merged = mode.apply(self.cells.get(i), other.get(i));
                self.cells.set(i, merged);
            }
        }
    }

    /// Reset to the empty state at time zero.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.t = 0;
        for gid in 0..self.groups.len() {
            let mark = self.current_mark(gid);
            let ofs = self.neg_offsets[gid];
            self.groups[gid] =
                GroupMeta::new(if ofs > 0 { ofs } else { self.cfg.t_cycle }, mark, mark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use she_sketch::BloomSpec;

    fn tiny(window: u64, alpha: f64, m: usize, w: usize) -> She<BloomSpec> {
        let cfg = SheConfig::builder().window(window).alpha(alpha).group_cells(w).build();
        She::new(BloomSpec::new(m, 2, 42), cfg)
    }

    #[test]
    fn ages_are_spread_over_the_cycle() {
        let s = tiny(100, 0.5, 512, 64); // Tcycle = 150, G = 8
        let mut ages: Vec<u64> = (0..s.num_groups()).map(|g| s.group_age(g)).collect();
        // At t = 0 group 0 has age 0; the offsets spread the 8 groups' ages
        // evenly over [0, Tcycle) with gaps of ~Tcycle/G.
        assert_eq!(ages[0], 0);
        assert!(ages.iter().all(|&a| a < 150));
        ages.sort_unstable();
        for w in ages.windows(2) {
            let gap = w[1] - w[0];
            assert!((17..=20).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn age_advances_with_time_and_wraps() {
        let mut s = tiny(100, 0.5, 512, 64);
        let g = 3;
        let a0 = s.group_age(g);
        s.advance_time(10);
        assert_eq!(s.group_age(g), (a0 + 10) % 150);
        s.advance_time(150);
        assert_eq!(s.group_age(g), (a0 + 160) % 150);
    }

    #[test]
    fn mark_flips_once_per_cycle() {
        let mut s = tiny(100, 0.5, 512, 64);
        let g = 2;
        let mut flips = 0;
        let mut prev = s.current_mark(g);
        for _ in 0..600 {
            s.advance_time(1);
            let cur = s.current_mark(g);
            if cur != prev {
                flips += 1;
                prev = cur;
            }
        }
        assert_eq!(flips, 4, "600 time units = 4 cycles of 150");
    }

    #[test]
    fn check_group_resets_exactly_when_mark_flips() {
        let mut s = tiny(100, 0.5, 512, 64);
        // Dirty a cell in group 0 directly through an insert whose hash we
        // locate afterwards.
        s.insert(&7u64);
        let mut ups = Vec::new();
        s.updates_for(&7u64, &mut ups);
        let idx = ups[0].index;
        let gid = s.group_of(idx);
        assert_eq!(s.peek_cell(idx), 1);
        // No flip yet: check_group is a no-op.
        assert!(!s.check_group(gid));
        assert_eq!(s.peek_cell(idx), 1);
        // Jump past the group's next cleaning deadline: mark flips, reset.
        s.advance_time(s.config().t_cycle);
        assert!(s.check_group(gid));
        assert_eq!(s.peek_cell(idx), 0);
        // Idempotent afterwards.
        assert!(!s.check_group(gid));
    }

    #[test]
    fn stale_group_survives_two_full_cycles_unchecked() {
        // The §5.1 failure mode: after exactly 2·Tcycle the mark returns to
        // its old value, so an untouched group is NOT cleaned — stale data
        // survives. This is the modelled on-demand-cleaning error.
        let mut s = tiny(100, 0.5, 512, 64);
        s.insert(&7u64);
        let mut ups = Vec::new();
        s.updates_for(&7u64, &mut ups);
        let idx = ups[0].index;
        let gid = s.group_of(idx);
        s.advance_time(2 * s.config().t_cycle);
        assert!(!s.check_group(gid), "mark parity repeats after 2 cycles");
        assert_eq!(s.peek_cell(idx), 1, "stale bit survived, as modelled");
    }

    #[test]
    fn classification_boundaries() {
        let mut s = tiny(100, 0.5, 512, 512); // single group, offset 0
        assert_eq!(s.classify(0), CellAge::Young);
        s.advance_time(99);
        assert_eq!(s.classify(0), CellAge::Young);
        s.advance_time(1);
        assert_eq!(s.classify(0), CellAge::Perfect);
        s.advance_time(1);
        assert_eq!(s.classify(0), CellAge::Aged);
        s.advance_time(48); // age 149 = Tcycle - 1
        assert_eq!(s.classify(0), CellAge::Aged);
        s.advance_time(1); // wraps to 0
        assert_eq!(s.classify(0), CellAge::Young);
    }

    #[test]
    fn memory_accounting_includes_marks() {
        let s = tiny(100, 0.5, 512, 64);
        assert_eq!(s.memory_bits(), 512 + 8 + 32);
    }

    #[test]
    fn insert_advances_clock() {
        let mut s = tiny(100, 0.5, 512, 64);
        for i in 0..10u64 {
            s.insert(&i);
        }
        assert_eq!(s.now(), 10);
    }

    #[test]
    fn clear_restores_time_zero() {
        let mut s = tiny(100, 0.5, 512, 64);
        for i in 0..1000u64 {
            s.insert(&i);
        }
        s.clear();
        assert_eq!(s.now(), 0);
        assert_eq!(s.peek_cell(0), 0);
        assert_eq!(s.group_age(0), 0);
    }

    #[test]
    fn uneven_last_group_is_handled() {
        // M = 100, w = 64 → groups of 64 and 36 cells.
        let mut s = tiny(50, 1.0, 100, 64);
        assert_eq!(s.num_groups(), 2);
        s.advance_time(2 * s.config().t_cycle + 1);
        // Must not panic when clearing the short group.
        s.check_group(1);
    }

    #[test]
    fn observe_mark_matches_current_mark_everywhere() {
        let mut s = tiny(100, 0.5, 512, 64); // Tcycle = 150, G = 8
        for step in 0..700u64 {
            for gid in 0..s.num_groups() {
                assert_eq!(s.observe_mark(gid), s.current_mark(gid), "gid {gid} at t {}", s.now());
            }
            s.advance_time(1 + step % 3);
        }
    }

    #[test]
    fn mark_epoch_increments_exactly_at_flips() {
        let mut s = tiny(100, 0.5, 512, 64);
        for gid in 0..s.num_groups() {
            let mut prev_epoch = s.mark_epoch(gid);
            let mut prev_mark = s.current_mark(gid);
            for _ in 0..600 {
                s.advance_time(1);
                let e = s.mark_epoch(gid);
                let m = s.current_mark(gid);
                assert!(e == prev_epoch || e == prev_epoch + 1);
                assert_eq!(e != prev_epoch, m != prev_mark, "epoch must step iff mark flips");
                prev_epoch = e;
                prev_mark = m;
            }
            s.clear();
        }
    }

    #[test]
    fn effective_cell_predicts_check_group() {
        let mut s = tiny(100, 0.5, 512, 64);
        s.insert(&7u64);
        let mut ups = Vec::new();
        s.updates_for(&7u64, &mut ups);
        let idx = ups[0].index;
        let gid = s.group_of(idx);
        // Not yet due: effective = stored.
        assert!(!s.group_due(gid));
        assert_eq!(s.peek_cell_effective(idx), s.peek_cell(idx));
        // One cycle later the group is due: effective reads zero while the
        // stored bit is still set, and check_group then agrees.
        s.advance_time(s.config().t_cycle);
        assert!(s.group_due(gid));
        assert_eq!(s.peek_cell_effective(idx), 0);
        assert_eq!(s.peek_cell(idx), 1);
        s.check_group(gid);
        assert_eq!(s.peek_cell(idx), 0);
        assert!(!s.group_due(gid));
    }

    #[test]
    fn mark_sig_changes_iff_observation_context_changes() {
        let mut s = tiny(100, 0.5, 512, 64);
        let mut ups = Vec::new();
        s.updates_for(&99u64, &mut ups);
        let context = |s: &She<BloomSpec>| -> Vec<(u64, bool)> {
            ups.iter()
                .map(|u| {
                    let gid = s.group_of(u.index);
                    (s.mark_epoch(gid), s.observe_mature(gid))
                })
                .collect()
        };
        // Reading twice without advancing the clock is stable.
        assert_eq!(s.mark_sig_of(&ups), s.mark_sig_of(&ups));
        // Step the clock one unit at a time across a full cycle: the
        // signature must change exactly when some touched group's
        // (epoch, maturity) context changes — flips and maturity
        // crossings — and hold steady otherwise.
        let mut prev_ctx = context(&s);
        let mut prev_sig = s.mark_sig_of(&ups);
        let mut changes = 0;
        for _ in 0..s.config().t_cycle {
            s.advance_time(1);
            let ctx = context(&s);
            let sig = s.mark_sig_of(&ups);
            assert_eq!(ctx != prev_ctx, sig != prev_sig, "sig must track context");
            if sig != prev_sig {
                changes += 1;
            }
            prev_ctx = ctx;
            prev_sig = sig;
        }
        assert!(changes >= 2, "a full cycle crosses flips and maturity edges");
    }

    #[test]
    fn for_each_group_visits_all_cells() {
        let mut s = tiny(100, 0.5, 512, 64);
        let mut total = 0usize;
        s.for_each_group(|_, _, cells| total += cells.count());
        assert_eq!(total, 512);
    }
}
