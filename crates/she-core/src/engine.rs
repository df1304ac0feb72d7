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
//! Algorithm 1 is fed **rows**: a spec hashes a key's `K` rows
//! ([`CsmSpec::hash_rows`]) and maps each row's hash to a cell update
//! ([`CsmSpec::row_update`]). [`She::insert`] hashes the rows
//! [`UPDATE_LANES`] at a time into a stack buffer; [`She::insert_rows`]
//! takes rows a caller already hashed (a shard hashes a key once and
//! feeds BF and CM from the same rows). Both advance the clock, then
//! run `CheckGroup` + `F` per update in row order, through the one
//! function that writes an inserted cell — the insert path of every
//! adapter whose `K` is a handful of cells (BF, CM, HLL, CS). That
//! function hands the spec's cell width to the packed array, so 1-bit
//! BF cells compile to constant shifts and masks (the configurable
//! widths of CM and HLL stay runtime values). Two adapters run their
//! own pass on the same primitives, and this loop is the oracle each is
//! tested bit-for-bit against: SHE-BM (`K = 1`) ticks, `check_group`s
//! and writes its one bit through `apply_update`, which reports the old
//! bit so that it can count set bits per group (`bm.rs`); SHE-MH
//! (`K = M`, `w = 1`) walks its cells in one row-wise pass (`mh.rs`)
//! built on `advance_time(1)`, `check_group` and the crate-private
//! `next_flip` / `write_cell`, and skips the rows its last-insert memo
//! rules out by the flip count ([`She::flipped_since`]).
//!
//! Nothing on an insert or point read divides: the specs reduce a row
//! hash to a cell with a precomputed reciprocal (`she_hash::FastMod`),
//! and [`She::group_of`] is a shift for a power-of-two `w` (every served
//! configuration) and the same kind of reciprocal otherwise.
//!
//! Whole-array queries (SHE-BM, SHE-HLL) sweep the groups through
//! [`She::for_each_group`], which hands each group over as a
//! [`GroupView`]: for bit cells its zero count is a popcount over the
//! group's words, as the hardware reads a group as one memory word. A
//! sweep does not re-check every group: the offsets ascend with `gid`, so
//! the groups that can have come due since the last sweep are those whose
//! flip instant passed in between, one or two `gid` ranges
//! ([`She::check_due`]). The sweep reports each group it cleans, so that
//! SHE-BM zeroes that group's set-bit count where the sweep zeroed its
//! bits. For the same reason the groups of any minimum age are at most
//! two `gid` ranges: SHE-BM's `estimate` sums its counts over them, and
//! SHE-MH's `similarity` (`w = 1`, a row per group) compares its rows
//! only inside them.

use crate::convert::u64_of;
use crate::SheConfig;
use she_hash::{FastMod, HashKey};
use she_sketch::{row_chunks, CellUpdate, CsmSpec, PackedArray, UPDATE_LANES};
use std::ops::{ControlFlow, Range};

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
    /// `index / w`, without dividing.
    group_div: GroupDiv,
    /// The [`FlipCount`] at which every group was last checked, so that
    /// only the groups that flipped since can be due ([`She::check_due`]);
    /// `None` = unknown.
    swept: Option<u64>,
}

/// How many mark flips the groups have scheduled up to the clock — the
/// sum of their [`She::mark_epoch`]s — and the group the next one falls
/// to, `count mod G`. The offsets ascend with `gid`, so the flips come
/// round the groups in `gid` order, ties at one instant included: flip
/// number `f` is group `f mod G`'s, and the flips between two counts are
/// consecutive groups ([`She::flipped_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlipCount {
    count: u64,
    next: usize,
}

impl FlipCount {
    /// The count, for comparison with a later one.
    #[inline]
    pub(crate) fn count(self) -> u64 {
        self.count
    }

    /// The group the next flip falls to, `count mod G`.
    #[inline]
    pub(crate) fn next(self) -> usize {
        self.next
    }
}

/// A cell's group `index / w` without a division instruction: a shift
/// when `w` is a power of two (`w = 1` gives `gid = index`), an exact
/// reciprocal otherwise.
#[derive(Debug, Clone, Copy)]
enum GroupDiv {
    Shift(u32),
    Reciprocal(FastMod),
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

/// One checked group as [`She::for_each_group`] hands it to a
/// whole-array estimator: its age and its cells, read a word at a time
/// where the cell width allows (§3.3's one memory word per group).
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    cells: &'a PackedArray,
    start: usize,
    len: usize,
    age: u64,
}

impl<'a> GroupView<'a> {
    /// The group's age ([`She::group_age`]).
    #[inline]
    pub fn age(&self) -> u64 {
        self.age
    }

    /// Number of cells (`w`, or fewer for the last group).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a group without cells (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of zero cells — a popcount for 1-bit cells
    /// ([`PackedArray::count_zeros_in`]).
    #[inline]
    pub fn zeros(&self) -> usize {
        self.cells.count_zeros_in(self.start, self.len)
    }

    /// The cell values in index order.
    #[inline]
    pub fn cells(&self) -> impl Iterator<Item = u64> + 'a {
        let cells = self.cells;
        (self.start..self.start + self.len).map(move |i| cells.get(i))
    }
}

/// The least age `a` with `a as f64 >= beta_n`: the two-sided estimators'
/// legal-age test (`age ≥ βN`) as one integer comparison that agrees with
/// the `f64` one for every age. `0` for `βN ≤ 0`; `u64::MAX` when no age
/// reaches `βN` (or it is NaN).
pub(crate) fn min_legal_age(beta_n: f64) -> u64 {
    if beta_n <= 0.0 {
        return 0;
    }
    if beta_n.is_nan() || beta_n > u64::MAX as f64 {
        return u64::MAX;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "0 < ⌈βN⌉ ≤ 2^64, and the saturating cast's 2^64 is corrected below"
    )]
    let mut a = beta_n.ceil() as u64;
    // Exact below 2^53. Above it ages round to the nearest double, so
    // some just below ⌈βN⌉ already compare equal, and 2^64 saturates.
    while a > 0 && (a - 1) as f64 >= beta_n {
        a -= 1;
    }
    while (a as f64) < beta_n {
        a += 1;
    }
    a
}

/// Per-group pipeline state packed into one word: the stored time mark
/// (what the hardware keeps in its mark memory), a lazily-maintained cache
/// of the *current* mark (which the FPGA computes combinationally each
/// cycle but a CPU would otherwise re-derive with a division per
/// insertion), and the time of the next mark flip — which also gives the
/// group's age without a division ([`She::group_age`]). One `u64` per group
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
        let w = cfg.group_cells;
        let group_div = if w.is_power_of_two() {
            GroupDiv::Shift(w.trailing_zeros())
        } else {
            assert!(
                u32::try_from(m - 1).is_ok(),
                "a group size w={w} that is no power of two needs M ≤ 2^32 cells"
            );
            GroupDiv::Reciprocal(FastMod::new(w))
        };
        let g = m.div_ceil(w);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "gid < g, so Tcycle·gid/g is below Tcycle and fits u64"
        )]
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
            group_div,
            swept: None,
        };
        for gid in 0..g {
            let mark = engine.observe_mark(gid);
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

    /// Group id owning cell `index`: `index / w`, by shift or reciprocal.
    #[inline]
    pub fn group_of(&self, index: usize) -> usize {
        match self.group_div {
            GroupDiv::Shift(bits) => index >> bits,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`new` admits a reciprocal only for M ≤ 2^32 cells, so a cell index fits u32"
            )]
            GroupDiv::Reciprocal(w) => w.quotient(index as u32),
        }
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

    /// The group's age: time since its last scheduled cleaning,
    /// `(t + d_gid) mod Tcycle ∈ [0, Tcycle)`.
    ///
    /// Read off the cached flip instant when it still lies ahead: the
    /// cached `next_flip` is always the least flip instant after some
    /// clock `≤ t`, so while `t < next_flip` it is also the least after
    /// `t`, the last flip was `next_flip − Tcycle`, and the age is the
    /// time since then. Otherwise one `u64` remainder over
    /// [`She::mark_epoch`]'s operands (`t + Tcycle − ofs ≡ t + d_gid`).
    #[inline]
    pub fn group_age(&self, gid: usize) -> u64 {
        let (tc, next_flip) = (self.cfg.t_cycle, self.groups[gid].next_flip());
        if self.t < next_flip {
            self.t + tc - next_flip
        } else {
            (self.t + tc - self.neg_offsets[gid]) % tc
        }
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

    /// The group's *current* mark `floor((t + d_gid)/Tcycle) mod 2`
    /// (the epoch counts one flip more), observed without mutating
    /// anything — the pure counterpart of the cached mark
    /// [`She::check_group`] refreshes.
    #[inline]
    pub fn observe_mark(&self, gid: usize) -> bool {
        self.mark_epoch(gid).is_multiple_of(2)
    }

    /// Whether group `gid` is **due** for cleaning: its stored mark
    /// disagrees with the observed current mark, so the next
    /// [`She::check_group`] will zero its cells. Pure.
    ///
    /// While the clock is short of the cached next flip, the cached
    /// current mark is still current — the fact [`She::check_group`]
    /// trusts — so only a group whose flip has passed pays
    /// [`She::mark_epoch`]'s division.
    #[inline]
    pub fn group_due(&self, gid: usize) -> bool {
        let meta = self.groups[gid];
        let cur = if self.t < meta.next_flip() { meta.cur_mark() } else { self.observe_mark(gid) };
        meta.stored_mark() != cur
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
    /// engines with equal insert and mutating-query histories answer
    /// identically however often either is read frozen.
    #[inline]
    pub fn peek_cell_effective(&self, index: usize) -> u64 {
        if self.group_due(self.group_of(index)) {
            0
        } else {
            self.cells.get(index)
        }
    }

    /// Fold a 64-bit **time-mark signature** over the groups the hashed
    /// cells of `key` touch (its rows hashed into a stack buffer). The
    /// signature changes whenever any touched group's *observation
    /// context* changes: its [`She::mark_epoch`] steps (a cleaning the
    /// answer predates becomes possible) or its [`She::observe_mature`]
    /// bit flips (the query's age-sensitive cell selection changes).
    /// Between those instants it is stable no matter how many inserts
    /// land — the invalidation key of the read path's `MarkCache`. A
    /// wrapping sum of per-group mixes, so a group hashed twice still
    /// contributes. Pure.
    pub fn mark_sig<K: HashKey + ?Sized>(&self, key: &K) -> u64 {
        let mut sig = 0u64;
        let _ = self.spec.try_for_each_update(key, |u| {
            let gid = self.group_of(u.index);
            let epoch = (self.mark_epoch(gid) << 1) | u64::from(self.observe_mature(gid));
            sig = sig
                .wrapping_add(she_hash::mix64(crate::convert::u64_of(gid).rotate_left(32) ^ epoch));
            ControlFlow::<()>::Continue(())
        });
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
        debug_assert_eq!(cur, self.observe_mark(gid), "mark cache out of sync");
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
        let _ = self.try_for_each_update(key, |engine, u| {
            engine.update_cell(u);
            ControlFlow::<()>::Continue(())
        });
    }

    /// [`She::insert`] of the key whose [`CsmSpec::k`] rows a caller
    /// already hashed (`rows[i]` is row `i`'s [`CsmSpec::hash_rows`]).
    #[inline]
    pub fn insert_rows(&mut self, rows: &[S::Row]) {
        debug_assert_eq!(rows.len(), self.spec.k(), "one hash per row");
        self.t += 1;
        for (row, &hash) in rows.iter().enumerate() {
            let u = self.spec.row_update(row, hash);
            self.update_cell(u);
        }
    }

    /// `CheckGroup` + `F` on one hashed cell — the only place the generic
    /// insert writes a cell. The spec's cell width is a constant but for
    /// CM and HLL, whose widths are configurable, so the packed read and
    /// write inline to constant shifts and masks.
    #[inline]
    fn update_cell(&mut self, u: CellUpdate) {
        self.check_group(self.group_of(u.index));
        self.apply_update(u);
    }

    /// `F` on one hashed cell whose group the caller has already checked
    /// at the current time; returns the cell's value before. One read and
    /// one write of the cell's word: for a 1-bit cell, a test-and-set.
    #[inline]
    pub(crate) fn apply_update(&mut self, u: CellUpdate) -> u64 {
        let (spec, mut before) = (&self.spec, 0);
        self.cells.update(u.index, spec.cell_bits(), |old| {
            before = old;
            spec.apply(u.operand, old)
        });
        before
    }

    /// Hand `key`'s cell updates to `f` in row order, with the engine,
    /// until `f` breaks: the walk of an insert and of the point reads
    /// that check groups — [`CsmSpec::try_for_each_update`] for callers
    /// that mutate the engine. The rows are hashed [`UPDATE_LANES`] at a
    /// time into a stack buffer, so nothing allocates. Always inlined, so
    /// that `f`'s state stays in registers (an outlined walk cost SHE-CM's
    /// point read ~40 %).
    #[inline(always)]
    pub fn try_for_each_update<K: HashKey + ?Sized, B>(
        &mut self,
        key: &K,
        mut f: impl FnMut(&mut Self, CellUpdate) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut buf = [S::Row::default(); UPDATE_LANES];
        for chunk in row_chunks(self.spec.k()) {
            let rows = &mut buf[..chunk.len()];
            self.spec.hash_rows(key, chunk.start, rows);
            for (row, &hash) in chunk.zip(rows.iter()) {
                let u = self.spec.row_update(row, hash);
                f(self, u)?;
            }
        }
        ControlFlow::Continue(())
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
        self.cells.update(index, self.spec.cell_bits(), |_| v);
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

    /// Clean every due group (`check_due`, which tells `cleaned` each
    /// group it cleans), then visit each group, in `gid` order, as a
    /// [`GroupView`] — the sweep of the whole-array estimators.
    pub fn for_each_group(&mut self, cleaned: impl FnMut(usize), mut f: impl FnMut(GroupView<'_>)) {
        self.check_due(cleaned);
        for gid in 0..self.num_groups() {
            let (start, len) = (self.group_start(gid), self.group_len(gid));
            f(GroupView { cells: &self.cells, start, len, age: self.group_age(gid) });
        }
    }

    /// Run `CheckGroup` on every group that can be due, so that afterwards
    /// none is ([`She::group_due`]): the cleanings of checking all `G`
    /// groups, from the groups whose mark flipped since the last sweep.
    ///
    /// Every group was current at the last sweep, and a check since keeps
    /// it so; only a flip since can have made it due
    /// ([`She::flipped_since`]). With the sweep unknown, or `G` or more
    /// flips behind (a group may have flipped twice), every group is
    /// checked.
    ///
    /// `cleaned` is told each group the sweep cleans, so that a caller
    /// keeping per-group tallies (SHE-BM's set-bit counts) zeroes them
    /// where the sweep zeroed the cells.
    pub(crate) fn check_due(&mut self, mut cleaned: impl FnMut(usize)) {
        let now = self.flip_count();
        let [a, b] = self
            .swept
            .and_then(|s| self.flipped_since(s, now))
            .unwrap_or([0..self.num_groups(), 0..0]);
        for gid in a.chain(b) {
            if self.check_group(gid) {
                cleaned(gid);
            }
        }
        self.swept = Some(now.count);
    }

    /// The [`FlipCount`] at the current clock. With `t = q·Tcycle + r`,
    /// every group has flipped `q` times per whole cycle, and the groups
    /// whose offset is `≤ r` once more in the current one.
    #[inline]
    pub(crate) fn flip_count(&self) -> FlipCount {
        let (tc, g) = (self.cfg.t_cycle, self.num_groups());
        let k = self.offsets_upto(self.t % tc);
        let count = u64_of(g) * (self.t / tc) + u64_of(k);
        FlipCount { count, next: if k == g { 0 } else { k } }
    }

    /// The groups whose mark flipped between flip count `since` and
    /// `now`, as two `gid` ranges (the second empty unless the run wraps
    /// past `G`); `None` when `since` lies ahead of `now` or `G` or more
    /// flips behind it, where a group may have flipped more than once.
    /// Exact for any offsets, repeated ones (`Tcycle < G`) included: the
    /// flips are numbered per group, not per instant.
    #[inline]
    pub(crate) fn flipped_since(&self, since: u64, now: FlipCount) -> Option<[Range<usize>; 2]> {
        let g = self.num_groups();
        let d = usize::try_from(now.count.checked_sub(since)?).ok().filter(|&d| d < g)?;
        Some(if d <= now.next {
            [now.next - d..now.next, 0..0]
        } else {
            [now.next + g - d..g, 0..now.next]
        })
    }

    /// How many groups have an offset `≤ residue`: the offsets ascend with
    /// `gid`, so those are the groups below the returned `gid`.
    #[inline]
    fn offsets_upto(&self, residue: u64) -> usize {
        self.neg_offsets.partition_point(|&ofs| ofs <= residue)
    }

    /// The groups aged at least `min_age`, as two `gid` ranges.
    ///
    /// With `r = t mod Tcycle`, a group's age is `r − ofs` when its offset
    /// `ofs ≤ r` and `r + Tcycle − ofs` otherwise; each falls as `gid`
    /// rises. So the old-enough groups are `[0, p1)`, the offsets
    /// `≤ r − min_age`, and `[k, p2)`, the offsets in
    /// `(r, r + Tcycle − min_age]`. Pure: reads the clock, never the marks.
    pub(crate) fn groups_aged(&self, min_age: u64) -> [Range<usize>; 2] {
        let (tc, r) = (self.cfg.t_cycle, self.t % self.cfg.t_cycle);
        let upto = |bound: Option<u64>| bound.map_or(0, |b| self.offsets_upto(b));
        let k = upto(Some(r));
        [0..upto(r.checked_sub(min_age)), k..upto((r + tc).checked_sub(min_age)).max(k)]
    }

    /// The cells of the groups `gids`, as one index range.
    pub(crate) fn cells_of_groups(&self, gids: Range<usize>) -> Range<usize> {
        let m = self.cells.len();
        self.group_start(gids.start).min(m)..self.group_start(gids.end).min(m)
    }

    /// Zero cells among the groups `gids`, a popcount per word for 1-bit
    /// cells ([`PackedArray::count_zeros_in`]).
    pub(crate) fn count_zeros_in_groups(&self, gids: Range<usize>) -> usize {
        let cells = self.cells_of_groups(gids);
        self.cells.count_zeros_in(cells.start, cells.len())
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
        self.swept = None;
        let tc = self.cfg.t_cycle;
        for (gid, &stored) in marks.iter().enumerate() {
            let cur = self.observe_mark(gid);
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
        self.swept = None;
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
        self.swept = None;
        for gid in 0..self.groups.len() {
            let mark = self.observe_mark(gid);
            let ofs = self.neg_offsets[gid];
            self.groups[gid] =
                GroupMeta::new(if ofs > 0 { ofs } else { self.cfg.t_cycle }, mark, mark);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::usize_of;
    use she_sketch::BloomSpec;

    fn tiny(window: u64, alpha: f64, m: usize, w: usize) -> She<BloomSpec> {
        let cfg = SheConfig::builder().window(window).alpha(alpha).group_cells(w).build();
        She::new(BloomSpec::new(m, 2, 42), cfg)
    }

    /// Reference current mark: the signed `floor((t + d_gid)/Tcycle) mod 2`
    /// the engine computed in `i128` before ages came off the flip cache.
    fn ref_mark<S: CsmSpec>(s: &She<S>, gid: usize) -> bool {
        let shifted = i128::from(s.t) - i128::from(s.neg_offsets[gid]);
        shifted.div_euclid(i128::from(s.cfg.t_cycle)).rem_euclid(2) == 1
    }

    /// Reference age `(t + d_gid) mod Tcycle`, in `i128` likewise.
    fn ref_age<S: CsmSpec>(s: &She<S>, gid: usize) -> u64 {
        let shifted = i128::from(s.t) - i128::from(s.neg_offsets[gid]);
        u64::try_from(shifted.rem_euclid(i128::from(s.cfg.t_cycle))).expect("age < Tcycle")
    }

    /// Step the clock one unit at a time for `ticks` units, checking every
    /// group's age, mark, due flag (read off the cached mark while the
    /// clock is short of the cached flip) and maturity against the
    /// references at each instant. Each group is `check_mature`d on every other tick only
    /// (alternating by `gid`), so reads meet flip caches refreshed one
    /// tick ago, two ticks ago, and — right after a jump — far behind.
    fn assert_ages_match<S: CsmSpec>(s: &mut She<S>, ticks: u64, state: &str) {
        for step in 0..ticks {
            for gid in 0..s.num_groups() {
                let (age, mark, t) = (ref_age(s, gid), ref_mark(s, gid), s.t);
                assert_eq!(s.group_age(gid), age, "{state}: gid {gid} t {t}: age");
                assert_eq!(s.observe_mark(gid), mark, "{state}: gid {gid} t {t}: mark");
                let due = s.groups[gid].stored_mark() != mark;
                assert_eq!(s.group_due(gid), due, "{state}: gid {gid} t {t}: due");
                if (step + gid as u64).is_multiple_of(2) {
                    let mature = s.check_mature(gid);
                    assert_eq!(mature, age >= s.cfg.window, "{state}: gid {gid} t {t}: mature");
                    assert_eq!(s.group_age(gid), age, "{state}: gid {gid} t {t}: checked age");
                }
            }
            s.advance_time(1);
        }
    }

    #[test]
    fn cached_ages_match_the_i128_reference_in_every_state() {
        use crate::snapshot::MergeMode;
        use she_hash::{RandomSource, Xoshiro256};

        // G = 8 over Tcycle = 150 with a short last group (500 = 7·64 + 52);
        // and w = 1 with G = 200 > Tcycle = 80, so offsets repeat.
        for (window, alpha, m, w) in [(100, 0.5, 500, 64), (40, 1.0, 200, 1)] {
            let mut s = tiny(window, alpha, m, w);
            let tc = s.cfg.t_cycle;
            let cycles = 3 * tc;
            let mut rng = Xoshiro256::new(m as u64);
            assert_ages_match(&mut s, cycles, "fresh");

            // Restores at arbitrary clocks, the last one two cycles below
            // the `clock_fits` boundary: its three-cycle run crosses the
            // boundary and pushes cached flips up to `FLIP_MASK − 1`.
            let boundary = FLIP_MASK - 2 * tc;
            assert!(s.clock_fits(boundary) && !s.clock_fits(boundary + 1));
            for clock in
                [0, 1, tc - 1, tc, tc + 1, 7 * tc + 3, (1 << 40) + 12_345, boundary - 2 * tc]
            {
                let marks: Vec<bool> =
                    (0..s.num_groups()).map(|_| rng.next_below(2) == 1).collect();
                let words = s.cells.words().to_vec();
                s.restore_state(clock, &marks, &words);
                assert_ages_match(&mut s, cycles, &format!("restore at {clock}"));
            }

            // A merge from a later clock moves this clock forward.
            s.clear();
            assert_ages_match(&mut s, cycles, "clear");
            let mut later = tiny(window, alpha, m, w);
            later.advance_time(5 * tc + 7);
            (0..50u64).for_each(|k| later.insert(&k));
            let (t_other, marks, cells) = later.snapshot_state();
            let words = cells.words().to_vec();
            s.merge_state(t_other, &marks, &words, MergeMode::Or);
            assert_eq!(s.now(), 5 * tc + 57);
            assert_ages_match(&mut s, cycles, "merge");

            // Idle jumps that land on, just before and just after a
            // whole number of cycles, with every cache left behind.
            for k in 1..=3 {
                for jump in [k * tc - 1, k * tc, k * tc + 1] {
                    s.advance_time(jump);
                    assert_ages_match(&mut s, cycles, &format!("jump {jump}"));
                }
            }
        }
    }

    /// What a snapshot records of an engine: clock, stored marks, cells.
    fn state<S: CsmSpec>(s: &She<S>) -> (u64, Vec<bool>, Vec<u64>) {
        let (t, marks, cells) = s.snapshot_state();
        (t, marks, cells.words().to_vec())
    }

    #[test]
    fn check_due_cleans_what_checking_every_group_cleans() {
        use crate::snapshot::MergeMode;
        use she_hash::{RandomSource, Xoshiro256};

        // G = 8 over Tcycle = 150 with a short last group (500 = 7·64 + 52);
        // and w = 1 with G = 200 > Tcycle = 80, so offsets repeat.
        for (case, (window, alpha, m, w)) in
            [(100, 0.5, 500, 64), (40, 1.0, 200, 1)].into_iter().enumerate()
        {
            // `cursor` sweeps with `check_due`, `every` checks all G groups.
            let (mut cursor, mut every, mut other) =
                (tiny(window, alpha, m, w), tiny(window, alpha, m, w), tiny(window, alpha, m, w));
            let (tc, g) = (cursor.cfg.t_cycle, cursor.num_groups());
            let mut rng = Xoshiro256::new(0xC0 + case as u64);
            let mut saved = state(&cursor);
            let (mut narrow, mut wrapped) = (0, 0);
            for step in 0..60 * tc {
                let key = rng.next_range(0, 4 * window);
                let (op, k) = (rng.next_below(64), rng.next_range(1, 4));
                other.insert(&(key + 1));
                other.advance_time(key % 3);
                if op == 8 {
                    saved = state(&cursor);
                }
                for s in [&mut cursor, &mut every] {
                    match op {
                        0 => s.advance_time(k * tc - 1),
                        1 => s.advance_time(k * tc),
                        2 => s.advance_time(k * tc + 1),
                        3 | 4 => s.advance_time(key % tc),
                        5 => s.advance_time(key % 9),
                        6 => s.restore_state(saved.0, &saved.1, &saved.2),
                        7 => {
                            let (t, marks, words) = state(&other);
                            s.merge_state(t, &marks, &words, MergeMode::Or);
                        }
                        8 => {}
                        9 if key.is_multiple_of(4) => s.clear(),
                        _ => s.insert(&key),
                    }
                }
                // Sweep on two steps in three, so that gaps of several
                // inserts and idle steps build up between sweeps.
                if rng.next_below(3) == 0 {
                    continue;
                }
                let now = cursor.flip_count();
                if let Some([_, b]) = cursor.swept.and_then(|s| cursor.flipped_since(s, now)) {
                    narrow += 1;
                    wrapped += usize::from(!b.is_empty());
                }
                let mut reported = Vec::new();
                cursor.check_due(|gid| reported.push(gid));
                reported.sort_unstable();
                let cleaned: Vec<usize> = (0..g).filter(|&gid| every.check_group(gid)).collect();
                let at = format!("case {case} step {step} t {}", cursor.t);
                assert!((0..g).all(|gid| !cursor.group_due(gid)), "{at}: a group is still due");
                assert_eq!(state(&cursor), state(&every), "{at}: snapshot state");
                assert_eq!(reported, cleaned, "{at}: the groups reported cleaned");
            }
            assert!(narrow > 1000 && wrapped > 40, "case {case}: {narrow} / {wrapped} sweeps");
        }
    }

    /// The flip count is the sum of the mark epochs, and
    /// `flipped_since` names exactly the groups whose epoch stepped
    /// between two counts — or answers `None`, which a gap of a cycle or
    /// more must get, and then every group has flipped.
    #[test]
    fn flipped_since_is_the_epoch_change() {
        // G = 8 over Tcycle = 150; and w = 1 with G = 200 > Tcycle = 80,
        // so offsets repeat.
        for (window, alpha, m, w) in [(100, 0.5, 500, 64), (40, 1.0, 200, 1)] {
            let mut then = tiny(window, alpha, m, w);
            let (tc, g) = (then.cfg.t_cycle, then.num_groups());
            let (mut ranged, mut wrapped) = (0, 0);
            // Clocks at and after group 0's flip, and mid-cycle ones whose
            // runs wrap past group G − 1.
            for s in [0, 1, 7, tc / 2, tc - 5, tc - 1, tc, 2 * tc + tc / 3, 3 * tc + 11] {
                then.clear();
                then.advance_time(s);
                let since = then.flip_count();
                let epochs: u64 = (0..g).map(|gid| then.mark_epoch(gid)).sum();
                assert_eq!(since.count(), epochs, "s {s}: count");
                assert_eq!(since.next, usize_of(epochs % u64_of(g)), "s {s}: next");
                for gap in 0..tc + 2 {
                    let mut now = then.clone();
                    now.advance_time(gap);
                    let flipped: Vec<usize> =
                        (0..g).filter(|&gid| now.mark_epoch(gid) != then.mark_epoch(gid)).collect();
                    match now.flipped_since(since.count(), now.flip_count()) {
                        Some([a, b]) => {
                            assert!(gap < tc, "s {s} gap {gap}: a range past a cycle");
                            assert_eq!(
                                b.clone().chain(a).collect::<Vec<_>>(),
                                flipped,
                                "s {s} gap {gap}"
                            );
                            ranged += 1;
                            wrapped += usize::from(!b.is_empty());
                        }
                        None => assert_eq!(flipped.len(), g, "s {s} gap {gap}: None"),
                    }
                }
                let ahead = since.count() + 1;
                assert_eq!(then.flipped_since(ahead, since), None, "a count ahead of the clock");
            }
            assert!(ranged > 4 * tc && wrapped > 10, "{ranged} / {wrapped}");
        }
    }

    #[test]
    fn min_legal_age_is_the_f64_comparison() {
        // 0; integral; the served β·N (non-integral); 90.000…01, whose
        // ceiling is 91; and doubles around 2^53, where ages stop being
        // exact and neighbours of ⌈βN⌉ round onto it.
        let two53 = (1u64 << 53) as f64;
        for beta_n in [
            0.0,
            0.5 * 16_384.0,
            0.9 * 16_384.0,
            0.9 * 100.0,
            0.5,
            two53 / 2.0 - 0.5,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            two53 * 2.0 + 4.0,
            (1u64 << 62) as f64 + 4096.0,
        ] {
            // A band around the threshold catches it off by any amount.
            let min_age = min_legal_age(beta_n);
            for age in min_age.saturating_sub(4096)..min_age + 4096 {
                assert_eq!(age >= min_age, age as f64 >= beta_n, "βN {beta_n}, age {age}");
            }
        }
        assert_eq!(min_legal_age(0.9 * 16_384.0), 14_746);
        assert_eq!(min_legal_age(0.5 * 16_384.0), 8_192);
        assert_eq!(min_legal_age(0.0), 0);
    }

    #[test]
    fn group_of_is_the_quotient_for_every_group_size() {
        // Powers of two take the shift (w = 1: gid = index), the rest the
        // reciprocal; 1000 cells leave a short last group for most w.
        for w in [1, 2, 3, 7, 64, 100, 127, 128, 333, 1000] {
            let s = tiny(100, 0.5, 1000, w);
            assert_eq!(s.num_groups(), 1000usize.div_ceil(w));
            for index in 0..1000 {
                assert_eq!(s.group_of(index), index / w, "w = {w}, index {index}");
            }
        }
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
        let mut prev = s.observe_mark(g);
        for _ in 0..600 {
            s.advance_time(1);
            let cur = s.observe_mark(g);
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
    fn mark_epoch_increments_exactly_at_flips() {
        let mut s = tiny(100, 0.5, 512, 64);
        for gid in 0..s.num_groups() {
            let mut prev_epoch = s.mark_epoch(gid);
            let mut prev_mark = ref_mark(&s, gid);
            for _ in 0..600 {
                s.advance_time(1);
                let e = s.mark_epoch(gid);
                let m = ref_mark(&s, gid);
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
        assert_eq!(s.mark_sig(&99u64), s.mark_sig(&99u64));
        // Step the clock one unit at a time across a full cycle: the
        // signature must change exactly when some touched group's
        // (epoch, maturity) context changes — flips and maturity
        // crossings — and hold steady otherwise.
        let mut prev_ctx = context(&s);
        let mut prev_sig = s.mark_sig(&99u64);
        let mut changes = 0;
        for _ in 0..s.config().t_cycle {
            s.advance_time(1);
            let ctx = context(&s);
            let sig = s.mark_sig(&99u64);
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
        // 500 = 7·64 + 52: the short last group is visited at its length.
        let mut s = tiny(100, 0.5, 500, 64);
        (0..40u64).for_each(|k| s.insert(&k));
        let (mut total, mut zeros, mut gid) = (0usize, 0usize, 0usize);
        let ages: Vec<u64> = (0..s.num_groups()).map(|g| s.group_age(g)).collect();
        s.for_each_group(
            |_| {},
            |g| {
                assert_eq!(g.len(), g.cells().count());
                assert_eq!(g.zeros(), g.cells().filter(|&v| v == 0).count());
                assert_eq!(g.age(), ages[gid]);
                (total, zeros, gid) = (total + g.len(), zeros + g.zeros(), gid + 1);
            },
        );
        assert_eq!((total, gid), (500, 8));
        assert_eq!(zeros, s.cells.count_zeros());
        assert!(zeros < 500);
    }
}
