//! The generic hardware-version SHE engine (Section 3.3, Algorithm 1).
//!
//! The cell array of a CSM algorithm is split into `G` groups of `w` cells.
//! As in §3.3, group `gid` carries exactly a static time offset
//! `d_gid = -floor(Tcycle · gid / G)`, spreading the groups' cleaning
//! deadlines evenly over one cycle, and a stored 1-bit time mark `m[gid]`
//! (one bit of a bit vector). The *current* mark is
//! `floor((t + d_gid)/Tcycle) mod 2`: it flips once per `Tcycle`. When an
//! operation touches a group whose stored mark differs from the current
//! mark, the group is reset to zero and the mark updated (`CheckGroup`);
//! a group untouched for a full cycle keeps stale data, which is the
//! on-demand-cleaning error analyzed in §5.1. A group's **age**,
//! `(t + d_gid) mod Tcycle`, is the time since its last *scheduled*
//! cleaning: point reads use the mature groups (`age ≥ N`), the
//! two-sided estimators the legal ones (`age ≥ βN`).
//!
//! **Group time** is the clock's: `e = ⌊t/Tcycle⌋`, `r = t mod Tcycle` and
//! the cursor `p = min(G, ⌊((r+1)·G − 1)/Tcycle⌋ + 1)`, the number of
//! offsets `≤ r`. The offsets ascend with `gid`, so group `gid`'s mark
//! epoch (flips since `t = 0`) is `e + [gid < p]` and its mark the epoch's
//! parity; its age is `r − ofs`, plus `Tcycle` when `gid ≥ p`; all groups
//! have flipped `e·G + p` times, in `gid` order ([`She::flipped_since`]);
//! and the groups aged at least `a` are two `gid` ranges, read off `p` and
//! a cursor at `(r − a) mod Tcycle`. The clock keeps those for `N` and
//! for `βN`'s least legal age ([`min_legal_age`]), so maturity and
//! legality are `gid` comparisons. A tick moves `r` by one and steps the
//! cursors past the offsets they reach, carrying `⌊Tcycle/G⌋` and
//! `Tcycle mod G` from offset to offset; only an idle jump, a restore or
//! a merge divides.
//!
//! Algorithm 1 is fed **rows**: a spec hashes a key's `K` rows
//! ([`CsmSpec::hash_rows`]) and maps each row's hash to a cell update
//! ([`CsmSpec::row_update`]). [`She::insert`] hashes the rows
//! [`UPDATE_LANES`] at a time into a stack buffer; [`She::insert_rows`]
//! takes rows a caller already hashed (a shard hashes a key once and
//! feeds BF and CM from the same rows). Both tick the clock, then run
//! `CheckGroup` + `F` per update in row order, through the one function
//! that writes an inserted cell — the insert path of every adapter whose
//! `K` is a handful of cells (BF, CM, HLL, CS). Two adapters run their
//! own pass on the same primitives, and this loop is the oracle each is
//! tested bit-for-bit against: SHE-BM (`K = 1`) writes its bit through
//! `apply_update`, which reports the old bit so that it can count set
//! bits per group (`bm.rs`); SHE-MH (`K = M`, `w = 1`) walks its cells in
//! one row-wise pass (`mh.rs`) that skips the rows its last-insert memo
//! rules out by the flip count. A point read (SHE-BF, SHE-CM, SHE-CS) is
//! one pass over the same rows ([`She::read_rows`]) on the state before
//! the read: each row's cell, zero when its group is due, and whether the
//! group is due and mature, folded without a branch. A frozen read is a
//! function of the pass; a mutating one adds `CheckGroup` on the due
//! groups it covered ([`She::check_rows`]). Nothing on an insert or point
//! read divides: row hashes reduce to cells by a precomputed reciprocal
//! (`she_hash::FastMod`), and [`She::group_of`] is a shift for a
//! power-of-two `w` (every served configuration), a reciprocal otherwise.
//!
//! Whole-array queries (SHE-BM, SHE-HLL) sweep the groups through
//! [`She::for_each_group`], which hands each group over as a
//! [`GroupView`]: for bit cells its zero count is a popcount over the
//! group's words, as the hardware reads a group as one memory word. A
//! sweep re-checks only the groups whose flip came since the last one, at
//! most two `gid` ranges ([`She::check_due`]), and reports each group it
//! cleans, so that SHE-BM zeroes that group's set-bit count. SHE-BM's
//! `estimate` sums its counts over the legal groups' ranges, and SHE-MH's
//! `similarity` (`w = 1`, a row per group) compares rows only inside them.

use crate::convert::{u64_of, usize_of};
use crate::SheConfig;
use she_hash::{FastMod, HashKey};
use she_sketch::{row_chunks, CellUpdate, CsmSpec, PackedArray, UPDATE_LANES};
use std::ops::{ControlFlow, Range};

/// The generic sliding-window engine wrapping any [`CsmSpec`].
///
/// The five task adapters ([`crate::SheBloomFilter`] etc.) own a `She<S>` and
/// add their task-specific query strategy on top.
#[derive(Debug, Clone)]
pub struct She<S: CsmSpec> {
    spec: S,
    cfg: SheConfig,
    cells: PackedArray,
    /// The stored time marks, group `gid`'s at bit `gid mod 64` of word
    /// `gid / 64`; the bits past `G` stay zero.
    marks: Vec<u64>,
    /// The logical clock and where it stands among the offsets.
    clock: Clock,
    /// `index / w`, without dividing.
    group_div: GroupDiv,
    /// The [`FlipCount`] at which every group was last checked, so that
    /// only the groups that flipped since can be due ([`She::check_due`]);
    /// `None` = unknown.
    swept: Option<u64>,
}

/// How many mark flips the groups have scheduled up to the clock — the
/// sum of their [`She::mark_epoch`]s, `e·G + p` — and the group the next
/// one falls to, `count mod G`. The offsets ascend with `gid`, so the
/// flips come round the groups in `gid` order, ties at one instant
/// included: flip number `f` is group `f mod G`'s, and the flips between
/// two counts are consecutive groups ([`She::flipped_since`]).
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
}

/// A cell's group `index / w` without a division instruction: a shift
/// when `w` is a power of two (`w = 1` gives `gid = index`), an exact
/// reciprocal otherwise.
#[derive(Debug, Clone, Copy)]
enum GroupDiv {
    Shift(u32),
    Reciprocal(FastMod),
}

/// The static half of group time: `Tcycle` and `G`, the offset's step
/// from one group to the next (`⌊Tcycle/G⌋`, plus one each time the
/// carried `Tcycle mod G` reaches `G`), and the two ages the reads test:
/// `N` and the least that passes `age ≥ βN`.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    t_cycle: u64,
    groups: usize,
    step: u64,
    carry: u64,
    window: u64,
    legal_age: u64,
}

/// Where a residue `at ∈ [0, Tcycle)` stands among the offsets: `pos`
/// groups have an offset `≤ at`, and the next one's offset is `ofs`
/// (`Tcycle` once `pos = G`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cursor {
    at: u64,
    pos: usize,
    ofs: u64,
    /// `Tcycle·pos mod G`, what `ofs` leaves of `Tcycle·pos / G`.
    frac: u64,
}

/// The item counter `t_cur` (a count-based window of `N` items is `N` time
/// units), `e = ⌊t/Tcycle⌋`, and the cursors at `r = t mod Tcycle` (`p`),
/// at `(r − N) mod Tcycle` and at `(r − legal_age) mod Tcycle`.
#[derive(Debug, Clone, Copy)]
struct Clock {
    sched: Schedule,
    t: u64,
    e: u64,
    now: Cursor,
    mature: Cursor,
    legal: Cursor,
}

/// The largest clock `t + 2·Tcycle` may reach ([`She::clock_fits`]).
const CLOCK_LIMIT: u64 = (1 << 62) - 1;

impl Schedule {
    fn new(cfg: &SheConfig, groups: usize) -> Self {
        let g = u64_of(groups);
        let legal_age = min_legal_age(cfg.beta * cfg.window as f64);
        debug_assert!(legal_age <= cfg.window && cfg.window < cfg.t_cycle);
        Self {
            t_cycle: cfg.t_cycle,
            groups,
            step: cfg.t_cycle / g,
            carry: cfg.t_cycle % g,
            window: cfg.window,
            legal_age,
        }
    }

    /// The cursor at residue `x < Tcycle`, by the closed form.
    fn cursor_at(&self, x: u64) -> Cursor {
        let g = u128::from(u64_of(self.groups));
        let pos = ((u128::from(x) + 1) * g - 1) / u128::from(self.t_cycle) + 1;
        Cursor { at: x, ..self.passed(pos.min(g)) }
    }

    /// The cursor that has passed `pos` groups: the next offset is
    /// `⌊Tcycle·pos/G⌋`, by dividing.
    fn passed(&self, pos: u128) -> Cursor {
        let (scaled, g) = (u128::from(self.t_cycle) * pos, u128::from(u64_of(self.groups)));
        let narrow = |v: u128| u64::try_from(v).unwrap_or(u64::MAX);
        Cursor {
            at: 0,
            pos: usize_of(narrow(pos)),
            ofs: narrow(scaled / g),
            frac: narrow(scaled % g),
        }
    }
}

impl Cursor {
    /// Before any group of a cycle: the next offset is group 0's, `0`.
    const START: Self = Self { at: 0, pos: 0, ofs: 0, frac: 0 };

    /// Pass group `pos`: the next offset is group `pos + 1`'s.
    #[inline]
    fn step(&mut self, s: &Schedule) {
        self.pos += 1;
        self.ofs += s.step;
        self.frac += s.carry;
        if self.frac >= u64_of(s.groups) {
            self.frac -= u64_of(s.groups);
            self.ofs += 1;
        }
    }

    /// One time unit on. When the residue reaches the next offset, wrap
    /// to a new cycle if that offset is `Tcycle` (every group passed),
    /// then pass every group whose offset the residue reaches — several
    /// at one residue when `Tcycle < G`. Returns whether the cycle wrapped.
    #[inline]
    fn tick(&mut self, s: &Schedule) -> bool {
        self.at += 1;
        if self.at < self.ofs {
            return false;
        }
        let wrapped = self.at == s.t_cycle;
        if wrapped {
            *self = Self::START;
        }
        while self.ofs <= self.at {
            self.step(s);
        }
        wrapped
    }
}

impl Clock {
    /// One time unit on.
    #[inline]
    fn tick(&mut self) {
        self.t += 1;
        if self.now.tick(&self.sched) {
            self.e += 1;
        }
        self.mature.tick(&self.sched);
        self.legal.tick(&self.sched);
    }

    /// Set the clock to `t`: the one place group time divides.
    fn set(&mut self, t: u64) {
        let (s, tc) = (self.sched, self.sched.t_cycle);
        let r = t % tc;
        (self.t, self.e) = (t, t / tc);
        self.now = s.cursor_at(r);
        self.mature = s.cursor_at((r + tc - s.window) % tc);
        self.legal = s.cursor_at((r + tc - s.legal_age) % tc);
    }

    /// The age of group `gid`, whose offset is `ofs`.
    #[inline]
    fn age(&self, gid: usize, ofs: u64) -> u64 {
        let r = self.now.at;
        if gid < self.now.pos {
            r - ofs
        } else {
            r + self.sched.t_cycle - ofs
        }
    }

    /// The groups aged at least `a`, whose cursor is `th`, as two `gid`
    /// ranges. For `r ≥ a` those of `[0, p)` have age `r − ofs ≥ a` up to
    /// the offset `r − a`, and all others an age above `r`; for `r < a`
    /// only the others qualify, up to the offset `r + Tcycle − a`.
    #[inline]
    fn aged(&self, th: &Cursor) -> [Range<usize>; 2] {
        let p = self.now.pos;
        if th.at <= self.now.at {
            [0..th.pos, p..self.sched.groups]
        } else {
            [0..0, p..th.pos]
        }
    }
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

/// One row of a key as the point-read pass ([`She::read_rows`]) reads
/// it, on the state before the read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRead {
    /// The row's hashed cell and operand.
    pub(crate) update: CellUpdate,
    /// The cell's group.
    pub(crate) gid: usize,
    /// The cell as the next `CheckGroup` leaves it: zero when `due`.
    pub(crate) value: u64,
    /// Whether the group is due for cleaning ([`She::group_due`]).
    pub(crate) due: bool,
    /// Whether the group is mature ([`She::observe_mature`]).
    pub(crate) mature: bool,
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

/// Stored mark bit `gid` of a mark vector.
#[inline]
fn mark_bit(marks: &[u64], gid: usize) -> bool {
    marks[gid / 64] >> (gid % 64) & 1 != 0
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
        let cells = PackedArray::new(m, spec.cell_bits());
        let (sched, start) = (Schedule::new(&cfg, g), Cursor::START);
        let clock = Clock { sched, t: 0, e: 0, now: start, mature: start, legal: start };
        let marks = vec![0; g.div_ceil(64)];
        let mut engine = Self { spec, cfg, cells, marks, clock, group_div, swept: None };
        engine.clear();
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
        self.clock.sched.groups
    }

    /// Current logical time (number of insertions so far).
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.t
    }

    /// Advance the logical clock without inserting (time-based windows with
    /// idle periods).
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        if dt == 1 {
            self.clock.tick();
        } else {
            self.clock.set(self.clock.t + dt);
        }
    }

    /// Memory footprint in bits: cells plus one mark bit per group plus the
    /// 32-bit item counter (the FPGA implementation's register).
    pub fn memory_bits(&self) -> usize {
        self.cells.memory_bits() + self.num_groups() + 32
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
    /// `(t + d_gid) mod Tcycle ∈ [0, Tcycle)`. Divides for the offset:
    /// the reads test ages against the clock's cursors instead.
    pub fn group_age(&self, gid: usize) -> u64 {
        self.clock.age(gid, self.clock.sched.passed(u64_of(gid).into()).ofs)
    }

    /// The group's **mark epoch**: how many mark flips group `gid` has
    /// scheduled up to (and including) the current clock, counted from
    /// `t = 0` — `e`, plus one once the cursor has passed the group this
    /// cycle. The epoch increments by exactly one at each flip instant
    /// `t = ofs_gid + j·Tcycle`, so two observations with equal epochs
    /// bracket *no* flip of this group — the invariant the read path's
    /// [`MarkCache`](crate) signatures rest on. Pure: never cleans.
    #[inline]
    pub fn mark_epoch(&self, gid: usize) -> u64 {
        self.clock.e + u64::from(gid < self.clock.now.pos)
    }

    /// The group's *current* mark `floor((t + d_gid)/Tcycle) mod 2`
    /// (the epoch counts one flip more), observed without mutating
    /// anything.
    #[inline]
    pub fn observe_mark(&self, gid: usize) -> bool {
        self.mark_epoch(gid).is_multiple_of(2)
    }

    /// Whether group `gid` is **due** for cleaning: its stored mark
    /// disagrees with the observed current mark, so the next
    /// [`She::check_group`] will zero its cells. Pure.
    #[inline]
    pub fn group_due(&self, gid: usize) -> bool {
        mark_bit(&self.marks, gid) != self.observe_mark(gid)
    }

    /// Whether the group is mature (`age ≥ N`), Algorithm 1's
    /// `CheckMature` without its `CheckGroup`: maturity depends only on
    /// the clock, never on the lazy cleaning. A branch-free `gid` test:
    /// below the maturity cursor or at or past `p`, either when the
    /// cursor's residue is at most `r`, both when it is ahead.
    #[inline]
    pub fn observe_mature(&self, gid: usize) -> bool {
        let (now, th) = (&self.clock.now, &self.clock.mature);
        let (below, passed) = (gid < th.pos, gid >= now.pos);
        (below & passed) | ((th.at <= now.at) & (below | passed))
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

    /// `CheckGroup` of Algorithm 1: lazily reset the group if its stored
    /// mark disagrees with the current mark. Returns true if a reset
    /// happened.
    pub fn check_group(&mut self, gid: usize) -> bool {
        if !self.group_due(gid) {
            return false;
        }
        self.marks[gid / 64] ^= 1 << (gid % 64);
        let (start, len) = (self.group_start(gid), self.group_len(gid));
        self.cells.clear_range(start, len);
        true
    }

    /// Insert one item: advance the clock, then for every hashed cell run
    /// `CheckGroup` on its group and apply the update function `F`.
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        self.clock.tick();
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
        self.clock.tick();
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
    /// until `f` breaks: the walk of an insert and of a point read's
    /// cleaning (`She::check_rows`) — [`CsmSpec::try_for_each_update`]
    /// for callers that mutate the engine. The rows are hashed
    /// [`UPDATE_LANES`] at a time into a stack buffer, so nothing
    /// allocates. Always inlined, so that `f`'s state stays in registers.
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

    /// The point-read pass: hash `key`'s rows [`UPDATE_LANES`] at a time
    /// into a stack buffer and hand `f` each row and its [`RowRead`] in
    /// row order, for `f` to fold branch-free into what its read keeps.
    /// Cells are read at the spec's width (a constant for bit cells);
    /// nothing branches on the data or mutates.
    #[inline(always)]
    pub(crate) fn read_rows<K: HashKey + ?Sized>(
        &self,
        key: &K,
        mut f: impl FnMut(usize, RowRead),
    ) {
        let mut buf = [S::Row::default(); UPDATE_LANES];
        for chunk in row_chunks(self.spec.k()) {
            let hashes = &mut buf[..chunk.len()];
            self.spec.hash_rows(key, chunk.start, hashes);
            for (row, &hash) in chunk.zip(hashes.iter()) {
                let update = self.spec.row_update(row, hash);
                let gid = self.group_of(update.index);
                let (due, mature) = (self.group_due(gid), self.observe_mature(gid));
                let cell = self.cells.get_as(update.index, self.spec.cell_bits());
                let value = cell & u64::from(due).wrapping_sub(1);
                f(row, RowRead { update, gid, value, due, mature });
            }
        }
    }

    /// `CheckGroup` on the groups of `key`'s first `n` rows, in row order:
    /// the cleaning a mutating point read adds to its pass. Only a group
    /// the pass saw due changes, so a read calls this only when one of
    /// those rows was, and then hashes the rows again: out of line, so
    /// that the pass's registers are the read's own.
    #[cold]
    #[inline(never)]
    pub(crate) fn check_rows<K: HashKey + ?Sized>(&mut self, key: &K, n: usize) {
        let mut left = n;
        let _ = self.try_for_each_update(key, |engine, u| {
            left = left.checked_sub(1).map_or(ControlFlow::Break(()), ControlFlow::Continue)?;
            engine.check_group(engine.group_of(u.index));
            ControlFlow::Continue(())
        });
    }

    /// The instant of the next mark flip of any group, strictly after
    /// `now()`: group `p`'s offset in this cycle, or the next cycle's
    /// start once `p = G` (the cursor's next offset is then `Tcycle`).
    /// Right after every group is checked at the current time, checking
    /// any again is a no-op until the clock reaches it.
    #[inline]
    pub(crate) fn next_flip_at(&self) -> u64 {
        self.clock.t - self.clock.now.at + self.clock.now.ofs
    }

    /// Store `v` in cell `index` without touching marks. The caller has
    /// already checked the owning group at the current time.
    #[inline]
    pub(crate) fn write_cell(&mut self, index: usize, v: u64) {
        self.cells.update(index, self.spec.cell_bits(), |_| v);
    }

    /// Read a cell without touching marks (test/debug accessor; may observe
    /// stale pre-cleaning data).
    #[inline]
    pub fn peek_cell(&self, index: usize) -> u64 {
        self.cells.get(index)
    }

    /// Clean every due group (`check_due`, which tells `cleaned` each
    /// group it cleans), then visit each group, in `gid` order, as a
    /// [`GroupView`] — the sweep of the whole-array estimators. The walk
    /// steps from one group's offset to the next as the clock's cursors
    /// do, so no group's age divides.
    pub fn for_each_group(&mut self, cleaned: impl FnMut(usize), mut f: impl FnMut(GroupView<'_>)) {
        self.check_due(cleaned);
        let mut walk = Cursor::START;
        for gid in 0..self.num_groups() {
            let (start, len) = (self.group_start(gid), self.group_len(gid));
            let age = self.clock.age(gid, walk.ofs);
            f(GroupView { cells: &self.cells, start, len, age });
            walk.step(&self.clock.sched);
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

    /// The [`FlipCount`] at the current clock: every group has flipped
    /// `e` times in whole cycles, and the `p` groups the cursor passed
    /// once more in the current one.
    #[inline]
    pub(crate) fn flip_count(&self) -> FlipCount {
        let (g, p) = (self.num_groups(), self.clock.now.pos);
        let count = u64_of(g) * self.clock.e + u64_of(p);
        FlipCount { count, next: if p == g { 0 } else { p } }
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

    /// The groups of legal age (`age ≥ βN`), as two `gid` ranges off the
    /// clock's cursors. Pure: reads the clock, never the marks.
    #[inline]
    pub(crate) fn legal_groups(&self) -> [Range<usize>; 2] {
        self.clock.aged(&self.clock.legal)
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

    /// Whether a clock arriving from outside (restore, merge) is one this
    /// engine accepts: `t + 2·Tcycle` at most `2^62 − 1`. No stream
    /// counts that far, so a clock beyond it marks the frame as hostile
    /// or corrupt, and the bound leaves the clock's arithmetic — the next
    /// flip instant up to a `Tcycle` ahead, a later idle jump — ample
    /// room. The bound is the one snapshots have always been checked
    /// against: a wider one would change which checkpoints are refused.
    /// It also refuses a clock at which `(⌊(t + 2·Tcycle)/Tcycle⌋ + 1)·G`,
    /// a bound on the flip count `e·G + p` in that reach, is not below
    /// `u64::MAX` (SHE-MH's empty memo slot): only clocks near the bound
    /// with `G > 4·Tcycle` or so, which used to overflow the count.
    pub(crate) fn clock_fits(&self, t: u64) -> bool {
        let (tc, g) = (self.cfg.t_cycle, u64_of(self.num_groups()));
        let flips = |end: u64| (end / tc + 1).checked_mul(g).is_some_and(|f| f < u64::MAX);
        let ahead = tc.checked_mul(2).and_then(|c| t.checked_add(c));
        ahead.is_some_and(|end| end <= CLOCK_LIMIT && flips(end))
    }

    /// Snapshot support: the clock, the stored mark words and the cells.
    pub(crate) fn snapshot_state(&self) -> (u64, &[u64], &PackedArray) {
        (self.clock.t, &self.marks, &self.cells)
    }

    /// Snapshot support: restore `(clock, stored mark words, cell
    /// words)`. The mark words' bits past `G` must be zero.
    pub(crate) fn restore_state(&mut self, t: u64, marks: &[u64], words: &[u64]) {
        self.marks.copy_from_slice(marks);
        self.cells.copy_from_words(words);
        self.clock.set(t);
        self.swept = None;
    }

    /// Snapshot support: merge another engine's `(clock, stored mark
    /// words, cell words)` into this one cell-wise under `mode`.
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
        marks_other: &[u64],
        words_other: &[u64],
        mode: crate::snapshot::MergeMode,
    ) {
        assert_eq!(marks_other.len(), self.marks.len());
        self.clock.set(self.clock.t.max(t_other));
        self.swept = None;
        let mut other = PackedArray::new(self.cells.len(), self.cells.cell_bits());
        other.copy_from_words(words_other);
        for gid in 0..self.num_groups() {
            self.check_group(gid);
            if mark_bit(marks_other, gid) != mark_bit(&self.marks, gid) {
                continue; // other's group is due for cleaning: all expired
            }
            let (start, len) = (self.group_start(gid), self.group_len(gid));
            for i in start..start + len {
                let merged = mode.apply(self.cells.get(i), other.get(i));
                self.cells.set(i, merged);
            }
        }
    }

    /// Reset to the empty state at time zero. The stored marks start equal
    /// to the current marks, so that the zeroed cells are not spuriously
    /// "due" for cleaning.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.clock.set(0);
        self.swept = None;
        self.marks.fill(0);
        for gid in 0..self.num_groups() {
            self.marks[gid / 64] |= u64::from(self.observe_mark(gid)) << (gid % 64);
        }
    }

    /// Bytes on the heap: the cell words and the mark words.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        8 * (self.cells.words().len() + self.marks.len())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::convert::usize_of;
    use she_sketch::BloomSpec;

    fn tiny(window: u64, alpha: f64, m: usize, w: usize) -> She<BloomSpec> {
        let cfg = SheConfig::builder().window(window).alpha(alpha).group_cells(w).build();
        She::new(BloomSpec::new(m, 2, 42), cfg)
    }

    /// Reference offset `⌊Tcycle·gid/G⌋`, in `i128` from `config()` and
    /// `num_groups()` alone: nothing the clock's cursors keep.
    fn ref_offset<S: CsmSpec>(s: &She<S>, gid: usize) -> i128 {
        i128::from(s.config().t_cycle) * gid as i128 / s.num_groups() as i128
    }

    /// Reference current mark: the signed `floor((t + d_gid)/Tcycle) mod 2`,
    /// in `i128`.
    fn ref_mark<S: CsmSpec>(s: &She<S>, gid: usize) -> bool {
        let shifted = i128::from(s.now()) - ref_offset(s, gid);
        shifted.div_euclid(i128::from(s.config().t_cycle)).rem_euclid(2) == 1
    }

    /// Reference age `(t + d_gid) mod Tcycle`, in `i128` likewise.
    fn ref_age<S: CsmSpec>(s: &She<S>, gid: usize) -> u64 {
        let shifted = i128::from(s.now()) - ref_offset(s, gid);
        u64::try_from(shifted.rem_euclid(i128::from(s.config().t_cycle))).expect("age < Tcycle")
    }

    /// Step the clock one unit at a time for `ticks` units, checking every
    /// group's age, mark, due flag and maturity against the references at
    /// each instant. Each group is checked on every other tick
    /// only (alternating by `gid`), so reads meet stored marks checked one
    /// tick ago, two ticks ago, and — right after a jump — far behind.
    fn assert_ages_match<S: CsmSpec>(s: &mut She<S>, ticks: u64, state: &str) {
        for step in 0..ticks {
            for gid in 0..s.num_groups() {
                let (age, mark, t) = (ref_age(s, gid), ref_mark(s, gid), s.now());
                assert_eq!(s.group_age(gid), age, "{state}: gid {gid} t {t}: age");
                assert_eq!(s.observe_mark(gid), mark, "{state}: gid {gid} t {t}: mark");
                let due = mark_bit(&s.marks, gid) != mark;
                assert_eq!(s.group_due(gid), due, "{state}: gid {gid} t {t}: due");
                if (step + gid as u64).is_multiple_of(2) {
                    s.check_group(gid);
                    let mature = s.observe_mature(gid);
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
            // boundary, where next-flip instants reach `CLOCK_LIMIT − 1`.
            let boundary = CLOCK_LIMIT - 2 * tc;
            assert!(s.clock_fits(boundary) && !s.clock_fits(boundary + 1));
            for clock in
                [0, 1, tc - 1, tc, tc + 1, 7 * tc + 3, (1 << 40) + 12_345, boundary - 2 * tc]
            {
                let mut marks = vec![0u64; s.marks.len()];
                for gid in 0..s.num_groups() {
                    marks[gid / 64] |= u64::from(rng.next_below(2) == 1) << (gid % 64);
                }
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
            s.merge_state(t_other, marks, cells.words(), MergeMode::Or);
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
    fn state<S: CsmSpec>(s: &She<S>) -> (u64, Vec<u64>, Vec<u64>) {
        let (t, marks, cells) = s.snapshot_state();
        (t, marks.to_vec(), cells.words().to_vec())
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
                let at = format!("case {case} step {step} t {}", cursor.now());
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

    /// A bare schedule of `G` groups over `Tcycle`, for the cursor alone.
    fn schedule(t_cycle: u64, groups: usize) -> Schedule {
        let g = groups as u64;
        Schedule { t_cycle, groups, step: t_cycle / g, carry: t_cycle % g, window: 0, legal_age: 0 }
    }

    /// The cursor at residue `x`, by counting the offsets `⌊Tcycle·gid/G⌋`
    /// one by one in `i128`.
    fn ref_cursor(t_cycle: u64, groups: usize, x: u64) -> Cursor {
        let (tc, g) = (i128::from(t_cycle), groups as i128);
        let pos = (0..g).filter(|&gid| tc * gid / g <= i128::from(x)).count();
        let scaled = tc * pos as i128;
        let narrow = |v: i128| u64::try_from(v).expect("below Tcycle·G");
        Cursor { at: x, pos, ofs: narrow(scaled / g), frac: narrow(scaled % g) }
    }

    /// The closed form `p = min(G, ⌊((r+1)·G − 1)/Tcycle⌋ + 1)` counts the
    /// offsets `≤ r` for every G < 60, `Tcycle` < 80 and `r` — `Tcycle < G`
    /// (offsets repeat), G dividing `Tcycle` or not — and a cursor ticked
    /// one unit at a time through three cycles agrees with it at every
    /// residue, stepping past every group of a repeated offset at once.
    #[test]
    fn cursor_is_the_closed_form_and_counts_the_offsets() {
        let (mut repeated, mut ragged) = (0, 0);
        for groups in 1..60 {
            for t_cycle in 1..80u64 {
                let s = schedule(t_cycle, groups);
                for r in 0..t_cycle {
                    let want = ref_cursor(t_cycle, groups, r);
                    assert_eq!(s.cursor_at(r), want, "G {groups} Tcycle {t_cycle} r {r}");
                }
                let mut c = s.cursor_at(t_cycle - 1);
                for step in 0..3 * t_cycle {
                    c.tick(&s);
                    let want = ref_cursor(t_cycle, groups, step % t_cycle);
                    assert_eq!(c, want, "G {groups} Tcycle {t_cycle} tick {step}");
                }
                repeated += usize::from(t_cycle < groups as u64);
                ragged += usize::from(t_cycle % groups as u64 != 0);
            }
        }
        assert!(repeated > 1000 && ragged > 3000, "{repeated} / {ragged}");
    }

    /// After every op the clock holds `e = ⌊t/Tcycle⌋`, `r = t mod
    /// Tcycle` and the cursors at `r`, `r − N` and `r − ⌈βN⌉` (mod
    /// `Tcycle`), each equal to the offsets counted in `i128`; the flip
    /// count is the sum of the reference epochs; the legal and mature
    /// groups are those whose reference age passes `age ≥ βN` / `age ≥ N`;
    /// and the next flip is the earliest reference flip instant. The ops
    /// are single ticks, inserts, idle jumps of `k·Tcycle − 1`,
    /// `k·Tcycle` and `k·Tcycle + 1`, and restores, merges and clears at
    /// other clocks.
    #[test]
    fn clock_keeps_e_r_and_the_cursors_through_every_op() {
        use crate::snapshot::MergeMode;
        use she_hash::{RandomSource, Xoshiro256};

        // (N, Tcycle, M, w): G = 20 > Tcycle = 7; w = 1 with G = 59 over
        // Tcycle = 79; short last groups (47 = 11·4 + 3, 100 = 33·3 + 1)
        // with G not dividing Tcycle; Tcycle = 2; one group.
        for (case, (window, t_cycle, m, w)) in [
            (3u64, 7u64, 20usize, 1usize),
            (50, 79, 59, 1),
            (10, 13, 47, 4),
            (40, 59, 100, 3),
            (1, 2, 64, 1),
            (5, 6, 64, 64),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = SheConfig { window, t_cycle, group_cells: w, beta: 0.7 };
            let new = || She::new(BloomSpec::new(m, 2, 5), cfg);
            let (mut s, mut other) = (new(), new());
            let mut rng = Xoshiro256::new(0xC10C + case as u64);
            let mut saved = state(&s);
            for step in 0..40 * t_cycle {
                let (op, k) = (rng.next_below(16), rng.next_range(1, 4));
                other.insert(&step);
                match op {
                    0 => s.advance_time(k * t_cycle - 1),
                    1 => s.advance_time(k * t_cycle),
                    2 => s.advance_time(k * t_cycle + 1),
                    3 => saved = state(&s),
                    4 => s.restore_state(saved.0, &saved.1, &saved.2),
                    5 => {
                        let (t, marks, words) = state(&other);
                        s.merge_state(t, &marks, &words, MergeMode::Or);
                    }
                    6 if k == 1 => s.clear(),
                    7 | 8 => s.insert(&step),
                    _ => s.advance_time(1),
                }
                assert_clock_is_reference(&s, &format!("case {case} step {step} op {op}"));
            }
        }
    }

    fn assert_clock_is_reference<S: CsmSpec>(s: &She<S>, at: &str) {
        let (cfg, g, t) = (*s.config(), s.num_groups(), s.now());
        let tc = cfg.t_cycle;
        let (clock, r) = (&s.clock, t % tc);
        let back = |a: u64| {
            let x = (i128::from(r) - i128::from(a)).rem_euclid(tc.into());
            u64::try_from(x).expect("below Tcycle")
        };
        let beta_n = cfg.beta * cfg.window as f64;
        assert_eq!((clock.t, clock.e), (t, t / tc), "{at}: e");
        assert_eq!(clock.now, ref_cursor(tc, g, r), "{at}: p");
        assert_eq!(clock.mature, ref_cursor(tc, g, back(cfg.window)), "{at}: N");
        let legal_age = min_legal_age(beta_n);
        assert_eq!(clock.legal, ref_cursor(tc, g, back(legal_age)), "{at}: βN");
        let epochs: u64 = (0..g)
            .map(|gid| {
                let flips = (i128::from(t) - ref_offset(s, gid)).div_euclid(tc.into()) + 1;
                u64::try_from(flips).expect("at least one flip pending")
            })
            .sum();
        assert_eq!(s.flip_count().count(), epochs, "{at}: flip count");
        let legal: Vec<usize> = (0..g).filter(|&gid| ref_age(s, gid) as f64 >= beta_n).collect();
        let [a, b] = s.legal_groups();
        assert_eq!(a.chain(b).collect::<Vec<_>>(), legal, "{at}: legal groups");
        for gid in 0..g {
            let age = ref_age(s, gid);
            assert_eq!(s.group_age(gid), age, "{at}: gid {gid} age");
            assert_eq!(s.observe_mature(gid), age >= cfg.window, "{at}: gid {gid} mature");
        }
        let next = (0..g).map(|gid| t + tc - ref_age(s, gid)).min();
        assert_eq!(Some(s.next_flip_at()), next, "{at}: next flip");
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
        // Row 0 as the point-read pass reads it: its value, and its due bit.
        let row0 = |s: &She<BloomSpec>| {
            let mut value = None;
            s.read_rows(&7u64, |row, r| {
                if row == 0 {
                    assert_eq!((r.update, r.gid), (ups[0], gid));
                    value = Some((r.value, r.due));
                }
            });
            value.expect("row 0")
        };
        // Not yet due: effective = stored.
        assert!(!s.group_due(gid));
        assert_eq!(row0(&s), (s.peek_cell(idx), false));
        // One cycle later the group is due: effective reads zero while the
        // stored bit is still set, and check_group then agrees.
        s.advance_time(s.config().t_cycle);
        assert!(s.group_due(gid));
        assert_eq!(row0(&s), (0, true));
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

    /// A point-read structure driven by [`assert_pass_is_the_walk`]: its
    /// reads through the point-read pass, and the per-row walk the pass
    /// replaced — `CheckGroup`, maturity, cell, row by row — as the oracle.
    pub(crate) trait PassOracle: crate::SnapshotState {
        type Spec: CsmSpec;
        /// The engine under the structure.
        fn she(&self) -> &She<Self::Spec>;
        fn insert_key(&mut self, key: u64);
        fn advance(&mut self, dt: u64);
        fn clear_all(&mut self);
        /// The pass: the mutating read, or the frozen one.
        fn pass(&mut self, key: u64, mutating: bool) -> u64;
        /// The per-row walk, of the same kind.
        fn walk(&mut self, key: u64, mutating: bool) -> u64;
    }

    /// Rows of `key` whose group is due for cleaning.
    fn due_rows(s: &She<impl CsmSpec>, key: u64) -> usize {
        let mut ups = Vec::new();
        s.updates_for(&key, &mut ups);
        ups.iter().filter(|u| s.group_due(s.group_of(u.index))).count()
    }

    /// Drive `pass` through the pass and `walk` through the per-row walks
    /// with the same seeded ops — inserts, idle jumps of k·`Tcycle` − 1,
    /// k·`Tcycle` and k·`Tcycle` + 1, frozen and mutating reads, restore,
    /// merge (where the structure merges) and clear — and after every op
    /// require equal answers and
    /// equal `save_snapshot` bytes: the cleaned groups, and so the early
    /// exit of a membership read, are the walk's. A read's frozen answer
    /// must also be its mutating one. Returns how many reads covered a
    /// due group, and how many of those left one of the key's groups due.
    pub(crate) fn assert_pass_is_the_walk<T: PassOracle>(
        new: impl Fn() -> T,
        seed: u64,
        steps: u64,
    ) -> (usize, usize) {
        use she_hash::{RandomSource, Xoshiro256};
        let (mut pass, mut walk, mut other) = (new(), new(), new());
        let (tc, window) = (pass.she().config().t_cycle, pass.she().config().window);
        let mut rng = Xoshiro256::new(seed);
        let (mut saved, mut covered, mut left_due) = (pass.save_snapshot(), 0, 0);
        for step in 0..steps {
            let (op, k) = (u64_of(rng.next_below(40)), rng.next_range(1, 4));
            let key = rng.next_range(0, 2 * window);
            other.insert_key(key ^ 1);
            let at = format!("seed {seed} step {step} op {op} key {key} t {}", pass.she().now());
            if (7..=22).contains(&op) {
                let due = due_rows(pass.she(), key);
                let frozen = (pass.pass(key, false), walk.walk(key, false));
                let mutating = (pass.pass(key, true), walk.walk(key, true));
                assert_eq!(frozen, (mutating.1, mutating.1), "{at}: frozen reads");
                assert_eq!(mutating.0, mutating.1, "{at}: mutating read");
                covered += usize::from(due > 0);
                left_due += usize::from(due > 0 && due_rows(pass.she(), key) > 0);
            }
            let merged = (op == 5).then(|| other.save_snapshot());
            if op == 3 {
                saved = pass.save_snapshot();
            }
            for s in [&mut pass, &mut walk] {
                match op {
                    0..=2 => s.advance(k * tc + op - 1),
                    3 | 7..=22 => {}
                    4 => s.load_snapshot(&saved).expect("restore"),
                    5 => {
                        let merge = s.merge_snapshot(merged.as_deref().expect("frame"));
                        match T::MERGE {
                            Some(_) => merge.expect("merge"),
                            None => assert_eq!(merge, Err(crate::SnapshotError::NotMergeable)),
                        }
                    }
                    6 if k == 1 => s.clear_all(),
                    _ => s.insert_key(key),
                }
            }
            assert!(pass.save_snapshot() == walk.save_snapshot(), "{at}: snapshot bytes");
        }
        (covered, left_due)
    }
}
