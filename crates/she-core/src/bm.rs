//! SHE-BM: sliding-window cardinality via linear counting (Section 4.1).
//!
//! Insertion sets one hashed bit. The query cleans the due groups, keeps
//! those whose age lies in the legal range `[βN, Tcycle)` (β slightly
//! below 1 — the bitmap estimator has two-sided error, so nearly-perfect
//! young groups reduce bias, per §3.2), counts the zero bits `u` among the
//! `ℓ·w` legal bits, and scales the MLE to the full array:
//! `Ĉ = −M · ln(u / (w·ℓ))`.
//!
//! ## Set-bit counts
//!
//! Only an insert sets a bit and only a cleaning clears a group, so the
//! sketch keeps one set-bit count per group and the estimate sums counts
//! over the legal groups (at most two `gid` ranges) instead of
//! popcounting their words: `u` is the legal bits less the summed counts.
//! An insert is one pass of its own — advance the clock, `CheckGroup` the
//! hashed bit's group (a cleaning zeroes its count), then one
//! test-and-set of the bit that bumps the count when the bit was zero.
//! Every query's sweep (`She::check_due`, and `She::for_each_group` for
//! `estimate_at` and `cardinality_curve`) reports each group it cleans
//! and zeroes that count too, so a count always equals its group's
//! popcount.
//!
//! Every other writer of the cells — restore, merge and reconcile, all
//! through `engine_mut()` — marks the counts stale, and the next estimate
//! rebuilds them with one popcount per group. `clear()` zeroes them.
//!
//! The counts are `u16` (`build` asserts `w ≤ 65 535`): 2 bytes per group,
//! 4 KiB for the 2 048 groups of a default served shard's 16 KiB bitmap,
//! sixteen times its 256 B of marks, and of the ≈ 88 KB the shard holds
//! (the two SHE-MH memos take 32 KiB; `sharded.rs`'s resident-bytes test).
//! [`SheBitmap::memory_bits`] leaves them out: they are a cache of the
//! query path, not the paper's sketch state. No snapshot carries them,
//! and a bitmap restored without them answers exactly as the one that
//! had them.

use crate::convert::usize_of;
use crate::{She, SheConfig};
use she_hash::HashKey;
use she_sketch::{BitmapSpec, CsmSpec};

/// Sliding-window linear-counting bitmap (hardware version of SHE).
///
/// ```
/// use she_core::SheBitmap;
///
/// let mut bm = SheBitmap::builder()
///     .window(10_000)          // count distinct keys over the last 10k items
///     .memory_bytes(4 << 10)   // 4 KB of bits
///     .build();
/// for i in 0..40_000u64 {
///     bm.insert(&i);           // all-distinct stream
/// }
/// let est = bm.estimate();
/// assert!((est - 10_000.0).abs() / 10_000.0 < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct SheBitmap {
    engine: She<BitmapSpec>,
    /// Set bits per group (module docs, *Set-bit counts*); zero and
    /// meaningless while `stale`.
    counts: Vec<u16>,
    /// Whether the cells were written behind the counts' back.
    stale: bool,
}

/// Builder for [`SheBitmap`] with the paper's defaults (`w = 64`, `α = 0.2`,
/// `β = 0.9`).
#[derive(Debug, Clone)]
pub struct SheBitmapBuilder {
    window: u64,
    memory_bits: usize,
    alpha: f64,
    beta: f64,
    group_cells: usize,
    seed: u32,
}

impl Default for SheBitmapBuilder {
    fn default() -> Self {
        Self {
            window: 1 << 16,
            memory_bits: 8 << 13, // 8 KB
            alpha: 0.2,
            beta: 0.9,
            group_cells: 64,
            seed: 1,
        }
    }
}

impl SheBitmapBuilder {
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

    /// `α = (Tcycle − N)/N` (paper default 0.2 for SHE-BM).
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
    pub fn build(self) -> SheBitmap {
        let m = self.memory_bits.max(self.group_cells);
        let w = self.group_cells.min(m);
        assert!(w <= usize::from(u16::MAX), "group size w={w} overflows a u16 set-bit count");
        let cfg = SheConfig::builder()
            .window(self.window)
            .alpha(self.alpha)
            .group_cells(w)
            .beta(self.beta)
            .build();
        let engine = She::new(BitmapSpec::new(m, self.seed), cfg);
        SheBitmap { counts: vec![0; engine.num_groups()], engine, stale: false }
    }
}

impl SheBitmap {
    /// Start building with the paper defaults.
    pub fn builder() -> SheBitmapBuilder {
        SheBitmapBuilder::default()
    }

    /// Insert an item at the next time step.
    #[inline]
    pub fn insert<K: HashKey + ?Sized>(&mut self, key: &K) {
        let mut row = [0u32];
        self.engine.spec().hash_rows(key, 0, &mut row);
        self.insert_hash(row[0]);
    }

    /// [`SheBitmap::insert`] of a key whose row hash the caller already
    /// holds: `rows[0]`, from a family this bitmap's is a prefix of.
    #[inline]
    pub(crate) fn insert_rows(&mut self, rows: &[u32]) {
        self.insert_hash(rows[0]);
    }

    /// The insert pass (module docs, *Set-bit counts*): the cells,
    /// `CheckGroup` instants and bytes of the generic `She::insert`.
    #[inline]
    fn insert_hash(&mut self, hash: u32) {
        self.engine.advance_time(1);
        let u = self.engine.spec().row_update(0, hash);
        let gid = self.engine.group_of(u.index);
        if self.engine.check_group(gid) {
            self.counts[gid] = 0;
        }
        self.counts[gid] += u16::from(self.engine.apply_update(u) == 0);
    }

    /// Estimated cardinality of the sliding window.
    ///
    /// Cleans every due group first (`She::check_due`: the groups whose
    /// mark flipped since the last sweep), so it leaves the state exactly
    /// as running `CheckGroup` on every group would — hence `&mut self`.
    /// The legal groups (`age ≥ βN`) are at most two `gid` ranges, read
    /// off the clock, and their zeros are the legal bits less the summed
    /// set-bit counts.
    pub fn estimate(&mut self) -> f64 {
        self.sweep();
        let m = self.engine.spec().num_cells();
        let (mut legal_bits, mut set_bits) = (0usize, 0usize);
        for gids in self.engine.legal_groups() {
            legal_bits += self.engine.cells_of_groups(gids.clone()).len();
            set_bits += sum_counts(&self.counts[gids]);
        }
        let zeros = legal_bits - set_bits;
        if legal_bits == 0 {
            return 0.0;
        }
        if zeros == legal_bits {
            return 0.0;
        }
        // Ĉ = -M ln(u / (w·ℓ)), clamping a saturated sample to its last
        // resolvable point like the fixed-window estimator.
        let u = zeros.max(1) as f64;
        -(m as f64) * (u / legal_bits as f64).ln()
    }

    /// Multi-window query: estimate the cardinality of the last `n` items
    /// for **any** `n < Tcycle`, not just the configured window.
    ///
    /// Because group ages are spread uniformly over `[0, Tcycle)`, groups
    /// whose age is close to `n` record (almost exactly) the last `n`
    /// items; the linear-counting MLE over those groups, scaled to the
    /// full array, estimates `F(n)`. `tolerance` is the accepted relative
    /// age deviation (0.25 works well); fewer matching groups mean a
    /// noisier estimate — the estimator falls back to the single
    /// nearest-age group when the band is empty.
    ///
    /// Accuracy guidance: on-demand cleaning refreshes a group only when
    /// an insertion touches it (≈ every `G` items for a single-hash
    /// sketch), so sub-windows shorter than the group count `G` read
    /// groups whose actual cleaning lagged their schedule. Keep
    /// `n ≳ G` (i.e. pick `group_cells ≥ M/n`) for small-window queries.
    pub fn estimate_at(&mut self, n: u64, tolerance: f64) -> f64 {
        assert!(n > 0 && tolerance >= 0.0);
        assert!(
            n < self.engine.config().t_cycle,
            "query window {n} must be below Tcycle {}",
            self.engine.config().t_cycle
        );
        let m = self.engine.spec().num_cells();
        let lo = (n as f64 * (1.0 - tolerance)).floor();
        let hi = (n as f64 * (1.0 + tolerance)).ceil();
        let mut legal_bits = 0usize;
        let mut zeros = 0usize;
        let mut nearest: Option<(u64, usize, usize)> = None; // (dist, bits, zeros)
        let counts = &mut self.counts;
        self.engine.for_each_group(
            |gid| counts[gid] = 0,
            |g| {
                let (age, bits, zs) = (g.age(), g.len(), g.zeros());
                let dist = age.abs_diff(n);
                if nearest.is_none_or(|(d, _, _)| dist < d) {
                    nearest = Some((dist, bits, zs));
                }
                if (age as f64) >= lo && (age as f64) <= hi {
                    legal_bits += bits;
                    zeros += zs;
                }
            },
        );
        if legal_bits == 0 {
            // `nearest` is Some whenever the structure has >= 1 group;
            // an impossible empty layout degrades to "no bits set".
            let Some((_, bits, zs)) = nearest else { return 0.0 };
            legal_bits = bits;
            zeros = zs;
        }
        if zeros == legal_bits {
            return 0.0;
        }
        let u = zeros.max(1) as f64;
        -(m as f64) * (u / legal_bits as f64).ln()
    }

    /// The full cardinality-vs-age curve: one `(age, estimate)` point per
    /// group, sorted by age. Useful for plotting `F(x)` — the cardinality
    /// of the last `x` items — from a single structure.
    pub fn cardinality_curve(&mut self) -> Vec<(u64, f64)> {
        let m = self.engine.spec().num_cells();
        let mut pts = Vec::with_capacity(self.engine.num_groups());
        let counts = &mut self.counts;
        self.engine.for_each_group(
            |gid| counts[gid] = 0,
            |g| {
                let (age, bits, zs) = (g.age(), g.len(), g.zeros());
                if bits > 0 && zs > 0 {
                    pts.push((age, -(m as f64) * (zs as f64 / bits as f64).ln()));
                } else if bits > 0 {
                    pts.push((age, m as f64 * (bits as f64).ln()));
                }
            },
        );
        pts.sort_unstable_by_key(|&(age, _)| age);
        pts
    }

    /// Clean every due group (`She::check_due`), zeroing the count of
    /// each group it cleans, and rebuild stale counts from the words.
    fn sweep(&mut self) {
        let counts = &mut self.counts;
        self.engine.check_due(|gid| counts[gid] = 0);
        if self.stale {
            for (gid, count) in self.counts.iter_mut().enumerate() {
                let bits = self.engine.cells_of_groups(gid..gid + 1).len();
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a group holds at most w ≤ u16::MAX bits, asserted in `build`"
                )]
                let set = (bits - self.engine.count_zeros_in_groups(gid..gid + 1)) as u16;
                *count = set;
            }
            self.stale = false;
        }
    }

    /// Advance logical time without inserting.
    #[inline]
    pub fn advance_time(&mut self, dt: u64) {
        self.engine.advance_time(dt);
    }

    /// The underlying generic engine.
    #[inline]
    pub fn engine(&self) -> &She<BitmapSpec> {
        &self.engine
    }

    /// Mutable engine access for the snapshot layer (restore, merge,
    /// reconcile): whatever it writes, the set-bit counts no longer
    /// describe. They are zeroed as well as marked, so that the inserts
    /// before the next rebuild cannot overflow them.
    pub(crate) fn engine_mut(&mut self) -> &mut She<BitmapSpec> {
        self.counts.fill(0);
        self.stale = true;
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
        self.counts.fill(0);
        self.stale = false;
    }

    /// Bytes on the heap: the engine's and the set-bit counts.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.engine.heap_bytes() + std::mem::size_of_val(&self.counts[..])
    }
}

/// The sum of `counts` in `u32` lanes, which vectorise twice as wide as
/// `usize` ones (a `usize` sum took SHE-BM's estimate ×1.6 as long): a
/// chunk of 2^16 counts, each at most `u16::MAX`, sums below 2^32.
fn sum_counts(counts: &[u16]) -> usize {
    let chunk_sum = |c: &[u16]| c.iter().map(|&n| u32::from(n)).sum::<u32>();
    counts.chunks(1 << 16).map(|c| usize_of(u64::from(chunk_sum(c)))).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle sweep — the per-cell loop the estimators ran before
    /// group views: check every group, then count its bits and zeros one
    /// `peek_cell` at a time. `(age, bits, zeros)` per group.
    fn per_cell_groups(bm: &mut SheBitmap) -> Vec<(u64, usize, usize)> {
        let e = bm.engine_mut();
        let (w, m) = (e.config().group_cells, e.spec().num_cells());
        (0..e.num_groups())
            .map(|gid| {
                e.check_group(gid);
                let cells = gid * w..(gid * w + w).min(m);
                let zeros = cells.clone().filter(|&i| e.peek_cell(i) == 0).count();
                (e.group_age(gid), cells.len(), zeros)
            })
            .collect()
    }

    /// `Ĉ = −M ln(u / bits)` as the estimators compute it.
    fn mle(m: usize, zeros: usize, bits: usize) -> f64 {
        if bits == 0 || zeros == bits {
            return 0.0;
        }
        -(m as f64) * (zeros.max(1) as f64 / bits as f64).ln()
    }

    /// The per-cell estimate: the groups whose age passes the `f64` test
    /// `age ≥ βN`, their zeros counted one `peek_cell` at a time.
    fn oracle_estimate(bm: &mut SheBitmap) -> f64 {
        let cfg = *bm.engine().config();
        let beta_n = cfg.beta * cfg.window as f64;
        let (mut bits, mut zeros) = (0, 0);
        for (age, b, z) in per_cell_groups(bm) {
            if age as f64 >= beta_n {
                (bits, zeros) = (bits + b, zeros + z);
            }
        }
        mle(bm.engine().spec().num_cells(), zeros, bits)
    }

    /// The estimate before the set-bit counts: sweep, then popcount the
    /// legal groups' words.
    fn popcount_estimate(bm: &mut SheBitmap) -> f64 {
        let e = bm.engine_mut();
        e.check_due(|_| {});
        let (mut bits, mut zeros) = (0, 0);
        for gids in e.legal_groups() {
            bits += e.cells_of_groups(gids.clone()).len();
            zeros += e.count_zeros_in_groups(gids);
        }
        mle(e.spec().num_cells(), zeros, bits)
    }

    /// Every set-bit count is its group's set bits, read one `peek_cell`
    /// at a time.
    fn assert_counts_exact(bm: &SheBitmap, at: &str) {
        let e = bm.engine();
        let (w, m) = (e.config().group_cells, e.spec().num_cells());
        assert_eq!(bm.counts.len(), m.div_ceil(w), "{at}: one count per group");
        for (gid, &count) in bm.counts.iter().enumerate() {
            let ones = (gid * w..(gid * w + w).min(m)).filter(|&i| e.peek_cell(i) == 1).count();
            assert_eq!(usize::from(count), ones, "{at}: set-bit count of group {gid}");
        }
    }

    fn oracle_estimate_at(bm: &mut SheBitmap, n: u64, tolerance: f64) -> f64 {
        let lo = (n as f64 * (1.0 - tolerance)).floor();
        let hi = (n as f64 * (1.0 + tolerance)).ceil();
        let (mut bits, mut zeros, mut nearest) = (0, 0, None::<(u64, usize, usize)>);
        for (age, b, z) in per_cell_groups(bm) {
            let dist = age.abs_diff(n);
            if nearest.is_none_or(|(d, _, _)| dist < d) {
                nearest = Some((dist, b, z));
            }
            if (age as f64) >= lo && (age as f64) <= hi {
                (bits, zeros) = (bits + b, zeros + z);
            }
        }
        if bits == 0 {
            (bits, zeros) = nearest.map_or((0, 0), |(_, b, z)| (b, z));
        }
        mle(bm.engine().spec().num_cells(), zeros, bits)
    }

    fn oracle_curve(bm: &mut SheBitmap) -> Vec<(u64, u64)> {
        let m = bm.engine().spec().num_cells() as f64;
        let mut pts: Vec<(u64, f64)> = per_cell_groups(bm)
            .into_iter()
            .map(|(age, b, z)| match z {
                0 => (age, m * (b as f64).ln()),
                _ => (age, -m * (z as f64 / b as f64).ln()),
            })
            .collect();
        pts.sort_unstable_by_key(|&(age, _)| age);
        pts.into_iter().map(|(age, est)| (age, est.to_bits())).collect()
    }

    /// The counted insert and estimate are the generic insert and the
    /// per-cell and popcount estimates: after every op every set-bit
    /// count is its group's popcount (unless a restore or merge left them
    /// stale), and on the steps that query, `estimate`, `estimate_at` and
    /// `cardinality_curve` have the oracles' bits, in a rotated order so
    /// that each is sometimes the query whose sweep cleans, and the
    /// snapshots are byte-equal. Queries skip two steps in three, so that
    /// inserts (whose `CheckGroup` cleans a group that came due since the
    /// last sweep) and idle jumps of `k·Tcycle − 1`, `k·Tcycle` and
    /// `k·Tcycle + 1` pile up between sweeps.
    #[test]
    fn group_sweep_is_bit_for_bit_the_per_cell_sweep() {
        use crate::SnapshotState;
        use she_hash::{RandomSource, Xoshiro256};

        // w = 64: one aligned word per group, the served width. w = 40:
        // groups straddle words, and 2 408 bits leave a short last group
        // of 8. w = 3: 512 bits in G = 171 groups over Tcycle = 120, so
        // offsets repeat, and a short last group of 2.
        for (case, (window, bytes, w)) in
            [(256u64, 256usize, 64usize), (300, 301, 40), (100, 64, 3)].into_iter().enumerate()
        {
            let b = SheBitmap::builder().window(window).memory_bytes(bytes).group_cells(w).seed(3);
            // `fast` counts; `oracle` inserts through the generic loop;
            // `other` is a second stream to merge.
            let (mut fast, mut oracle, mut other) =
                (b.clone().build(), b.clone().build(), b.build());
            let t_cycle = other.engine().config().t_cycle;
            let mut rng = Xoshiro256::new(0xB175 + case as u64);
            let mut saved = other.save_snapshot();
            let mut cleaned_by_insert = 0;
            for step in 0..6_000 {
                let key = rng.next_range(0, 4 * window);
                let op = rng.next_below(48);
                other.insert(&(key + 1));
                if op == 4 {
                    saved = fast.save_snapshot();
                }
                let before = fast.counts.clone();
                for (s, generic) in [(&mut fast, false), (&mut oracle, true)] {
                    match op {
                        0 => s.advance_time(key % (2 * t_cycle)),
                        1 => s.load_snapshot(&saved).expect("load"),
                        2 => s.merge_snapshot(&other.save_snapshot()).expect("merge"),
                        3 if key.is_multiple_of(4) => s.clear(),
                        4 => {}
                        5 => s.advance_time((1 + key % 3) * t_cycle + key % 3 - 1),
                        _ if generic => s.engine_mut().insert(&key),
                        _ => s.insert(&key),
                    }
                }
                let at = format!("case {case} step {step}");
                if !fast.stale {
                    assert_counts_exact(&fast, &at);
                    cleaned_by_insert += usize::from(
                        op > 5 && fast.counts.iter().zip(&before).any(|(&c, &b)| c < b),
                    );
                }
                if rng.next_below(3) != 0 {
                    continue;
                }
                let (n, first) = (1 + key % (t_cycle - 1), rng.next_below(3));
                for query in (0..3).map(|q| (first + q) % 3) {
                    match query {
                        0 => {
                            let est = fast.estimate().to_bits();
                            assert_eq!(
                                est,
                                oracle_estimate(&mut oracle).to_bits(),
                                "{at}: per-cell"
                            );
                            assert_eq!(
                                est,
                                popcount_estimate(&mut oracle).to_bits(),
                                "{at}: popcount"
                            );
                        }
                        1 => assert_eq!(
                            fast.estimate_at(n, 0.25).to_bits(),
                            oracle_estimate_at(&mut oracle, n, 0.25).to_bits(),
                            "{at}: estimate_at({n})"
                        ),
                        _ => {
                            let curve: Vec<(u64, u64)> = fast
                                .cardinality_curve()
                                .into_iter()
                                .map(|(a, e)| (a, e.to_bits()))
                                .collect();
                            assert_eq!(curve, oracle_curve(&mut oracle), "{at}: curve");
                        }
                    }
                    if !fast.stale {
                        assert_counts_exact(&fast, &at);
                    }
                }
                assert_eq!(fast.save_snapshot(), oracle.save_snapshot(), "{at}: snapshot bytes");
            }
            assert!(cleaned_by_insert > 15, "case {case}: {cleaned_by_insert} insert cleanings");
        }
    }

    #[test]
    fn count_sums_do_not_overflow_their_lanes() {
        // Three chunks of full groups, the last one ragged.
        let counts = vec![u16::MAX; (1 << 17) + 3];
        assert_eq!(sum_counts(&counts), counts.len() * usize::from(u16::MAX));
    }

    #[test]
    fn estimates_window_cardinality() {
        let window = 1u64 << 14;
        let mut bm = SheBitmap::builder().window(window).memory_bytes(16 << 10).seed(5).build();
        // Stream of distinct items: window cardinality = window size.
        for i in 0..6 * window {
            bm.insert(&i);
        }
        let est = bm.estimate();
        let re = (est - window as f64).abs() / window as f64;
        assert!(re < 0.15, "estimate {est}, relative error {re}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let window = 1u64 << 14;
        let mut bm = SheBitmap::builder().window(window).memory_bytes(16 << 10).build();
        // Each distinct key repeated 4 times: window cardinality = window/4.
        for i in 0..6 * window {
            bm.insert(&(i / 4));
        }
        let truth = window as f64 / 4.0;
        let est = bm.estimate();
        let re = (est - truth).abs() / truth;
        assert!(re < 0.2, "estimate {est} truth {truth} re {re}");
    }

    #[test]
    fn empty_estimates_zero() {
        let mut bm = SheBitmap::builder().build();
        assert_eq!(bm.estimate(), 0.0);
    }

    #[test]
    fn estimate_at_tracks_sub_windows() {
        // Distinct stream: F(n) = n exactly, for every n. One structure
        // answers all of them.
        let window = 1u64 << 14;
        let mut bm = SheBitmap::builder()
            .window(window)
            .memory_bytes(32 << 10)
            .alpha(0.5)
            .group_cells(64)
            .seed(9)
            .build();
        for i in 0..6 * window {
            bm.insert(&i);
        }
        for frac in [0.25f64, 0.5, 1.0, 1.3] {
            let n = (window as f64 * frac) as u64;
            let est = bm.estimate_at(n, 0.25);
            let re = (est - n as f64).abs() / n as f64;
            assert!(re < 0.35, "n={n}: estimate {est}, re {re}");
        }
    }

    #[test]
    fn cardinality_curve_is_roughly_linear_for_distinct_stream() {
        let window = 1u64 << 13;
        let mut bm =
            SheBitmap::builder().window(window).memory_bytes(32 << 10).alpha(0.5).seed(10).build();
        for i in 0..6 * window {
            bm.insert(&i);
        }
        let curve = bm.cardinality_curve();
        assert!(curve.len() > 10);
        // Spearman-ish check: estimates grow with age.
        let (first_age, first_est) = curve[2];
        let (last_age, last_est) = curve[curve.len() - 3];
        assert!(last_age > first_age);
        assert!(last_est > first_est, "curve not increasing: {first_est} -> {last_est}");
    }

    #[test]
    fn stale_far_past_items_fade() {
        let window = 1u64 << 12;
        let mut bm = SheBitmap::builder().window(window).memory_bytes(8 << 10).build();
        for i in 0..2 * window {
            bm.insert(&i);
        }
        // Idle for one full cycle: every group's mark flips, so the query
        // sweep cleans all of them. (An *even* number of idle cycles would
        // leave the parity unchanged and preserve stale data — that is the
        // §5.1 on-demand-cleaning error, tested in engine.rs.)
        bm.advance_time(bm.engine().config().t_cycle);
        let est = bm.estimate();
        assert!(est < window as f64 * 0.05, "stale estimate {est}");
    }
}
