//! # she-readpath — two-stage read acceleration for the serving tier
//!
//! Writes scale across shards, but every authoritative query still walks
//! the full sketch under a worker queue. This crate answers the hot read
//! mix from a structure that never touches the write path:
//!
//! * **Stage one — the fast summary**: one [`PointHalf`] per shard —
//!   SHE-BF and SHE-CM, the only sketches `QUERY_FAST` reads, routed like
//!   the served engine. In SF-sketch terms it is the small read-side
//!   stage beside the full write-side engine: the *same* type the
//!   workers' shards embed, so the same sizing, hashes and frame parser,
//!   but without SHE-BM or the similarity MinHashes, and stream-B records
//!   pass it by. It is refreshed incrementally from the op stream (the
//!   replication log tail) and read *frozen*: queries never mutate, so
//!   the mirror answers bit-for-bit what the authoritative engines would
//!   after the same inserts *and* the same mutating queries. Next to it
//!   sits a [`SlidingTopK`] candidate set, ranked by the mirror's own
//!   SHE-CM, that the authoritative tier does not maintain at all.
//! * **Stage two — [`MarkCache`]**: a direct-mapped `(op, key)` result
//!   cache validated by SHE **time-mark signatures**. An entry is dropped
//!   only when a group the answer depends on changes observation context
//!   (mark flip or maturity crossing), *not* on every insert — giving a
//!   provable staleness bound of one window sub-group (see
//!   `docs/READPATH.md`).
//!
//! [`ReadPath`] glues the two behind one leaf lock, counts
//! hits/misses/fills/invalidations into
//! [`ReadpathCounters`], and tracks the
//! op-log sequence it has applied so callers can wait for quiescence.

// No panic and no silent truncation outside tests: a panic on the
// serving path kills a shard worker or a connection, a truncated length
// corrupts data. A deliberate exception carries
// `#[expect(<lint>, reason = "…")]` stating why it cannot fire.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

mod cache;

pub use cache::{Lookup, MarkCache};

use she_core::convert::usize_of;
use she_core::sharded::{EngineConfig, PointHalf};
use she_core::{LeafMutex, SlidingTopK, SnapshotError};
use she_metrics::ReadpathCounters;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Query-class codes carried by `QUERY_FAST` frames. Membership and
/// frequency match the cluster fan-out codes; top-k is read-path-only
/// (the authoritative tier keeps no ranking).
pub mod op {
    /// Sliding-window membership → packed 0/1.
    pub const MEMBER: u8 = 0;
    /// Sliding-window frequency → count.
    pub const FREQ: u8 = 2;
    /// Top-k heaviest keys; the key field carries `n`.
    pub const TOPK: u8 = 4;
    /// Drop every cached answer (key ignored) → 1. Subsequent asks
    /// refill from the mirror — `she-server/tests/readpath_e2e.rs`
    /// flushes before its exactness probes so they measure fresh fills,
    /// not mid-stream residue.
    pub const FLUSH: u8 = 6;
}

/// Sizing for a [`ReadPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPathConfig {
    /// Mark-cache slots (rounded up to a power of two).
    pub cache_slots: usize,
    /// How many heavy keys the top-k summary tracks.
    pub topk: usize,
}

impl Default for ReadPathConfig {
    fn default() -> Self {
        Self { cache_slots: 1 << 16, topk: 16 }
    }
}

/// One fast-path answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastAnswer {
    /// Membership verdict.
    Bool(bool),
    /// Frequency estimate.
    Count(u64),
    /// Ranked `(key, estimate)` pairs, heaviest first.
    Ranked(Vec<(u64, u64)>),
}

/// Keys applied per lock acquisition — bounds how long a large op-log
/// record can hold the read lock away from the serving thread.
const APPLY_CHUNK: usize = 1024;

/// Upper bound on a top-k request so a hostile `n` cannot size a reply.
const TOPK_MAX: u64 = 1024;

/// The fast summary: the point half of every shard, routed by the served
/// engine's config and fed the same per-shard stream-A key order (op-log
/// order guarantees this).
struct Mirror {
    cfg: EngineConfig,
    shards: Vec<PointHalf>,
}

impl Mirror {
    /// The point half `key` routes to.
    #[inline]
    fn half(&self, key: u64) -> &PointHalf {
        &self.shards[self.cfg.shard_of(key)]
    }

    /// Feed a stream-A key to the point half it routes to.
    #[inline]
    fn insert(&mut self, key: u64) {
        let shard = self.cfg.shard_of(key);
        self.shards[shard].insert(key);
    }
}

struct Inner {
    mirror: Mirror,
    /// Stream-A candidates, ranked by the mirror's frozen frequencies.
    topk: SlidingTopK,
    cache: MarkCache,
}

/// The serving tier's read accelerator: fast summary + mark cache behind
/// one leaf lock, with hit/miss counters and an applied-sequence
/// watermark.
pub struct ReadPath {
    inner: LeafMutex<Inner>,
    counters: Arc<ReadpathCounters>,
    /// Highest op-log sequence applied to the fast summary.
    seq: AtomicU64,
}

impl std::fmt::Debug for ReadPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadPath").field("seq", &self.seq).finish_non_exhaustive()
    }
}

impl ReadPath {
    /// An empty mirror of an `engine`-sized engine's point halves, with a
    /// `cfg`-sized mark cache and a `cfg.topk` candidate set; seed it with
    /// [`ReadPath::load`]. Candidates are the keys the op stream offers;
    /// their estimates always come from the mirror, so a mirror loaded
    /// from a snapshot ranks by the loaded state.
    pub fn new(
        engine: &EngineConfig,
        cfg: ReadPathConfig,
        counters: Arc<ReadpathCounters>,
    ) -> Self {
        let shards = (0..engine.shards).map(|i| PointHalf::new(engine, i)).collect();
        let mirror = Mirror { cfg: *engine, shards };
        let topk = SlidingTopK::new(cfg.topk.max(1));
        Self {
            inner: LeafMutex::new(Inner { mirror, topk, cache: MarkCache::new(cfg.cache_slots) }),
            counters,
            seq: AtomicU64::new(0),
        }
    }

    /// Answer one fast query. `None` means the op code is unknown — the
    /// caller maps that to a protocol error.
    pub fn query(&self, opcode: u8, key: u64) -> Option<FastAnswer> {
        match opcode {
            op::TOPK => {
                let mut g = self.inner.lock();
                let Inner { mirror, topk, .. } = &mut *g;
                let mut top = topk.top(|k| mirror.half(k).frequency_frozen(k));
                top.truncate(usize_of(key.min(TOPK_MAX)));
                Some(FastAnswer::Ranked(top))
            }
            op::FLUSH => {
                self.invalidate_all();
                Some(FastAnswer::Bool(true))
            }
            op::MEMBER | op::FREQ => {
                let mut g = self.inner.lock();
                let Inner { mirror, cache, .. } = &mut *g;
                let half = mirror.half(key);
                let sig = half.mark_sig(opcode == op::FREQ, key);
                match cache.lookup(opcode, key, sig) {
                    Lookup::Hit(v) => {
                        ReadpathCounters::bump(&self.counters.hits);
                        Some(unpack(opcode, v))
                    }
                    Lookup::Miss { invalidated } => {
                        if invalidated {
                            ReadpathCounters::bump(&self.counters.invalidations);
                        }
                        ReadpathCounters::bump(&self.counters.misses);
                        let v = match opcode {
                            op::MEMBER => u64::from(half.member_frozen(key)),
                            _ => half.frequency_frozen(key),
                        };
                        cache.fill(opcode, key, sig, v);
                        ReadpathCounters::bump(&self.counters.fills);
                        Some(unpack(opcode, v))
                    }
                }
            }
            _ => None,
        }
    }

    /// Apply one op-stream record to the fast summary, in chunks so a
    /// large batch cannot monopolize the read lock. A stream-A chunk
    /// reaches the mirror, then is offered to the candidate set as one run
    /// at the mirror's estimates. Stream B feeds only the similarity
    /// MinHash, which the mirror does not hold: its records change nothing
    /// here.
    pub fn apply(&self, stream: u8, keys: &[u64]) {
        if stream != 0 {
            return;
        }
        for chunk in keys.chunks(APPLY_CHUNK) {
            let mut g = self.inner.lock();
            let Inner { mirror, topk, .. } = &mut *g;
            chunk.iter().for_each(|&k| mirror.insert(k));
            topk.offer(chunk, |k| mirror.half(k).frequency_frozen(k));
        }
    }

    /// Record that op-log sequence `seq` (and everything before it) has
    /// been applied to the fast summary.
    pub fn set_seq(&self, seq: u64) {
        self.seq.store(seq, Ordering::Release);
    }

    /// Highest applied op-log sequence — quiescence is `seq() == head`.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Load one mirrored shard's point half from a full `SHARD` snapshot
    /// frame of that shard — replaced (`merge = false`: seed, restore,
    /// resync) or reconciled cell-wise (`merge = true`: anti-entropy) —
    /// dropping every cached answer: the state changed out from under the
    /// signatures.
    pub fn load(&self, shard: usize, frame: &[u8], merge: bool) -> Result<(), SnapshotError> {
        let mut g = self.inner.lock();
        let Some(half) = g.mirror.shards.get_mut(shard) else {
            return Err(SnapshotError::ConfigMismatch { field: "shard index" });
        };
        half.load(frame, merge)?;
        g.cache.clear();
        Ok(())
    }

    /// Drop every cached answer (failover, log truncation).
    pub fn invalidate_all(&self) {
        self.inner.lock().cache.clear();
    }

    /// The shared counters this read path reports into.
    pub fn counters(&self) -> &Arc<ReadpathCounters> {
        &self.counters
    }
}

/// Decode a packed cache value into the op's answer shape.
fn unpack(opcode: u8, v: u64) -> FastAnswer {
    if opcode == op::MEMBER {
        FastAnswer::Bool(v != 0)
    } else {
        FastAnswer::Count(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use she_core::sharded::{DirectEngine, ShardEngine};
    use she_hash::{RandomSource, Xoshiro256};
    use she_streams::Zipf;
    use she_window::WindowTruth;

    const WINDOW: u64 = 1 << 10;

    /// A 1-shard engine: the shape the server's mirror has, minus
    /// routing. The read path mirrors its point half; the authoritative
    /// twin is the whole engine, fed the same history.
    fn config(seed: u32) -> EngineConfig {
        EngineConfig { window: WINDOW, shards: 1, memory_bytes: 64 << 10, seed }
    }

    fn engine(seed: u32) -> ShardEngine {
        ShardEngine::new(&config(seed), 0)
    }

    fn readpath(seed: u32, slots: usize) -> ReadPath {
        ReadPath::new(
            &config(seed),
            ReadPathConfig { cache_slots: slots, topk: 16 },
            Arc::new(ReadpathCounters::new()),
        )
    }

    /// Seeded property test for the staleness bound: every cache **hit**
    /// is the fill-time answer and no relevant mark flipped since fill,
    /// so relative to the *current* authoritative answer it can only lag
    /// monotonically (member: cached true stays true; frequency: cached ≤
    /// current). Every **miss** refills and must equal the authoritative
    /// frozen answer bit-for-bit. Invalidations must be observed (the
    /// stream runs across many mark flips).
    #[test]
    fn staleness_bound_holds_under_seeded_stream() {
        let rp = readpath(11, 4096);
        // The authoritative twin: same engines, same insert history.
        // Frozen reads on it answer exactly what the mutating query path
        // would (the she-core equivalence tests), so it stands in for a
        // client hitting the authoritative tier.
        let mut auth = engine(11);
        let mut rng = Xoshiro256::new(0xFEED);
        let mut batch = Vec::new();
        for round in 0..4_000u64 {
            batch.clear();
            for _ in 0..(1 + rng.next_u64() % 8) {
                batch.push(rng.next_u64() % 700);
            }
            rp.apply(0, &batch);
            batch.iter().for_each(|&k| auth.insert(0, k));
            // Probe a mix of hot and cold keys.
            let probe = if round % 3 == 0 { rng.next_u64() % 700 } else { rng.next_u64() % 4096 };
            for opcode in [op::MEMBER, op::FREQ] {
                let before = rp.counters().snapshot();
                let got = rp.query(opcode, probe).expect("known op");
                let after = rp.counters().snapshot();
                let was_hit = after.hits == before.hits + 1;
                match (opcode, &got) {
                    (op::MEMBER, FastAnswer::Bool(cached)) => {
                        let current = auth.member_frozen(probe);
                        if was_hit {
                            // Bits only get set between mark flips: a
                            // cached positive cannot go stale-positive.
                            assert!(!cached | current, "stale true->false without flip");
                        } else {
                            assert_eq!(*cached, current, "miss must refill bit-for-bit");
                        }
                    }
                    (_, FastAnswer::Count(cached)) => {
                        let current = auth.frequency_frozen(probe);
                        if was_hit {
                            // Counters only grow between mark flips.
                            assert!(*cached <= current, "cached {cached} > current {current}");
                        } else {
                            assert_eq!(*cached, current, "miss must refill bit-for-bit");
                        }
                    }
                    other => panic!("wrong answer shape {other:?}"),
                }
            }
        }
        let s = rp.counters().snapshot();
        assert!(s.hits > 0, "stream never hit the cache: {s}");
        assert!(s.invalidations > 0, "stream never crossed a mark flip: {s}");
        assert_eq!(s.fills, s.misses, "every miss refills");
    }

    /// With the clock frozen (no inserts between fill and re-read), a hit
    /// answers bit-for-bit what the authoritative tier answers — the
    /// quiescence property `she-server/tests/readpath_e2e.rs` checks
    /// end-to-end.
    #[test]
    fn quiescent_hits_are_bit_for_bit() {
        let rp = readpath(5, 1 << 12);
        let mut auth = engine(5);
        let keys: Vec<u64> = (0..3 * WINDOW).map(|i| i % 900).collect();
        rp.apply(0, &keys);
        keys.iter().for_each(|&k| auth.insert(0, k));
        for probe in 0..1500u64 {
            let first = rp.query(op::FREQ, probe);
            let second = rp.query(op::FREQ, probe);
            assert_eq!(first, second, "hit must repeat the filled answer");
            assert_eq!(second, Some(FastAnswer::Count(auth.frequency_frozen(probe))));
            let m = rp.query(op::MEMBER, probe);
            assert_eq!(m, Some(FastAnswer::Bool(auth.member_frozen(probe))));
        }
        let s = rp.counters().snapshot();
        assert!(s.hits >= 1500, "second reads must hit: {s}");
        assert_eq!(s.invalidations, 0, "frozen clock cannot invalidate");
    }

    /// `4·WINDOW` keys of a Zipf(1.2) stream over 10 000 keys, drawn from
    /// `seed`.
    fn zipf_stream(seed: u64) -> Vec<u64> {
        let zipf = Zipf::new(10_000, 1.2);
        let mut rng = Xoshiro256::new(seed);
        (0..4 * WINDOW).map(|_| zipf.sample(&mut rng) as u64).collect()
    }

    /// A `shards`-shard read path fed `zipf_stream(seed)` in 64-key
    /// records, and the exact window's counts, heaviest first (ties by
    /// key).
    fn zipf_fed(shards: usize, seed: u64) -> (ReadPath, Vec<(u64, u32)>) {
        let cfg = EngineConfig { window: WINDOW, shards, memory_bytes: 64 << 10, seed: 7 };
        let rp = ReadPath::new(
            &cfg,
            ReadPathConfig { cache_slots: 1 << 12, topk: 16 },
            Arc::new(ReadpathCounters::new()),
        );
        let mut truth = WindowTruth::new(usize_of(WINDOW));
        for chunk in zipf_stream(seed).chunks(64) {
            rp.apply(0, chunk);
            for &k in chunk {
                truth.insert(k);
            }
        }
        let mut counts: Vec<(u64, u32)> = truth.iter_counts().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        (rp, counts)
    }

    /// How many of the oracle's top 8 appear in the fast top 16.
    fn top8_recall(rp: &ReadPath, counts: &[(u64, u32)]) -> usize {
        let Some(FastAnswer::Ranked(top)) = rp.query(op::TOPK, 16) else {
            panic!("topk answer missing");
        };
        counts.iter().take(8).filter(|(k, _)| top.iter().any(|(tk, _)| tk == k)).count()
    }

    /// Fast-summary accuracy against the exact sliding-window oracle:
    /// frequency ARE stays small on a zipfian stream, membership has no
    /// false negatives, and the top-k ranking recovers all of the true top
    /// 8 on each of four stream seeds.
    #[test]
    fn fast_summary_tracks_the_exact_oracle() {
        for seed in [42, 1, 2, 3] {
            let (rp, counts) = zipf_fed(1, seed);

            // Frequency: ARE over the oracle's 64 heaviest keys.
            let mut sum_re = 0.0;
            for &(key, exact) in counts.iter().take(64) {
                let Some(FastAnswer::Count(est)) = rp.query(op::FREQ, key) else {
                    panic!("freq answer missing for {key}");
                };
                sum_re += (est as f64 - f64::from(exact)).abs() / f64::from(exact.max(1));
            }
            let are = sum_re / 64.0;
            assert!(are < 0.5, "seed {seed}: frequency ARE {are} vs exact oracle");

            // Membership: every in-window key must be reported present.
            for &(key, _) in counts.iter().take(256) {
                assert_eq!(
                    rp.query(op::MEMBER, key),
                    Some(FastAnswer::Bool(true)),
                    "seed {seed}: false negative on in-window key {key}"
                );
            }

            let recall = top8_recall(&rp, &counts);
            assert_eq!(recall, 8, "seed {seed}: top-k recall {recall}/8");
        }
    }

    /// The same ranking over four shards, each estimating over its own
    /// unscaled `WINDOW / 4`-item window rather than the one global window
    /// the oracle counts (ROADMAP item 5). Measured: 8/8 on seeds 42 and
    /// 2, 7/8 on seeds 1 and 3, so the gate is 7.
    #[test]
    fn topk_recall_over_four_shards() {
        for seed in [42, 1, 2, 3] {
            let (rp, counts) = zipf_fed(4, seed);
            let recall = top8_recall(&rp, &counts);
            assert!(recall >= 7, "seed {seed}: four-shard top-k recall {recall}/8");
        }
    }

    /// A mirror loaded from a snapshot ranks by the loaded state: after a
    /// shard pre-fed most of a Zipf stream is loaded and the rest of the
    /// stream applied, every `TOPK` row carries exactly the twin's frozen
    /// frequency, and the twin's heaviest key ranks first.
    #[test]
    fn topk_rows_are_the_loaded_mirrors_frequencies() {
        let cfg = EngineConfig { window: WINDOW, shards: 1, memory_bytes: 64 << 10, seed: 9 };
        let keys = zipf_stream(5);
        let (prefix, tail) = keys.split_at(keys.len() - 128);
        let mut twin = ShardEngine::new(&cfg, 0);
        prefix.iter().for_each(|&k| twin.insert(0, k));
        let rp = readpath(9, 1 << 12);
        rp.load(0, &twin.snapshot(), false).expect("same-config snapshot loads");
        rp.apply(0, tail);
        tail.iter().for_each(|&k| twin.insert(0, k));

        let Some(FastAnswer::Ranked(top)) = rp.query(op::TOPK, 16) else {
            panic!("topk answer missing");
        };
        assert_eq!(top.len(), 16);
        for &(key, est) in &top {
            assert_eq!(est, twin.frequency_frozen(key), "row for key {key}");
        }
        // Among the keys the stream carried: an absent key whose only
        // mature counter is shared with a heavy one can read higher still.
        let heaviest =
            keys.iter().copied().max_by_key(|&k| twin.frequency_frozen(k)).expect("keys");
        assert_eq!(top[0].0, heaviest, "{top:?}");
    }

    /// Today's point halves against the mirror they replace: a whole
    /// [`DirectEngine`]'s shards read frozen, with a [`SlidingTopK`]
    /// offered one key at a time. Both are fed the same records on both
    /// streams, full `SHARD` frames restored and merged in between, and
    /// after every step every probed MEMBER, FREQ and mark signature and
    /// the TOPK answer are equal.
    #[test]
    fn point_halves_answer_as_the_full_engine_mirror() {
        let cfg = EngineConfig { window: WINDOW, shards: 3, memory_bytes: 48 << 10, seed: 13 };
        let rp = ReadPath::new(
            &cfg,
            ReadPathConfig { cache_slots: 64, topk: 8 },
            Arc::new(ReadpathCounters::new()),
        );
        let (_, mut twin) = DirectEngine::new(cfg).into_shards();
        let mut twin_topk = SlidingTopK::new(8);
        // Donors: other copies of each shard, fed their own stream.
        let (_, mut donors) = DirectEngine::new(cfg).into_shards();
        let zipf = Zipf::new(5_000, 1.1);
        let mut rng = Xoshiro256::new(0xD1FF);
        for step in 0..600u64 {
            match rng.next_below(20) {
                0 | 1 => {
                    let shard = rng.next_below(cfg.shards);
                    let merge = rng.next_below(2) == 1;
                    let frame = donors[shard].snapshot();
                    rp.load(shard, &frame, merge).expect("same-placement frame");
                    if merge {
                        twin[shard].reconcile(&frame).expect("same-placement frame");
                    } else {
                        twin[shard].restore(&frame).expect("same-placement frame");
                    }
                }
                draw => {
                    let stream = u8::from(draw < 6);
                    let n = 1 + rng.next_below(2 * APPLY_CHUNK);
                    let keys: Vec<u64> = (0..n).map(|_| zipf.sample(&mut rng) as u64).collect();
                    rp.apply(stream, &keys);
                    for chunk in keys.chunks(APPLY_CHUNK) {
                        for (shard, ks) in cfg.partition(chunk) {
                            ks.iter().for_each(|&k| twin[shard].insert(stream, k));
                        }
                        if stream == 0 {
                            for &k in chunk {
                                let est = |k| twin[cfg.shard_of(k)].frequency_frozen(k);
                                twin_topk.offer(&[k], est);
                            }
                        }
                    }
                    for &k in keys.iter().take(64) {
                        donors[cfg.shard_of(k)].insert(0, k ^ step);
                    }
                }
            }
            // A flush makes every first ask a fill from the mirror.
            rp.query(op::FLUSH, 0);
            let probes: Vec<u64> =
                (0..256).map(|_| zipf.sample(&mut rng) as u64).chain([u64::MAX, step]).collect();
            for &probe in &probes {
                let full = &twin[cfg.shard_of(probe)];
                let member = FastAnswer::Bool(full.member_frozen(probe));
                assert_eq!(rp.query(op::MEMBER, probe), Some(member), "step {step}: {probe}");
                let freq = FastAnswer::Count(full.frequency_frozen(probe));
                assert_eq!(rp.query(op::FREQ, probe), Some(freq), "step {step}: {probe}");
                let g = rp.inner.lock();
                for freq in [false, true] {
                    let sig = g.mirror.half(probe).mark_sig(freq, probe);
                    assert_eq!(sig, full.mark_sig(freq, probe), "step {step}: {probe}");
                }
            }
            let n = rng.next_below(9);
            let Some(FastAnswer::Ranked(got)) = rp.query(op::TOPK, n as u64) else {
                panic!("topk answer missing");
            };
            let mut want = twin_topk.top(|k| twin[cfg.shard_of(k)].frequency_frozen(k));
            want.truncate(n);
            assert_eq!(got, want, "step {step}: top {n}");
        }
    }

    #[test]
    fn unknown_op_is_rejected_and_load_invalidates() {
        let rp = readpath(3, 64);
        assert_eq!(rp.query(9, 1), None);
        rp.apply(0, &[1, 2, 3]);
        let _ = rp.query(op::MEMBER, 1);
        let _ = rp.query(op::MEMBER, 1);
        assert!(rp.counters().snapshot().hits > 0);
        rp.set_seq(17);
        assert_eq!(rp.seq(), 17);
        rp.invalidate_all();
        let before = rp.counters().snapshot();
        let _ = rp.query(op::MEMBER, 1);
        let after = rp.counters().snapshot();
        assert_eq!(after.misses, before.misses + 1, "invalidate_all must drop entries");
    }

    #[test]
    fn flush_op_drops_every_cached_answer() {
        let rp = readpath(3, 64);
        rp.apply(0, &[1, 2, 3]);
        let _ = rp.query(op::MEMBER, 1);
        let _ = rp.query(op::FREQ, 2);
        assert_eq!(rp.query(op::FLUSH, 0), Some(FastAnswer::Bool(true)));
        let before = rp.counters().snapshot();
        let _ = rp.query(op::MEMBER, 1);
        let _ = rp.query(op::FREQ, 2);
        let after = rp.counters().snapshot();
        assert_eq!(after.misses, before.misses + 2, "flush must drop every entry");
        assert_eq!(after.hits, before.hits, "nothing should hit right after a flush");
    }
}
