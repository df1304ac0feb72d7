//! # she-readpath — two-stage read acceleration for the serving tier
//!
//! Writes scale across shards, but every authoritative query still walks
//! the full sketch under a worker queue. This crate answers the hot read
//! mix from a structure that never touches the write path:
//!
//! * **Stage one — the fast summary**: a second
//!   [`DirectEngine`] — the *same* sketch
//!   the workers own, in the SF-sketch spirit, not a second type —
//!   refreshed incrementally from the op stream (the replication log
//!   tail) and read *frozen*: queries never mutate, so the mirror answers
//!   bit-for-bit what the authoritative engines would after the same
//!   inserts *and* the same mutating queries. Next to it sits a
//!   [`SlidingTopK`] candidate set, ranked by the mirror's own SHE-CM,
//!   that the authoritative tier does not maintain at all.
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
use she_core::sharded::DirectEngine;
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

struct Inner {
    /// Frozen mirror of the authoritative engines, fed the same per-shard
    /// key order (op-log order guarantees this).
    mirror: DirectEngine,
    /// Stream-A candidates, ranked by `mirror.frequency_frozen`.
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
    /// Wrap a mirror engine with a `cfg`-sized mark cache and a `cfg.topk`
    /// candidate set. Candidates are the keys the op stream offers; their
    /// estimates always come from the mirror, so a mirror loaded from a
    /// snapshot ranks by the loaded state.
    pub fn new(mirror: DirectEngine, cfg: ReadPathConfig, counters: Arc<ReadpathCounters>) -> Self {
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
                let mut top = topk.top(|k| mirror.frequency_frozen(k));
                top.truncate(usize_of(key.min(TOPK_MAX)));
                Some(FastAnswer::Ranked(top))
            }
            op::FLUSH => {
                self.invalidate_all();
                Some(FastAnswer::Bool(true))
            }
            op::MEMBER | op::FREQ => {
                let mut g = self.inner.lock();
                let sig = g.mirror.mark_sig(opcode == op::FREQ, key);
                match g.cache.lookup(opcode, key, sig) {
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
                            op::MEMBER => u64::from(g.mirror.member_frozen(key)),
                            _ => g.mirror.frequency_frozen(key),
                        };
                        g.cache.fill(opcode, key, sig, v);
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
    /// reaches the mirror, then its keys are offered to the candidate set
    /// at the mirror's estimate. Stream B feeds only the mirror.
    pub fn apply(&self, stream: u8, keys: &[u64]) {
        for chunk in keys.chunks(APPLY_CHUNK) {
            let mut g = self.inner.lock();
            let Inner { mirror, topk, .. } = &mut *g;
            mirror.apply(stream, chunk);
            if stream == 0 {
                for &k in chunk {
                    topk.offer(k, |k| mirror.frequency_frozen(k));
                }
            }
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

    /// Load one mirrored shard from a snapshot frame (resync or
    /// anti-entropy), dropping every cached answer: the state changed
    /// out from under the signatures.
    pub fn load(&self, shard: usize, frame: &[u8], merge: bool) -> Result<(), SnapshotError> {
        let mut g = self.inner.lock();
        g.mirror.load(shard, frame, merge)?;
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
    use she_core::sharded::{EngineConfig, ShardEngine};
    use she_hash::{RandomSource, Xoshiro256};
    use she_streams::Zipf;
    use she_window::WindowTruth;

    const WINDOW: u64 = 1 << 10;

    /// A 1-shard engine: the shape the server's mirror has, minus
    /// routing. Built twice per test — once inside the read path, once as
    /// the authoritative twin fed the same history.
    fn engine(seed: u32) -> DirectEngine {
        DirectEngine::new(EngineConfig { window: WINDOW, shards: 1, memory_bytes: 64 << 10, seed })
    }

    fn readpath(seed: u32, slots: usize) -> ReadPath {
        ReadPath::new(
            engine(seed),
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
            auth.apply(0, &batch);
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
        auth.apply(0, &keys);
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
            DirectEngine::new(cfg),
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
