//! # she-readpath — two-stage read acceleration for the serving tier
//!
//! Writes scale across shards, but every authoritative query still walks
//! the full sketch under a worker queue. This crate answers the hot read
//! mix from a structure that never touches the write path:
//!
//! * **Stage one — the fast summary**: a second
//!   [`DirectEngine`](she_core::sharded::DirectEngine) — the *same* sketch
//!   the workers own, in the SF-sketch spirit, not a second type —
//!   refreshed incrementally from the op stream (the replication log
//!   tail) and read *frozen*: queries never mutate, so the mirror answers
//!   bit-for-bit what the authoritative engines would on the same insert
//!   history. Next to it sits a compact
//!   [`SlidingTopK`](she_core::SlidingTopK) ranking summary the
//!   authoritative tier does not maintain at all.
//! * **Stage two — [`MarkCache`]**: a direct-mapped `(op, key)` result
//!   cache validated by SHE **time-mark signatures**. An entry is dropped
//!   only when a group the answer depends on changes observation context
//!   (mark flip or maturity crossing), *not* on every insert — giving a
//!   provable staleness bound of one window sub-group (see
//!   `docs/READPATH.md`).
//!
//! [`ReadPath`] glues the two behind one ranked lock, counts
//! hits/misses/fills/invalidations into
//! [`ReadpathCounters`](she_metrics::ReadpathCounters), and tracks the
//! op-log sequence it has applied so callers can wait for quiescence.

mod cache;

pub use cache::{Lookup, MarkCache};

use she_core::convert::usize_of;
use she_core::sharded::DirectEngine;
use she_core::{OrderedMutex, SlidingTopK, SnapshotError};
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
    /// refill from the mirror — `she fastcheck` flushes first so its
    /// exactness probes measure fresh fills, not mid-stream residue.
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
    /// Ranking summary; tracks stream A, like the frequency sketch.
    topk: SlidingTopK,
    cache: MarkCache,
}

/// The serving tier's read accelerator: fast summary + mark cache behind
/// one ranked lock, with hit/miss counters and an applied-sequence
/// watermark.
pub struct ReadPath {
    inner: OrderedMutex<Inner>,
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
    /// Wrap a mirror engine with a `cfg`-sized mark cache and a ranking
    /// summary sized to the mirror's own window, memory and seed. The
    /// ranking cannot be seeded from snapshots — they carry none — so it
    /// warms from the op stream only.
    pub fn new(mirror: DirectEngine, cfg: ReadPathConfig, counters: Arc<ReadpathCounters>) -> Self {
        let e = *mirror.config();
        let topk =
            SlidingTopK::new(cfg.topk.max(1), e.window.max(1), e.memory_bytes.max(64), e.seed);
        Self {
            inner: OrderedMutex::new(
                "readpath",
                Inner { mirror, topk, cache: MarkCache::new(cfg.cache_slots) },
            ),
            counters,
            seq: AtomicU64::new(0),
        }
    }

    /// Answer one fast query. `None` means the op code is unknown — the
    /// caller maps that to a protocol error.
    pub fn query(&self, opcode: u8, key: u64) -> Option<FastAnswer> {
        match opcode {
            op::TOPK => {
                let mut top = self.inner.lock().topk.top();
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
    /// large batch cannot monopolize the read lock. Stream B feeds only
    /// the mirror.
    pub fn apply(&self, stream: u8, keys: &[u64]) {
        for chunk in keys.chunks(APPLY_CHUNK) {
            let mut g = self.inner.lock();
            g.mirror.apply(stream, chunk);
            if stream == 0 {
                for &k in chunk {
                    g.topk.insert(k);
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
    use she_core::sharded::EngineConfig;
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
    /// quiescence property the serving smoke checks end-to-end.
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

    /// Fast-summary accuracy against the exact sliding-window oracle:
    /// frequency ARE stays small on a zipfian stream, membership has no
    /// false negatives, and the top-k ranking recovers the true heavy
    /// hitters.
    #[test]
    fn fast_summary_tracks_the_exact_oracle() {
        let rp = readpath(7, 1 << 12);
        let mut truth = WindowTruth::new(usize_of(WINDOW));
        let zipf = Zipf::new(10_000, 1.2);
        let mut rng = Xoshiro256::new(42);
        let mut batch = Vec::new();
        for _ in 0..4 * WINDOW {
            let key = zipf.sample(&mut rng) as u64;
            truth.insert(key);
            batch.push(key);
            if batch.len() == 64 {
                rp.apply(0, &batch);
                batch.clear();
            }
        }
        rp.apply(0, &batch);

        // Frequency: ARE over the oracle's 64 heaviest keys.
        let mut counts: Vec<(u64, u32)> = truth.iter_counts().collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut sum_re = 0.0;
        for &(key, exact) in counts.iter().take(64) {
            let Some(FastAnswer::Count(est)) = rp.query(op::FREQ, key) else {
                panic!("freq answer missing for {key}");
            };
            sum_re += (est as f64 - f64::from(exact)).abs() / f64::from(exact.max(1));
        }
        let are = sum_re / 64.0;
        assert!(are < 0.5, "frequency ARE {are} vs exact oracle");

        // Membership: every in-window key must be reported present.
        for &(key, _) in counts.iter().take(256) {
            assert_eq!(
                rp.query(op::MEMBER, key),
                Some(FastAnswer::Bool(true)),
                "false negative on in-window key {key}"
            );
        }

        // Top-k: at least 6 of the true top-8 appear in the fast top-16.
        let Some(FastAnswer::Ranked(top)) = rp.query(op::TOPK, 16) else {
            panic!("topk answer missing");
        };
        let have = counts.iter().take(8).filter(|(k, _)| top.iter().any(|(tk, _)| tk == k)).count();
        assert!(have >= 6, "top-k recall {have}/8 (got {top:?})");
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
