//! The one sharded SHE engine: router, per-shard state, serial
//! composition, and whole-engine checkpoints.
//!
//! A single SHE structure is inherently sequential (its logical clock is
//! the item counter). For deployments that need more than one core — the
//! software analogue of the paper's parallel FPGA lanes — the standard
//! sketching recipe applies: partition the key space into `S` shards by
//! hash ([`route`]), give each shard its own SHE structures over a window
//! of `N/S` items, and feed each arrival to its shard. Because the router
//! hash is uniform, each shard sees an unbiased 1/S sample of the stream
//! and its `N/S`-item window covers the same time span as the global
//! `N`-item window.
//!
//! A [`ShardEngine`] bundles one SHE structure per supported query class
//! (membership, cardinality, frequency, similarity) over one shard's slice
//! of the key space. A server gives each worker thread exclusive
//! ownership of one `ShardEngine` — no locks on the hot path
//! ([`DirectEngine::into_shards`] + [`EngineConfig::partition`]) — while a
//! [`DirectEngine`] drives all shards serially in one place: the
//! in-process reference every served answer is compared against
//! bit-for-bit, and, read through its `*_frozen` methods, the read path's
//! mirror.
//!
//! ## The merge rule
//!
//! Stated once, because shard, cluster partition and scatter-gather all
//! rest on it: membership and frequency *route* to the key's shard;
//! cardinality estimates *sum* across shards (shards partition the key
//! space, so distinct counts add); the Jaccard estimate *averages* across
//! shards (the same uniform hash routes a key to the same shard in both
//! streams, so every shard sees an unbiased sample of the pair).
//!
//! ## Rebalancing
//!
//! [`route`] is monotone in the hash `h`: shard `j` of an `S`-shard engine
//! owns the contiguous hash range `[⌈j·2⁶⁴/S⌉, ⌈(j+1)·2⁶⁴/S⌉)`. Because
//! both the old and the new layout cut the same `[0, 2⁶⁴)` line into
//! contiguous ranges, every new shard's range is covered by the (one or
//! more) old shards it overlaps, for *any* pair of shard counts — so a
//! [`Checkpoint`] rebuilds the shard set at a different count by merging,
//! never by replaying the stream: each new shard is the cell-wise merge
//! of exactly its overlapping old shards. The merge is exact for the
//! OR-mergeable bit sketches (BF/BM), a one-sided cell-wise max for CM,
//! and the register max/min for HLL-style and MinHash cells. Where an old
//! shard's range spills past the new shard's boundary (non-divisible
//! counts, or a split), the foreign keys it carries in only add one-sided
//! noise — extra bits / higher counters — preserving each structure's
//! no-false-negative / no-underestimate guarantee.
//!
//! Per-shard sizing (`window/S`, `memory/S`) must stay constant for the
//! nested structure configs to line up, so the rebalanced engine's
//! *global* window and memory scale with the shard count: going from 4
//! shards to 2 halves the global window and memory. Per-key queries
//! (member/freq) are unaffected; whole-engine estimates (card/sim) keep
//! their per-shard semantics.

use crate::convert::usize_of;
use crate::frame::{self, Frame, FrameWriter, Reader};
use crate::{SheBitmap, SheBloomFilter, SheCountMin, SheMinHash, SnapshotError, SnapshotState};
use she_hash::{mix64, reduce_range};

/// Router constant: decorrelates shard placement from the sketches' own
/// hashes of the same key.
pub const ROUTER_SEED: u64 = 0x5EED_0000_0000_0001;

/// The shard (or cluster partition) `key` routes to among `n` — the only
/// router in the workspace.
///
/// Monotone in the mixed hash, so each shard owns one contiguous hash
/// range — the property shard rebalancing relies on (module docs,
/// *Rebalancing*).
#[inline]
pub fn route(key: u64, n: usize) -> usize {
    reduce_range(mix64(key ^ ROUTER_SEED), n)
}

/// Lower bound of the hash range shard `i` of `n` owns: the preimage of
/// `reduce_range(h, n) == i` is `[range_lo(i, n), range_lo(i + 1, n))`.
fn range_lo(i: usize, n: usize) -> u128 {
    ((i as u128) << 64).div_ceil(n as u128)
}

/// Per-shard counters ([`ShardEngine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Items inserted into this shard so far.
    pub inserts: u64,
    /// Queries answered by this shard so far.
    pub queries: u64,
    /// Sketch memory held by this shard, in bits.
    pub memory_bits: u64,
}

/// Sizing and seeding for a sharded engine. `window` and `memory_bytes`
/// are *global*: each of the `shards` shards gets `window / shards` items
/// and `memory_bytes / shards` bytes per structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Global sliding-window length, in items.
    pub window: u64,
    /// Number of shards (= server worker threads).
    pub shards: usize,
    /// Global memory budget per structure class, in bytes.
    pub memory_bytes: usize,
    /// Hash seed, shared by every shard: identical hash functions are what
    /// make shard snapshots mergeable when the shard count changes (cells
    /// of two shards line up only under the same hashes).
    pub seed: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { window: 1 << 16, shards: 4, memory_bytes: 64 << 10, seed: 1 }
    }
}

impl EngineConfig {
    /// The shard a key routes to ([`route`] over this config's count).
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        route(key, self.shards)
    }

    /// Partition `keys` into per-shard runs, preserving arrival order
    /// within each shard (windows are order-sensitive). Shared by the
    /// server's insert path and the replica's op-log apply path so both
    /// feed shards the identical per-shard key order.
    pub fn partition(&self, keys: &[u64]) -> Vec<(usize, Vec<u64>)> {
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); self.shards];
        for &k in keys {
            per_shard[self.shard_of(k)].push(k);
        }
        per_shard.into_iter().enumerate().filter(|(_, ks)| !ks.is_empty()).collect()
    }

    /// Serialize for embedding in snapshot frames.
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(28);
        b.extend_from_slice(&self.window.to_le_bytes());
        b.extend_from_slice(&(self.shards as u64).to_le_bytes());
        b.extend_from_slice(&(self.memory_bytes as u64).to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b
    }

    /// Decode a config serialized by [`EngineConfig::encode`]. A zero
    /// shard count is refused here, where the bytes enter: no engine can
    /// be built from it and the router's range would be empty.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let cfg = Self {
            window: r.u64().map_err(SnapshotError::Frame)?,
            shards: usize_of(r.u64().map_err(SnapshotError::Frame)?),
            memory_bytes: usize_of(r.u64().map_err(SnapshotError::Frame)?),
            seed: r.u32().map_err(SnapshotError::Frame)?,
        };
        if cfg.shards == 0 {
            return Err(SnapshotError::ConfigMismatch { field: "shards (must be nonzero)" });
        }
        Ok(cfg)
    }
}

/// One shard's sketches. Inserts feed every structure; stream B (tag 1)
/// exists only for the similarity pair and feeds just its MinHash.
#[derive(Debug)]
pub struct ShardEngine {
    cfg: EngineConfig,
    shard: usize,
    bf: SheBloomFilter,
    bm: SheBitmap,
    cm: SheCountMin,
    mh_a: SheMinHash,
    mh_b: SheMinHash,
    inserts: u64,
    queries: u64,
}

impl ShardEngine {
    /// Build shard `shard` of a `cfg`-sized engine.
    pub fn new(cfg: &EngineConfig, shard: usize) -> Self {
        assert!(shard < cfg.shards);
        let window = (cfg.window / cfg.shards as u64).max(1);
        let bytes = (cfg.memory_bytes / cfg.shards).max(64);
        let seed = cfg.seed;
        Self {
            cfg: *cfg,
            shard,
            bf: SheBloomFilter::builder().window(window).memory_bytes(bytes).seed(seed).build(),
            bm: SheBitmap::builder().window(window).memory_bytes(bytes).seed(seed).build(),
            cm: SheCountMin::builder().window(window).memory_bytes(bytes).seed(seed).build(),
            // The similarity pair must share hash functions (same seed) —
            // per-row minima are only comparable under identical hashes.
            // Sized by hash count, not bytes: every insert touches every
            // row, so a byte budget would make inserts O(memory).
            mh_a: SheMinHash::builder().window(window).num_hashes(128).seed(seed).build(),
            mh_b: SheMinHash::builder().window(window).num_hashes(128).seed(seed).build(),
            inserts: 0,
            queries: 0,
        }
    }

    /// Insert a key into stream 0 (A) or 1 (B). Stream A feeds every
    /// structure; stream B only its similarity MinHash.
    #[inline]
    pub fn insert(&mut self, stream: u8, key: u64) {
        if stream == 0 {
            self.bf.insert(&key);
            self.bm.insert(&key);
            self.cm.insert(&key);
            self.mh_a.insert(&key);
        } else {
            self.mh_b.insert(&key);
        }
        self.inserts += 1;
    }

    /// Sliding-window membership in stream A.
    #[inline]
    pub fn member(&mut self, key: u64) -> bool {
        self.queries += 1;
        self.bf.contains(&key)
    }

    /// This shard's contribution to the stream-A cardinality.
    pub fn cardinality(&mut self) -> f64 {
        self.queries += 1;
        self.bm.estimate()
    }

    /// Sliding-window frequency of `key` in stream A.
    #[inline]
    pub fn frequency(&mut self, key: u64) -> u64 {
        self.queries += 1;
        self.cm.query(&key)
    }

    /// This shard's A/B Jaccard estimate.
    pub fn similarity(&mut self) -> f64 {
        self.queries += 1;
        self.mh_a.similarity(&mut self.mh_b)
    }

    /// Frozen membership: answers exactly what [`ShardEngine::member`]
    /// would on this state, without mutating anything (no lazy clears, no
    /// counter bump) — the read-path mirror's query primitive.
    #[inline]
    pub fn member_frozen(&self, key: u64) -> bool {
        self.bf.contains_frozen(&key)
    }

    /// Frozen frequency: the non-mutating twin of
    /// [`ShardEngine::frequency`].
    #[inline]
    pub fn frequency_frozen(&self, key: u64) -> u64 {
        self.cm.query_frozen(&key)
    }

    /// Observation-context signature of the cells `key`'s answer depends
    /// on (`freq` selects the Count-Min sketch, otherwise the Bloom
    /// filter). The signature changes iff one of those cells' groups
    /// flips its time mark or crosses maturity — the mark cache's
    /// invalidation predicate.
    #[inline]
    pub fn mark_sig(&self, freq: bool, key: u64) -> u64 {
        if freq {
            self.cm.mark_sig(&key)
        } else {
            self.bf.mark_sig(&key)
        }
    }

    /// Serialize this shard: sizing config + counters + one nested frame
    /// per structure, wrapped in a `SHARD` frame.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(frame::kind::SHARD);

        let mut sec = self.cfg.encode();
        sec.extend_from_slice(&(self.shard as u64).to_le_bytes());
        w.section(frame::tag::CONFIG, &sec);

        sec = Vec::with_capacity(16);
        sec.extend_from_slice(&self.inserts.to_le_bytes());
        sec.extend_from_slice(&self.queries.to_le_bytes());
        w.section(frame::tag::COUNTERS, &sec);

        w.section(frame::tag::STRUCT_BF, &self.bf.save_snapshot());
        w.section(frame::tag::STRUCT_BM, &self.bm.save_snapshot());
        w.section(frame::tag::STRUCT_CM, &self.cm.save_snapshot());
        w.section(frame::tag::STRUCT_MH_A, &self.mh_a.save_snapshot());
        w.section(frame::tag::STRUCT_MH_B, &self.mh_b.save_snapshot());
        w.finish()
    }

    /// Parse a `SHARD` frame and hand its sections to `structures` —
    /// shared by [`ShardEngine::restore`] (exact) and
    /// [`ShardEngine::merge`] (cell-wise).
    fn with_shard_frame(
        &mut self,
        buf: &[u8],
        check_placement: bool,
        mut structures: impl FnMut(
            &mut Self,
            [&[u8]; 5], // bf, bm, cm, mh_a, mh_b
        ) -> Result<(), SnapshotError>,
    ) -> Result<(u64, u64), SnapshotError> {
        let f = Frame::parse(buf)?;
        if f.kind != frame::kind::SHARD {
            return Err(SnapshotError::WrongKind { expected: frame::kind::SHARD, found: f.kind });
        }
        let section = |tag: u16| f.section(tag).ok_or(SnapshotError::MissingSection { tag });

        let mut r = Reader::new(section(frame::tag::CONFIG)?);
        let cfg = EngineConfig::decode(&mut r)?;
        let shard = usize_of(r.u64().map_err(SnapshotError::Frame)?);
        r.finish().map_err(SnapshotError::Frame)?;
        if cfg.seed != self.cfg.seed {
            return Err(SnapshotError::ConfigMismatch { field: "seed" });
        }
        if check_placement {
            if cfg != self.cfg {
                return Err(SnapshotError::ConfigMismatch { field: "engine config" });
            }
            if shard != self.shard {
                return Err(SnapshotError::ConfigMismatch { field: "shard index" });
            }
        }

        let mut r = Reader::new(section(frame::tag::COUNTERS)?);
        let inserts = r.u64().map_err(SnapshotError::Frame)?;
        let queries = r.u64().map_err(SnapshotError::Frame)?;
        r.finish().map_err(SnapshotError::Frame)?;

        structures(
            self,
            [
                section(frame::tag::STRUCT_BF)?,
                section(frame::tag::STRUCT_BM)?,
                section(frame::tag::STRUCT_CM)?,
                section(frame::tag::STRUCT_MH_A)?,
                section(frame::tag::STRUCT_MH_B)?,
            ],
        )?;
        Ok((inserts, queries))
    }

    /// Replace this shard's state with a snapshot taken by an identically
    /// configured shard (same config, same shard index).
    pub fn restore(&mut self, buf: &[u8]) -> Result<(), SnapshotError> {
        let (inserts, queries) =
            self.with_shard_frame(buf, true, |e, [bf, bm, cm, mha, mhb]| {
                e.bf.load_snapshot(bf)?;
                e.bm.load_snapshot(bm)?;
                e.cm.load_snapshot(cm)?;
                e.mh_a.load_snapshot(mha)?;
                e.mh_b.load_snapshot(mhb)?;
                Ok(())
            })?;
        self.inserts = inserts;
        self.queries = queries;
        Ok(())
    }

    /// Merge another shard's snapshot into this one cell-wise (rebalance
    /// path). Requires the same seed and the same per-structure geometry;
    /// the source's shard index and shard count may differ.
    pub fn merge(&mut self, buf: &[u8]) -> Result<(), SnapshotError> {
        let (inserts, queries) =
            self.with_shard_frame(buf, false, |e, [bf, bm, cm, mha, mhb]| {
                e.bf.merge_snapshot(bf)?;
                e.bm.merge_snapshot(bm)?;
                e.cm.merge_snapshot(cm)?;
                e.mh_a.merge_snapshot(mha)?;
                e.mh_b.merge_snapshot(mhb)?;
                Ok(())
            })?;
        self.inserts += inserts;
        self.queries += queries;
        Ok(())
    }

    /// Anti-entropy merge: fold a same-placement snapshot of this shard
    /// (taken on another node) into this one cell-wise. Unlike
    /// [`ShardEngine::merge`] (the rebalance path, which *sums* counters
    /// because its sources partition the key space), reconcile takes the
    /// counter **max** — the two sides are copies of the *same* shard, so
    /// repeated passes are idempotent and counters never inflate.
    pub fn reconcile(&mut self, buf: &[u8]) -> Result<(), SnapshotError> {
        let (inserts, queries) =
            self.with_shard_frame(buf, true, |e, [bf, bm, cm, mha, mhb]| {
                e.bf.merge_snapshot(bf)?;
                e.bm.merge_snapshot(bm)?;
                e.cm.merge_snapshot(cm)?;
                e.mh_a.merge_snapshot(mha)?;
                e.mh_b.merge_snapshot(mhb)?;
                Ok(())
            })?;
        self.inserts = self.inserts.max(inserts);
        self.queries = self.queries.max(queries);
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ShardStats {
        let bits = self.bf.memory_bits()
            + self.bm.memory_bits()
            + self.cm.memory_bits()
            + self.mh_a.memory_bits()
            + self.mh_b.memory_bits();
        ShardStats { inserts: self.inserts, queries: self.queries, memory_bits: bits as u64 }
    }
}

/// All shards in one place, driven serially — the in-process reference the
/// server must agree with, the read path's frozen mirror, and the engine
/// behind `she-cli`'s offline mode.
#[derive(Debug)]
pub struct DirectEngine {
    cfg: EngineConfig,
    shards: Vec<ShardEngine>,
}

impl DirectEngine {
    /// Build every shard of a `cfg`-sized engine.
    pub fn new(cfg: EngineConfig) -> Self {
        let shards = (0..cfg.shards).map(|i| ShardEngine::new(&cfg, i)).collect();
        Self { cfg, shards }
    }

    /// The sizing this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Route and insert one key.
    #[inline]
    pub fn insert(&mut self, stream: u8, key: u64) {
        let s = self.cfg.shard_of(key);
        self.shards[s].insert(stream, key);
    }

    /// Membership routes to the key's shard.
    #[inline]
    pub fn member(&mut self, key: u64) -> bool {
        let s = self.cfg.shard_of(key);
        self.shards[s].member(key)
    }

    /// Cardinality sums the shard estimates.
    pub fn cardinality(&mut self) -> f64 {
        self.shards.iter_mut().map(|s| s.cardinality()).sum()
    }

    /// Frequency routes to the key's shard.
    #[inline]
    pub fn frequency(&mut self, key: u64) -> u64 {
        let s = self.cfg.shard_of(key);
        self.shards[s].frequency(key)
    }

    /// Similarity averages the per-shard Jaccard estimates.
    pub fn similarity(&mut self) -> f64 {
        let n = self.shards.len() as f64;
        self.shards.iter_mut().map(|s| s.similarity()).sum::<f64>() / n
    }

    /// Apply one op-stream record: route and insert `keys`, in order.
    /// Per-shard insert order is the arrival order, exactly what
    /// [`EngineConfig::partition`] hands the workers.
    pub fn apply(&mut self, stream: u8, keys: &[u64]) {
        for &k in keys {
            self.insert(stream, k);
        }
    }

    /// Frozen membership routes to the key's shard (see
    /// [`ShardEngine::member_frozen`]).
    #[inline]
    pub fn member_frozen(&self, key: u64) -> bool {
        self.shards[self.cfg.shard_of(key)].member_frozen(key)
    }

    /// Frozen frequency routes to the key's shard.
    #[inline]
    pub fn frequency_frozen(&self, key: u64) -> u64 {
        self.shards[self.cfg.shard_of(key)].frequency_frozen(key)
    }

    /// Mark signature of `key`'s cells in its shard (see
    /// [`ShardEngine::mark_sig`]).
    #[inline]
    pub fn mark_sig(&self, freq: bool, key: u64) -> u64 {
        self.shards[self.cfg.shard_of(key)].mark_sig(freq, key)
    }

    /// Replace (`merge = false`) or cell-wise reconcile (`merge = true`)
    /// one shard from a same-placement snapshot frame — the mirror's
    /// resync and anti-entropy path.
    pub fn load(&mut self, shard: usize, frame: &[u8], merge: bool) -> Result<(), SnapshotError> {
        let Some(engine) = self.shards.get_mut(shard) else {
            return Err(SnapshotError::ConfigMismatch { field: "shard index" });
        };
        if merge {
            engine.reconcile(frame)
        } else {
            engine.restore(frame)
        }
    }

    /// Per-shard counters.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Serialize every shard into one checkpoint frame.
    pub fn checkpoint(&self) -> Vec<u8> {
        Checkpoint { cfg: self.cfg, shards: self.shards.iter().map(|s| s.snapshot()).collect() }
            .encode()
    }

    /// Rebuild an engine from a checkpoint, rebalancing to `shards` shards
    /// if that differs from the checkpointed count (see
    /// [`Checkpoint::build_engines`]).
    pub fn restore(buf: &[u8], shards: Option<usize>) -> Result<Self, SnapshotError> {
        let ckpt = Checkpoint::decode(buf)?;
        let target = shards.unwrap_or(ckpt.cfg.shards);
        let (cfg, engines) = ckpt.build_engines(target)?;
        Ok(Self { cfg, shards: engines })
    }

    /// Decompose into per-shard engines (the server hands each to a
    /// worker thread).
    pub fn into_shards(self) -> (EngineConfig, Vec<ShardEngine>) {
        (self.cfg, self.shards)
    }
}

// Servers move ShardEngines into worker threads; this must stay true.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ShardEngine>();
    assert_send::<DirectEngine>();
};

/// A whole-engine checkpoint: the engine sizing plus one `SHARD` frame
/// per shard, in shard order.
#[derive(Debug)]
pub struct Checkpoint {
    /// The sizing the checkpointed engine ran with.
    pub cfg: EngineConfig,
    /// One [`ShardEngine::snapshot`] frame per shard, in shard order.
    pub shards: Vec<Vec<u8>>,
}

impl Checkpoint {
    /// Serialize into a `CHECKPOINT` frame.
    pub fn encode(&self) -> Vec<u8> {
        assert_eq!(self.shards.len(), self.cfg.shards, "shard count mismatch");
        let mut w = FrameWriter::new(frame::kind::CHECKPOINT);
        w.section(frame::tag::CONFIG, &self.cfg.encode());
        for shard in &self.shards {
            w.section(frame::tag::SHARD, shard);
        }
        w.finish()
    }

    /// Parse a `CHECKPOINT` frame.
    pub fn decode(buf: &[u8]) -> Result<Self, SnapshotError> {
        let f = Frame::parse(buf)?;
        if f.kind != frame::kind::CHECKPOINT {
            return Err(SnapshotError::WrongKind {
                expected: frame::kind::CHECKPOINT,
                found: f.kind,
            });
        }
        let sec = f
            .section(frame::tag::CONFIG)
            .ok_or(SnapshotError::MissingSection { tag: frame::tag::CONFIG })?;
        let mut r = Reader::new(sec);
        let cfg = EngineConfig::decode(&mut r)?;
        r.finish().map_err(SnapshotError::Frame)?;
        let shards: Vec<Vec<u8>> = f.sections(frame::tag::SHARD).map(|s| s.to_vec()).collect();
        if shards.len() != cfg.shards {
            return Err(SnapshotError::ConfigMismatch { field: "shard count" });
        }
        Ok(Self { cfg, shards })
    }

    /// The config a `new_shards`-shard engine must use for its per-shard
    /// structures to coincide with this checkpoint's (same per-shard
    /// window and memory — the global totals scale with the shard count).
    fn rebalanced_config(&self, new_shards: usize) -> EngineConfig {
        let old = self.cfg;
        EngineConfig {
            window: (old.window / old.shards as u64).max(1) * new_shards as u64,
            shards: new_shards,
            memory_bytes: (old.memory_bytes / old.shards).max(64) * new_shards,
            seed: old.seed,
        }
    }

    /// Build the shard engines of a `new_shards`-shard server from this
    /// checkpoint.
    ///
    /// * `new_shards == cfg.shards`: exact restore, bit-for-bit.
    /// * Otherwise — *any* nonzero count — each new shard is the
    ///   cell-wise merge of every old shard whose hash range overlaps its
    ///   own (contiguous, thanks to the monotone router). For divisible
    ///   counts this degenerates to the exact union/split of PR 2; for
    ///   non-divisible counts boundary shards carry one-sided extra
    ///   state, never less.
    pub fn build_engines(
        &self,
        new_shards: usize,
    ) -> Result<(EngineConfig, Vec<ShardEngine>), SnapshotError> {
        if new_shards == self.cfg.shards {
            let mut engines = Vec::with_capacity(new_shards);
            for (i, blob) in self.shards.iter().enumerate() {
                let mut e = ShardEngine::new(&self.cfg, i);
                e.restore(blob)?;
                engines.push(e);
            }
            return Ok((self.cfg, engines));
        }

        let old_shards = self.cfg.shards;
        if new_shards == 0 {
            return Err(SnapshotError::ConfigMismatch { field: "shards (must be nonzero)" });
        }
        let cfg = self.rebalanced_config(new_shards);
        let mut engines = Vec::with_capacity(new_shards);
        for j in 0..new_shards {
            let mut e = ShardEngine::new(&cfg, j);
            let (new_lo, new_hi) = (range_lo(j, new_shards), range_lo(j + 1, new_shards));
            for (i, blob) in self.shards.iter().enumerate() {
                let (old_lo, old_hi) = (range_lo(i, old_shards), range_lo(i + 1, old_shards));
                if old_lo < new_hi && new_lo < old_hi {
                    e.merge(blob)?;
                }
            }
            // audit:allow(growth): exactly one engine per destination shard
            engines.push(e);
        }
        Ok((cfg, engines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use she_hash::{RandomSource, Xoshiro256};

    /// Inverse of `mix64`, so a test can choose the *hash* and derive the
    /// key that routes with it.
    fn unmix64(mut z: u64) -> u64 {
        // Newton iteration for the inverse of an odd multiplier mod 2^64.
        let inv =
            |a: u64| (0..6).fold(a, |x, _| x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x))));
        z ^= (z >> 31) ^ (z >> 62);
        z = z.wrapping_mul(inv(0x94D0_49BB_1331_11EB));
        z ^= (z >> 27) ^ (z >> 54);
        z = z.wrapping_mul(inv(0xBF58_476D_1CE4_E5B9));
        z ^= (z >> 30) ^ (z >> 60);
        z.wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    fn key_hashing_to(h: u64) -> u64 {
        let key = unmix64(h) ^ ROUTER_SEED;
        assert_eq!(mix64(key ^ ROUTER_SEED), h);
        key
    }

    /// What `Checkpoint::build_engines` relies on: `route` is monotone in
    /// the hash, and shard `i` of `n` owns exactly
    /// `[range_lo(i, n), range_lo(i + 1, n))`.
    #[test]
    fn route_is_monotone_with_exact_contiguous_ranges() {
        let mut rng = Xoshiro256::new(0x0A07E);
        let mut hashes: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
        hashes.sort_unstable();
        for n in [1usize, 2, 3, 4, 5, 7, 8, 12, 64, 1000, 65_536] {
            assert_eq!(range_lo(0, n), 0);
            assert_eq!(range_lo(n, n), 1 << 64);
            for i in 0..n {
                let (lo, hi) = (range_lo(i, n), range_lo(i + 1, n));
                assert!(lo < hi, "shard {i} of {n} owns an empty range");
                let first = u64::try_from(lo).expect("lo of a real shard fits");
                let last = u64::try_from(hi - 1).expect("hi - 1 fits");
                assert_eq!(route(key_hashing_to(first), n), i, "first hash of {i}/{n}");
                assert_eq!(route(key_hashing_to(last), n), i, "last hash of {i}/{n}");
            }
            let mut prev = 0;
            for &h in &hashes {
                let s = route(key_hashing_to(h), n);
                assert!(s >= prev, "route not monotone at hash {h:#x}, n {n}");
                assert!((range_lo(s, n)..range_lo(s + 1, n)).contains(&u128::from(h)));
                prev = s;
            }
        }
    }

    #[test]
    fn router_is_deterministic_and_balanced() {
        let cfg = EngineConfig { shards: 8, ..Default::default() };
        let mut counts = [0usize; 8];
        for k in 0..80_000u64 {
            let s = cfg.shard_of(k);
            assert_eq!(s, route(k, 8));
            counts[s] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "imbalanced shard: {c}");
        }
    }

    /// The three ways an engine is fed — `apply` (the mirror), per-key
    /// `insert` (the verify twin), `partition` + per-shard feed (the
    /// workers) — end in the same bytes, so any of them can stand in for
    /// any other in a bit-for-bit check.
    #[test]
    fn apply_insert_and_partitioned_feed_are_byte_identical() {
        for (seed, shards, chunk) in [(1u64, 1usize, 1usize), (2, 4, 37), (3, 5, 256), (4, 8, 1000)]
        {
            let cfg = EngineConfig { window: 1 << 12, shards, memory_bytes: 64 << 10, seed: 9 };
            let mut rng = Xoshiro256::new(seed);
            let keys: Vec<u64> = (0..6000).map(|_| mix64(rng.next_u64() % 1500)).collect();

            let mut applied = DirectEngine::new(cfg);
            let mut inserted = DirectEngine::new(cfg);
            let (_, mut fed) = DirectEngine::new(cfg).into_shards();
            for (i, run) in keys.chunks(chunk).enumerate() {
                // Every eighth run feeds stream B, like the served traffic.
                let stream = u8::from(i % 8 == 7);
                applied.apply(stream, run);
                for &k in run {
                    inserted.insert(stream, k);
                }
                for (shard, ks) in cfg.partition(run) {
                    for k in ks {
                        fed[shard].insert(stream, k);
                    }
                }
            }
            let fed_ckpt = Checkpoint { cfg, shards: fed.iter().map(|e| e.snapshot()).collect() };
            let want = inserted.checkpoint();
            assert!(applied.checkpoint() == want, "apply != insert ({shards} shards)");
            assert!(fed_ckpt.encode() == want, "partitioned feed != insert ({shards} shards)");
            // And the engine's frozen reads route to the shard that holds
            // the key — what QUERY_FAST correctness rests on.
            for probe in (0..2000).map(mix64) {
                let shard = &fed[cfg.shard_of(probe)];
                assert_eq!(applied.member_frozen(probe), shard.member_frozen(probe));
                assert_eq!(applied.frequency_frozen(probe), shard.frequency_frozen(probe));
                assert_eq!(applied.mark_sig(true, probe), shard.mark_sig(true, probe));
                assert_eq!(applied.mark_sig(false, probe), shard.mark_sig(false, probe));
            }
        }
    }

    #[test]
    fn direct_engine_no_false_negatives() {
        let mut e = DirectEngine::new(EngineConfig {
            window: 1 << 12,
            shards: 4,
            memory_bytes: 64 << 10,
            seed: 7,
        });
        let keys: Vec<u64> = (0..3 << 12u32).map(|i| mix64(i as u64)).collect();
        for &k in &keys {
            e.insert(0, k);
        }
        for &k in &keys[keys.len() - (1 << 11)..] {
            assert!(e.member(k), "false negative {k:#x}");
        }
        assert!(e.cardinality() > 0.0);
    }

    #[test]
    fn cardinality_sums_shards() {
        let window = 1u64 << 14;
        let mut e =
            DirectEngine::new(EngineConfig { window, shards: 8, memory_bytes: 32 << 10, seed: 3 });
        for k in 0..4 * window {
            e.insert(0, mix64(k));
        }
        let est = e.cardinality();
        let re = (est - window as f64).abs() / window as f64;
        assert!(re < 0.2, "estimate {est}, re {re}");
    }

    #[test]
    fn similarity_of_identical_streams_is_high() {
        let mut e = DirectEngine::new(EngineConfig {
            window: 1 << 10,
            shards: 2,
            memory_bytes: 16 << 10,
            seed: 3,
        });
        for i in 0..4096u64 {
            let k = mix64(i % 1000);
            e.insert(0, k);
            e.insert(1, k);
        }
        assert!(e.similarity() > 0.8, "sim {}", e.similarity());
    }
}
