//! Server-side glue for the `she-readpath` accelerator: the builder that
//! seeds its mirror from the (possibly restored) shard engines, and the
//! refresher thread that tails the primary's op log.
//!
//! The mirror is every shard's read-only
//! [`PointHalf`](she_core::sharded::PointHalf) — the SHE-BF and SHE-CM a
//! [`ShardEngine`] embeds, nothing else: same [`EngineConfig`], same
//! router, fed the identical per-shard stream-A insert order — so its
//! *frozen* reads answer bit-for-bit what the workers would after the
//! same inserts *and* the same mutating queries (a worker's `QUERY`
//! cleans due groups the mirror leaves alone). `TOPK` ranks by the same
//! frozen frequencies, so a mirror seeded or resynced from snapshots
//! ranks by the loaded state.
//! On a primary the refresher keeps it fresh from the replication log
//! tail (the read path rides the replication machinery; it adds no work
//! to the write path). On a replica the [`crate::server::Injector`] feeds
//! it synchronously alongside the shard queues, and the refresher idles
//! on the empty local log until a promotion starts filling it.

use crate::repl::Tail;
use crate::server::Shared;
use she_core::sharded::{EngineConfig, ShardEngine};
use she_metrics::ReadpathCounters;
use she_readpath::{ReadPath, ReadPathConfig};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Records fetched per op-log poll by the refresher.
const REFRESH_BATCH: usize = 64;
/// Refresher poll timeout — also bounds its shutdown latency.
const REFRESH_POLL: Duration = Duration::from_millis(100);

/// Build a server's read path: point halves seeded from the engines'
/// snapshots, so a restored server starts its fast reads from the
/// restored state, not empty.
pub(crate) fn build(
    cfg: &EngineConfig,
    rcfg: ReadPathConfig,
    engines: &[ShardEngine],
) -> io::Result<Arc<ReadPath>> {
    let rp = ReadPath::new(cfg, rcfg, Arc::new(ReadpathCounters::new()));
    for (shard, engine) in engines.iter().enumerate() {
        rp.load(shard, &engine.snapshot(), false).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("read-path mirror seed: {e}"))
        })?;
    }
    Ok(Arc::new(rp))
}

/// The refresher loop: tail the op log from just past the read path's
/// applied watermark, folding each record into the fast summary. A
/// truncated tail (the refresher fell more than a log's capacity behind)
/// resyncs from fresh shard snapshots taken under a log cut — the same
/// recovery a lagging replica performs.
pub(crate) fn run_refresher(shared: &Shared, rp: &ReadPath) {
    let Some(log) = &shared.log else { return };
    let mut next = rp.seq().saturating_add(1);
    while !shared.shutdown.load(Ordering::SeqCst) {
        match log.wait_from(next, REFRESH_BATCH, REFRESH_POLL) {
            Tail::Records(records) => {
                for r in records {
                    rp.apply(r.stream, &r.keys);
                    rp.set_seq(r.seq);
                    next = r.seq.saturating_add(1);
                }
            }
            Tail::Truncated { .. } => match resync(shared, rp) {
                Some(seq) => next = seq.saturating_add(1),
                // Workers gone: the server is draining; nothing to serve.
                None => return,
            },
            Tail::Timeout => {}
        }
    }
}

/// Rebuild the mirror from the shard snapshots at an exact op-log cut,
/// each frame loaded into the mirror (which drops every cached answer).
/// Returns the cut sequence, or `None` when the workers are gone.
fn resync(shared: &Shared, rp: &ReadPath) -> Option<u64> {
    let (seq, frames) = shared.cut_snapshots()?;
    for (shard, frame) in frames.iter().enumerate() {
        if rp.load(shard, frame, false).is_err() {
            // A same-config snapshot cannot fail to load; if it somehow
            // does, at least drop the cache so nothing stale is served.
            rp.invalidate_all();
        }
    }
    rp.set_seq(seq);
    Some(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use she_hash::mix64;

    /// Seeding from snapshots reproduces the source engines exactly.
    #[test]
    fn build_seeds_mirror_from_engine_snapshots() {
        let cfg = EngineConfig { window: 1 << 10, shards: 2, memory_bytes: 32 << 10, seed: 4 };
        let mut engines: Vec<ShardEngine> =
            (0..cfg.shards).map(|i| ShardEngine::new(&cfg, i)).collect();
        for i in 0..3000u64 {
            let k = mix64(i) % 800;
            engines[cfg.shard_of(k)].insert(0, k);
        }
        let rp = build(&cfg, ReadPathConfig::default(), &engines).expect("seed");
        for probe in 0..1200u64 {
            let shard = cfg.shard_of(probe);
            let got = rp.query(she_readpath::op::FREQ, probe);
            assert_eq!(
                got,
                Some(she_readpath::FastAnswer::Count(engines[shard].frequency_frozen(probe))),
                "seeded mirror diverges on key {probe}"
            );
        }
    }
}
