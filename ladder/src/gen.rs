//! Inputs, all derived from `--seed`, and the exact sliding-window truth
//! the engine's answers are scored against. The program under test only
//! ever receives the generated keys.

use she_server::EngineConfig;
use she_streams::{CaidaLike, KeyStream};
use she_window::PairTruth;

/// Distinct keys the streams draw from.
pub const UNIVERSE: usize = 100_000;
/// Keys per insert or batch-read request.
pub const BATCH: usize = 256;
/// Every `B_EVERY`-th run of the write stream feeds stream B.
const B_EVERY: usize = 8;

/// Item counts that are the same on every commit, divided by `--scale`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Keys inserted during set-up, before the first timed operation.
    pub preload: usize,
    /// Keys of the deterministic single-writer verify pass.
    pub verify: usize,
    /// Never-inserted keys probed for the false-positive rate.
    pub absent: usize,
    /// Single reads compared with the twin during the verify pass.
    pub point_checks: usize,
}

impl Sizes {
    pub fn scaled(scale: usize) -> Sizes {
        // Never fewer than a few checkpoints' worth, however small the scale.
        let runs = |keys: usize| (keys / scale / BATCH).max(4 * B_EVERY) * BATCH;
        Sizes {
            preload: runs(1 << 18),
            verify: runs(3 << 17),
            absent: runs(200_000),
            point_checks: (4096 / scale).max(64),
        }
    }
}

/// Everything one run feeds the system under test.
#[derive(Debug)]
pub struct Inputs {
    /// The write stream (skew 1.05); timed phases cycle through it.
    pub trace: Vec<u64>,
    /// Read keys: a second, more skewed draw over the same permutation.
    pub reads: Vec<u64>,
    /// Keys outside the universe, so no stream ever inserts them.
    pub absent: Vec<u64>,
}

impl Inputs {
    pub fn generate(seed: u64, sizes: &Sizes) -> Inputs {
        let trace_len = (sizes.preload + sizes.verify).max(1 << 20);
        let trace = CaidaLike::new(UNIVERSE, 1.05, seed).take_vec(trace_len);
        let reads = CaidaLike::new(UNIVERSE, 1.1, seed.wrapping_add(1)).take_vec(1 << 18);
        // `CaidaLike` keys are `mix64(rank)` for `rank < UNIVERSE`; `mix64`
        // is a bijection, so any rank at or past the universe is absent.
        let base = UNIVERSE as u64 + ((seed & 0xFFFF_FFFF) << 24);
        let absent = (0..sizes.absent as u64).map(|j| she_hash::mix64(base + j)).collect();
        Inputs { trace, reads, absent }
    }

    /// The write stream from key offset `from`, as `(stream, run)` pairs
    /// of [`BATCH`] keys, wrapping around the trace forever.
    pub fn runs(&self, from: usize) -> impl Iterator<Item = (u8, &[u64])> {
        let n_runs = self.trace.len() / BATCH;
        (from / BATCH..).map(move |i| {
            let r = i % n_runs;
            (stream_of_run(r), &self.trace[r * BATCH..(r + 1) * BATCH])
        })
    }
}

fn stream_of_run(run: usize) -> u8 {
    u8::from(run % B_EVERY == B_EVERY - 1)
}

/// Exact truth with the engine's own window semantics: every shard keeps
/// the last `window / shards` items *of each stream* that routed to it.
#[derive(Debug)]
pub struct Truth {
    cfg: EngineConfig,
    shards: Vec<PairTruth>,
}

impl Truth {
    pub fn new(cfg: EngineConfig) -> Truth {
        let window = usize::try_from(cfg.window).expect("window fits usize") / cfg.shards;
        Truth { cfg, shards: (0..cfg.shards).map(|_| PairTruth::new(window.max(1))).collect() }
    }

    pub fn insert(&mut self, stream: u8, keys: &[u64]) {
        for &k in keys {
            let shard = &mut self.shards[self.cfg.shard_of(k)];
            if stream == 0 {
                shard.insert_a(k);
            } else {
                shard.insert_b(k);
            }
        }
    }

    /// Stream-A keys inside their shard's window, with exact counts,
    /// in a fixed order.
    pub fn in_window(&self) -> Vec<(u64, u32)> {
        let mut all: Vec<(u64, u32)> =
            self.shards.iter().flat_map(|s| s.a().iter_counts()).collect();
        all.sort_unstable();
        all
    }

    /// Distinct stream-A keys, summed over shards as the engine sums.
    pub fn cardinality(&self) -> f64 {
        self.shards.iter().map(|s| s.a().cardinality() as f64).sum()
    }

    /// A/B Jaccard, averaged over shards as the engine averages.
    pub fn jaccard(&self) -> f64 {
        self.shards.iter().map(PairTruth::jaccard).sum::<f64>() / self.shards.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_absent_keys_are_absent() {
        let sizes = Sizes::scaled(64);
        let a = Inputs::generate(7, &sizes);
        let b = Inputs::generate(7, &sizes);
        assert_eq!((&a.trace, &a.reads, &a.absent), (&b.trace, &b.reads, &b.absent));
        assert_ne!(a.trace, Inputs::generate(8, &sizes).trace);
        let universe: std::collections::HashSet<u64> =
            (0..UNIVERSE as u64).map(she_hash::mix64).collect();
        assert!(a.trace.iter().chain(&a.reads).all(|k| universe.contains(k)));
        assert!(a.absent.iter().all(|k| !universe.contains(k)));
    }

    #[test]
    fn every_eighth_run_feeds_stream_b_and_runs_wrap() {
        let sizes = Sizes::scaled(64);
        let inputs = Inputs::generate(1, &sizes);
        let streams: Vec<u8> = inputs.runs(0).take(16).map(|(s, _)| s).collect();
        assert_eq!(streams, [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1]);
        let n_runs = inputs.trace.len() / BATCH;
        let wrapped = inputs.runs((n_runs - 1) * BATCH).nth(1).expect("endless");
        assert_eq!(wrapped.1, &inputs.trace[..BATCH]);
    }
}
