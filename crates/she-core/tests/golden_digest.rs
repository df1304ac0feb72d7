//! Golden digest of the served engine: a fixed seeded stream into the
//! default-sized `DirectEngine`, with the checkpoint checksum and the
//! similarity bits pinned to constants recorded on the commit *before*
//! SHE-MH's insert became a row-wise pass.
//!
//! The fast-vs-generic tests in `mh.rs` prove the two insert paths agree
//! with each other; only a constant proves neither of them moved. Any
//! change to which hash feeds which row, to a `CheckGroup` instant or to
//! the packed cell layout changes one of these two numbers — which is
//! then an explicit, once-only answer change, not a refactor.

use she_core::frame;
use she_core::sharded::{DirectEngine, EngineConfig};
use she_hash::{RandomSource, Xoshiro256};

/// Keys per run; every eighth run feeds stream B (the ladder's shape).
const RUN: usize = 256;
const B_EVERY: usize = 8;
/// 1 536 runs = 393 216 keys ≈ 98 K per shard: five cleaning cycles of
/// stream A's 19 661-item `Tcycle`, and most of one for stream B.
const RUNS: usize = 1_536;

const GOLDEN_MID_SIMILARITY_BITS: u64 = 0x3fc7_1c53_921d_b864;
const GOLDEN_CHECKPOINT_CHECKSUM: u64 = 0x57c9_0ccb_e98e_43c1;
const GOLDEN_SIMILARITY_BITS: u64 = 0x3fd1_b9bd_3960_4aa8;

#[test]
fn default_engine_checkpoint_and_similarity_match_the_recorded_constants() {
    let mut engine = DirectEngine::new(EngineConfig::default());
    let mut rng = Xoshiro256::new(20_220_829);
    let mut mid = 0u64;
    for run in 0..RUNS {
        let stream = u8::from(run % B_EVERY == B_EVERY - 1);
        for _ in 0..RUN {
            // A bounded universe, so minima are re-offered and stream B
            // overlaps stream A.
            engine.insert(stream, rng.next_range(0, 100_000));
        }
        if run == RUNS / 2 {
            // A query mid-stream cleans whatever is due at that instant;
            // the final state depends on it having happened exactly here.
            mid = engine.similarity().to_bits();
        }
    }
    let checksum = frame::checksum(&engine.checkpoint());
    let sim = engine.similarity().to_bits();
    assert_eq!(
        (mid, checksum, sim),
        (GOLDEN_MID_SIMILARITY_BITS, GOLDEN_CHECKPOINT_CHECKSUM, GOLDEN_SIMILARITY_BITS),
        "engine state moved: mid sim {mid:#018x}, checkpoint checksum {checksum:#018x}, \
         sim {sim:#018x} ({})",
        f64::from_bits(sim)
    );
}
