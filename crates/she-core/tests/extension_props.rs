//! Property tests for the extension modules (snapshots and sharding),
//! as deterministic seeded loops — same invariants the `proptest` suite
//! checked, reproducible bit-exactly from the fixed seeds.

use she_core::sharded::{Checkpoint, DirectEngine, EngineConfig};
use she_core::{She, SheConfig};
use she_hash::{RandomSource, Xoshiro256};
use she_sketch::BloomSpec;

fn bf_contains(s: &mut She<BloomSpec>, key: u64) -> bool {
    let mut ups = Vec::new();
    s.updates_for(&key, &mut ups);
    for u in ups {
        let gid = s.group_of(u.index);
        s.check_group(gid);
        if !s.observe_mature(gid) {
            continue;
        }
        if s.peek_cell(u.index) == 0 {
            return false;
        }
    }
    true
}

/// Snapshot round-trips preserve every observable answer for arbitrary
/// insert/advance interleavings.
#[test]
fn snapshot_roundtrip_preserves_answers() {
    for case in 0..32u64 {
        let mut rng = Xoshiro256::new(0x54A9 ^ case);
        let window = rng.next_range(16, 2_000);
        let n_ops = 1 + rng.next_below(199);
        let ops: Vec<(u64, u64)> =
            (0..n_ops).map(|_| (rng.next_u64(), rng.next_range(0, 50))).collect();
        let cfg = SheConfig::builder().window(window).alpha(0.7).group_cells(16).build();
        let mut a = She::new(BloomSpec::new(1 << 10, 3, 5), cfg);
        for &(key, dt) in &ops {
            a.insert(&key);
            a.advance_time(dt);
        }
        let snap = a.save_state();
        let mut b = She::new(BloomSpec::new(1 << 10, 3, 5), cfg);
        b.load_state(&snap).expect("load");
        assert_eq!(a.now(), b.now(), "case {case}");
        for &(key, _) in &ops {
            assert_eq!(bf_contains(&mut a, key), bf_contains(&mut b, key), "case {case}");
        }
        // And they stay in lock-step afterwards.
        for extra in 0..50u64 {
            a.insert(&extra);
            b.insert(&extra);
        }
        for &(key, _) in ops.iter().take(20) {
            assert_eq!(bf_contains(&mut a, key), bf_contains(&mut b, key), "case {case}");
        }
    }
}

/// Loading arbitrary garbage never panics — it errors.
#[test]
fn snapshot_loader_rejects_garbage() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::new(0x6A2B ^ case);
        let len = rng.next_below(300);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Half the cases lead with the magic so the header parser is also
        // exercised, not just the magic check.
        if case % 2 == 0 && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"SHEF");
        }
        let cfg = SheConfig::builder().window(100).alpha(0.5).group_cells(8).build();
        let mut s = She::new(BloomSpec::new(128, 2, 1), cfg);
        // Either a clean error, or (for a buffer that happens to match the
        // config) success — never a panic.
        let _ = s.load_state(&bytes);
    }
}

/// Worker-owned shards fed their `partition` runs on parallel threads end
/// in the same bytes as one serial engine over the same keys, for any
/// stream and shard count (the router and per-shard order are
/// deterministic; nothing else reaches a shard's state).
#[test]
fn parallel_shard_feed_matches_serial() {
    for case in 0..16u64 {
        let mut rng = Xoshiro256::new(0x5CC5 ^ case);
        let shards = 1 + rng.next_below(5);
        let n_keys = 1 + rng.next_below(799);
        let keys: Vec<u64> = (0..n_keys).map(|_| rng.next_range(0, 500)).collect();
        let cfg = EngineConfig { window: 256, shards, memory_bytes: 1 << 18, seed: 9 };

        let mut serial = DirectEngine::new(cfg);
        serial.apply(0, &keys);

        let (cfg, mut engines) = DirectEngine::new(cfg).into_shards();
        let mut runs = cfg.partition(&keys).into_iter().peekable();
        std::thread::scope(|scope| {
            for (shard, engine) in engines.iter_mut().enumerate() {
                if let Some((_, run)) = runs.next_if(|(s, _)| *s == shard) {
                    scope.spawn(move || {
                        for k in run {
                            engine.insert(0, k);
                        }
                    });
                }
            }
        });
        let parallel = Checkpoint { cfg, shards: engines.iter().map(|e| e.snapshot()).collect() };
        assert!(parallel.encode() == serial.checkpoint(), "case {case}: {shards} shards");
    }
}
