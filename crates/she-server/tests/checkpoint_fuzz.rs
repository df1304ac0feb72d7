//! Fuzz-style tests for `Checkpoint::decode`: any corruption a torn
//! write or bit rot can produce must surface as a clean `Err`, never a
//! panic and never a silently-wrong checkpoint. This is the restore-time
//! guarantee the quarantine path in `she serve --restore` and the chaos
//! soak's torn-write check both build on.

use she_server::{Checkpoint, DirectEngine, EngineConfig};

/// A populated engine's checkpoint — realistic section sizes, all four
/// structures non-trivial.
fn sample_checkpoint() -> Vec<u8> {
    let mut engine =
        DirectEngine::new(EngineConfig { window: 512, shards: 3, memory_bytes: 16 << 10, seed: 7 });
    for i in 0..2_000u64 {
        engine.insert((i % 3 == 0) as u8, i % 700);
    }
    engine.checkpoint()
}

#[test]
fn valid_checkpoint_decodes() {
    let blob = sample_checkpoint();
    let ckpt = Checkpoint::decode(&blob).expect("pristine checkpoint decodes");
    assert_eq!(ckpt.cfg.shards, 3);
    assert_eq!(ckpt.shards.len(), 3);
}

/// Every strict prefix — every possible torn write — errors cleanly.
#[test]
fn every_truncation_errors_cleanly() {
    let blob = sample_checkpoint();
    for cut in 0..blob.len() {
        assert!(
            Checkpoint::decode(&blob[..cut]).is_err(),
            "torn checkpoint ({cut} of {} bytes) must not decode",
            blob.len()
        );
    }
}

/// Systematic single-bit flips over the whole blob: each one must error
/// (the frame checksum covers every byte). Large blobs are sampled on a
/// stride to keep the test fast while still touching every region.
#[test]
fn every_single_bit_flip_is_detected() {
    let blob = sample_checkpoint();
    let stride = (blob.len() / 2_048).max(1);
    for byte in (0..blob.len()).step_by(stride) {
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip of byte {byte} bit {bit} went undetected"
            );
        }
    }
}

/// Flips in the length-prefix region are the nastiest (they change how
/// much the parser *tries* to read) — cover the header densely.
#[test]
fn header_region_bit_flips_never_panic() {
    let blob = sample_checkpoint();
    for byte in 0..blob.len().min(64) {
        for bit in 0..8 {
            let mut bad = blob.clone();
            bad[byte] ^= 1 << bit;
            assert!(Checkpoint::decode(&bad).is_err(), "header flip byte {byte} bit {bit}");
        }
    }
}

/// Garbage of assorted sizes — including huge claimed lengths — errors
/// without allocating absurd buffers or panicking.
#[test]
fn arbitrary_garbage_errors_cleanly() {
    for n in [0usize, 1, 3, 4, 7, 8, 64, 4096] {
        let garbage: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
        assert!(Checkpoint::decode(&garbage).is_err(), "{n} bytes of garbage");
    }
    // All 0xFF: maximal claimed lengths everywhere.
    assert!(Checkpoint::decode(&vec![0xFF; 256]).is_err());
}

/// A truncated-then-padded blob (torn write over an older, longer file —
/// the exact shape a non-atomic rewrite leaves behind) is detected.
#[test]
fn torn_over_old_contents_is_detected() {
    let blob = sample_checkpoint();
    let mut engine =
        DirectEngine::new(EngineConfig { window: 512, shards: 3, memory_bytes: 16 << 10, seed: 8 });
    for i in 0..4_000u64 {
        engine.insert(0, i % 900);
    }
    let old = engine.checkpoint();
    // New blob's prefix lands over a longer old file: tail is stale data.
    let cut = blob.len() / 2;
    let mut torn = blob[..cut].to_vec();
    if old.len() > cut {
        torn.extend_from_slice(&old[cut..]);
    }
    assert!(Checkpoint::decode(&torn).is_err(), "half-new half-old file must not decode");
}

/// A well-formed frame whose config says zero shards must not restore:
/// it used to decode `Ok`, build an engine with no shards, and panic on
/// the first insert (`she serve --restore` came up with no workers).
#[test]
fn zero_shard_checkpoint_is_refused() {
    let cfg = EngineConfig { window: 512, shards: 0, memory_bytes: 16 << 10, seed: 7 };
    let blob = Checkpoint { cfg, shards: vec![] }.encode();
    assert!(Checkpoint::decode(&blob).is_err(), "zero-shard checkpoint decoded");
    assert!(DirectEngine::restore(&blob, None).is_err(), "zero-shard checkpoint restored");
    assert!(DirectEngine::restore(&blob, Some(2)).is_err(), "zero-shard checkpoint rebalanced");
}
