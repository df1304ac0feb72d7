//! Fuzz-style tests for the shared frame format: malformed input of any
//! shape must come back as a typed [`FrameError`], never a panic.

use she_core::frame::{self, checksum, Frame, FrameError, FrameWriter};
use she_core::sharded::{EngineConfig, ShardEngine};
use she_core::{
    SheBitmap, SheBloomFilter, SheCountMin, SheCountSketch, SheMinHash, SnapshotError,
    SnapshotState,
};
use she_hash::{RandomSource, Xoshiro256};

/// A representative valid frame with several sections, one repeated.
fn sample_frame() -> Vec<u8> {
    let mut w = FrameWriter::new(frame::kind::CHECKPOINT);
    w.section(frame::tag::CONFIG, &[1, 2, 3, 4, 5, 6, 7, 8]);
    w.section(frame::tag::SHARD, b"shard zero");
    w.section(frame::tag::SHARD, b"shard one");
    w.section(frame::tag::COUNTERS, &[]);
    w.finish()
}

#[test]
fn every_truncation_errors_cleanly() {
    let buf = sample_frame();
    for cut in 0..buf.len() {
        let err = Frame::parse(&buf[..cut]).expect_err("truncated frame parsed");
        assert!(
            matches!(err, FrameError::Truncated | FrameError::BadMagic | FrameError::BadChecksum),
            "cut {cut}: unexpected {err:?}"
        );
    }
    assert!(Frame::parse(&buf).is_ok());
}

#[test]
fn wrong_magic_errors() {
    let mut buf = sample_frame();
    for i in 0..4 {
        let mut bad = buf.clone();
        bad[i] ^= 0x20;
        assert!(matches!(Frame::parse(&bad), Err(FrameError::BadMagic)), "byte {i}");
    }
    // Magic is checked before anything else, even on tiny buffers.
    buf.truncate(4);
    assert!(matches!(Frame::parse(&buf), Err(FrameError::Truncated)));
}

#[test]
fn wrong_version_errors_even_with_valid_checksum() {
    let mut buf = sample_frame();
    buf[4] = 0xFF;
    buf[5] = 0x7F;
    // Naively corrupted version (checksum now stale):
    assert!(matches!(Frame::parse(&buf), Err(FrameError::BadVersion { found: 0x7FFF })));
    // A well-formed frame from a genuinely newer format version — fix the
    // checksum so only the version disagrees:
    let body_len = buf.len() - 8;
    let sum = checksum(&buf[..body_len]).to_le_bytes();
    buf[body_len..].copy_from_slice(&sum);
    assert!(matches!(Frame::parse(&buf), Err(FrameError::BadVersion { found: 0x7FFF })));
}

#[test]
fn any_flipped_bit_fails_the_checksum() {
    let buf = sample_frame();
    // Skip magic (0..4) and version (4..6): those have their own errors.
    for i in 6..buf.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = buf.clone();
            bad[i] ^= bit;
            let err = Frame::parse(&bad).expect_err("corrupted frame parsed");
            assert!(
                matches!(err, FrameError::BadChecksum | FrameError::Truncated),
                "byte {i} bit {bit:#x}: unexpected {err:?}"
            );
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    for case in 0..256u64 {
        let mut rng = Xoshiro256::new(0xF422 ^ case);
        let len = rng.next_below(512);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        match case % 4 {
            // Raw noise.
            0 => {}
            // Valid magic, noise after.
            1 if len >= 4 => bytes[..4].copy_from_slice(&frame::MAGIC),
            // Valid magic + version, noise after.
            2 if len >= 6 => {
                bytes[..4].copy_from_slice(&frame::MAGIC);
                bytes[4..6].copy_from_slice(&frame::VERSION.to_le_bytes());
            }
            // A valid frame with a random tail chopped or appended.
            _ => {
                let mut f = sample_frame();
                if case % 8 < 4 {
                    f.truncate(len.min(f.len()));
                } else {
                    f.extend_from_slice(&bytes);
                }
                bytes = f;
            }
        }
        let _ = Frame::parse(&bytes); // must not panic
    }
}

#[test]
fn structured_noise_never_panics_adapter_loads() {
    // Garbage that gets past the container checks must still fail softly
    // at the section layer: forge frames with the right kind but random
    // section contents and feed them to real adapters.
    for case in 0..128u64 {
        let mut rng = Xoshiro256::new(0xADA7 ^ case);
        let kinds = [
            frame::kind::BF,
            frame::kind::BM,
            frame::kind::CM,
            frame::kind::CS,
            frame::kind::ENGINE,
        ];
        let mut w = FrameWriter::new(kinds[(case % 5) as usize]);
        for _ in 0..rng.next_below(5) {
            let tag = rng.next_below(0x30) as u16;
            let len = rng.next_below(64);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            w.section(tag, &payload);
        }
        let buf = w.finish();

        let mut bf = SheBloomFilter::builder().window(256).memory_bytes(1 << 10).seed(1).build();
        let mut bm = SheBitmap::builder().window(256).memory_bytes(1 << 10).seed(1).build();
        let mut cm = SheCountMin::builder().window(256).memory_bytes(1 << 10).seed(1).build();
        let mut cs = SheCountSketch::builder().window(256).memory_bytes(1 << 10).seed(1).build();
        let _ = bf.load_snapshot(&buf);
        let _ = bm.load_snapshot(&buf);
        let _ = cm.load_snapshot(&buf);
        let _ = cs.load_snapshot(&buf);
        let _ = bf.merge_snapshot(&buf);
        let _ = bm.merge_snapshot(&buf);
        let _ = cm.merge_snapshot(&buf);
    }
}

/// `frame` re-encoded with one section's payload replaced and the
/// checksum recomputed — a forged frame that passes every container
/// check. `tags` lists the frame's sections in order.
fn with_section(frame: &[u8], tags: &[u16], tag: u16, payload: &[u8]) -> Vec<u8> {
    let f = Frame::parse(frame).expect("valid frame");
    let mut w = FrameWriter::new(f.kind);
    for &t in tags {
        w.section(t, if t == tag { payload } else { f.section(t).expect("section") });
    }
    w.finish()
}

#[test]
fn hostile_clock_is_refused_before_any_state_is_touched() {
    // A clock the packed next-flip word cannot hold (`t + 2·Tcycle` must
    // stay below 2^62) used to restore `Ok`: a debug build then panicked,
    // a release build let the flip instant spill into the mark bits and
    // answered `contains(&1)` false right after `insert(&1)`.
    use frame::tag::{CELLS, CLOCK, CONFIG, COUNTERS, MARKS};
    use frame::tag::{STRUCT_BF, STRUCT_BM, STRUCT_CM, STRUCT_MH_A, STRUCT_MH_B};
    const ENGINE_TAGS: [u16; 4] = [CONFIG, CLOCK, MARKS, CELLS];
    const SHARD_TAGS: [u16; 7] =
        [CONFIG, COUNTERS, STRUCT_BF, STRUCT_BM, STRUCT_CM, STRUCT_MH_A, STRUCT_MH_B];

    let new_bf = || SheBloomFilter::builder().window(256).memory_bytes(1 << 10).seed(1).build();
    let cfg = EngineConfig { window: 1 << 10, shards: 2, memory_bytes: 4 << 10, seed: 1 };
    let mut bf = new_bf();
    let mut shard = ShardEngine::new(&cfg, 1);
    for key in 0..300u64 {
        bf.insert(&key);
        shard.insert(0, key);
        shard.insert(1, key ^ 1);
    }
    let (bf_before, shard_before) = (bf.save_snapshot(), shard.snapshot());

    for t in [1u64 << 62, (1 << 63) + 12_345, u64::MAX - 3, u64::MAX] {
        let refused = Err(SnapshotError::ClockOutOfRange { t });
        let forged = with_section(&bf_before, &ENGINE_TAGS, CLOCK, &t.to_le_bytes());
        assert_eq!(bf.load_snapshot(&forged), refused, "load, t = {t}");
        assert_eq!(bf.merge_snapshot(&forged), refused, "merge, t = {t}");
        assert_eq!(bf.save_snapshot(), bf_before, "a refused frame changed the filter");

        // The same clock inside each nested structure of a shard frame —
        // what wire `RESTORE` and the rebalance merge hand the engine.
        for nested in [STRUCT_BF, STRUCT_MH_B] {
            let inner = Frame::parse(&shard_before).expect("shard frame");
            let inner = inner.section(nested).expect("nested frame");
            let inner = with_section(inner, &ENGINE_TAGS, CLOCK, &t.to_le_bytes());
            let forged = with_section(&shard_before, &SHARD_TAGS, nested, &inner);
            assert_eq!(shard.restore(&forged), refused, "restore, t = {t}");
            assert_eq!(shard.merge(&forged), refused, "shard merge, t = {t}");
        }
    }

    // The largest clock that fits still loads, and the filter works on.
    let t_cycle = bf.engine().config().t_cycle;
    let last = (1u64 << 62) - 1 - 2 * t_cycle;
    let mut fresh = new_bf();
    fresh
        .load_snapshot(&with_section(&bf_before, &ENGINE_TAGS, CLOCK, &last.to_le_bytes()))
        .expect("largest in-range clock");
    fresh.insert(&1u64);
    assert!(fresh.contains(&1u64), "false negative inside the window");
    let first_out = with_section(&bf_before, &ENGINE_TAGS, CLOCK, &(last + 1).to_le_bytes());
    assert_eq!(
        fresh.load_snapshot(&first_out),
        Err(SnapshotError::ClockOutOfRange { t: last + 1 })
    );
}

#[test]
fn clock_whose_flip_count_overflows_is_refused() {
    // A 128-row SHE-MH over a 16-item window (Tcycle = 19) has G > 4·Tcycle,
    // so near the 2^62 clock bound its flip count `G·⌊t/Tcycle⌋ + p`
    // leaves u64: such a frame used to load, and the next insert
    // overflowed (a panic in debug, a wrapped count in release).
    use frame::tag::{CELLS, CLOCK, CONFIG, MARKS};
    const ENGINE_TAGS: [u16; 4] = [CONFIG, CLOCK, MARKS, CELLS];
    let new_mh = || SheMinHash::builder().window(16).num_hashes(128).seed(5).build();
    let mut mh = new_mh();
    for key in 0..40u64 {
        mh.insert(&key);
    }
    let before = mh.save_snapshot();
    let t = (1u64 << 62) - 44;
    let forged = with_section(&before, &ENGINE_TAGS, CLOCK, &t.to_le_bytes());
    match mh.load_snapshot(&forged) {
        Err(err) => {
            assert_eq!(err, SnapshotError::ClockOutOfRange { t });
            assert_eq!(mh.save_snapshot(), before, "a refused frame changed the signature");
        }
        Ok(()) => {
            mh.insert(&1u64);
            let mut twin = mh.clone();
            assert!(mh.similarity(&mut twin).is_finite());
        }
    }
    // The last clock whose `(⌊(t + 2·Tcycle)/Tcycle⌋ + 1)·G` stays below
    // u64::MAX loads, inserts and compares; the next one is refused.
    let t_cycle = mh.engine().config().t_cycle;
    let groups = mh.engine().num_groups() as u64;
    let last = ((u64::MAX - 1) / groups) * t_cycle - 1 - 2 * t_cycle;
    assert!(last < t, "the refused clock lies past the last one");
    let mut fresh = new_mh();
    fresh
        .load_snapshot(&with_section(&before, &ENGINE_TAGS, CLOCK, &last.to_le_bytes()))
        .expect("the last clock that fits");
    fresh.insert(&1u64);
    let mut twin = fresh.clone();
    assert!(fresh.similarity(&mut twin).is_finite());
    let first_out = with_section(&before, &ENGINE_TAGS, CLOCK, &(last + 1).to_le_bytes());
    assert_eq!(
        new_mh().load_snapshot(&first_out),
        Err(SnapshotError::ClockOutOfRange { t: last + 1 })
    );
}
