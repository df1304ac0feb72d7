//! Property tests for the unified snapshot layer: snapshot → restore →
//! query equivalence for every engine type over seeded random streams,
//! and cell-for-cell merge commutativity for the mergeable structures.
//!
//! Queries are themselves deterministic state transitions (they run
//! `CheckGroup`), so "equivalent" here means bit-for-bit: the restored
//! structure answers the same query sequence with identical bits.

use she_core::{
    SheBitmap, SheBloomFilter, SheCountMin, SheCountSketch, SheHyperLogLog, SheMinHash,
    SnapshotState,
};
use she_hash::{RandomSource, Xoshiro256};

const WINDOW: u64 = 1 << 10;
const BYTES: usize = 8 << 10;

/// Seeded stream of `(key, advance)` ops.
fn stream(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut rng = Xoshiro256::new(seed);
    (0..n).map(|_| (rng.next_range(0, 4_000), rng.next_below(4) as u64)).collect()
}

#[test]
fn bf_roundtrip_is_bit_exact() {
    for case in 0..8u64 {
        let mut a = SheBloomFilter::builder().window(WINDOW).memory_bytes(BYTES).seed(1).build();
        for &(key, _) in &stream(0xBF ^ case, 3_000) {
            a.insert(&key);
        }
        let snap = a.save_snapshot();
        let mut b = SheBloomFilter::builder().window(WINDOW).memory_bytes(BYTES).seed(1).build();
        b.load_snapshot(&snap).expect("load");
        for key in 0..4_000u64 {
            assert_eq!(a.contains(&key), b.contains(&key), "case {case} key {key}");
        }
    }
}

#[test]
fn bm_roundtrip_is_bit_exact() {
    for case in 0..8u64 {
        let mut a = SheBitmap::builder().window(WINDOW).memory_bytes(BYTES).seed(2).build();
        for &(key, _) in &stream(0xB7 ^ case, 3_000) {
            a.insert(&key);
        }
        let snap = a.save_snapshot();
        let mut b = SheBitmap::builder().window(WINDOW).memory_bytes(BYTES).seed(2).build();
        b.load_snapshot(&snap).expect("load");
        assert_eq!(a.estimate().to_bits(), b.estimate().to_bits(), "case {case}");
    }
}

#[test]
fn cm_roundtrip_is_bit_exact() {
    for case in 0..8u64 {
        let mut a = SheCountMin::builder().window(WINDOW).memory_bytes(BYTES).seed(3).build();
        for &(key, _) in &stream(0xC3 ^ case, 3_000) {
            a.insert(&key);
        }
        let snap = a.save_snapshot();
        let mut b = SheCountMin::builder().window(WINDOW).memory_bytes(BYTES).seed(3).build();
        b.load_snapshot(&snap).expect("load");
        for key in 0..4_000u64 {
            assert_eq!(a.query(&key), b.query(&key), "case {case} key {key}");
        }
    }
}

#[test]
fn hll_roundtrip_is_bit_exact() {
    for case in 0..8u64 {
        let mut a = SheHyperLogLog::builder().window(WINDOW).memory_bytes(BYTES).seed(4).build();
        for &(key, _) in &stream(0x477 ^ case, 3_000) {
            a.insert(&key);
        }
        let snap = a.save_snapshot();
        let mut b = SheHyperLogLog::builder().window(WINDOW).memory_bytes(BYTES).seed(4).build();
        b.load_snapshot(&snap).expect("load");
        assert_eq!(a.estimate().to_bits(), b.estimate().to_bits(), "case {case}");
    }
}

#[test]
fn mh_roundtrip_is_bit_exact() {
    for case in 0..4u64 {
        let build = || {
            SheMinHash::builder().window(WINDOW).num_hashes(64).memory_bytes(BYTES).seed(5).build()
        };
        let (mut a1, mut a2) = (build(), build());
        for &(key, _) in &stream(0x117 ^ case, 3_000) {
            a1.insert(&key);
            a2.insert(&(key / 2)); // overlapping but distinct sets
        }
        let (s1, s2) = (a1.save_snapshot(), a2.save_snapshot());
        let (mut b1, mut b2) = (build(), build());
        b1.load_snapshot(&s1).expect("load");
        b2.load_snapshot(&s2).expect("load");
        assert_eq!(
            a1.similarity(&mut a2).to_bits(),
            b1.similarity(&mut b2).to_bits(),
            "case {case}"
        );
    }
}

#[test]
fn cs_roundtrip_is_bit_exact() {
    for case in 0..8u64 {
        let mut a = SheCountSketch::builder().window(WINDOW).memory_bytes(BYTES).seed(6).build();
        for &(key, _) in &stream(0xC5 ^ case, 3_000) {
            a.insert(&key);
        }
        let snap = a.save_snapshot();
        let mut b = SheCountSketch::builder().window(WINDOW).memory_bytes(BYTES).seed(6).build();
        b.load_snapshot(&snap).expect("load");
        for key in 0..4_000u64 {
            assert_eq!(a.query(&key), b.query(&key), "case {case} key {key}");
        }
    }
}

/// The generic commutativity check: snapshot bytes are a deterministic
/// function of state, so byte equality of the merged snapshots is
/// cell-for-cell state equality.
fn assert_merge_commutes<T: SnapshotState>(mut c1: T, mut c2: T, snap_a: &[u8], snap_b: &[u8]) {
    c1.load_snapshot(snap_a).expect("load a");
    c1.merge_snapshot(snap_b).expect("merge b into a");
    c2.load_snapshot(snap_b).expect("load b");
    c2.merge_snapshot(snap_a).expect("merge a into b");
    assert_eq!(c1.save_snapshot(), c2.save_snapshot(), "merge is not commutative");
}

#[test]
fn merge_commutes_for_every_mergeable_structure() {
    for case in 0..6u64 {
        let ops_a = stream(0xA0 ^ case, 2_500);
        let ops_b = stream(0xB0 ^ case, 1_700); // different length → different clocks

        macro_rules! check {
            ($build:expr) => {{
                let (mut a, mut b) = ($build, $build);
                for &(key, dt) in &ops_a {
                    a.insert(&key);
                    a.engine_advance(dt);
                }
                for &(key, dt) in &ops_b {
                    b.insert(&key);
                    b.engine_advance(dt);
                }
                assert_merge_commutes($build, $build, &a.save_snapshot(), &b.save_snapshot());
            }};
        }

        // A tiny shim so the macro can advance each adapter's clock the
        // same way (all adapters expose the raw engine read-only; the
        // streams' `dt`s are folded in via extra inserts instead).
        trait Advance {
            fn engine_advance(&mut self, dt: u64);
        }
        macro_rules! advance_via_inserts {
            ($ty:ty) => {
                impl Advance for $ty {
                    fn engine_advance(&mut self, dt: u64) {
                        for i in 0..dt {
                            self.insert(&(u64::MAX - i));
                        }
                    }
                }
            };
        }
        advance_via_inserts!(SheBloomFilter);
        advance_via_inserts!(SheBitmap);
        advance_via_inserts!(SheCountMin);
        advance_via_inserts!(SheHyperLogLog);
        advance_via_inserts!(SheMinHash);

        check!(SheBloomFilter::builder().window(WINDOW).memory_bytes(BYTES).seed(11).build());
        check!(SheBitmap::builder().window(WINDOW).memory_bytes(BYTES).seed(12).build());
        check!(SheCountMin::builder().window(WINDOW).memory_bytes(BYTES).seed(13).build());
        check!(SheHyperLogLog::builder().window(WINDOW).memory_bytes(BYTES).seed(14).build());
        check!(SheMinHash::builder()
            .window(WINDOW)
            .num_hashes(64)
            .memory_bytes(BYTES)
            .seed(15)
            .build());
    }
}

/// Merging equal-length disjoint streams never loses a membership answer:
/// with equal clocks the same groups are live on both sides, so the
/// cell-wise OR can only add bits.
#[test]
fn bf_merge_preserves_membership() {
    let build = || SheBloomFilter::builder().window(WINDOW).memory_bytes(BYTES).seed(21).build();
    let (mut a, mut b) = (build(), build());
    for i in 0..2_000u64 {
        a.insert(&i);
        b.insert(&(100_000 + i));
    }
    let (snap_a, snap_b) = (a.save_snapshot(), b.save_snapshot());
    let mut merged = build();
    merged.load_snapshot(&snap_a).expect("load");
    merged.merge_snapshot(&snap_b).expect("merge");
    for i in 1_500..2_000u64 {
        if a.contains(&i) {
            assert!(merged.contains(&i), "merge lost key {i} from a");
        }
        if b.contains(&(100_000 + i)) {
            assert!(merged.contains(&(100_000 + i)), "merge lost key {} from b", 100_000 + i);
        }
    }
}

/// Merging equal-length disjoint streams never underestimates either
/// side: cell-wise max dominates each input sketch.
#[test]
fn cm_merge_never_underestimates_either_side() {
    let build = || SheCountMin::builder().window(WINDOW).memory_bytes(BYTES).seed(22).build();
    let (mut a, mut b) = (build(), build());
    let mut rng = Xoshiro256::new(0xCA4D);
    for _ in 0..2_000 {
        a.insert(&rng.next_range(0, 100));
        b.insert(&rng.next_range(1_000, 1_100));
    }
    let (snap_a, snap_b) = (a.save_snapshot(), b.save_snapshot());
    let mut merged = build();
    merged.load_snapshot(&snap_a).expect("load");
    merged.merge_snapshot(&snap_b).expect("merge");
    for key in (0..100u64).chain(1_000..1_100) {
        let floor = a.query(&key).max(b.query(&key));
        assert!(merged.query(&key) >= floor, "merged underestimates key {key}");
    }
}
