//! Cross-crate integration tests: the paper's headline comparisons as
//! executable accuracy budgets, run end-to-end through the experiment
//! harness (workload generator → algorithm → ground truth → metric).

use she::metrics::*;
use she::streams::{CaidaLike, DistinctStream, KeyStream, RelevantPair};

const WINDOW: u64 = 1 << 12;

fn caida(n: usize, seed: u64) -> Vec<u64> {
    CaidaLike::new(16_000, 1.05, seed).take_vec(n)
}

/// Fig. 9d's headline: at the same scarce memory, SHE-BF's FPR is orders of
/// magnitude below the timestamp-based filters and SWAMP.
#[test]
fn membership_she_bf_dominates_at_scarce_memory() {
    let keys = DistinctStream::new(1).take_vec(8 * WINDOW as usize);
    let guard = 5 * WINDOW as usize;
    let bytes = 16 << 10;

    let mut she = sized::she_bf(WINDOW, bytes, 1);
    let she_fpr = membership_fpr(&mut she, &keys, guard, 3, 4_000).value;

    let mut tobf = sized::tobf(WINDOW, bytes, 1);
    let tobf_fpr = membership_fpr(&mut tobf, &keys, guard, 3, 4_000).value;

    let mut tbf = sized::tbf(WINDOW, bytes, 1);
    let tbf_fpr = membership_fpr(&mut tbf, &keys, guard, 3, 4_000).value;

    let mut swamp = sized::swamp(WINDOW, bytes, 1);
    let swamp_fpr = membership_fpr(&mut swamp, &keys, guard, 3, 4_000).value;

    assert!(she_fpr < 0.05, "SHE-BF FPR {she_fpr}");
    assert!(tobf_fpr > 10.0 * she_fpr, "TOBF {tobf_fpr} vs SHE {she_fpr}");
    assert!(tbf_fpr > 10.0 * she_fpr, "TBF {tbf_fpr} vs SHE {she_fpr}");
    assert!(swamp_fpr > 5.0 * she_fpr, "SWAMP {swamp_fpr} vs SHE {she_fpr}");
}

/// Fig. 9a's headline: SHE-BM estimates well with ~1 KB-scale memory while
/// SWAMP and TSV cannot.
#[test]
fn cardinality_she_bm_wins_small_memory() {
    let keys = caida(8 * WINDOW as usize, 2);
    let bytes = 256; // bytes! SHE-BM thrives, O(W)/timestamp structures can't.

    let mut she = sized::she_bm(WINDOW, bytes, 2);
    let she_re = cardinality_re(&mut she, &keys, WINDOW as usize, 3).value;

    let mut swamp = sized::swamp(WINDOW, bytes, 2);
    let swamp_re = cardinality_re(&mut swamp, &keys, WINDOW as usize, 3).value;

    let mut tsv = sized::tsv(WINDOW, bytes, 2);
    let tsv_re = cardinality_re(&mut tsv, &keys, WINDOW as usize, 3).value;

    assert!(she_re < 0.15, "SHE-BM RE {she_re}");
    assert!(swamp_re > 3.0 * she_re, "SWAMP {swamp_re} vs SHE {she_re}");
    assert!(tsv_re > 3.0 * she_re, "TSV {tsv_re} vs SHE {she_re}");
}

/// Fig. 9b: SHE-HLL beats SHLL at equal (small) memory.
#[test]
fn cardinality_she_hll_beats_shll() {
    let keys = caida(8 * WINDOW as usize, 3);
    let bytes = 512;

    let mut she = sized::she_hll(WINDOW, bytes, 3);
    let she_re = cardinality_re(&mut she, &keys, WINDOW as usize, 3).value;

    let mut shll = sized::shll(WINDOW, bytes, 3);
    let shll_re = cardinality_re(&mut shll, &keys, WINDOW as usize, 3).value;

    assert!(she_re < 0.25, "SHE-HLL RE {she_re}");
    assert!(shll_re > she_re, "SHLL {shll_re} vs SHE-HLL {she_re}");
}

/// Fig. 9c: with scarce memory SHE-CM is far more accurate than ECM, and
/// SWAMP is unusable; the Ideal stays best.
#[test]
fn frequency_she_cm_wins_scarce_memory() {
    let keys = caida(8 * WINDOW as usize, 4);
    let bytes = 16 << 10;

    let mut she = sized::she_cm(WINDOW, bytes, 4);
    let she_are = frequency_are(&mut she, &keys, WINDOW as usize, 3, 300).value;

    let mut ecm = sized::ecm(WINDOW, bytes, 4);
    let ecm_are = frequency_are(&mut ecm, &keys, WINDOW as usize, 3, 300).value;

    let mut ideal = IdealCm::sized(WINDOW, bytes, 4);
    let ideal_are = frequency_are(&mut ideal, &keys, WINDOW as usize, 3, 300).value;

    assert!(ecm_are > 3.0 * she_are, "ECM {ecm_are} vs SHE-CM {she_are}");
    assert!(ideal_are <= she_are * 1.5 + 0.05, "Ideal {ideal_are} vs SHE-CM {she_are}");
}

/// Fig. 9e: SHE-MH beats the straw-man at equal scarce memory.
///
/// A single (stream seed, checkpoint) draw is high-variance at 512 B —
/// both estimators hold only a handful of hashes — so the comparison
/// aggregates several independently-seeded streams and checkpoints, the
/// way the paper averages across trace slices.
#[test]
fn similarity_she_mh_beats_strawman() {
    // The paper's separation is starkest at scarce memory, where the
    // straw-man's 88-bit timestamped cells leave it with very few hashes.
    let bytes = 512;
    let seeds = 8u64;
    let (mut she_sum, mut straw_sum) = (0.0, 0.0);
    for seed in 1..=seeds {
        let mut gen = RelevantPair::new(WINDOW as usize, 0.5, seed);
        let pairs: Vec<(u64, u64)> = (0..8 * WINDOW as usize).map(|_| gen.next_pair()).collect();

        let mut she = sized::she_mh(WINDOW, bytes, seed as u32);
        she_sum += similarity_re(&mut she, &pairs, WINDOW as usize, 8).value;

        let mut straw = sized::strawman_mh(WINDOW, bytes, seed as u32);
        straw_sum += similarity_re(&mut straw, &pairs, WINDOW as usize, 8).value;
    }
    let she_re = she_sum / seeds as f64;
    let straw_re = straw_sum / seeds as f64;
    assert!(she_re < 0.4, "SHE-MH RE {she_re}");
    assert!(straw_re > 1.25 * she_re, "Straw {straw_re} vs SHE-MH {she_re}");
}

/// The Ideal goal brackets SHE from below on every cardinality run — SHE
/// adds sliding error on top of the original's sketch error, never removes
/// it (sanity of the harness itself).
#[test]
fn ideal_is_a_lower_envelope() {
    let keys = caida(6 * WINDOW as usize, 6);
    let bytes = 2 << 10;
    let mut she = sized::she_bm(WINDOW, bytes, 6);
    let she_re = cardinality_re(&mut she, &keys, WINDOW as usize, 4).value;
    let mut ideal = IdealBitmap::sized(WINDOW, bytes, 6);
    let ideal_re = cardinality_re(&mut ideal, &keys, WINDOW as usize, 4).value;
    assert!(ideal_re <= she_re + 0.02, "ideal {ideal_re} vs SHE {she_re}");
}
