//! Fig. 9 (a–e): accuracy vs memory for all five tasks, every competitor.
//!
//! Prints one block per sub-figure; each row is one algorithm, each column
//! one memory budget. Shapes to check against the paper: SHE-BF ~100× below
//! the timestamp filters at small memory (9d); SHE-BM good from ~1 KB while
//! SWAMP needs two orders of magnitude more (9a); SHE-CM ~10× below
//! ECM/SWAMP when memory is scarce (9c); SHE-MH ~10× below the straw-man
//! (9e).

use she_bench::{caida_trace, header, kb, relevant_trace, row, window};
use she_metrics::*;

fn main() {
    let n = window() as usize * 8;
    let w = window();
    let checkpoints = 4;
    // Memory axes: the paper's figures scaled by window ratio (×16 at
    // SHE_SCALE=16 restores the paper's byte counts).
    let s = she_bench::scale();

    header("Fig 9a", "Cardinality (Bitmap family): RE vs memory");
    let keys = caida_trace(n, 42);
    for bytes in [64 * s, 128 * s, 256 * s, 512 * s, 1024 * s, 6400 * s] {
        let mut algos: Vec<Box<dyn CardinalitySketch>> = vec![
            Box::new(sized::she_bm(w, bytes, 1)),
            Box::new(sized::swamp(w, bytes, 1)),
            Box::new(sized::tsv(w, bytes, 1)),
            Box::new(sized::cvs(w, bytes, 1)),
            Box::new(IdealBitmap::sized(w, bytes, 1)),
        ];
        let cells: Vec<(String, f64)> = algos
            .iter_mut()
            .map(|a| {
                let r = cardinality_re(a.as_mut(), &keys, w as usize, checkpoints);
                (r.name.to_string(), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 9b", "Cardinality (HLL family): RE vs memory");
    let hw = she_bench::hll_window();
    let keys_hll = caida_trace((hw as usize * 4).min(4_000_000), 43);
    for bytes in [64 * s, 256 * s, 512 * s, 1024 * s, 2048 * s] {
        let mut algos: Vec<Box<dyn CardinalitySketch>> = vec![
            Box::new(sized::she_hll(hw, bytes, 2)),
            Box::new(sized::shll(hw, bytes, 2)),
            Box::new(IdealHll::sized(hw, bytes, 2)),
        ];
        let cells: Vec<(String, f64)> = algos
            .iter_mut()
            .map(|a| {
                let r = cardinality_re(a.as_mut(), &keys_hll, hw as usize, 2);
                (r.name.to_string(), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 9c", "Frequency: ARE vs memory");
    for bytes in [8 << 10, 32 << 10, 64 << 10, 128 << 10].map(|b| b * s) {
        let mut algos: Vec<Box<dyn FrequencySketch>> = vec![
            Box::new(sized::she_cm(w, bytes, 3)),
            Box::new(sized::swamp(w, bytes, 3)),
            Box::new(sized::ecm(w, bytes, 3)),
            Box::new(IdealCm::sized(w, bytes, 3)),
        ];
        let cells: Vec<(String, f64)> = algos
            .iter_mut()
            .map(|a| {
                let r = frequency_are(a.as_mut(), &keys, w as usize, checkpoints, 500);
                (r.name.to_string(), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 9d", "Membership: FPR vs memory");
    // The worst case for SHE-BF per §7.1: the Distinct Stream.
    let distinct: Vec<u64> =
        she_streams::KeyStream::take_vec(&mut she_streams::DistinctStream::new(44), n);
    let guard = (w as usize) * 5;
    for bytes in [2 << 10, 8 << 10, 16 << 10, 32 << 10].map(|b| b * s) {
        let mut algos: Vec<Box<dyn MemberSketch>> = vec![
            Box::new(sized::she_bf(w, bytes, 4)),
            Box::new(sized::swamp(w, bytes, 4)),
            Box::new(sized::tobf(w, bytes, 4)),
            Box::new(sized::tbf(w, bytes, 4)),
            Box::new(IdealBloom::sized(w, bytes, 4)),
        ];
        let cells: Vec<(String, f64)> = algos
            .iter_mut()
            .map(|a| {
                let r = membership_fpr(a.as_mut(), &distinct, guard, checkpoints, 5_000);
                (r.name.to_string(), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 9e", "Similarity: RE vs memory");
    let pairs = relevant_trace(n, 0.5, 45);
    for bytes in [512, 1024, 2048, 4096].map(|b| b * s) {
        let mut algos: Vec<Box<dyn SimilaritySketch>> = vec![
            Box::new(sized::she_mh(w, bytes, 5)),
            Box::new(sized::strawman_mh(w, bytes, 5)),
            Box::new(IdealMh::sized(w, bytes, 5)),
        ];
        let cells: Vec<(String, f64)> = algos
            .iter_mut()
            .map(|a| {
                let r = similarity_re(a.as_mut(), &pairs, w as usize, checkpoints);
                (r.name.to_string(), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }
}
