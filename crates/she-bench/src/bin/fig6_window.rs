//! Fig. 6 (a–e): adaptation to different window sizes.
//!
//! For each task, three memory budgets, window sweep ×1 / ×4 / ×16 / ×64 of
//! the base window. Expected shape: the SHE error stays flat (SHE-HLL /
//! SHE-MH) or tracks the load factor exactly as the fixed-window original
//! would — no degradation specific to sliding.

use she_bench::{header, kb, row};
use she_metrics::*;
use she_streams::{CaidaLike, DistinctStream, KeyStream, RelevantPair};

fn main() {
    let s = she_bench::scale();
    let base = 1024 * s as u64;
    let windows: Vec<u64> = [1u64, 4, 16, 64].iter().map(|m| base * m).collect();
    let checkpoints = 3;

    header("Fig 6a", "SHE-BM: RE vs window size");
    for &bytes in &[64 * s, 128 * s, 256 * s] {
        let cells: Vec<(String, f64)> = windows
            .iter()
            .map(|&w| {
                let keys = CaidaLike::new(w as usize * 4, 1.05, 60).take_vec(w as usize * 6);
                let mut a = sized::she_bm(w, bytes, 1);
                let r = cardinality_re(&mut a, &keys, w as usize, checkpoints);
                (format!("W={w}"), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 6b", "SHE-HLL: RE vs window size");
    for &bytes in &[32 * s, 128 * s, 512 * s] {
        let cells: Vec<(String, f64)> = windows
            .iter()
            .map(|&w| {
                let keys = CaidaLike::new(w as usize * 4, 1.05, 61).take_vec(w as usize * 6);
                let mut a = sized::she_hll(w, bytes, 2);
                let r = cardinality_re(&mut a, &keys, w as usize, checkpoints);
                (format!("W={w}"), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 6c", "SHE-CM: ARE vs window size");
    for &bytes in &[(32 << 10) * s, (64 << 10) * s, (128 << 10) * s] {
        let cells: Vec<(String, f64)> = windows
            .iter()
            .map(|&w| {
                let keys = CaidaLike::new(w as usize * 4, 1.05, 62).take_vec(w as usize * 6);
                let mut a = sized::she_cm(w, bytes, 3);
                let r = frequency_are(&mut a, &keys, w as usize, checkpoints, 300);
                (format!("W={w}"), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 6d", "SHE-BF: FPR vs window size");
    for &bytes in &[(2 << 10) * s, (8 << 10) * s, (32 << 10) * s] {
        let cells: Vec<(String, f64)> = windows
            .iter()
            .map(|&w| {
                let keys = DistinctStream::new(63).take_vec(w as usize * 8);
                let mut a = sized::she_bf(w, bytes, 4);
                let r = membership_fpr(&mut a, &keys, w as usize * 5, checkpoints, 3_000);
                (format!("W={w}"), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }

    header("Fig 6e", "SHE-MH: RE vs window size");
    for &bytes in &[512 * s, 1024 * s, 2048 * s] {
        let cells: Vec<(String, f64)> = windows
            .iter()
            .map(|&w| {
                let mut gen = RelevantPair::new((w as usize).max(2_000), 0.6, 64);
                let pairs: Vec<(u64, u64)> = (0..w as usize * 6).map(|_| gen.next_pair()).collect();
                let mut a = sized::she_mh(w, bytes, 5);
                let r = similarity_re(&mut a, &pairs, w as usize, checkpoints);
                (format!("W={w}"), r.value)
            })
            .collect();
        row(&kb(bytes), &cells);
    }
}
