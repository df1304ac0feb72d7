//! Fig. 5 (a–e): stability of SHE as the window slides with time.
//!
//! For each task, three memory budgets; each row prints the metric measured
//! every half window over several windows (the paper's x-axis "Time
//! (Window)"). Expected shape: flat series — SHE's error does not drift as
//! the window slides.

use she_bench::{caida_trace, header, kb, relevant_trace, window};
use she_metrics::*;

fn print_series(label: &str, r: &AccuracyResult) {
    let pts: Vec<String> = r.series.iter().map(|v| format!("{v:.5}")).collect();
    println!("{label:20} [{}]", pts.join(", "));
}

fn main() {
    let w = window();
    let n = w as usize * 10; // ~8 windows after warm-up, sampled half-windowly
    let checkpoints = 10;
    let s = she_bench::scale();
    let keys = caida_trace(n, 50);

    header("Fig 5a", "SHE-BM relative error over time");
    for bytes in [128 * s, 256 * s, 512 * s] {
        let mut a = sized::she_bm(w, bytes, 1);
        print_series(&kb(bytes), &cardinality_re(&mut a, &keys, w as usize, checkpoints));
    }

    header("Fig 5b", "SHE-HLL relative error over time");
    for bytes in [64 * s, 256 * s, 2048 * s] {
        let mut a = sized::she_hll(w, bytes, 2);
        print_series(&kb(bytes), &cardinality_re(&mut a, &keys, w as usize, checkpoints));
    }

    header("Fig 5c", "SHE-CM average relative error over time");
    for bytes in [64 << 10, 128 << 10, 256 << 10].map(|b| b * s) {
        let mut a = sized::she_cm(w, bytes, 3);
        print_series(&kb(bytes), &frequency_are(&mut a, &keys, w as usize, checkpoints, 400));
    }

    header("Fig 5d", "SHE-BF false positive rate over time");
    let distinct: Vec<u64> =
        she_streams::KeyStream::take_vec(&mut she_streams::DistinctStream::new(51), n);
    let guard = w as usize * 5;
    for bytes in [2 << 10, 8 << 10, 32 << 10].map(|b| b * s) {
        let mut a = sized::she_bf(w, bytes, 4);
        print_series(&kb(bytes), &membership_fpr(&mut a, &distinct, guard, checkpoints, 4_000));
    }

    header("Fig 5e", "SHE-MH relative error over time");
    let pairs = relevant_trace(n, 0.6, 52);
    for bytes in [512 * s, 1024 * s, 2048 * s] {
        let mut a = sized::she_mh(w, bytes, 5);
        print_series(&kb(bytes), &similarity_re(&mut a, &pairs, w as usize, checkpoints));
    }
}
