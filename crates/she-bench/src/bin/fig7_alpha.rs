//! Fig. 7: performance vs α.
//!
//! (a) SHE-BF FPR vs memory for α ∈ {1, 2, Eq.2-optimal, 4} — the optimal α
//!     should trace the lower envelope;
//! (b) SHE-BM RE vs memory for α ∈ {0.1, 0.2, 0.4} — 0.2–0.4 is the stable
//!     empirical band (§7.2).

use she_bench::{header, kb, row, window};
use she_core::{analysis, SheBitmap, SheBloomFilter};
use she_metrics::*;
use she_streams::{DistinctStream, KeyStream};

fn main() {
    let w = window();
    let s = she_bench::scale();
    let n = w as usize * 8;
    let checkpoints = 3;

    header("Fig 7a", "SHE-BF: FPR vs memory, per α");
    let keys = DistinctStream::new(70).take_vec(n);
    let guard = w as usize * 6;
    for bytes in [2 << 10, 4 << 10, 8 << 10, 16 << 10].map(|b| b * s) {
        let opt = analysis::optimal_alpha_bf(bytes * 8, 8, w as usize);
        let mut cells = Vec::new();
        for (label, alpha) in [
            ("a=1".to_string(), 1.0),
            ("a=2".to_string(), 2.0),
            (format!("a*={opt:.2}"), opt),
            ("a=4".to_string(), 4.0),
        ] {
            let mut bf = SheBloomFilter::builder()
                .window(w)
                .memory_bytes(bytes)
                .hash_functions(8)
                .alpha(alpha)
                .seed(1)
                .build();
            let r = membership_fpr(&mut bf, &keys, guard, checkpoints, 5_000);
            cells.push((label, r.value));
        }
        row(&kb(bytes), &cells);
    }

    header("Fig 7b", "SHE-BM: RE vs memory, per α");
    let keys = she_bench::caida_trace(n, 71);
    for bytes in [64, 128, 256, 512].map(|b| b * s) {
        let mut cells = Vec::new();
        for alpha in [0.1, 0.2, 0.4] {
            let mut bm =
                SheBitmap::builder().window(w).memory_bytes(bytes).alpha(alpha).seed(2).build();
            let r = cardinality_re(&mut bm, &keys, w as usize, checkpoints);
            cells.push((format!("a={alpha}"), r.value));
        }
        row(&kb(bytes), &cells);
    }
}
