//! Accuracy ablations for the design choices DESIGN.md §7 calls out.
//!
//! * group size `w` — SHE-BF FPR vs `w` (on-demand cleaning failures grow
//!   with the group count per Eq. 1; huge groups coarsen ages);
//! * β sweep — the legal-age band of the two-sided estimators;
//! * on-demand (hardware) vs continuous (software) cleaning on the same
//!   configuration;
//! * SHE-CM vs SHE-CS — the paper's frequency adapter against the extra
//!   count-sketch instance.

use she_bench::{caida_trace, header, window};
use she_core::{SheBitmap, SheBloomFilter, SoftClock};
use she_metrics::*;
use she_streams::{DistinctStream, KeyStream};

fn main() {
    let w = window();
    let s = she_bench::scale();
    let n = w as usize * 8;
    let bytes = (8 << 10) * s;
    let distinct = DistinctStream::new(30).take_vec(n);
    let guard = w as usize * 6;

    header("Ablation A", "SHE-BF FPR vs group size w");
    for group_w in [1usize, 8, 64, 256, 1024] {
        let mut bf = SheBloomFilter::builder()
            .window(w)
            .memory_bytes(bytes)
            .alpha(3.0)
            .group_cells(group_w)
            .seed(1)
            .build();
        let r = membership_fpr(&mut bf, &distinct, guard, 3, 4_000);
        println!("w={group_w:<5} fpr={:.6}", r.value);
    }

    header("Ablation B", "SHE-BM RE vs beta (legal-age band)");
    let keys = caida_trace(n, 31);
    for beta in [0.25, 0.5, 0.75, 0.9, 1.0] {
        let mut bm =
            SheBitmap::builder().window(w).memory_bytes(512 * s).beta(beta).seed(2).build();
        let r = cardinality_re(&mut bm, &keys, w as usize, 4);
        println!("beta={beta:<5} re={:.5}", r.value);
    }

    header("Ablation C", "on-demand (hw) vs continuous (soft) cleaning, SHE-BF");
    {
        let cfg = she_core::SheConfig::builder().window(w).alpha(3.0).group_cells(64).build();
        let mut hw = SheBloomFilter::builder()
            .window(w)
            .memory_bytes(bytes)
            .alpha(3.0)
            .group_cells(64)
            .seed(3)
            .build();
        let r_hw = membership_fpr(&mut hw, &distinct, guard, 3, 4_000);
        let mut soft = SoftClock::new(she_sketch::BloomSpec::new(bytes * 8, 8, 3), cfg);
        let r_soft = membership_fpr(&mut soft, &distinct, guard, 3, 4_000);
        println!("hardware marks: fpr={:.6}", r_hw.value);
        println!("software sweep: fpr={:.6}", r_soft.value);
    }

    header("Ablation D", "frequency: SHE-CM vs SHE-CS at equal memory");
    for mem in [(32 << 10) * s, (128 << 10) * s] {
        let mut cm = sized::she_cm(w, mem, 4);
        let r_cm = frequency_are(&mut cm, &keys, w as usize, 3, 400);
        let mut cs = sized::she_cs(w, mem, 4);
        let r_cs = frequency_are(&mut cs, &keys, w as usize, 3, 400);
        println!("mem={mem:>8}B  SHE-CM={:.4}  SHE-CS={:.4}", r_cm.value, r_cs.value);
    }
}
