//! Fig. 10: insertion throughput on three datasets.
//!
//! (a) SHE-HLL vs SHLL vs the fixed-window HLL ("Ideal");
//! (b) SHE-BM vs CVS vs the fixed-window Bitmap ("Ideal").
//!
//! Expected shape: SHE within a small constant of the original algorithm
//! and clearly above the queue/decay baselines, on every dataset.

use she_bench::{header, window};
use she_core::{SheBitmap, SheHyperLogLog};
use she_metrics::{sized, throughput_mips};
use she_sketch::{Bitmap, HyperLogLog};
use she_streams::{CaidaLike, CampusLike, KeyStream, WebpageLike};

fn datasets(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("CAIDA", CaidaLike::default_trace(90).take_vec(n)),
        ("Campus", CampusLike::default_trace(91).take_vec(n)),
        ("Webpage", WebpageLike::default_trace(92).take_vec(n)),
    ]
}

fn main() {
    let w = window();
    let s = she_bench::scale();
    let n = 2_000_000 * s.min(4);
    let warmup = n / 4;
    let mem = (8 << 10) * s;

    header("Fig 10a", "Throughput (Mips): Ideal HLL vs SHE-HLL vs SHLL");
    for (name, keys) in datasets(n) {
        let mut ideal = HyperLogLog::with_memory(mem, 1);
        let t_ideal = throughput_mips(|k| ideal.insert(&k), &keys, warmup);
        let mut she = SheHyperLogLog::builder().window(w).memory_bytes(mem).build();
        let t_she = throughput_mips(|k| she.insert(&k), &keys, warmup);
        let mut shll = sized::shll(w, mem, 1);
        let t_shll = throughput_mips(|k| shll.insert(k), &keys, warmup);
        println!("{name:8} Ideal={t_ideal:.1}  SHE-HLL={t_she:.1}  SHLL={t_shll:.1}");
    }

    header("Fig 10b", "Throughput (Mips): Ideal Bitmap vs SHE-BM vs CVS");
    for (name, keys) in datasets(n) {
        let mut ideal = Bitmap::with_memory(mem, 2);
        let t_ideal = throughput_mips(|k| ideal.insert(&k), &keys, warmup);
        let mut she = SheBitmap::builder().window(w).memory_bytes(mem).build();
        let t_she = throughput_mips(|k| she.insert(&k), &keys, warmup);
        let mut cvs = sized::cvs(w, mem, 2);
        let t_cvs = throughput_mips(|k| cvs.insert(k), &keys, warmup);
        println!("{name:8} Ideal={t_ideal:.1}  SHE-BM={t_she:.1}  CVS={t_cvs:.1}");
    }
}
