//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * group size `w` — the group-cleaning trade-off (§3.3): larger groups
//!   mean fewer mark checks per array bit but coarser ages;
//! * software vs hardware cleaning — the per-cell sweep of §3.2 against
//!   the lazy group marks of §3.3;
//! * α — cleaning-cycle length vs insertion cost (more mark flips);
//! * SHE-MH's last-insert memo — one served signature's insert on an
//!   all-distinct stream, where the memo never hits and every insert
//!   hashes all 128 rows, and on a ladder-like Zipf-1.05 stream.

use she_bench::harness::{black_box, Group};
use she_core::{She, SheConfig, SheMinHash, SoftClock};
use she_sketch::BloomSpec;
use she_streams::{CaidaLike, DistinctStream, KeyStream};

const WINDOW: u64 = 1 << 14;
const M_BITS: usize = 1 << 16;

fn group_size_sweep() {
    let keys = CaidaLike::default_trace(1).take_vec(20_000);
    let mut g = Group::new("ablation_group_size");
    for w in [1usize, 8, 64, 512, 4096] {
        let cfg = SheConfig::builder().window(WINDOW).alpha(0.5).group_cells(w).build();
        let mut s = She::new(BloomSpec::new(M_BITS, 8, 1), cfg);
        let mut i = 0usize;
        g.bench(&format!("w{w}"), || {
            i = (i + 1) % keys.len();
            s.insert(black_box(&keys[i]));
        });
    }
}

fn soft_vs_hw_cleaning() {
    let keys = CaidaLike::default_trace(2).take_vec(20_000);
    let cfg = SheConfig::builder().window(WINDOW).alpha(0.5).group_cells(64).build();
    let mut g = Group::new("ablation_cleaning");
    {
        let mut s = She::new(BloomSpec::new(M_BITS, 8, 1), cfg);
        let mut i = 0usize;
        g.bench("hardware_marks", || {
            i = (i + 1) % keys.len();
            s.insert(black_box(&keys[i]));
        });
    }
    {
        let mut s = SoftClock::new(BloomSpec::new(M_BITS, 8, 1), cfg);
        let mut i = 0usize;
        g.bench("software_sweep", || {
            i = (i + 1) % keys.len();
            s.insert(black_box(&keys[i]));
        });
    }
}

fn alpha_sweep() {
    let keys = CaidaLike::default_trace(3).take_vec(20_000);
    let mut g = Group::new("ablation_alpha");
    for alpha in [0.1f64, 0.5, 1.0, 3.0] {
        let cfg = SheConfig::builder().window(WINDOW).alpha(alpha).group_cells(64).build();
        let mut s = She::new(BloomSpec::new(M_BITS, 8, 1), cfg);
        let mut i = 0usize;
        g.bench(&format!("alpha{alpha}"), || {
            i = (i + 1) % keys.len();
            s.insert(black_box(&keys[i]));
        });
    }
}

/// One served SHE-MH signature (128 rows over a shard's 16 384-item
/// window) fed an all-distinct stream and a Zipf-1.05 draw over 25 000
/// keys: one shard's share of the ladder's 100 000-key trace.
fn minhash_memo() {
    let mut g = Group::new("ablation_minhash_insert");
    for (name, keys) in [
        ("distinct", DistinctStream::new(4).take_vec(1 << 20)),
        ("zipf105", CaidaLike::new(25_000, 1.05, 5).take_vec(1 << 20)),
    ] {
        let mut s = SheMinHash::builder().window(WINDOW).num_hashes(128).seed(1).build();
        let mut i = 0usize;
        g.bench(name, || {
            i = (i + 1) % keys.len();
            s.insert(black_box(&keys[i]));
        });
    }
}

fn main() {
    group_size_sweep();
    soft_vs_hw_cleaning();
    alpha_sweep();
    minhash_memo();
}
