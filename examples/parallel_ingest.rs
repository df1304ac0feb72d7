//! Parallel ingestion: multi-core sliding-window sketching.
//!
//! ```sh
//! cargo run --release --example parallel_ingest
//! ```
//!
//! The FPGA sustains one item per clock; on a CPU the equivalent scaling
//! lever is key-space sharding (see `she::core::sharded`). This example
//! ingests the same trace twice — serially through one `DirectEngine`,
//! and in the shape the server uses: the engine decomposed into
//! worker-owned shards (`into_shards`), the trace cut into per-shard runs
//! (`partition`), one scoped thread per shard, no lock anywhere. It
//! compares wall-clock throughput, checks the two end states are
//! byte-identical, and verifies the summed shard estimates against an
//! exact oracle.

use she::core::sharded::{Checkpoint, DirectEngine, EngineConfig};
use she::streams::{CaidaLike, KeyStream};
use she::window::WindowTruth;
use std::time::Instant;

fn main() {
    let window = 1u64 << 16;
    let cfg = EngineConfig { window, shards: 8, memory_bytes: 64 << 10, seed: 1 };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let n = 2_000_000;
    let keys = CaidaLike::new(400_000, 1.05, 3).take_vec(n);

    // Serial ingestion: route and insert on one thread.
    let mut serial = DirectEngine::new(cfg);
    let t0 = Instant::now();
    serial.apply(0, &keys);
    let serial_mips = n as f64 / t0.elapsed().as_secs_f64() / 1e6;

    // Parallel ingestion: each shard is owned by exactly one thread and
    // fed its run in arrival order (windows are order-sensitive).
    let (cfg, mut engines) = DirectEngine::new(cfg).into_shards();
    let t0 = Instant::now();
    let mut runs = cfg.partition(&keys).into_iter().peekable();
    std::thread::scope(|scope| {
        for (shard, engine) in engines.iter_mut().enumerate() {
            if let Some((_, run)) = runs.next_if(|(s, _)| *s == shard) {
                scope.spawn(move || {
                    for k in run {
                        engine.insert(0, k);
                    }
                });
            }
        }
    });
    let par_mips = n as f64 / t0.elapsed().as_secs_f64() / 1e6;

    // Per-shard order is all a shard's state depends on, so the two runs
    // end in the same bytes.
    let parallel = Checkpoint { cfg, shards: engines.iter().map(|e| e.snapshot()).collect() };
    assert!(parallel.encode() == serial.checkpoint(), "parallel state differs from serial");

    // Exact window cardinality for reference. Shards partition the key
    // space, so the global estimate is the *sum* of the shard estimates.
    let mut truth = WindowTruth::new(window as usize);
    for &k in &keys {
        truth.insert(k);
    }
    let exact = truth.cardinality() as f64;
    let est_sharded: f64 = engines.iter_mut().map(|e| e.cardinality()).sum();

    println!("threads available: {threads}, shards: {}", cfg.shards);
    println!("serial  ingest: {serial_mips:>7.2} Mips");
    println!("sharded ingest: {par_mips:>7.2} Mips");
    println!("window cardinality: estimate {est_sharded:.0}, exact {exact:.0}");
    println!("error: {:.2}%", 100.0 * (est_sharded - exact).abs() / exact);

    // Frequency side: a key's count lives in the one shard it routes to.
    let mut shown = 0;
    println!("\nheavy-key frequencies (sharded CM vs exact):");
    for (key, count) in truth.iter_counts() {
        if count > 500 {
            let est = engines[cfg.shard_of(key)].frequency(key);
            println!("  key {key:#018x}: est {est} true {count}");
            shown += 1;
            if shown == 5 {
                break;
            }
        }
    }

    assert!((est_sharded - exact).abs() / exact < 0.25, "sharded estimate off");
}
