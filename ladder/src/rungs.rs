//! The offline rungs of the ladder: each layer's public API called in
//! isolation, in process, with zero sockets. Every `*_ns_per_key` rung
//! replays the same seeded trace slice at the per-shard sizing the
//! server uses (window/4, 16 KiB per structure, 128 MinHash rows), so
//! the ratio between two rungs is meaningful.

use crate::gen::{Inputs, BATCH, UNIVERSE};
use crate::target::{Flavor, Wire};
use crate::trace::Tracer;
use she_core::{SheBitmap, SheBloomFilter, SheCountMin, SheHyperLogLog, SheMinHash};
use she_server::protocol::{Request, Response};
use she_server::repl::Tail;
use she_server::worker::{run_worker, Answer, Job, QuerySink, ShardQueue};
use she_server::{cluster_op, fast_op, Connection, EngineConfig, Event, ReplLog, ShardEngine};
use she_streams::{CaidaLike, KeyStream};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// Keys each rung replays per pass.
const SLICE: usize = 1 << 15;
/// Passes a rung makes at least, however small its budget.
const MIN_PASSES: usize = 3;

/// Rung name → value, in the unit `spec::PER_LAYER` gives it.
pub type Rungs = BTreeMap<&'static str, f64>;

/// Runs rungs against a shared time budget, one span per pass.
struct Runner<'a> {
    per_rung: Duration,
    tracer: &'a mut Tracer,
    out: Rungs,
}

impl Runner<'_> {
    /// Median over passes of `pass()`'s duration divided by `units`.
    /// `pass` returns the nanoseconds it wants counted, so set-up inside
    /// a pass (a cache flush, a frame rebuild) can stay outside the clock.
    fn rung(&mut self, name: &'static str, units: f64, mut pass: impl FnMut() -> u64) {
        let until = Instant::now() + self.per_rung;
        let mut per_unit = Vec::new();
        while per_unit.len() < MIN_PASSES || Instant::now() < until {
            let start = self.tracer.now_ns();
            let ns = pass();
            self.tracer.record(name, start, 0);
            per_unit.push(ns as f64 / units);
        }
        self.out.insert(name, crate::stats::median(&per_unit));
    }

    /// A rung whose whole pass is on the clock.
    fn timed(&mut self, name: &'static str, units: f64, mut pass: impl FnMut()) {
        self.rung(name, units, || clocked(&mut pass));
    }
}

/// Nanoseconds `f` took.
fn clocked<T>(f: impl FnOnce() -> T) -> u64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as u64
}

fn shard_config() -> (u64, usize, u32) {
    let cfg = EngineConfig::default();
    (cfg.window / cfg.shards as u64, cfg.memory_bytes / cfg.shards, cfg.seed)
}

/// Run every offline rung within roughly `budget`.
pub fn run(inputs: &Inputs, seed: u64, budget: Duration, tracer: &mut Tracer) -> io::Result<Rungs> {
    // The timed rungs below, so that together they take about `budget`.
    const RUNGS: u32 = 31;
    let mut r = Runner { per_rung: budget / RUNGS, tracer, out: Rungs::new() };
    let keys = &inputs.trace[..SLICE];
    let reads = &inputs.reads[..SLICE];
    let n = SLICE as f64;
    let (window, bytes, hash_seed) = shard_config();

    let mut stream = CaidaLike::new(UNIVERSE, 1.05, seed);
    r.timed("she-streams.trace_gen_ns_per_key", n, || {
        black_box(stream.take_vec(SLICE));
    });

    r.timed("she-hash.mix64_ns_per_key", n, || {
        black_box(keys.iter().fold(0u64, |acc, &k| acc ^ she_hash::mix64(k)));
    });
    let bob = she_hash::Bob32::new(hash_seed);
    r.timed("she-hash.bob_ns_per_key", n, || {
        black_box(keys.iter().fold(0u32, |acc, k| acc ^ bob.hash(&k.to_le_bytes())));
    });

    let mut bf =
        SheBloomFilter::builder().window(window).memory_bytes(bytes).seed(hash_seed).build();
    r.timed("she-core.bf_insert_ns_per_key", n, || keys.iter().for_each(|k| bf.insert(k)));
    r.timed("she-core.bf_contains_ns_per_key", n, || {
        black_box(reads.iter().filter(|k| bf.contains(*k)).count());
    });
    let mut bm = SheBitmap::builder().window(window).memory_bytes(bytes).seed(hash_seed).build();
    r.timed("she-core.bm_insert_ns_per_key", n, || keys.iter().for_each(|k| bm.insert(k)));
    let mut feed = keys.chunks(BATCH).cycle();
    r.rung("she-core.bm_estimate_us", 1e3, || {
        feed.next().expect("endless").iter().for_each(|k| bm.insert(k));
        clocked(|| black_box(bm.estimate()))
    });
    let mut cm = SheCountMin::builder().window(window).memory_bytes(bytes).seed(hash_seed).build();
    r.timed("she-core.cm_insert_ns_per_key", n, || keys.iter().for_each(|k| cm.insert(k)));
    r.timed("she-core.cm_query_ns_per_key", n, || {
        black_box(reads.iter().fold(0u64, |acc, k| acc ^ cm.query(k)));
    });
    let mut hll =
        SheHyperLogLog::builder().window(window).memory_bytes(bytes).seed(hash_seed).build();
    r.timed("she-core.hll_insert_ns_per_key", n, || keys.iter().for_each(|k| hll.insert(k)));
    let mh = || SheMinHash::builder().window(window).num_hashes(128).seed(hash_seed).build();
    let (mut mh_a, mut mh_b) = (mh(), mh());
    keys.iter().rev().for_each(|k| mh_b.insert(k));
    r.timed("she-core.mh_insert_ns_per_key", n, || keys.iter().for_each(|k| mh_a.insert(k)));
    r.rung("she-core.mh_similarity_us", 1e3, || {
        feed.next().expect("endless").iter().for_each(|k| mh_a.insert(k));
        clocked(|| black_box(mh_a.similarity(&mut mh_b)))
    });

    let cfg = EngineConfig::default();
    let mut engine = ShardEngine::new(&cfg, 0);
    r.timed("she-server.engine.insert_a_ns_per_key", n, || {
        keys.iter().for_each(|&k| engine.insert(0, k));
    });
    r.timed("she-server.engine.insert_b_ns_per_key", n, || {
        keys.iter().for_each(|&k| engine.insert(1, k));
    });
    r.timed("she-server.engine.member_ns_per_key", n, || {
        black_box(reads.iter().filter(|&&k| engine.member(k)).count());
    });
    r.timed("she-server.engine.freq_ns_per_key", n, || {
        black_box(reads.iter().fold(0u64, |acc, &k| acc ^ engine.frequency(k)));
    });
    r.rung("she-server.engine.card_us", 1e3, || {
        feed.next().expect("endless").iter().for_each(|&k| engine.insert(0, k));
        clocked(|| black_box(engine.cardinality()))
    });
    r.rung("she-server.engine.sim_us", 1e3, || {
        feed.next().expect("endless").iter().for_each(|&k| engine.insert(0, k));
        clocked(|| black_box(engine.similarity()))
    });
    r.timed("she-server.engine.partition_ns_per_key", n, || {
        keys.chunks(BATCH).for_each(|run| {
            black_box(cfg.partition(run));
        });
    });
    let mut blob = engine.snapshot();
    r.timed("she-server.engine.snapshot_us", 1e3, || blob = engine.snapshot());
    r.out.insert("she-server.engine.snapshot_bytes", blob.len() as f64);
    r.timed("she-server.engine.restore_us", 1e3, || {
        engine.restore(&blob).expect("a shard restores its own snapshot");
    });

    worker_rungs(&mut r, &cfg, keys, reads);
    codec_rungs(&mut r, keys);
    repl_rungs(&mut r, keys);
    readpath_rungs(&mut r, keys, reads)?;
    Ok(r.out)
}

/// `partition` + `ShardQueue::send` + `run_worker` on one thread per
/// shard, no sockets: what a batch costs between the codec and the engine.
fn worker_rungs(r: &mut Runner<'_>, cfg: &EngineConfig, keys: &[u64], reads: &[u64]) {
    let mut queues = Vec::with_capacity(cfg.shards);
    let mut workers = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let (queue, rx, depth) = ShardQueue::new(256);
        let engine = ShardEngine::new(cfg, shard);
        queues.push(queue);
        workers.push(std::thread::spawn(move || run_worker(engine, rx, depth)));
    }
    let mut depth_max = 0u64;
    r.timed("she-server.worker.batch_hop_ns_per_key", keys.len() as f64, || {
        for run in keys.chunks(BATCH) {
            for (shard, part) in cfg.partition(run) {
                queues[shard].send(Job::Batch { stream: 0, keys: part }).expect("worker alive");
                depth_max = depth_max.max(queues[shard].depth());
            }
        }
        // STATS rides each FIFO behind the batches: the drain barrier.
        let pending: Vec<_> = queues
            .iter()
            .map(|q| {
                let (reply, rx) = sync_channel(1);
                q.send(Job::Stats { reply }).expect("worker alive");
                rx
            })
            .collect();
        for rx in pending {
            rx.recv().expect("worker answers");
        }
    });
    r.out.insert("she-server.worker.queue_depth_max", depth_max as f64);

    const ASKS: usize = 512;
    r.timed("she-server.worker.query_hop_us", ASKS as f64 * 1e3, || {
        for &key in &reads[..ASKS] {
            let (tx, rx) = sync_channel(1);
            let job = Job::Member { key, sink: QuerySink::Channel(tx) };
            queues[cfg.shard_of(key)].send(job).expect("worker alive");
            assert!(matches!(rx.recv(), Ok(Answer::Bool(_))), "member answers a bool");
        }
    });
    drop(queues);
    for worker in workers {
        worker.join().expect("worker thread panicked");
    }
}

/// The sans-IO connection and the request encoder, on pre-built frames.
fn codec_rungs(r: &mut Runner<'_>, keys: &[u64]) {
    let requests: Vec<Request> = keys
        .chunks(BATCH)
        .map(|run| Request::InsertBatch { stream: 0, keys: run.to_vec() })
        .collect();
    r.timed("she-server.protocol.encode_ns_per_key", keys.len() as f64, || {
        requests.iter().for_each(|req| {
            black_box(req.encode());
        });
    });

    let mut wire = Vec::new();
    for req in &requests {
        let payload = req.encode();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
    }
    let mut conn = Connection::new();
    r.timed("she-server.conn.decode_ns_per_key", keys.len() as f64, || {
        conn.feed(&wire, 0);
        let mut decoded = 0;
        while let Event::Request(req) = conn.poll() {
            black_box(req);
            decoded += 1;
        }
        assert_eq!(decoded, requests.len(), "every frame decodes");
    });

    let reply = Response::U64s(keys[..BATCH].to_vec());
    const REPLIES: usize = 256;
    r.timed("she-server.conn.encode_ns_per_resp", REPLIES as f64, || {
        for _ in 0..REPLIES {
            conn.push_response(&reply);
            let bytes: usize = conn.out_slices().map(<[u8]>::len).sum();
            conn.advance_out(bytes);
        }
    });
}

/// The op log alone: append under the log lock, then tail it back.
fn repl_rungs(r: &mut Runner<'_>, keys: &[u64]) {
    let runs = keys.len() / BATCH;
    let log = ReplLog::new(runs);
    r.timed("she-server.repl.ingest_ns_per_key", keys.len() as f64, || {
        keys.chunks(BATCH).for_each(|run| log.ingest(0, run, || ((), true)));
    });
    r.timed("she-server.repl.tail_ns_per_record", runs as f64, || {
        let mut next = log.floor();
        while next <= log.head() {
            match log.wait_from(next, 64, Duration::from_millis(1)) {
                Tail::Records(records) => next += records.len() as u64,
                other => panic!("a full log tails records, got {other:?}"),
            }
        }
    });
}

/// The read path in process, on the mirror of an idle scratch server.
fn readpath_rungs(r: &mut Runner<'_>, keys: &[u64], reads: &[u64]) -> io::Result<()> {
    let scratch = Wire::serve(Flavor::Fast, 1)?;
    let rp = scratch.readpath().expect("a Fast server has a read path");
    r.timed("she-readpath.apply_ns_per_key", keys.len() as f64, || {
        keys.chunks(BATCH).for_each(|run| rp.apply(0, run));
    });
    let mut distinct = reads.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let ask_all = |op: u8| {
        clocked(|| {
            for &k in &distinct {
                black_box(rp.query(op, k));
            }
        })
    };
    // After a flush the first ask of every (op, key) misses and refills;
    // asking again hits.
    r.rung("she-readpath.query_miss_ns", 2.0 * distinct.len() as f64, || {
        rp.query(fast_op::FLUSH, 0);
        ask_all(cluster_op::MEMBER) + ask_all(cluster_op::FREQ)
    });
    r.rung("she-readpath.query_hit_ns", 2.0 * distinct.len() as f64, || {
        ask_all(cluster_op::MEMBER) + ask_all(cluster_op::FREQ)
    });
    Ok(())
}
