//! Subcommand implementations.

use crate::args::{ArgError, Args};
use she_core::analysis;
use she_hwsim::{ResourceReport, ShePipeline, SheVariant};
use she_metrics::*;
use she_streams::{CaidaLike, CampusLike, DistinctStream, KeyStream, RelevantPair, WebpageLike};

/// Help text.
pub const USAGE: &str = "\
she — sliding-window stream mining (SHE, ICPP'22 reproduction)

USAGE: she <command> [--flag value ...]

COMMANDS
  membership   SHE-BF false-positive rate vs exact ground truth
               --window N --memory BYTES --stream S --items N --probes N --alpha F
  cardinality  SHE-BM / SHE-HLL relative error
               --algo bm|hll --window N --memory BYTES --stream S --items N
  frequency    SHE-CM average relative error
               --window N --memory BYTES --stream S --items N --sample N
  similarity   SHE-MH pair relative error
               --window N --memory BYTES --overlap F --items N
  pipeline     audited 4-stage hardware pipeline (Tables 2-3)
               --variant bm|bf|cm|hll --items N
  analyze      closed-form parameter guidance (Eqs. 1-5)
               --window N --memory BYTES --hashes K --cardinality C
  serve        run the TCP stream-mining server (docs/PROTOCOL.md)
               --addr HOST:PORT --shards N --window N --memory BYTES --seed N
               --queue N --restore DIR (start from DIR/checkpoint.she; --shards
               may differ from the checkpoint — rebalanced by snapshot merge)
               --repl-log N (keep an op log of the last N insert batches so
               replicas can join) --heartbeat-ms N
               --readpath yes (serve QUERY_FAST inline on the reactor
               from a mark-cached read mirror; a primary needs --repl-log,
               the mirror tails the op log — docs/READPATH.md)
               --replica-of HOST:PORT (start a read-only replica instead;
               engine sizing is inherited from the primary's snapshot)
               --anti-entropy-ms N --heartbeat-timeout-ms N (replica only)
  checkpoint   write a running server's state to DIR/checkpoint.she
               (crash-safe: temp file + atomic rename; the prior file is
               rotated to checkpoint.prev.she so a corrupt latest falls
               back automatically on restore)
               --addr HOST:PORT --dir DIR --timeout-ms N
  query        one query against a running server (bit-exact output)
               --addr HOST:PORT --op member|card|freq|sim --key N --timeout-ms N
  cluster-serve  run one node of a partitioned cluster (docs/CLUSTER.md):
               partition primary + a replica slot for every partition the
               map assigns this node (RF-1 ring successors each) + gossip
               failover monitor
               --node-id N --roster \"1@H:P,2@H:P,...\" --window N --memory B
               --seed N --queue N --repl-log N --gossip-ms N
               --heartbeat-timeout-ms N --replication R (holders per
               partition, primary included; default 2) --anti-entropy-ms N
               (periodic commutative merge sweeps on every replica slot)
               --readpath yes (serve QUERY_FAST on primary + replicas)
  cluster-map  print a node's cluster map, one grep-friendly line per
               partition --addr HOST:PORT --timeout-ms N
  cluster-query  scatter-gather one query across the cluster via a
               coordinator node (bit-exact output, same formats as query)
               --addr HOST:PORT --op member|card|freq|sim --key N --timeout-ms N
  cluster-rebalance  live-migrate a running server's partition state to
               another running server, resharding in flight (bulk snapshot
               + op-log delta replay)
               --from HOST:PORT --to HOST:PORT --shards N --timeout-ms N
  cluster-status  one-line replication position of a node, plus per-shard
               queue depths, read-path cache counters, and — on cluster
               nodes — one line per partition with its holder list and
               each replica's apply-lag (docs/REPLICATION.md)
               --addr HOST:PORT --timeout-ms N
  fastcheck    verify a quiescent --readpath server: warm cached answers
               must respect the staleness bound (member-true still true,
               freq never above QUERY), then after a cache flush every
               fresh fill must match QUERY bit-for-bit and every repeat
               ask must hit (docs/READPATH.md)
               --addr HOST:PORT --keys N --universe N --skew F --seed N
               --timeout-ms N
  chaos-soak   deterministic fault-injection soak: primary + replica under a
               fault proxy, kill/restart cycles, checkpoint corruption with
               generation fallback, bit-for-bit mirror verdict
               (docs/ROBUSTNESS.md) --seed N --cycles N --keys N --dir DIR
  chaos-cluster  failover drill on a real quorum-replicated cluster:
               gossip routed through fault proxies (drops, delays,
               mid-frame resets, duplicated deliveries), partition 0's
               primary killed and then its promoted successor too;
               survivors must converge after every kill, writes continue,
               scatter-gather stays bit-for-bit (docs/CLUSTER.md,
               docs/ROBUSTNESS.md) --seed N --nodes N --keys N
               --heartbeat-timeout-ms N --replication R --kills N
               --gossip-faults yes|no
  mirror-check replay the loadgen workload into an in-process mirror and
               compare a quiescent node's answers bit-for-bit
               --addr HOST:PORT --items N --batch N --universe N --skew F
               --seed N --sim-every N --probes N (+ --shards/--window/
               --memory/--engine-seed matching the serving engine)
               --cluster yes (treat --addr as a coordinator: answers come
               from CLUSTER_QUERY scatter-gather, --shards must equal the
               partition count, and the whole --items stream must be
               applied cluster-wide)
               --from-log yes (replay the node's own op log into the
               mirror via a replication subscription instead of re-running
               the keygen — sound for workloads from many concurrent
               connections; the node must run with --repl-log and retain
               the log from sequence 1)
  loadgen      drive a running server with a Zipf workload
               --addr HOST:PORT --items N --batch N --queries N --open RATE
               --universe N --skew F --seed N --verify yes (+ --shards/
               --window/--memory/--engine-seed matching the server)
               --connections N (fan out; merged latency histograms)
               --read-from HOST:PORT (send the queries to a replica)
               --cluster yes (treat --addr as a cluster seed node: writes
               route per partition, queries scatter-gather, and the map is
               refreshed through failovers) --offset N (skip the first N
               items of the seeded stream — continue an interrupted run)
               --query-batch N (batch member/freq probes N keys per round
               trip via QUERY_BATCH / CLUSTER_QUERY_BATCH)
               --read-ratio F (interleave QUERY_FAST reads at F reads
               per read+item — 0.95 is the 95/5 read-heavy profile; needs
               a --readpath server; prints the server-side cache hit rate)
               --zipf F (Zipf exponent of the fast-read key draw, seeded
               from --seed; default 1.1)
               --faults yes --fault-seed N (route traffic through an
               in-process fault proxy — partial writes, delays, resets —
               riding each fault with reconnect + op-log-head resync, so
               --verify stays bit-for-bit; server must run --repl-log.
               With --cluster yes every partition leg gets its own proxy
               and its own per-partition head ledger, and the ledger
               follows a failover to the promoted holder's log)
  shutdown     ask a running server to drain and stop
               --addr HOST:PORT
  audit        run the workspace static-analysis gate (docs/ANALYSIS.md):
               panic-path, truncating-cast, lock-order, protocol-drift
               --root DIR (workspace root, default .) --list-locks yes

Sizes accept k/m/g suffixes: --memory 64k, --items 2m.
Streams: caida (default), distinct, campus, webpage.
--timeout-ms bounds the whole request (connect to final reply, retries
included); default 10000, 0 waits forever.
Exit codes: 0 ok, 1 failure, 2 usage error, 3 connection refused,
4 deadline exceeded.
";

fn make_stream(name: &str, seed: u64) -> Result<Box<dyn KeyStream>, ArgError> {
    Ok(match name {
        "caida" => Box::new(CaidaLike::new(200_000, 1.05, seed)),
        "distinct" => Box::new(DistinctStream::new(seed)),
        "campus" => Box::new(CampusLike::default_trace(seed)),
        "webpage" => Box::new(WebpageLike::default_trace(seed)),
        other => return Err(ArgError(format!("unknown stream '{other}'"))),
    })
}

/// Exit code for "the target server is not reachable" — distinct from
/// 1 (failed run / bad invocation) and 2 (parse error) so scripts can
/// tell "start the server first" from "fix the command".
pub const EXIT_UNREACHABLE: i32 = 3;

/// Exit code for "the request deadline elapsed" — the server is there
/// but slow, wedged, or shedding; distinct from [`EXIT_UNREACHABLE`] so
/// scripts can retry with backoff instead of starting a server.
pub const EXIT_DEADLINE: i32 = 4;

/// A dispatch failure carrying the process exit code `main` should use.
#[derive(Debug)]
pub struct CliError {
    /// User-facing message.
    pub msg: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        Self { msg: e.0, code: 1 }
    }
}

/// Map a transport error: connection-refused gets its own exit code and
/// a hint; everything else stays a generic failure.
fn net_err(addr: &str, err: std::io::Error) -> CliError {
    match err.kind() {
        std::io::ErrorKind::ConnectionRefused => CliError {
            msg: format!("cannot connect to {addr}: connection refused (is the server running?)"),
            code: EXIT_UNREACHABLE,
        },
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => CliError {
            msg: format!("request to {addr} timed out: {err} (raise --timeout-ms?)"),
            code: EXIT_DEADLINE,
        },
        _ => CliError { msg: err.to_string(), code: 1 },
    }
}

/// Parse `--timeout-ms` into the client's per-operation deadline;
/// 0 disables it.
fn op_timeout(a: &Args) -> Result<Option<std::time::Duration>, ArgError> {
    let ms = a.get_u64("timeout-ms", 10_000)?;
    Ok((ms > 0).then(|| std::time::Duration::from_millis(ms)))
}

/// Route a parsed command line.
pub fn dispatch(a: &Args) -> Result<(), CliError> {
    match a.command.as_str() {
        "membership" => Ok(membership(a)?),
        "cardinality" => Ok(cardinality(a)?),
        "frequency" => Ok(frequency(a)?),
        "similarity" => Ok(similarity(a)?),
        "pipeline" => Ok(pipeline(a)?),
        "analyze" => Ok(analyze(a)?),
        "serve" => serve(a),
        "checkpoint" => checkpoint(a),
        "query" => query(a),
        "cluster-serve" => cluster_serve(a),
        "cluster-map" => cluster_map(a),
        "cluster-query" => cluster_query(a),
        "cluster-rebalance" => cluster_rebalance(a),
        "cluster-status" => cluster_status(a),
        "fastcheck" => fastcheck(a),
        "chaos-soak" => chaos_soak(a),
        "chaos-cluster" => chaos_cluster(a),
        "mirror-check" => mirror_check(a),
        "loadgen" => loadgen(a),
        "shutdown" => shutdown(a),
        "audit" => audit(a),
        other => Err(ArgError(format!("unknown command '{other}' (see `she help`)")).into()),
    }
}

fn membership(a: &Args) -> Result<(), ArgError> {
    a.expect_only(&["window", "memory", "stream", "items", "probes", "alpha", "seed"])?;
    let window = a.get_u64("window", 1 << 14)?;
    let memory = a.get_u64("memory", 64 << 10)? as usize;
    let items = a.get_u64("items", 8 * window)? as usize;
    let probes = a.get_u64("probes", 5_000)? as usize;
    let seed = a.get_u64("seed", 1)?;
    let keys = make_stream(&a.get("stream", "distinct"), seed)?.take_vec(items);

    let mut bf = SheBfAdapter::sized(window, memory, seed as u32);
    if let Some(alpha) = a.get_f64("alpha", -1.0).ok().filter(|&v| v > 0.0) {
        bf = SheBfAdapter(
            she_core::SheBloomFilter::builder()
                .window(window)
                .memory_bytes(memory)
                .hash_functions(8)
                .alpha(alpha)
                .seed(seed as u32)
                .build(),
        );
    }
    let guard = (window as usize * 5).min(items / 2);
    let r = membership_fpr(&mut bf, &keys, guard, 4, probes);
    println!("SHE-BF  window={window} memory={memory}B items={items}");
    println!("  FPR = {:.6}  (per-checkpoint: {:?})", r.value, r.series);
    println!("  memory used: {} bits", r.memory_bits);
    Ok(())
}

fn cardinality(a: &Args) -> Result<(), ArgError> {
    a.expect_only(&["algo", "window", "memory", "stream", "items", "seed"])?;
    let window = a.get_u64("window", 1 << 14)?;
    let memory = a.get_u64("memory", 8 << 10)? as usize;
    let items = a.get_u64("items", 8 * window)? as usize;
    let seed = a.get_u64("seed", 1)?;
    let keys = make_stream(&a.get("stream", "caida"), seed)?.take_vec(items);
    let algo = a.get("algo", "bm");
    let r = match algo.as_str() {
        "bm" => {
            let mut s = SheBmAdapter::sized(window, memory, seed as u32);
            cardinality_re(&mut s, &keys, window as usize, 4)
        }
        "hll" => {
            let mut s = SheHllAdapter::sized(window, memory, seed as u32);
            cardinality_re(&mut s, &keys, window as usize, 4)
        }
        other => return Err(ArgError(format!("unknown --algo '{other}' (bm|hll)"))),
    };
    println!("{}  window={window} memory={memory}B items={items}", r.name);
    println!("  RE = {:.6}  (per-checkpoint: {:?})", r.value, r.series);
    Ok(())
}

fn frequency(a: &Args) -> Result<(), ArgError> {
    a.expect_only(&["window", "memory", "stream", "items", "sample", "seed"])?;
    let window = a.get_u64("window", 1 << 14)?;
    let memory = a.get_u64("memory", 1 << 20)? as usize;
    let items = a.get_u64("items", 8 * window)? as usize;
    let sample = a.get_u64("sample", 500)? as usize;
    let seed = a.get_u64("seed", 1)?;
    let keys = make_stream(&a.get("stream", "caida"), seed)?.take_vec(items);
    let mut s = SheCmAdapter::sized(window, memory, seed as u32);
    let r = frequency_are(&mut s, &keys, window as usize, 4, sample);
    println!("SHE-CM  window={window} memory={memory}B items={items}");
    println!("  ARE = {:.6}  (per-checkpoint: {:?})", r.value, r.series);
    Ok(())
}

fn similarity(a: &Args) -> Result<(), ArgError> {
    a.expect_only(&["window", "memory", "overlap", "items", "seed"])?;
    let window = a.get_u64("window", 1 << 14)?;
    let memory = a.get_u64("memory", 4 << 10)? as usize;
    let items = a.get_u64("items", 8 * window)? as usize;
    let overlap = a.get_f64("overlap", 0.5)?;
    let seed = a.get_u64("seed", 1)?;
    let mut gen = RelevantPair::new(window as usize, overlap, seed);
    let pairs: Vec<(u64, u64)> = (0..items).map(|_| gen.next_pair()).collect();
    let mut s = SheMhAdapter::sized(window, memory, seed as u32);
    let r = similarity_re(&mut s, &pairs, window as usize, 4);
    println!("SHE-MH  window={window} memory={memory}B items={items} overlap={overlap}");
    println!("  RE = {:.6}  (per-checkpoint: {:?})", r.value, r.series);
    Ok(())
}

fn pipeline(a: &Args) -> Result<(), ArgError> {
    a.expect_only(&["variant", "items"])?;
    let items = a.get_u64("items", 500_000)?;
    let variant = match a.get("variant", "bm").as_str() {
        "bm" => SheVariant::Bitmap,
        "bf" => SheVariant::Bloom { k: 8 },
        "cm" => SheVariant::CountMin { k: 8, counter_bits: 16 },
        "hll" => SheVariant::HyperLogLog { reg_bits: 5 },
        other => return Err(ArgError(format!("unknown --variant '{other}' (bm|bf|cm|hll)"))),
    };
    let mut p = ShePipeline::paper_config(variant);
    let stats = p.run((0..items).map(she_hash::mix64));
    let report = ResourceReport::for_pipeline(&p);
    println!(
        "{variant:?} pipeline: {} items, {} cycles, {} stages",
        stats.items, stats.cycles, stats.stages
    );
    println!("  items/cycle = {:.4}", stats.items as f64 / stats.cycles as f64);
    println!("  constraint violations: {}", stats.violations);
    for v in p.memory().violations() {
        println!("    {v}");
    }
    println!(
        "  state: {} bits | modeled clock {:.2} MHz | throughput {:.1} Mips",
        report.total_bits(),
        report.clock_mhz,
        report.throughput_mips
    );
    Ok(())
}

fn engine_config(a: &Args, seed_flag: &str) -> Result<she_server::EngineConfig, ArgError> {
    Ok(she_server::EngineConfig {
        window: a.get_u64("window", 1 << 16)?,
        shards: a.get_u64("shards", 4)? as usize,
        memory_bytes: a.get_u64("memory", 64 << 10)? as usize,
        seed: a.get_u64(seed_flag, 1)? as u32,
    })
}

/// Read and decode the newest intact checkpoint generation in `DIR` via
/// [`she_server::CheckpointStore`].
///
/// A latest file that *reads* but does not *decode* (torn write, bit rot)
/// is quarantined — moved aside to `checkpoint.she.corrupt` — and the
/// store falls back to the previous generation if one is intact; only
/// when no generation survives does the restore fail, with a clean error.
/// Corruption must never panic or be restored from silently, so a
/// fallback is reported on stderr.
fn load_checkpoint(dir: &str) -> Result<she_server::Checkpoint, Box<dyn std::error::Error>> {
    let store = she_server::CheckpointStore::new(dir);
    let (ckpt, outcome) = store.load()?;
    if let she_server::LoadOutcome::FellBack { quarantined } = outcome {
        eprintln!(
            "warning: {} was corrupt (quarantined to {}); restored the previous generation",
            store.latest_path().display(),
            quarantined.display()
        );
    }
    Ok(ckpt)
}

fn serve(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "addr",
        "shards",
        "window",
        "memory",
        "seed",
        "queue",
        "restore",
        "repl-log",
        "heartbeat-ms",
        "readpath",
        "replica-of",
        "anti-entropy-ms",
        "heartbeat-timeout-ms",
    ])?;
    if a.has("replica-of") {
        return serve_replica(a);
    }
    for flag in ["anti-entropy-ms", "heartbeat-timeout-ms"] {
        if a.has(flag) {
            return Err(ArgError(format!("--{flag} only applies with --replica-of")).into());
        }
    }
    let restore_dir = a.get("restore", "");
    let readpath = matches!(a.get("readpath", "no").as_str(), "yes" | "true" | "1");
    let mut cfg = she_server::ServerConfig {
        addr: a.get("addr", "127.0.0.1:7487"),
        engine: engine_config(a, "seed")?,
        queue_capacity: a.get_u64("queue", 256)? as usize,
        repl_log: a.get_u64("repl-log", 0)? as usize,
        heartbeat_ms: a.get_u64("heartbeat-ms", 500)?,
        readpath: readpath.then(she_server::ReadPathConfig::default),
        ..Default::default()
    };
    if readpath && cfg.repl_log == 0 {
        return Err(ArgError(
            "--readpath on a primary needs --repl-log: the read mirror stays fresh by \
             tailing the op log"
                .into(),
        )
        .into());
    }
    // With --restore, the checkpoint's config is authoritative (rebalanced
    // by build_engines when --shards differs); flag values are ignored.
    let restored = if restore_dir.is_empty() {
        None
    } else {
        let ckpt = load_checkpoint(&restore_dir)
            .map_err(|err| ArgError(format!("--restore {restore_dir}: {err}")))?;
        let shards = a.get_u64("shards", ckpt.cfg.shards as u64)? as usize;
        let (engine, engines) = ckpt
            .build_engines(shards)
            .map_err(|err| ArgError(format!("--restore {restore_dir}: {err}")))?;
        cfg.engine = engine;
        Some(engines)
    };
    let e = cfg.engine;
    let repl_log = cfg.repl_log;
    let server = match restored {
        Some(engines) => she_server::Server::start_with_engines(cfg, engines),
        None => she_server::Server::start(cfg),
    }
    .map_err(|err| ArgError(err.to_string()))?;
    println!(
        "she-server listening on {} — {} shards, window {} ({} per shard), {}B per structure",
        server.local_addr(),
        e.shards,
        e.window,
        e.window / e.shards as u64,
        e.memory_bytes,
    );
    if repl_log > 0 {
        println!(
            "replication enabled: op log holds {repl_log} records; join replicas with \
             `she serve --replica-of {}`",
            server.local_addr()
        );
    }
    if readpath {
        println!(
            "read path enabled: QUERY_FAST served inline from the mark-cached mirror \
             (verify with `she fastcheck --addr {}`)",
            server.local_addr()
        );
    }
    println!("(stop with the wire SHUTDOWN request, e.g. via `she loadgen` or she-server::Client)");
    print_shard_stats(&server.wait());
    Ok(())
}

/// `serve --replica-of`: bootstrap from the primary's snapshot, tail its
/// op log, and serve reads.
fn serve_replica(a: &Args) -> Result<(), CliError> {
    // The replica inherits the primary's engine from the bootstrap
    // snapshot and never serves an op log of its own.
    for flag in ["shards", "window", "memory", "seed", "restore", "repl-log", "heartbeat-ms"] {
        if a.has(flag) {
            return Err(ArgError(format!(
                "--{flag} cannot be combined with --replica-of (engine sizing and the op log \
                 come from the primary)"
            ))
            .into());
        }
    }
    let primary = a.get("replica-of", "");
    let readpath = matches!(a.get("readpath", "no").as_str(), "yes" | "true" | "1");
    let cfg = she_replica::ReplicaConfig {
        listen_addr: a.get("addr", "127.0.0.1:7488"),
        primary: primary.clone(),
        queue_capacity: a.get_u64("queue", 256)? as usize,
        anti_entropy_ms: a.get_u64("anti-entropy-ms", 0)?,
        heartbeat_timeout_ms: a.get_u64("heartbeat-timeout-ms", 2_500)?,
        readpath: readpath.then(she_server::ReadPathConfig::default),
        ..Default::default()
    };
    let replica = she_replica::Replica::start(cfg).map_err(|err| net_err(&primary, err))?;
    println!(
        "she-replica listening on {} — read-only, following primary {primary}",
        replica.local_addr()
    );
    if readpath {
        println!("read path enabled: QUERY_FAST tracks the applied replication position");
    }
    println!("(writes are rejected with NOT_PRIMARY; stop with the wire SHUTDOWN request)");
    print_shard_stats(&replica.wait());
    Ok(())
}

fn print_shard_stats(stats: &[she_server::ShardStats]) {
    println!("drained; final per-shard stats:");
    for (i, s) in stats.iter().enumerate() {
        println!(
            "  shard {i}: inserts={} queries={} memory={} bits",
            s.inserts, s.queries, s.memory_bits
        );
    }
}

fn checkpoint(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["addr", "dir", "timeout-ms"])?;
    let addr = a.get("addr", "127.0.0.1:7487");
    let dir = a.get("dir", "checkpoints");
    let io = |err: std::io::Error| net_err(&addr, err);
    let mut client = she_server::Client::connect(&addr).map_err(io)?;
    client.set_op_timeout(op_timeout(a)?).map_err(io)?;
    client.hello().map_err(io)?;
    let blob = client.snapshot_all().map_err(io)?;
    std::fs::create_dir_all(&dir).map_err(|err| ArgError(format!("{dir}: {err}")))?;
    let path = std::path::Path::new(&dir).join("checkpoint.she");
    // Crash-safe: a failure at any point (full disk, crash mid-write)
    // leaves the previous checkpoint intact, never a torn file.
    she_chaos::atomic_write(&path, &blob)
        .map_err(|err| ArgError(format!("{}: {err}", path.display())))?;
    println!("wrote {} ({} bytes)", path.display(), blob.len());
    Ok(())
}

/// Run the deterministic chaos soak (docs/ROBUSTNESS.md): a real primary
/// and replica in this process, faults injected on the replication path,
/// scripted disconnects and replica kills, and a bit-for-bit comparison
/// against an in-process mirror at the end. Exit 0 means every check
/// held; on failure the seed is printed for an exact replay.
fn chaos_soak(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["seed", "cycles", "keys", "dir"])?;
    let defaults = she_chaos::SoakConfig::default();
    let cfg = she_chaos::SoakConfig {
        seed: a.get_u64("seed", defaults.seed)?,
        cycles: a.get_u64("cycles", u64::from(defaults.cycles))? as u32,
        keys_per_cycle: a.get_u64("keys", defaults.keys_per_cycle as u64)? as usize,
        dir: match a.get("dir", "").as_str() {
            "" => defaults.dir,
            d => std::path::PathBuf::from(d),
        },
    };
    println!(
        "chaos soak starting: seed={} cycles={} keys-per-cycle={}",
        cfg.seed, cfg.cycles, cfg.keys_per_cycle
    );
    match she_chaos::soak::run(&cfg) {
        Ok(report) => {
            println!("{report}");
            Ok(())
        }
        Err(e) => Err(CliError {
            msg: format!("chaos soak FAILED (replay with --seed {}): {e}", cfg.seed),
            code: 1,
        }),
    }
}

/// Run the kill-primary cluster failover drill (docs/CLUSTER.md): a real
/// partitioned cluster in this process, a seeded workload routed by the
/// cluster map, one primary killed outright, and a post-failover
/// scatter-gather battery compared bit-for-bit against an in-process
/// mirror. Exit 0 means every check held; on failure the seed is printed
/// for an exact replay.
fn chaos_cluster(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "seed",
        "nodes",
        "keys",
        "window",
        "memory",
        "heartbeat-timeout-ms",
        "replication",
        "kills",
        "gossip-faults",
    ])?;
    let defaults = she_chaos::ClusterDrillConfig::default();
    let cfg = she_chaos::ClusterDrillConfig {
        seed: a.get_u64("seed", defaults.seed)?,
        nodes: a.get_u64("nodes", defaults.nodes as u64)? as usize,
        keys: a.get_u64("keys", defaults.keys as u64)? as usize,
        window: a.get_u64("window", defaults.window)?,
        memory_bytes: a.get_u64("memory", defaults.memory_bytes as u64)? as usize,
        heartbeat_timeout_ms: a.get_u64("heartbeat-timeout-ms", defaults.heartbeat_timeout_ms)?,
        replication: a.get_u64("replication", u64::from(defaults.replication))? as u16,
        kills: a.get_u64("kills", defaults.kills as u64)? as usize,
        gossip_faults: matches!(
            a.get("gossip-faults", if defaults.gossip_faults { "yes" } else { "no" }).as_str(),
            "yes" | "true" | "1"
        ),
    };
    println!(
        "cluster drill starting: seed={} nodes={} rf={} keys={} kills={} gossip-faults={} \
         heartbeat-timeout-ms={}",
        cfg.seed,
        cfg.nodes,
        cfg.replication,
        cfg.keys,
        cfg.kills,
        cfg.gossip_faults,
        cfg.heartbeat_timeout_ms
    );
    match she_chaos::drill::run(&cfg) {
        Ok(report) => {
            println!("{report}");
            Ok(())
        }
        Err(e) => Err(CliError {
            msg: format!("cluster drill FAILED (replay with --seed {}): {e}", cfg.seed),
            code: 1,
        }),
    }
}

/// The four wire queries `she query --op` can issue. Parsing the flag
/// into a type (instead of validating a string twice) keeps the dispatch
/// below exhaustive — there is no "impossible" arm left to panic in.
#[derive(Debug, Clone, Copy)]
enum QueryOp {
    Member,
    Card,
    Freq,
    Sim,
}

impl QueryOp {
    fn parse(op: &str) -> Result<Self, ArgError> {
        match op {
            "member" => Ok(QueryOp::Member),
            "card" => Ok(QueryOp::Card),
            "freq" => Ok(QueryOp::Freq),
            "sim" => Ok(QueryOp::Sim),
            other => Err(ArgError(format!("unknown --op '{other}' (member|card|freq|sim)"))),
        }
    }
}

fn query(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["addr", "op", "key", "timeout-ms"])?;
    let op = QueryOp::parse(&a.get("op", "member"))?;
    let addr = a.get("addr", "127.0.0.1:7487");
    let key = a.get_u64("key", 0)?;
    let io = |err: std::io::Error| net_err(&addr, err);
    let mut client = she_server::Client::connect(&addr).map_err(io)?;
    client.set_op_timeout(op_timeout(a)?).map_err(io)?;
    // f64 answers also print their raw bits so scripts can diff bit-exactly.
    match op {
        QueryOp::Member => println!("member {key} = {}", client.query_member(key).map_err(io)?),
        QueryOp::Freq => println!("freq {key} = {}", client.query_freq(key).map_err(io)?),
        QueryOp::Card => {
            let v = client.query_card().map_err(io)?;
            println!("card = {v:.6} (bits {:#018x})", v.to_bits());
        }
        QueryOp::Sim => {
            let v = client.query_sim().map_err(io)?;
            println!("sim = {v:.6} (bits {:#018x})", v.to_bits());
        }
    }
    Ok(())
}

/// `she audit` — run the static-analysis gate over the workspace and
/// exit nonzero on any gate failure (new finding above a ratchet
/// baseline, unbanked improvement, lock-manifest drift, protocol drift,
/// or a malformed allow annotation). See `docs/ANALYSIS.md`.
fn audit(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["root", "list-locks", "json", "rule"])?;
    let root = std::path::PathBuf::from(a.get("root", "."));
    let fail = |msg: String| CliError { msg, code: 1 };
    let cfg = she_audit::RuleConfig::for_workspace(&root).map_err(|e| fail(e.to_string()))?;
    let rule = a.get("rule", "");
    let opts = she_audit::AuditOptions { rule: (!rule.is_empty()).then_some(rule) };
    let report = she_audit::audit_with(&root, &cfg, &opts).map_err(|e| fail(e.to_string()))?;
    if a.get("json", "no") == "yes" {
        println!("{}", report.to_json());
        return if report.ok() {
            Ok(())
        } else {
            Err(fail(format!("she audit: {} gate failure(s)", report.gate_failures.len())))
        };
    }
    if a.get("list-locks", "no") == "yes" {
        println!("{} lock() site(s):", report.lock_sites.len());
        for site in &report.lock_sites {
            println!("  {site}");
        }
        return Ok(());
    }
    let g = &report.graph_stats;
    println!(
        "she audit: graph {} fns, {} edges, {} roots, {} unresolved call(s)",
        g.nodes, g.edges, g.roots, g.unresolved_calls
    );
    for t in &report.timings {
        println!("she audit: rule {:<8} {:>6}us  {} finding(s)", t.name, t.micros, t.findings);
    }
    if report.ok() {
        println!(
            "she audit: OK — {} files scanned, {} finding(s), all at committed baselines",
            report.files_scanned,
            report.findings.len()
        );
        return Ok(());
    }
    for f in report.failing_findings() {
        eprintln!("{f}");
    }
    for g in &report.gate_failures {
        eprintln!("audit gate: {g}");
    }
    Err(fail(format!("she audit: {} gate failure(s)", report.gate_failures.len())))
}

fn loadgen(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "addr",
        "items",
        "batch",
        "queries",
        "open",
        "universe",
        "skew",
        "seed",
        "sim-every",
        "verify",
        "shards",
        "window",
        "memory",
        "engine-seed",
        "read-from",
        "connections",
        "cluster",
        "offset",
        "query-batch",
        "faults",
        "fault-seed",
        "read-ratio",
        "zipf",
    ])?;
    let verify = a.get("verify", "no");
    let read_from = a.get("read-from", "");
    let addr = a.get("addr", "127.0.0.1:7487");
    let cluster = matches!(a.get("cluster", "no").as_str(), "yes" | "true" | "1");
    let faults = matches!(a.get("faults", "no").as_str(), "yes" | "true" | "1");
    let mut cfg = she_server::LoadgenConfig {
        addr: addr.clone(),
        items: a.get_u64("items", 1 << 20)?,
        batch: a.get_u64("batch", 512)? as usize,
        queries: a.get_u64("queries", 10_000)?,
        mode: match a.get_f64("open", -1.0).ok().filter(|&r| r > 0.0) {
            Some(rate) => she_server::Mode::Open { items_per_sec: rate },
            None => she_server::Mode::Closed,
        },
        universe: a.get_u64("universe", 100_000)? as usize,
        skew: a.get_f64("skew", 1.05)?,
        seed: a.get_u64("seed", 1)?,
        sim_every: a.get_u64("sim-every", 8)?,
        verify: match verify.as_str() {
            "yes" | "true" | "1" => Some(engine_config(a, "engine-seed")?),
            _ => None,
        },
        read_from: if read_from.is_empty() { None } else { Some(read_from) },
        connections: a.get_u64("connections", 1)? as usize,
        cluster: cluster.then(|| addr.clone()),
        offset: a.get_u64("offset", 0)?,
        query_batch: a.get_u64("query-batch", 0)? as usize,
        resync_addr: None,
        read_ratio: a.get_f64("read-ratio", 0.0)?,
        read_skew: a.get_f64("zipf", 1.1)?,
        cluster_via: std::collections::BTreeMap::new(),
        cluster_resync: false,
    };
    let fault_seed = a.get_u64("fault-seed", 1)?;
    // Bit flips stay off on every fault leg: inserts carry no checksum,
    // so a flipped key would corrupt the run silently instead of failing
    // it. Duplicates stay off too — a duplicated *applied* insert frame
    // would advance the op-log head twice for one committed frame and the
    // resync ledger would read that as divergence.
    let mut proxies = Vec::new();
    if faults {
        if cluster {
            // One proxy per partition primary; every data leg detours
            // through its proxy while head polls and map refreshes go
            // direct. The per-partition head ledger keeps retries
            // exactly-once, and survives failover because a promoted
            // holder continues its predecessor's op-log numbering.
            let mut map_client =
                she_server::Client::connect(&addr).map_err(|err| net_err(&addr, err))?;
            let map = map_client.cluster_map().map_err(|err| net_err(&addr, err))?;
            for (p, part) in map.partitions.iter().enumerate() {
                let mut fault_cfg = she_chaos::FaultConfig::wire(fault_seed + p as u64);
                fault_cfg.bitflip = 0.0;
                let proxy =
                    she_chaos::ChaosProxy::start(part.primary.addr.clone(), fault_cfg).map_err(
                        |e| CliError { msg: format!("fault proxy failed to start: {e}"), code: 1 },
                    )?;
                cfg.cluster_via.insert(part.primary.addr.clone(), proxy.local_addr().to_string());
                proxies.push(proxy);
            }
            cfg.cluster_resync = true;
        } else {
            // All traffic detours through a seeded in-process fault
            // proxy; the loadgen resyncs against the server's *direct*
            // address after each injected fault.
            let mut fault_cfg = she_chaos::FaultConfig::wire(fault_seed);
            fault_cfg.bitflip = 0.0;
            let proxy = she_chaos::ChaosProxy::start(addr.clone(), fault_cfg).map_err(|e| {
                CliError { msg: format!("fault proxy failed to start: {e}"), code: 1 }
            })?;
            cfg.resync_addr = Some(addr.clone());
            cfg.addr = proxy.local_addr().to_string();
            proxies.push(proxy);
        }
    }
    let summary = she_server::loadgen::run(&cfg).map_err(|err| net_err(&cfg.addr, err));
    for p in proxies {
        p.stop();
    }
    let summary = summary?;
    summary.print();
    if summary.mismatches > 0 {
        return Err(
            ArgError(format!("verification failed: {} mismatches", summary.mismatches)).into()
        );
    }
    Ok(())
}

fn shutdown(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["addr"])?;
    let addr = a.get("addr", "127.0.0.1:7487");
    let mut client = she_server::Client::connect(&addr).map_err(|err| net_err(&addr, err))?;
    client.shutdown().map_err(|err| net_err(&addr, err))?;
    println!("server at {addr} acknowledged shutdown");
    Ok(())
}

/// One-line replication position, `key=value` formatted for scripts.
fn cluster_status(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["addr", "timeout-ms"])?;
    let addr = a.get("addr", "127.0.0.1:7487");
    let io = |err: std::io::Error| net_err(&addr, err);
    let mut client = she_server::Client::connect(&addr).map_err(io)?;
    client.set_op_timeout(op_timeout(a)?).map_err(io)?;
    client.hello().map_err(io)?;
    let info = client.cluster_status().map_err(io)?;
    if info.is_primary {
        println!("role=primary head={} floor={} peers={}", info.head, info.floor, info.peers.len());
        for p in &info.peers {
            println!("  peer={} acked={}", p.addr, p.acked);
        }
    } else {
        println!(
            "role=replica primary={} connected={} applied={} boot_seq={}",
            info.primary, info.connected, info.head, info.boot_seq
        );
    }
    let depths: Vec<String> = info.queue_depths.iter().map(u64::to_string).collect();
    println!("queue_depths={}", depths.join(","));
    let rp = &info.readpath;
    if rp.enabled {
        println!(
            "readpath=enabled hits={} misses={} fills={} invalidations={} seq={}",
            rp.hits, rp.misses, rp.fills, rp.invalidations, rp.seq
        );
    } else {
        println!("readpath=disabled");
    }
    // On a cluster member, one line per partition: the full holder list
    // and each replica's apply-lag behind its primary's op-log head
    // (`id:?` until the holder subscribes, `head=?` when the primary is
    // unreachable). Standalone servers carry no map; skip silently.
    // Checked writes, not `println!`: the lag probes pause between
    // lines, so a reader that closes early (`she cluster-status | grep
    // -q ...`) turns the next line into a broken pipe — stop quietly.
    if let Ok(map) = client.cluster_map() {
        use std::io::Write as _;
        let mut out = std::io::stdout().lock();
        for (p, pm) in map.partitions.iter().enumerate() {
            let mut holders = vec![pm.primary.node_id.to_string()];
            holders.extend(pm.replicas.iter().map(|r| r.node_id.to_string()));
            let (head, lags) = partition_lag(pm, op_timeout(a)?);
            let line = writeln!(
                out,
                "partition={p} primary={}@{} holders={} head={head} lag={}",
                pm.primary.node_id,
                pm.primary.addr,
                holders.join(","),
                lags.join(",")
            );
            if line.is_err() {
                break;
            }
        }
    }
    Ok(())
}

/// Apply-lag of every replica holder of one partition, measured at its
/// primary: connect, read the hub's per-peer acked positions (peers are
/// labelled `{node_id}@{addr}`), and report `head - acked` per holder.
/// An unreachable primary yields `?` for everything rather than an
/// error: status must stay printable mid-failover.
fn partition_lag(
    pm: &she_server::PartitionMap,
    timeout: Option<std::time::Duration>,
) -> (String, Vec<String>) {
    let status = she_server::Client::connect(&pm.primary.addr).ok().and_then(|mut c| {
        c.set_op_timeout(timeout).ok()?;
        c.cluster_status().ok()
    });
    let Some(info) = status else {
        let lags = pm.replicas.iter().map(|r| format!("{}:?", r.node_id)).collect();
        return ("?".into(), lags);
    };
    let lags = pm
        .replicas
        .iter()
        .map(|r| {
            let prefix = format!("{}@", r.node_id);
            let acked = info
                .peers
                .iter()
                .filter(|peer| peer.addr.starts_with(&prefix))
                .map(|peer| peer.acked)
                .max();
            match acked {
                Some(acked) => format!("{}:{}", r.node_id, info.head.saturating_sub(acked)),
                None => format!("{}:?", r.node_id),
            }
        })
        .collect();
    (info.head.to_string(), lags)
}

/// `she fastcheck` — verify both halves of a quiescent `--readpath`
/// server's contract (docs/READPATH.md):
///
/// 1. **Bound phase** (cache as-is): entries filled mid-stream stay
///    valid until a relevant time-mark flips, so they may lag inserts —
///    but never outside the bound: a fast `member = true` must be
///    authoritatively true, and a fast frequency can never *exceed* the
///    authoritative estimate.
/// 2. **Exact phase** (after a cache flush): at quiescence the mirror's
///    applied position has reached the op-log head and the window clock
///    is frozen, so a *fresh fill* is the frozen-read answer on the same
///    insert history the workers hold — bit-for-bit. Each key is asked
///    twice back-to-back (fill path, then the signature-checked hit
///    path; authoritative queries touch the workers, never the mirror,
///    so the signature cannot move in between), so N keys must advance
///    the hit counter by at least 2N.
fn fastcheck(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["addr", "keys", "universe", "skew", "seed", "timeout-ms"])?;
    let addr = a.get("addr", "127.0.0.1:7487");
    let keys = a.get_u64("keys", 256)?.max(1);
    let universe = (a.get_u64("universe", 100_000)? as usize).max(2);
    let skew = a.get_f64("skew", 1.1)?;
    let seed = a.get_u64("seed", 1)?;
    let io = |err: std::io::Error| net_err(&addr, err);
    let mut client = she_server::Client::connect(&addr).map_err(io)?;
    client.set_op_timeout(op_timeout(a)?).map_err(io)?;
    client.hello().map_err(io)?;

    // Wait for quiescence: the op-log head must stop moving AND the read
    // path must have applied up to it (on a primary the refresher tails
    // the log; on a replica the injector is synchronous).
    let before = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let first = client.cluster_status().map_err(io)?;
            if !first.readpath.enabled {
                return Err(ArgError(format!(
                    "server at {addr} serves without --readpath; nothing to fastcheck"
                ))
                .into());
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
            let second = client.cluster_status().map_err(io)?;
            if first.head == second.head && second.readpath.seq >= second.head {
                break second;
            }
            if std::time::Instant::now() >= deadline {
                return Err(ArgError(format!(
                    "server at {addr} did not quiesce: head {} -> {}, readpath seq {}",
                    first.head, second.head, second.readpath.seq
                ))
                .into());
            }
        }
    };

    // The same seeded Zipf draw + mix64 permutation the loadgen's
    // read-heavy profile uses, so the probe set is hot keys by default —
    // keys a prior 95/5 run left warm in the cache.
    let probe_keys: Vec<u64> = {
        let zipf = she_streams::Zipf::new(universe, skew);
        let mut rng = she_hash::Xoshiro256::new(seed ^ 0xFA57_4EAD_5EED);
        (0..keys).map(|_| she_hash::mix64(zipf.sample(&mut rng) as u64)).collect()
    };

    // Phase 1 — the staleness bound on whatever the cache holds.
    let mut checked = 0u64;
    let mut violations = 0u64;
    for &key in &probe_keys {
        let fast = client.fast_member(key).map_err(io)?;
        let auth = client.query_member(key).map_err(io)?;
        checked += 1;
        if fast && !auth {
            violations += 1;
            eprintln!("bound violation: fast member({key}) = true, QUERY says false");
        }
        let fast = client.fast_freq(key).map_err(io)?;
        let auth = client.query_freq(key).map_err(io)?;
        checked += 1;
        if fast > auth {
            violations += 1;
            eprintln!("bound violation: fast freq({key}) = {fast} exceeds QUERY's {auth}");
        }
    }

    // Phase 2 — flush, then every fresh fill must be bit-for-bit and
    // every immediate repeat ask must hit.
    client.fast_flush().map_err(io)?;
    let mut mismatches = 0u64;
    for &key in &probe_keys {
        for round in 0..2 {
            let fast = client.fast_member(key).map_err(io)?;
            let auth = client.query_member(key).map_err(io)?;
            checked += 1;
            if fast != auth {
                mismatches += 1;
                eprintln!("mismatch: fast member({key}) = {fast}, QUERY says {auth} (ask {round})");
            }
        }
        for round in 0..2 {
            let fast = client.fast_freq(key).map_err(io)?;
            let auth = client.query_freq(key).map_err(io)?;
            checked += 1;
            if fast != auth {
                mismatches += 1;
                eprintln!("mismatch: fast freq({key}) = {fast}, QUERY says {auth} (ask {round})");
            }
        }
    }

    let after = client.cluster_status().map_err(io)?;
    let hits = after.readpath.hits.saturating_sub(before.readpath.hits);
    let misses = after.readpath.misses.saturating_sub(before.readpath.misses);
    println!(
        "fastcheck {addr}: {checked} fast answers checked at seq {}, {violations} bound \
         violation(s), {mismatches} post-flush mismatch(es), cache {hits} hit(s) / {misses} \
         miss(es) over the probe window",
        after.readpath.seq
    );
    if violations > 0 {
        return Err(ArgError(format!(
            "fastcheck failed: {violations} staleness-bound violations on the warm cache"
        ))
        .into());
    }
    if mismatches > 0 {
        return Err(ArgError(format!(
            "fastcheck failed: {mismatches} mismatched answers after a cache flush"
        ))
        .into());
    }
    // Post-flush, each key's repeat asks (2 per op class) must hit: the
    // signature cannot move at quiescence.
    let floor = 2 * keys;
    if hits < floor {
        return Err(ArgError(format!(
            "fastcheck failed: the mark cache served {hits} hit(s), expected at least {floor} \
             (every post-flush repeat ask should hit)"
        ))
        .into());
    }
    Ok(())
}

/// `she cluster-serve` — run one node of a partitioned cluster: the
/// partition primary, the ring-predecessor replica, and the gossip
/// failover monitor (docs/CLUSTER.md).
fn cluster_serve(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "node-id",
        "roster",
        "window",
        "memory",
        "seed",
        "queue",
        "repl-log",
        "gossip-ms",
        "heartbeat-timeout-ms",
        "replication",
        "anti-entropy-ms",
        "readpath",
    ])?;
    let roster = she_cluster::parse_roster(&a.get("roster", "")).map_err(ArgError)?;
    let n = roster.len();
    let defaults = she_cluster::NodeConfig::default();
    let cfg = she_cluster::NodeConfig {
        node_id: a.get_u64("node-id", 1)?,
        roster,
        window: a.get_u64("window", defaults.window)?,
        memory_bytes: a.get_u64("memory", defaults.memory_bytes as u64)? as usize,
        seed: a.get_u64("seed", u64::from(defaults.seed))? as u32,
        queue_capacity: a.get_u64("queue", defaults.queue_capacity as u64)? as usize,
        repl_log: a.get_u64("repl-log", defaults.repl_log as u64)? as usize,
        gossip_ms: a.get_u64("gossip-ms", defaults.gossip_ms)?,
        heartbeat_timeout_ms: a.get_u64("heartbeat-timeout-ms", defaults.heartbeat_timeout_ms)?,
        replication: a.get_u64("replication", u64::from(defaults.replication))? as u16,
        anti_entropy_ms: a.get_u64("anti-entropy-ms", defaults.anti_entropy_ms)?,
        readpath: matches!(
            a.get("readpath", if defaults.readpath { "yes" } else { "no" }).as_str(),
            "yes" | "true" | "1"
        ),
        gossip_via: defaults.gossip_via,
    };
    let node_id = cfg.node_id;
    let rf = cfg.replication;
    let node = she_cluster::ClusterNode::start(cfg).map_err(|err| ArgError(err.to_string()))?;
    println!(
        "she-cluster node {node_id} listening on {} — {n} partition(s) at RF={rf}; \
         gossip failover armed",
        node.local_addr()
    );
    println!("(stop with the wire SHUTDOWN request)");
    print_shard_stats(&node.wait());
    Ok(())
}

/// `she cluster-map` — print a node's current cluster map, one
/// grep-friendly line per partition.
fn cluster_map(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["addr", "timeout-ms"])?;
    let addr = a.get("addr", "127.0.0.1:7487");
    let io = |err: std::io::Error| net_err(&addr, err);
    let mut client = she_server::Client::connect(&addr).map_err(io)?;
    client.set_op_timeout(op_timeout(a)?).map_err(io)?;
    client.hello().map_err(io)?;
    let map = client.cluster_map().map_err(io)?;
    println!("epoch={} partitions={}", map.epoch, map.partitions.len());
    for (p, pm) in map.partitions.iter().enumerate() {
        let replicas: Vec<String> =
            pm.replicas.iter().map(|r| format!("{}@{}", r.node_id, r.addr)).collect();
        println!(
            "partition={p} primary={}@{} replicas={}",
            pm.primary.node_id,
            pm.primary.addr,
            replicas.join(",")
        );
    }
    Ok(())
}

/// `she cluster-query` — one scatter-gather query through a coordinator
/// node; output formats match `she query` so scripts can diff the two.
fn cluster_query(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["addr", "op", "key", "timeout-ms"])?;
    let op = QueryOp::parse(&a.get("op", "member"))?;
    let addr = a.get("addr", "127.0.0.1:7487");
    let key = a.get_u64("key", 0)?;
    let io = |err: std::io::Error| net_err(&addr, err);
    let mut client = she_server::Client::connect(&addr).map_err(io)?;
    client.set_op_timeout(op_timeout(a)?).map_err(io)?;
    client.hello().map_err(io)?;
    let wire_op = match op {
        QueryOp::Member => she_server::cluster_op::MEMBER,
        QueryOp::Card => she_server::cluster_op::CARD,
        QueryOp::Freq => she_server::cluster_op::FREQ,
        QueryOp::Sim => she_server::cluster_op::SIM,
    };
    let reply = client.cluster_query(wire_op, key).map_err(io)?;
    match reply {
        she_server::protocol::Response::Bool(v) => println!("member {key} = {v}"),
        she_server::protocol::Response::U64(v) => println!("freq {key} = {v}"),
        she_server::protocol::Response::F64(v) => match op {
            QueryOp::Card => println!("card = {v:.6} (bits {:#018x})", v.to_bits()),
            _ => println!("sim = {v:.6} (bits {:#018x})", v.to_bits()),
        },
        other => return Err(ArgError(format!("unexpected CLUSTER_QUERY reply {other:?}")).into()),
    }
    Ok(())
}

/// `she cluster-rebalance` — live-migrate a running server's state to
/// another running server, optionally resharding in flight.
fn cluster_rebalance(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["from", "to", "shards", "timeout-ms"])?;
    let from = a.get("from", "");
    let to = a.get("to", "");
    if from.is_empty() || to.is_empty() {
        return Err(ArgError("cluster-rebalance needs --from and --to".to_string()).into());
    }
    let shards = a.get_u64("shards", 0)? as usize;
    // migrate() needs a finite convergence bound; 0 gets a generous hour.
    let timeout = op_timeout(a)?.unwrap_or_else(|| std::time::Duration::from_secs(3_600));
    let report =
        she_cluster::migrate(&from, &to, shards, timeout).map_err(|err| net_err(&from, err))?;
    println!(
        "migrated {from} -> {to}: bulk checkpoint cut at seq {}, {} delta record(s) replayed \
         to seq {}, rebuilt at {} shard(s)",
        report.cut, report.records, report.applied, report.dst_shards
    );
    Ok(())
}

/// One mirror-check probe: plain query to the node, or scatter-gather
/// `CLUSTER_QUERY` through it when `cluster` is set.
fn probe_bool(c: &mut she_server::Client, cluster: bool, key: u64) -> std::io::Result<bool> {
    if !cluster {
        return c.query_member(key);
    }
    match c.cluster_query(she_server::cluster_op::MEMBER, key)? {
        she_server::protocol::Response::Bool(v) => Ok(v),
        other => Err(std::io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
    }
}

/// See [`probe_bool`].
fn probe_freq(c: &mut she_server::Client, cluster: bool, key: u64) -> std::io::Result<u64> {
    if !cluster {
        return c.query_freq(key);
    }
    match c.cluster_query(she_server::cluster_op::FREQ, key)? {
        she_server::protocol::Response::U64(v) => Ok(v),
        other => Err(std::io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
    }
}

/// See [`probe_bool`]; `op` is `cluster_op::CARD` or `cluster_op::SIM`.
fn probe_f64(c: &mut she_server::Client, cluster: bool, op: u8) -> std::io::Result<f64> {
    if !cluster {
        return if op == she_server::cluster_op::CARD { c.query_card() } else { c.query_sim() };
    }
    match c.cluster_query(op, 0)? {
        she_server::protocol::Response::F64(v) => Ok(v),
        other => Err(std::io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
    }
}

/// Replay a quiescent node's own op log into the mirror by subscribing
/// to its replication feed from sequence 1. Each `REPL_OP` carries one
/// admitted insert batch in admission order, so the mirror ends up with
/// exactly the server's insert history no matter how many connections
/// produced it. Returns the number of items replayed. The node must
/// retain its log from sequence 1 (no checkpoint truncation).
fn replay_feed(
    addr: &str,
    head: u64,
    mirror: &mut she_server::DirectEngine,
) -> std::io::Result<u64> {
    use she_server::codec::{read_frame_deadline, FrameIn};
    use she_server::protocol::Response;
    let feed_err = |msg: String| std::io::Error::other(msg);
    let sub = she_server::Client::connect(addr)?;
    let mut feed = sub.subscribe(1, 0)?;
    feed.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    let mut applied = 0u64;
    let mut items = 0u64;
    let mut last_progress = std::time::Instant::now();
    while applied < head {
        match read_frame_deadline(&mut feed, std::time::Duration::from_secs(30))? {
            FrameIn::Frame(payload) => {
                last_progress = std::time::Instant::now();
                match Response::decode(&payload) {
                    Ok(Response::ReplOp(data)) => {
                        let rec = she_server::Record::decode(&data)
                            .map_err(|e| feed_err(format!("feed record undecodable: {e:?}")))?;
                        if rec.seq != applied + 1 {
                            return Err(feed_err(format!(
                                "feed jumped from seq {applied} to {} — the log no longer \
                                 reaches back to sequence 1 (checkpoint truncation?)",
                                rec.seq
                            )));
                        }
                        for &k in &rec.keys {
                            mirror.insert(rec.stream, k);
                        }
                        items += rec.keys.len() as u64;
                        applied = rec.seq;
                    }
                    Ok(Response::ReplHeartbeat { .. }) => {}
                    Ok(Response::Err(msg)) => {
                        return Err(feed_err(format!("server refused the feed: {msg}")))
                    }
                    Ok(other) => {
                        return Err(feed_err(format!("unexpected frame on the feed: {other:?}")))
                    }
                    Err(e) => return Err(feed_err(format!("feed frame undecodable: {e:?}"))),
                }
            }
            FrameIn::Idle => {
                if last_progress.elapsed() > std::time::Duration::from_secs(30) {
                    return Err(feed_err(format!("feed went quiet at seq {applied} of {head}")));
                }
            }
            FrameIn::Eof => {
                return Err(feed_err(format!("feed closed at seq {applied} of {head}")))
            }
            FrameIn::Stalled => {
                return Err(feed_err(format!("feed stalled mid-frame at seq {applied}")))
            }
        }
    }
    Ok(items)
}

/// Replay the loadgen workload into an in-process [`DirectEngine`]
/// mirror and compare a quiescent node's query answers bit-for-bit.
///
/// Sound because each admitted `INSERT_BATCH` is exactly one op-log
/// record, appended in admission order — so a node whose position is
/// `S` holds precisely the first `S` workload batches, and `she
/// loadgen`'s keygen is deterministic from `--seed`. Queries advance
/// lazy cleaning but cleaning is itself deterministic in the insert
/// history, so answers are unaffected by any reads the node served
/// earlier; the battery below makes the same calls on both sides.
fn mirror_check(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "addr",
        "items",
        "batch",
        "universe",
        "skew",
        "seed",
        "sim-every",
        "probes",
        "window",
        "shards",
        "memory",
        "engine-seed",
        "cluster",
        "from-log",
    ])?;
    let addr = a.get("addr", "127.0.0.1:7488");
    let from_log = matches!(a.get("from-log", "no").as_str(), "yes" | "true" | "1");
    let items = a.get_u64("items", 1 << 20)?;
    let batch = a.get_u64("batch", 512)?.max(1);
    let universe = (a.get_u64("universe", 100_000)? as usize).max(2);
    let skew = a.get_f64("skew", 1.05)?;
    let seed = a.get_u64("seed", 1)?;
    let sim_every = a.get_u64("sim-every", 8)?;
    let probes = a.get_u64("probes", 64)?;
    let cluster = matches!(a.get("cluster", "no").as_str(), "yes" | "true" | "1");
    let engine = engine_config(a, "engine-seed")?;

    let io = |err: std::io::Error| net_err(&addr, err);
    let mut client = she_server::Client::connect(&addr).map_err(io)?;
    client.hello().map_err(io)?;
    if from_log && cluster {
        return Err(ArgError(
            "--from-log replays one node's replication feed; it does not apply in \
             cluster mode"
                .into(),
        )
        .into());
    }
    let n_batches = items.div_ceil(batch);
    let applied = if cluster {
        // Cluster mode: answers come from CLUSTER_QUERY scatter-gather,
        // so the mirror must hold the *whole* stream — the caller is
        // responsible for having applied all --items cluster-wide. The
        // merge runs in partition order, so the mirror's shard count
        // must equal the partition count.
        let map = client.cluster_map().map_err(io)?;
        if engine.shards != map.partitions.len() {
            return Err(ArgError(format!(
                "--shards {} but the cluster has {} partitions; the scatter-gather merge \
                 runs in partition order, so the mirror must shard identically",
                engine.shards,
                map.partitions.len()
            ))
            .into());
        }
        n_batches
    } else {
        // The node must be quiescent: its position (primary head /
        // replica applied) tells the mirror how many batches to replay,
        // which only holds once it has stopped moving.
        let first = client.cluster_status().map_err(io)?;
        std::thread::sleep(std::time::Duration::from_millis(250));
        let second = client.cluster_status().map_err(io)?;
        if first.head != second.head {
            return Err(ArgError(format!(
                "node at {addr} is still applying (seq {} -> {}); quiesce the stream first",
                first.head, second.head
            ))
            .into());
        }
        if !from_log && second.head > n_batches {
            return Err(ArgError(format!(
                "node is at seq {} but --items {items} --batch {batch} only yields \
                 {n_batches} batches; pass the flags the loadgen run used",
                second.head
            ))
            .into());
        }
        second.head
    };

    let mut mirror = she_server::DirectEngine::new(engine);
    let mut sent = 0u64;
    if from_log {
        // The log is the admission order itself, so this replay stays
        // sound for workloads produced by many concurrent connections —
        // where no keygen rerun could reproduce the interleaving.
        sent = replay_feed(&addr, applied, &mut mirror).map_err(io)?;
    } else {
        let mut keygen = CaidaLike::new(universe, skew, seed);
        for b in 0..applied {
            let take = batch.min(items - sent) as usize;
            let keys = keygen.take_vec(take);
            let stream = if sim_every > 0 && b % sim_every == sim_every - 1 { 1u8 } else { 0u8 };
            for &k in &keys {
                mirror.insert(stream, k);
            }
            sent += take as u64;
        }
    }

    let mut checked = 0u64;
    let mut mismatches = 0u64;
    for i in 0..probes {
        let key = she_hash::mix64(seed.wrapping_add(i)) % universe as u64;
        let got = probe_bool(&mut client, cluster, key).map_err(io)?;
        let want = mirror.member(key);
        checked += 1;
        if got != want {
            mismatches += 1;
            eprintln!("mismatch: member({key}) node={got} mirror={want}");
        }
        let got = probe_freq(&mut client, cluster, key).map_err(io)?;
        let want = mirror.frequency(key);
        checked += 1;
        if got != want {
            mismatches += 1;
            eprintln!("mismatch: freq({key}) node={got} mirror={want}");
        }
    }
    let got = probe_f64(&mut client, cluster, she_server::cluster_op::CARD).map_err(io)?.to_bits();
    let want = mirror.cardinality().to_bits();
    checked += 1;
    if got != want {
        mismatches += 1;
        eprintln!("mismatch: card node_bits={got:#018x} mirror_bits={want:#018x}");
    }
    let got = probe_f64(&mut client, cluster, she_server::cluster_op::SIM).map_err(io)?.to_bits();
    let want = mirror.similarity().to_bits();
    checked += 1;
    if got != want {
        mismatches += 1;
        eprintln!("mismatch: sim node_bits={got:#018x} mirror_bits={want:#018x}");
    }

    println!(
        "mirror-check {addr}: seq {applied} ({sent} items replayed), \
         {checked} answers checked, {mismatches} mismatches"
    );
    if mismatches > 0 {
        return Err(
            ArgError(format!("mirror-check failed: {mismatches} mismatched answers")).into()
        );
    }
    Ok(())
}

fn analyze(a: &Args) -> Result<(), ArgError> {
    a.expect_only(&["window", "memory", "hashes", "cardinality"])?;
    let window = a.get_u64("window", 1 << 16)?;
    let memory = a.get_u64("memory", 64 << 10)? as usize;
    let k = a.get_u64("hashes", 8)? as usize;
    let c = a.get_u64("cardinality", window)?;
    let m_bits = memory * 8;

    let q = analysis::bf_q(m_bits, k, c as usize);
    let alpha = analysis::optimal_alpha_bf(m_bits, k, c as usize);
    println!("inputs: window={window}, memory={memory}B ({m_bits} bits), H={k}, C={c}");
    println!("Eq.2  optimal alpha for SHE-BF: {alpha:.3}  (Q = {q:.4})");
    println!("      predicted FPR at the optimum: {:.6}", analysis::she_bf_fpr(q, alpha + 1.0, k));
    let g = analysis::max_group_count(0.01, alpha, c, k);
    println!("Eq.1  max groups for <=0.01 expected unswept groups/cycle: {g}");
    println!(
        "Eq.3  SHE-BM RE bound (alpha=0.2):  {:.5}",
        analysis::she_bm_error_bound(0.2, window, c)
    );
    println!(
        "Eq.4  SHE-HLL RE bound (alpha=0.2): {:.5}",
        analysis::she_hll_error_bound(0.2, window, c)
    );
    println!(
        "Eq.5  SHE-MH bias bound (alpha=0.2, S_union=2C): {:.5}",
        analysis::she_mh_error_bound(0.2, window, 2 * c)
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        let toks: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&toks).expect("parse")
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        assert!(dispatch(&args("frobnicate")).is_err());
    }

    #[test]
    fn dispatch_rejects_unknown_flags() {
        assert!(dispatch(&args("membership --bogus 1")).is_err());
        assert!(dispatch(&args("analyze --bogus 1")).is_err());
    }

    #[test]
    fn membership_smoke() {
        dispatch(&args("membership --window 512 --memory 8k --items 4096 --probes 200"))
            .expect("runs");
    }

    #[test]
    fn cardinality_smoke_both_algos() {
        dispatch(&args("cardinality --algo bm --window 512 --memory 1k --items 4096")).expect("bm");
        dispatch(&args("cardinality --algo hll --window 512 --memory 1k --items 4096"))
            .expect("hll");
        assert!(dispatch(&args("cardinality --algo nope")).is_err());
    }

    #[test]
    fn frequency_and_similarity_smoke() {
        dispatch(&args("frequency --window 512 --memory 64k --items 4096 --sample 50"))
            .expect("freq");
        dispatch(&args("similarity --window 512 --memory 2k --items 4096 --overlap 0.6"))
            .expect("sim");
    }

    #[test]
    fn pipeline_smoke_all_variants() {
        for v in ["bm", "bf", "cm", "hll"] {
            dispatch(&args(&format!("pipeline --variant {v} --items 5000"))).expect(v);
        }
        assert!(dispatch(&args("pipeline --variant nope")).is_err());
    }

    #[test]
    fn analyze_smoke() {
        dispatch(&args("analyze --window 4096 --memory 16k --hashes 4")).expect("analyze");
    }

    #[test]
    fn bad_stream_rejected() {
        assert!(dispatch(&args("membership --stream nope --items 4096 --window 512")).is_err());
    }

    #[test]
    fn serve_and_loadgen_reject_unknown_flags() {
        assert!(dispatch(&args("serve --bogus 1")).is_err());
        assert!(dispatch(&args("loadgen --bogus 1")).is_err());
    }

    #[test]
    fn checkpoint_and_query_validate_flags() {
        assert!(dispatch(&args("checkpoint --bogus 1")).is_err());
        assert!(dispatch(&args("query --bogus 1")).is_err());
        // Op validation happens before any connection attempt.
        assert!(dispatch(&args("query --addr 127.0.0.1:1 --op nope")).is_err());
    }

    #[test]
    fn serve_restore_requires_readable_checkpoint() {
        assert!(dispatch(&args("serve --restore /nonexistent-she-checkpoint-dir")).is_err());
    }

    #[test]
    fn corrupt_checkpoint_is_quarantined_with_a_clean_error() {
        let dir = std::env::temp_dir().join("she-cli-corrupt-ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("checkpoint.she"), b"SHEF but torn mid-frame").unwrap();
        let err = dispatch(&args(&format!("serve --restore {}", dir.display()))).unwrap_err();
        assert!(err.msg.contains("corrupt checkpoint"), "{}", err.msg);
        assert!(err.msg.contains("quarantined"), "{}", err.msg);
        assert!(dir.join("checkpoint.she.corrupt").exists(), "sidecar written");
        assert!(!dir.join("checkpoint.she").exists(), "corrupt original moved aside");
    }

    #[test]
    fn unreadable_checkpoint_is_not_quarantined() {
        // A missing file is an I/O problem, not corruption: nothing to
        // move aside, and the error says what failed.
        let err = dispatch(&args("serve --restore /nonexistent-she-checkpoint-dir")).unwrap_err();
        assert!(!err.msg.contains("quarantined"), "{}", err.msg);
    }

    #[test]
    fn loadgen_reports_unreachable_server() {
        // Reserved port 1 on localhost refuses connections immediately.
        assert!(dispatch(&args("loadgen --addr 127.0.0.1:1 --items 10 --queries 0")).is_err());
    }

    #[test]
    fn serve_replica_rejects_engine_sizing_flags() {
        // Validation fires before any connection attempt is made.
        let err = dispatch(&args("serve --replica-of 127.0.0.1:1 --shards 4")).unwrap_err();
        assert!(err.msg.contains("--shards"), "{}", err.msg);
        let err = dispatch(&args("serve --replica-of 127.0.0.1:1 --repl-log 64")).unwrap_err();
        assert!(err.msg.contains("--repl-log"), "{}", err.msg);
    }

    #[test]
    fn replica_only_flags_require_replica_of() {
        assert!(dispatch(&args("serve --anti-entropy-ms 50")).is_err());
        assert!(dispatch(&args("serve --heartbeat-timeout-ms 100")).is_err());
    }

    #[test]
    fn unreachable_server_maps_to_exit_code_3() {
        for line in [
            "query --addr 127.0.0.1:1 --op card",
            "checkpoint --addr 127.0.0.1:1 --dir /tmp/she-nope",
            "cluster-status --addr 127.0.0.1:1",
            "mirror-check --addr 127.0.0.1:1",
            "shutdown --addr 127.0.0.1:1",
        ] {
            let err = dispatch(&args(line)).unwrap_err();
            assert_eq!(err.code, EXIT_UNREACHABLE, "{line}: {}", err.msg);
            assert!(err.msg.contains("connection refused"), "{line}: {}", err.msg);
        }
    }

    #[test]
    fn bad_flags_keep_exit_code_1() {
        let err = dispatch(&args("cluster-status --bogus 1")).unwrap_err();
        assert_eq!(err.code, 1);
        let err = dispatch(&args("mirror-check --bogus 1")).unwrap_err();
        assert_eq!(err.code, 1);
        let err = dispatch(&args("loadgen --bogus 1")).unwrap_err();
        assert_eq!(err.code, 1);
    }
}
