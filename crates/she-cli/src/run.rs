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
  loadgen      drive a running server with a Zipf workload
               --addr HOST:PORT --items N --batch N --queries N --open RATE
               --universe N --skew F --seed N --verify yes (+ --shards/
               --window/--memory/--engine-seed matching the server)
               --connections N (fan out; merged latency histograms)
               --read-from HOST:PORT (send the queries to a replica)
               --cluster yes (treat --addr as a cluster seed node: writes
               route per partition, queries scatter-gather, and the map is
               refreshed through failovers)
               --query-batch N (batch member/freq probes N keys per round
               trip via QUERY_BATCH / CLUSTER_QUERY_BATCH)
               --read-ratio F (interleave QUERY_FAST reads at F reads
               per read+item — 0.95 is the 95/5 read-heavy profile; needs
               a --readpath server; prints the server-side cache hit rate)
               --zipf F (Zipf exponent of the fast-read key draw, seeded
               from --seed; default 1.1)
               --faults yes --fault-seed N (route a single server's traffic
               through an in-process fault proxy — partial writes, delays,
               resets — riding each fault with reconnect + op-log-head
               resync, so --verify stays bit-for-bit; server must run
               --repl-log)
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
             (counters via `she cluster-status --addr {}`)",
            server.local_addr()
        );
    }
    println!("(stop with `she shutdown --addr {}`)", server.local_addr());
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
    println!(
        "(writes are rejected with NOT_PRIMARY; stop with `she shutdown --addr {}`)",
        replica.local_addr()
    );
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
        query_batch: a.get_u64("query-batch", 0)? as usize,
        resync_addr: None,
        read_ratio: a.get_f64("read-ratio", 0.0)?,
        read_skew: a.get_f64("zipf", 1.1)?,
    };
    // All traffic detours through a seeded in-process fault proxy; the
    // loadgen resyncs against the server's *direct* address after each
    // injected fault. Bit flips stay off: inserts carry no checksum, so
    // a flipped key would corrupt the run silently instead of failing it.
    let proxy = if faults {
        let fault_cfg = she_chaos::FaultConfig {
            bitflip: 0.0,
            ..she_chaos::FaultConfig::wire(a.get_u64("fault-seed", 1)?)
        };
        let proxy = she_chaos::ChaosProxy::start(addr.clone(), fault_cfg)
            .map_err(|e| CliError { msg: format!("fault proxy failed to start: {e}"), code: 1 })?;
        cfg.resync_addr = Some(addr.clone());
        cfg.addr = proxy.local_addr().to_string();
        Some(proxy)
    } else {
        None
    };
    let summary = she_server::loadgen::run(&cfg).map_err(|err| net_err(&cfg.addr, err));
    if let Some(p) = proxy {
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
    println!("(stop with `she shutdown --addr {}`)", node.local_addr());
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

    /// `USAGE` is the one list of subcommands (`main.rs` and the docs
    /// point at it): every command it names must be routed and every
    /// routed command named, so a deletion cannot leave either behind.
    #[test]
    fn usage_names_exactly_the_commands_dispatch_routes() {
        let listed: Vec<&str> = USAGE
            .lines()
            .skip_while(|l| *l != "COMMANDS")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let source = include_str!("run.rs");
        let body = source.split("pub fn dispatch(").nth(1).expect("dispatch is in this file");
        let body = body.split("other =>").next().expect("dispatch ends in a catch-all arm");
        let routed: Vec<&str> =
            body.lines().filter_map(|l| l.trim().strip_prefix('"')?.split('"').next()).collect();
        assert_eq!(listed, routed, "USAGE and dispatch list the commands in one order");
        assert_eq!(listed.len(), 17);
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
        let err = dispatch(&args("loadgen --bogus 1")).unwrap_err();
        assert_eq!(err.code, 1);
    }
}
