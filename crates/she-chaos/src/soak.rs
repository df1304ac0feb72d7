//! The chaos soak: a primary + replica under the fault proxy, scripted
//! disconnect and kill/restart cycles, and a bit-for-bit verdict against
//! an in-process mirror engine.
//!
//! The scenario (all deterministic from [`SoakConfig::seed`], modulo
//! thread scheduling — which the protocol must absorb, that being the
//! point):
//!
//! 1. Start a primary with an op log, a [`ChaosProxy`] in front of it,
//!    and a replica whose *only* route to the primary is the proxy. A
//!    [`DirectEngine`] mirror receives the same keys in process.
//! 2. For each cycle: insert a seeded batch of keys on the primary
//!    (directly — the mirror comparison needs an unfaulted data path;
//!    the *replication* path is the one under fire), then disrupt: even
//!    cycles sever every proxy link mid-flight, odd cycles kill the
//!    replica outright and start a fresh one (which must re-bootstrap
//!    through the faulty proxy). Wait for the replica to converge.
//! 3. Run one query battery (membership, frequency, cardinality,
//!    similarity) on the mirror, the primary, and the replica — all
//!    three must agree bit-for-bit.
//! 4. Stall a raw client mid-frame and require the primary to evict it
//!    within the connection deadline.
//! 5. Write a checkpoint, then attack it with injected `ENOSPC` and torn
//!    writes: the atomic path must leave the previous checkpoint intact,
//!    and a torn file (legacy bare-write path) must fail checkpoint
//!    decode with a clean error — never a panic.

use crate::fault::{FaultConfig, Faults};
use crate::fs::{atomic_write, ChaosFs};
use crate::proxy::ChaosProxy;
use she_hash::{mix64, RandomSource, Xoshiro256};
use she_metrics::{FaultCountersSnapshot, ServeCountersSnapshot};
use she_replica::{Replica, ReplicaConfig};
use she_server::{
    Checkpoint, CheckpointStore, Client, DirectEngine, EngineConfig, LoadOutcome, Server,
    ServerConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything the soak needs.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed: workload, probe set, and every injected fault.
    pub seed: u64,
    /// Disruption cycles (≥ 3 for the acceptance bar).
    pub cycles: u32,
    /// Keys inserted per cycle.
    pub keys_per_cycle: usize,
    /// Scratch directory for the checkpoint fault checks.
    pub dir: PathBuf,
}

/// What the soak observed; all the acceptance booleans must be true (a
/// failed check returns `Err` instead, so a report implies success — the
/// fields are what the calling test asserts on).
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Cycles survived.
    pub cycles: u32,
    /// Total keys inserted (primary and mirror alike).
    pub inserted: u64,
    /// Faults the proxy injected into the replication path.
    pub wire_faults: FaultCountersSnapshot,
    /// Self-protection events on the primary.
    pub primary_serve: ServeCountersSnapshot,
    /// The stalled client was evicted within the deadline.
    pub stalled_client_evicted: bool,
    /// A torn checkpoint was detected at decode with a clean error.
    pub torn_checkpoint_detected: bool,
    /// Corrupting the latest checkpoint generation triggered automatic
    /// fallback to the previous generation, bit-for-bit.
    pub checkpoint_fallback_bit_for_bit: bool,
}

/// Per-connection deadline on the soak primary, kept short so the
/// eviction check is fast.
const DEADLINE_MS: u64 = 750;

/// Outer bound on any single convergence wait.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(60);

fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Run the soak; `Err` carries the first failed check (the caller prints
/// the seed for replay).
pub fn run(cfg: &SoakConfig) -> Result<SoakReport, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(ctx("create scratch dir"))?;
    let engine = EngineConfig { window: 4096, shards: 2, memory_bytes: 32 << 10, seed: 1 };

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        queue_capacity: 64,
        retry_after_ms: 1,
        repl_log: 1 << 16,
        heartbeat_ms: 100,
        client_deadline_ms: DEADLINE_MS,
        max_connections: 32,
        ..Default::default()
    })
    .map_err(ctx("start primary"))?;
    let primary_addr = server.local_addr().to_string();
    let counters = server.counters();

    let proxy = ChaosProxy::start(primary_addr.clone(), FaultConfig::wire(cfg.seed))
        .map_err(ctx("start proxy"))?;

    let replica_cfg = ReplicaConfig {
        listen_addr: "127.0.0.1:0".to_string(),
        primary: proxy.local_addr().to_string(),
        queue_capacity: 64,
        retry_after_ms: 1,
        anti_entropy_ms: 0,
        heartbeat_timeout_ms: 700,
        reconnect_base_ms: 10,
        reconnect_cap_ms: 100,
        max_bootstrap_attempts: 200,
        op_timeout_ms: 5_000,
        ..Default::default()
    };
    let mut replica = Replica::start(replica_cfg.clone()).map_err(ctx("start replica"))?;

    let mut mirror = DirectEngine::new(engine);
    let mut client = Client::connect(&primary_addr).map_err(ctx("connect to primary"))?;
    client.set_op_timeout(Some(Duration::from_secs(10))).map_err(ctx("arm client deadline"))?;

    // ---- cycles: insert, disrupt, converge --------------------------------
    let mut rng = Xoshiro256::new(mix64(cfg.seed ^ 0x50AC_50AC));
    let mut inserted = 0u64;
    for cycle in 0..cfg.cycles {
        let mut pairs = Vec::with_capacity(cfg.keys_per_cycle);
        for _ in 0..cfg.keys_per_cycle {
            let stream = u8::from(rng.next_bool(0.25));
            let key = rng.next_range(0, 5_000);
            pairs.push((stream, key));
        }
        for &(stream, key) in &pairs {
            mirror.insert(stream, key);
        }
        // Send maximal same-stream runs as batches: per-shard order (the
        // thing that must match the mirror) is preserved.
        let mut i = 0;
        while i < pairs.len() {
            let stream = pairs[i].0;
            let j = pairs[i..].iter().position(|p| p.0 != stream).map_or(pairs.len(), |o| i + o);
            let keys: Vec<u64> = pairs[i..j].iter().map(|p| p.1).collect();
            inserted +=
                client.insert_batch(stream, &keys).map_err(ctx("insert batch on primary"))?;
            i = j;
        }

        if cycle % 2 == 0 {
            proxy.sever();
        } else {
            // Kill the replica and make a fresh one re-join mid-stream
            // through the faulty proxy.
            replica.join();
            replica =
                Replica::start(replica_cfg.clone()).map_err(ctx("restart replica after kill"))?;
        }

        let head = client.cluster_status().map_err(ctx("primary cluster status"))?.head;
        converge(&replica, head)?;
    }

    // ---- bit-for-bit battery: mirror vs primary vs replica ----------------
    let probes: Vec<u64> = (0..64).map(|_| rng.next_range(0, 6_000)).collect();
    let want = battery_mirror(&mut mirror, &probes);
    let got_primary = battery_client(&mut client, &probes).map_err(ctx("battery on primary"))?;
    if want != got_primary {
        return Err(format!(
            "primary diverged from mirror: {} of {} battery answers differ",
            want.iter().zip(&got_primary).filter(|(a, b)| a != b).count(),
            want.len()
        ));
    }
    let mut rclient = Client::connect(replica.local_addr()).map_err(ctx("connect to replica"))?;
    rclient.set_op_timeout(Some(Duration::from_secs(10))).map_err(ctx("arm replica deadline"))?;
    let got_replica = battery_client(&mut rclient, &probes).map_err(ctx("battery on replica"))?;
    if want != got_replica {
        return Err(format!(
            "replica diverged from mirror: {} of {} battery answers differ",
            want.iter().zip(&got_replica).filter(|(a, b)| a != b).count(),
            want.len()
        ));
    }

    // ---- stalled client must be evicted within the deadline ---------------
    let evicted_before = counters.snapshot().evicted_conns;
    let mut stall = TcpStream::connect(&primary_addr).map_err(ctx("connect stall client"))?;
    // A 20-byte frame announced, 3 bytes delivered, then silence.
    stall.write_all(&20u32.to_le_bytes()).map_err(ctx("stall header"))?;
    stall.write_all(&[0x01, 0x00, 0x2A]).map_err(ctx("stall partial body"))?;
    let evict_by = Instant::now() + Duration::from_millis(DEADLINE_MS * 4 + 2_000);
    let stalled_client_evicted = loop {
        if counters.snapshot().evicted_conns > evicted_before {
            break true;
        }
        if Instant::now() >= evict_by {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if !stalled_client_evicted {
        return Err(format!(
            "stalled client was not evicted within {}ms (deadline {}ms)",
            DEADLINE_MS * 4 + 2_000,
            DEADLINE_MS
        ));
    }
    drop(stall);

    // ---- checkpoint fault checks ------------------------------------------
    let blob = client.snapshot_all().map_err(ctx("fetch checkpoint"))?;
    let path = cfg.dir.join("soak-checkpoint.shef");
    atomic_write(&path, &blob).map_err(ctx("write checkpoint"))?;

    for (name, shim_cfg) in [
        ("enospc", FaultConfig { enospc: 1.0, ..FaultConfig::quiet(cfg.seed ^ 1) }),
        ("torn", FaultConfig { torn_write: 1.0, ..FaultConfig::quiet(cfg.seed ^ 2) }),
    ] {
        let shim = ChaosFs::new(Faults::new(shim_cfg));
        if shim.atomic_write(&path, &blob).is_ok() {
            return Err(format!("injected {name} fault did not surface as an error"));
        }
        let still = std::fs::read(&path).map_err(ctx("re-read checkpoint"))?;
        if still != blob {
            return Err(format!("checkpoint damaged by a failed atomic write ({name} fault)"));
        }
        Checkpoint::decode(&still)
            .map_err(|e| format!("surviving checkpoint no longer decodes: {e}"))?;
    }

    // The legacy bare-write path, by contrast, tears the file — and the
    // tear must be *detected* at decode, cleanly.
    let torn_path = cfg.dir.join("soak-torn.shef");
    let shim = ChaosFs::new(Faults::new(FaultConfig {
        torn_write: 1.0,
        ..FaultConfig::quiet(cfg.seed ^ 3)
    }));
    if shim.bare_write(&torn_path, &blob).is_ok() {
        return Err("injected torn write on the bare path did not surface".to_string());
    }
    let torn = std::fs::read(&torn_path).map_err(ctx("read torn checkpoint"))?;
    let torn_checkpoint_detected = Checkpoint::decode(&torn).is_err();
    if !torn_checkpoint_detected {
        return Err(format!(
            "torn checkpoint ({} of {} bytes) decoded as valid — corruption undetected",
            torn.len(),
            blob.len()
        ));
    }

    // ---- corruption drill: corrupt latest, fall back bit-for-bit ---------
    // Two real generations: the battery-verified checkpoint, then a
    // strictly newer one after more traffic. Mangling the newer one must
    // make the store quarantine it and serve the older generation
    // unchanged — the "one flipped bit, zero data loss" contract.
    let store = CheckpointStore::new(cfg.dir.join("store"));
    let _ = std::fs::remove_dir_all(store.dir());
    store.save(&blob).map_err(ctx("save checkpoint generation 1"))?;
    let extra: Vec<u64> = (0..256).map(|_| rng.next_range(0, 6_000)).collect();
    client.insert_batch(0, &extra).map_err(ctx("insert post-checkpoint batch"))?;
    let blob2 = client.snapshot_all().map_err(ctx("fetch checkpoint generation 2"))?;
    if blob2 == blob {
        return Err("generation 2 checkpoint identical to generation 1 — drill is vacuous".into());
    }
    store.save(&blob2).map_err(ctx("save checkpoint generation 2"))?;
    let mut mangled = std::fs::read(store.latest_path()).map_err(ctx("read latest generation"))?;
    let mid = mangled.len() / 2;
    mangled[mid] ^= 0xFF;
    std::fs::write(store.latest_path(), &mangled).map_err(ctx("corrupt latest generation"))?;
    let (recovered, outcome) =
        store.load().map_err(|e| format!("fallback load after corruption failed: {e}"))?;
    match outcome {
        LoadOutcome::FellBack { quarantined } => {
            if !quarantined.exists() {
                return Err("corrupt generation was not kept in quarantine".to_string());
            }
        }
        LoadOutcome::Latest => {
            return Err("corrupt latest generation decoded as valid — fallback never ran".into());
        }
    }
    if recovered.encode() != blob {
        return Err(
            "fallback recovery is not bit-for-bit identical to the previous generation".into()
        );
    }
    let checkpoint_fallback_bit_for_bit = true;

    // ---- teardown ---------------------------------------------------------
    let primary_serve = counters.snapshot();
    let wire_faults = proxy.counters().snapshot();
    replica.join();
    proxy.stop();
    server.join();

    Ok(SoakReport {
        cycles: cfg.cycles,
        inserted,
        wire_faults,
        primary_serve,
        stalled_client_evicted,
        torn_checkpoint_detected,
        checkpoint_fallback_bit_for_bit,
    })
}

/// Wait until the replica has applied everything up to `head`.
fn converge(replica: &Replica, head: u64) -> Result<(), String> {
    let by = Instant::now() + CONVERGE_TIMEOUT;
    loop {
        let applied = replica.status().applied.load(std::sync::atomic::Ordering::SeqCst);
        if applied >= head {
            return Ok(());
        }
        if Instant::now() >= by {
            return Err(format!(
                "replica failed to converge: applied {applied} of {head} after {}s",
                CONVERGE_TIMEOUT.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The query battery, encoded to exact bits so `==` is bit-for-bit:
/// per probe membership and frequency, then cardinality and similarity.
fn battery_mirror(engine: &mut DirectEngine, probes: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(probes.len() * 2 + 2);
    for &k in probes {
        out.push(u64::from(engine.member(k)));
        out.push(engine.frequency(k));
    }
    out.push(engine.cardinality().to_bits());
    out.push(engine.similarity().to_bits());
    out
}

/// The same battery over the wire.
fn battery_client(client: &mut Client, probes: &[u64]) -> std::io::Result<Vec<u64>> {
    let mut out = Vec::with_capacity(probes.len() * 2 + 2);
    for &k in probes {
        out.push(u64::from(client.query_member(k)?));
        out.push(client.query_freq(k)?);
    }
    out.push(client.query_card()?.to_bits());
    out.push(client.query_sim()?.to_bits());
    Ok(out)
}
