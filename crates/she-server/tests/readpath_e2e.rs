//! End-to-end tests for the read path over real localhost TCP: at
//! quiescence `QUERY_FAST` answers must agree with the authoritative
//! `QUERY` path, the mark cache must actually hit, and the loadgen's
//! read-heavy profile must surface a server-side hit rate.

use she_server::{
    loadgen, Client, EngineConfig, LoadgenConfig, Mode, ReadPathConfig, Server, ServerConfig,
};
use std::time::{Duration, Instant};

fn start_readpath_server(engine: EngineConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        repl_log: 16_384,
        readpath: Some(ReadPathConfig::default()),
        ..Default::default()
    })
    .expect("bind ephemeral port")
}

/// Block until the mirror's applied sequence catches the op-log head and
/// both stop moving (no in-flight inserts, refresher drained).
fn wait_quiescent(c: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let a = c.cluster_status().expect("status");
        assert!(a.readpath.enabled, "server must report the read path as enabled");
        std::thread::sleep(Duration::from_millis(50));
        let b = c.cluster_status().expect("status");
        if a.head == b.head && b.readpath.seq >= b.head {
            return;
        }
        assert!(Instant::now() < deadline, "read mirror never caught the log head");
    }
}

/// The core staleness-bound contract at its strongest point: once the
/// stream quiesces, fast answers are bit-for-bit the authoritative
/// answers, and the second ask of every key is a signature-checked hit.
#[test]
fn query_fast_matches_authoritative_at_quiescence() {
    let engine = EngineConfig { window: 1 << 14, shards: 4, memory_bytes: 64 << 10, seed: 11 };
    let server = start_readpath_server(engine);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.hello().expect("hello");

    // A skewed stream: hot keys present, cold keys absent.
    let keys: Vec<u64> = (0..20_000u64).map(|i| she_hash::mix64(i % 3_000)).collect();
    for chunk in keys.chunks(512) {
        c.insert_batch(0, chunk).expect("insert");
    }
    wait_quiescent(&mut c);

    let before = c.cluster_status().expect("status").readpath;
    let mut probed = 0u64;
    for i in 0..256u64 {
        // Half the probes are inserted keys, half drawn outside the universe.
        let key = if i % 2 == 0 { she_hash::mix64(i) } else { she_hash::mix64(1 << 40 | i) };
        for _ in 0..2 {
            assert_eq!(
                c.fast_member(key).expect("fast member"),
                c.query_member(key).expect("member"),
                "member disagreement on key {key:#x}"
            );
            assert_eq!(
                c.fast_freq(key).expect("fast freq"),
                c.query_freq(key).expect("freq"),
                "freq disagreement on key {key:#x}"
            );
        }
        probed += 1;
    }
    let after = c.cluster_status().expect("status").readpath;
    let hits = after.hits - before.hits;
    // Each key is asked twice per op class: the second ask must be a hit
    // (authoritative queries touch the workers, never the mirror, so the
    // mark signature cannot move between the two asks).
    assert!(hits >= 2 * probed, "expected ≥{} cache hits, saw {hits}", 2 * probed);

    // Top-k comes back as (key, estimate) pairs with sane estimates.
    let top = c.fast_topk(8).expect("fast topk");
    assert!(!top.is_empty() && top.len() <= 8, "topk size {}", top.len());
    for &(key, est) in &top {
        assert!(est >= 1, "top-k key {key:#x} with zero estimate");
    }

    c.shutdown().expect("shutdown");
    drop(c);
    server.wait();
}

/// The other half of the staleness bound: entries cached *mid-stream*
/// keep serving their fill-time answer after more inserts arrive (no
/// relevant mark flip ⇒ still valid, but lagging). The bound must hold
/// at quiescence — fast freq never above authoritative, fast
/// member-true never wrong — and a FLUSH must restore bit-for-bit
/// equality. This is exactly the scenario a 95/5 loadgen run leaves
/// behind.
#[test]
fn warm_cache_respects_bound_and_flush_restores_exactness() {
    let engine = EngineConfig { window: 1 << 14, shards: 2, memory_bytes: 32 << 10, seed: 23 };
    let server = start_readpath_server(engine);
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let hot: Vec<u64> = (0..64u64).map(she_hash::mix64).collect();
    c.insert_batch(0, &hot).expect("insert");
    wait_quiescent(&mut c);

    // Warm the cache at count 1 per key...
    for &key in &hot {
        let _ = c.fast_member(key).expect("fast member");
        assert_eq!(c.fast_freq(key).expect("fast freq"), 1);
    }
    // ...then insert each hot key 8 more times behind the cache's back.
    for _ in 0..8 {
        c.insert_batch(0, &hot).expect("insert");
    }
    wait_quiescent(&mut c);

    let mut lagging = 0u64;
    for &key in &hot {
        let fast = c.fast_freq(key).expect("fast freq");
        let auth = c.query_freq(key).expect("freq");
        assert!(fast <= auth, "bound violated: fast {fast} > authoritative {auth}");
        assert!(
            !c.fast_member(key).expect("fast member") || c.query_member(key).expect("member"),
            "bound violated: fast member true, authoritative false for {key:#x}"
        );
        if fast < auth {
            lagging += 1;
        }
    }
    // The point of the scenario: most warm entries survived the inserts
    // (no mark flip) and still answer their fill-time count.
    assert!(lagging > 0, "expected warm entries to lag the new inserts");

    c.fast_flush().expect("flush");
    for &key in &hot {
        assert_eq!(
            c.fast_freq(key).expect("fast freq"),
            c.query_freq(key).expect("freq"),
            "post-flush fill must be exact for {key:#x}"
        );
    }

    c.shutdown().expect("shutdown");
    drop(c);
    server.wait();
}

/// Without `readpath` in the config the op must fail cleanly (an ERR
/// frame, not a hangup), and the connection stays usable.
#[test]
fn query_fast_errs_when_readpath_is_off() {
    let engine = EngineConfig { window: 1 << 10, shards: 2, memory_bytes: 8 << 10, seed: 3 };
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        ..Default::default()
    })
    .expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.insert_batch(0, &[1, 2, 3]).expect("insert");
    assert!(c.fast_member(1).is_err(), "QUERY_FAST must fail without --readpath");
    // The connection survives the refusal.
    let _ = c.query_card().expect("authoritative path still up");
    let status = c.cluster_status().expect("status");
    assert!(!status.readpath.enabled);
    drop(c);
    server.join();
}

/// The read-heavy loadgen profile end to end: interleaved QUERY_FAST
/// traffic flows, and the summary carries a real server-side hit rate.
#[test]
fn loadgen_read_heavy_profile_reports_hit_rate() {
    let engine = EngineConfig { window: 1 << 12, shards: 2, memory_bytes: 16 << 10, seed: 7 };
    let server = start_readpath_server(engine);
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        items: 4_000,
        batch: 128,
        queries: 0,
        mode: Mode::Closed,
        universe: 2_000,
        skew: 1.05,
        seed: 9,
        read_ratio: 0.75,
        read_skew: 1.2,
        ..Default::default()
    };
    let summary = loadgen::run(&cfg).expect("loadgen");
    assert_eq!(summary.insert.items, 4_000);
    // 0.75 reads per (reads+items) → 3 reads per item.
    assert_eq!(summary.fast.ops, 12_000);
    assert_eq!(summary.fast.latency.count(), summary.fast.ops);
    let rate = summary.fast_hit_rate.expect("hit rate must be measured");
    assert!(
        (0.0..=1.0).contains(&rate) && rate > 0.0,
        "zipfian re-reads must hit the mark cache: rate {rate}"
    );

    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.shutdown().expect("shutdown");
    drop(c);
    server.wait();
}

/// `--verify` and the fast-read profile are mutually exclusive by
/// contract: mid-stream fast answers are bounded, not bit-for-bit.
#[test]
fn loadgen_refuses_verify_with_read_ratio() {
    let engine = EngineConfig { window: 1 << 10, shards: 2, memory_bytes: 8 << 10, seed: 5 };
    let server = start_readpath_server(engine);
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        items: 100,
        read_ratio: 0.5,
        verify: Some(engine),
        ..Default::default()
    };
    let err = loadgen::run(&cfg).expect_err("verify + read_ratio must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.shutdown().expect("shutdown");
    server.wait();
}
