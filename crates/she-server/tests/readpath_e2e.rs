//! End-to-end tests for the read path over real localhost TCP: at
//! quiescence `QUERY_FAST` answers must agree with the authoritative
//! `QUERY` path, the mark cache must actually hit, and a warm cache must
//! stay within its staleness bound. The 95/5 read-heavy profile's speed
//! and hit rate are the benchmark's `fast_95_5` workload (`ladder/`).

use she_server::{Client, EngineConfig, ReadPathConfig, Server, ServerConfig, ShardEngine};
use std::time::{Duration, Instant};

/// A read-path server whose shards start pre-fed `restored` stream-A
/// keys: the `serve --restore` path, which seeds the mirror from their
/// snapshots.
fn start_readpath_server(engine: EngineConfig, restored: &[u64]) -> Server {
    let mut engines: Vec<ShardEngine> =
        (0..engine.shards).map(|s| ShardEngine::new(&engine, s)).collect();
    for &k in restored {
        engines[engine.shard_of(k)].insert(0, k);
    }
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        repl_log: 16_384,
        readpath: Some(ReadPathConfig::default()),
        ..Default::default()
    };
    Server::start_with_engines(cfg, engines).expect("bind ephemeral port")
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
    let server = start_readpath_server(engine, &[]);
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

    assert_topk_rows_are_freq(&mut c, None);

    c.shutdown().expect("shutdown");
    drop(c);
    server.wait();
}

/// Every `TOPK` row carries exactly the authoritative `FREQ` of its key
/// (at quiescence the mirror and the workers agree), and, when given,
/// `heaviest` ranks first.
fn assert_topk_rows_are_freq(c: &mut Client, heaviest: Option<u64>) {
    let top = c.fast_topk(8).expect("fast topk");
    assert_eq!(top.len(), 8, "topk size");
    for &(key, est) in &top {
        assert_eq!(est, c.query_freq(key).expect("freq"), "top-k row for key {key:#x}");
    }
    if let Some(key) = heaviest {
        assert_eq!(top[0].0, key, "heaviest key must rank first: {top:?}");
    }
}

/// A server started from pre-fed engines ranks by the restored state,
/// not only by the keys inserted after the start.
#[test]
fn topk_ranks_restored_state() {
    let engine = EngineConfig { window: 1 << 14, shards: 4, memory_bytes: 64 << 10, seed: 17 };
    // Four rounds in which key 0 recurs 256 times and key i of 1..64
    // recurs 64 − i times: key 0 outweighs any other by 4×, beyond
    // SHE-CM's 2× spread.
    let round =
        std::iter::repeat_n(0, 256).chain((1..64).flat_map(|i| std::iter::repeat_n(i, 64 - i)));
    let restored: Vec<u64> =
        round.cycle().take(4 * 2272).map(|i| she_hash::mix64(i as u64)).collect();
    let server = start_readpath_server(engine, &restored);
    let mut c = Client::connect(server.local_addr()).expect("connect");

    // A short tail: each restored key once more, then 16 new light keys
    // 16 times each. Candidates come only from the op stream; their
    // estimates must still count the restored state.
    let tail: Vec<u64> = (0..64u64)
        .rev()
        .chain((0..256u64).map(|i| (1 << 40) | (i % 16)))
        .map(she_hash::mix64)
        .collect();
    c.insert_batch(0, &tail).expect("insert");
    wait_quiescent(&mut c);
    assert_topk_rows_are_freq(&mut c, Some(she_hash::mix64(0)));

    c.shutdown().expect("shutdown");
    drop(c);
    server.wait();
}

/// The other half of the staleness bound: entries cached *mid-stream*
/// keep serving their fill-time answer after more inserts arrive (no
/// relevant mark flip ⇒ still valid, but lagging). The bound must hold
/// at quiescence — fast freq never above authoritative, fast
/// member-true never wrong — and a FLUSH must restore bit-for-bit
/// equality. This is exactly the scenario a 95/5 read-heavy run (the
/// ladder's `fast_95_5`) leaves behind.
#[test]
fn warm_cache_respects_bound_and_flush_restores_exactness() {
    let engine = EngineConfig { window: 1 << 14, shards: 2, memory_bytes: 32 << 10, seed: 23 };
    let server = start_readpath_server(engine, &[]);
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
