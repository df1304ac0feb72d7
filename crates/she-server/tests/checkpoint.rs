//! End-to-end checkpoint/restore coverage: a loaded server checkpointed
//! over the wire, killed, and restarted from the checkpoint must answer
//! every query bit-for-bit identically; restarting at a different shard
//! count must succeed via snapshot merge and preserve each structure's
//! one-sided guarantee.

use she_hash::mix64;
use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response, PROTOCOL_VERSION};
use she_server::{Checkpoint, Client, DirectEngine, EngineConfig, Server, ServerConfig};
use std::net::{TcpListener, TcpStream};

const N_KEYS: u64 = 10_000;

fn test_cfg(shards: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig { window: 1 << 16, shards, memory_bytes: 64 << 10, seed: 3 },
        ..Default::default()
    }
}

fn load(client: &mut Client) {
    let keys: Vec<u64> = (0..N_KEYS).map(mix64).collect();
    client.insert_batch(0, &keys).expect("insert A");
    // Stream B overlaps half of A so similarity is informative.
    let keys_b: Vec<u64> = (N_KEYS / 2..3 * N_KEYS / 2).map(mix64).collect();
    client.insert_batch(1, &keys_b).expect("insert B");
}

/// The full query battery, as raw bits for f64 answers.
fn answers(client: &mut Client) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for i in 0..64u64 {
        let key = mix64(N_KEYS - 1 - i); // definitely in-window
        out.push((format!("member {key}"), client.query_member(key).unwrap() as u64));
        out.push((format!("freq {key}"), client.query_freq(key).unwrap()));
    }
    for i in 0..16u64 {
        let key = mix64(u64::MAX - i); // almost certainly absent
        out.push((format!("member- {key}"), client.query_member(key).unwrap() as u64));
    }
    out.push(("card".into(), client.query_card().unwrap().to_bits()));
    out.push(("sim".into(), client.query_sim().unwrap().to_bits()));
    out
}

/// One protocol version: the server answers `HELLO` with its own version
/// whatever the client announces, and the client accepts only equality —
/// another version or an `ERR` is `Unsupported`, never a downgrade.
#[test]
fn hello_is_an_equality_check() {
    let server = Server::start(test_cfg(2)).expect("start");
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    for announced in [0, PROTOCOL_VERSION, u16::MAX] {
        write_frame(&mut raw, &Request::Hello { version: announced }.encode()).expect("write");
        let reply = read_frame(&mut raw).expect("read").expect("server closed");
        assert_eq!(Response::decode(&reply), Ok(Response::Hello { version: PROTOCOL_VERSION }));
    }
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello().expect("same build on both ends");
    client.shutdown().expect("shutdown");
    server.wait();

    // A peer that answers anything but this build's version is refused.
    for reply in [Response::Hello { version: PROTOCOL_VERSION - 1 }, Response::Err("?".into())] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            read_frame(&mut sock).expect("read").expect("client closed");
            write_frame(&mut sock, &reply.encode()).expect("write");
        });
        let err = Client::connect(addr).expect("connect").hello().expect_err("mismatch");
        assert_eq!(err.kind(), std::io::ErrorKind::Unsupported, "{err}");
        peer.join().expect("peer thread");
    }
}

#[test]
fn checkpoint_restart_answers_bit_for_bit() {
    let server = Server::start(test_cfg(4)).expect("start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    load(&mut client);

    // Checkpoint BEFORE querying: queries advance the lazy cleaning
    // deterministically, so the restored server must replay the same
    // query sequence from the same state to answer identically.
    let ckpt_bytes = client.snapshot_all().expect("snapshot_all");
    let before = answers(&mut client);
    client.shutdown().expect("shutdown");
    server.wait();

    let ckpt = Checkpoint::decode(&ckpt_bytes).expect("decode checkpoint");
    assert_eq!(ckpt.cfg.shards, 4);
    let (cfg, engines) = ckpt.build_engines(4).expect("build engines");
    let server2 = Server::start_with_engines(ServerConfig { engine: cfg, ..test_cfg(4) }, engines)
        .expect("restart");
    let mut client2 = Client::connect(server2.local_addr()).expect("connect 2");
    let after = answers(&mut client2);
    assert_eq!(before, after, "restored server diverged");
    client2.shutdown().expect("shutdown 2");
    server2.wait();
}

#[test]
fn restore_over_the_wire_matches() {
    let server_a = Server::start(test_cfg(4)).expect("start a");
    let mut client_a = Client::connect(server_a.local_addr()).expect("connect a");
    load(&mut client_a);

    // Per-shard snapshots off A, pushed into a fresh same-config B.
    let server_b = Server::start(test_cfg(4)).expect("start b");
    let mut client_b = Client::connect(server_b.local_addr()).expect("connect b");
    for shard in 0..4u32 {
        let blob = client_a.snapshot(shard).expect("snapshot");
        client_b.restore(shard, &blob).expect("restore");
    }

    let a = answers(&mut client_a);
    let b = answers(&mut client_b);
    assert_eq!(a, b, "wire-restored server diverged");

    client_a.shutdown().unwrap();
    client_b.shutdown().unwrap();
    server_a.wait();
    server_b.wait();
}

#[test]
fn restore_rejects_bad_blob_and_bad_shard() {
    let server = Server::start(test_cfg(2)).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client.restore(0, b"not a frame").is_err());
    let blob = client.snapshot(0).expect("snapshot");
    assert!(client.restore(7, &blob).is_err(), "out-of-range shard accepted");
    assert!(client.snapshot(9).is_err(), "out-of-range shard accepted");
    // Shard 0's snapshot cannot restore into shard 1 (placement check).
    assert!(client.restore(1, &blob).is_err(), "cross-shard restore accepted");
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn rebalance_merge_4_to_2_preserves_guarantees() {
    let server = Server::start(test_cfg(4)).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let keys: Vec<u64> = (0..N_KEYS).map(mix64).collect();
    client.insert_batch(0, &keys).expect("insert");
    let freq_floor: Vec<(u64, u64)> = (0..32).map(|i| (keys[keys.len() - 1 - i], 1u64)).collect();
    let ckpt_bytes = client.snapshot_all().expect("snapshot_all");
    client.shutdown().unwrap();
    server.wait();

    let ckpt = Checkpoint::decode(&ckpt_bytes).expect("decode");
    let (cfg, engines) = ckpt.build_engines(2).expect("merge 4 -> 2");
    assert_eq!(cfg.shards, 2);
    let server2 = Server::start_with_engines(ServerConfig { engine: cfg, ..test_cfg(2) }, engines)
        .expect("restart at 2 shards");
    let mut client2 = Client::connect(server2.local_addr()).expect("connect");

    // BF merge is exact (cell-wise OR): recent keys must still be members.
    // The rebalanced per-shard window is unchanged, so keys inserted within
    // the last per-shard window survive.
    for &(key, _) in &freq_floor {
        assert!(client2.query_member(key).unwrap(), "merge lost member {key}");
    }
    // CM merge is cell-wise max: never underestimates a present key.
    for &(key, floor) in &freq_floor {
        assert!(client2.query_freq(key).unwrap() >= floor, "merge underestimated {key}");
    }
    // Cardinality stays positive (per-shard estimates merged, not zeroed).
    assert!(client2.query_card().unwrap() > 0.0);
    client2.shutdown().unwrap();
    server2.wait();
}

#[test]
fn rebalance_split_2_to_4_preserves_guarantees() {
    let mut direct = DirectEngine::new(EngineConfig {
        window: 1 << 16,
        shards: 2,
        memory_bytes: 64 << 10,
        seed: 3,
    });
    let keys: Vec<u64> = (0..N_KEYS).map(mix64).collect();
    for &k in &keys {
        direct.insert(0, k);
    }
    let ckpt = direct.checkpoint();

    let mut restored = DirectEngine::restore(&ckpt, Some(4)).expect("split 2 -> 4");
    assert_eq!(restored.config().shards, 4);
    for &k in &keys[keys.len() - 64..] {
        assert!(restored.member(k), "split lost member {k:#x}");
        assert!(restored.frequency(k) >= 1, "split underestimated {k:#x}");
    }
}

#[test]
fn rebalance_handles_arbitrary_counts() {
    let mut direct = DirectEngine::new(EngineConfig {
        window: 1 << 12,
        shards: 4,
        memory_bytes: 16 << 10,
        seed: 1,
    });
    let keys: Vec<u64> = (0..512u64).map(mix64).collect();
    for &k in &keys {
        direct.insert(0, k);
    }
    let ckpt = direct.checkpoint();
    assert!(DirectEngine::restore(&ckpt, Some(0)).is_err(), "0 shards must be rejected");
    assert!(DirectEngine::restore(&ckpt, Some(8)).is_ok(), "4 -> 8 must split");
    assert!(DirectEngine::restore(&ckpt, Some(1)).is_ok(), "4 -> 1 must merge");
    // Non-divisible counts rebalance too (PR 6): each new shard merges
    // every old shard its hash range overlaps, so the one-sided
    // guarantees survive in both directions.
    for new in [3usize, 5, 7] {
        let mut r = DirectEngine::restore(&ckpt, Some(new))
            .unwrap_or_else(|e| panic!("4 -> {new} rebalance failed: {e}"));
        assert_eq!(r.config().shards, new);
        for &k in &keys[keys.len() - 64..] {
            assert!(r.member(k), "4 -> {new} lost member {k:#x}");
            assert!(r.frequency(k) >= 1, "4 -> {new} underestimated {k:#x}");
        }
    }
}

#[test]
fn direct_engine_checkpoint_roundtrip_is_bit_exact() {
    let cfg = EngineConfig { window: 1 << 14, shards: 4, memory_bytes: 32 << 10, seed: 9 };
    let mut a = DirectEngine::new(cfg);
    for i in 0..5_000u64 {
        a.insert(0, mix64(i));
        if i % 3 == 0 {
            a.insert(1, mix64(i));
        }
    }
    let ckpt = a.checkpoint();
    let mut b = DirectEngine::restore(&ckpt, None).expect("restore");
    for i in 0..6_000u64 {
        let k = mix64(i);
        assert_eq!(a.member(k), b.member(k), "member {i}");
        assert_eq!(a.frequency(k), b.frequency(k), "freq {i}");
    }
    assert_eq!(a.cardinality().to_bits(), b.cardinality().to_bits());
    assert_eq!(a.similarity().to_bits(), b.similarity().to_bits());
    assert_eq!(a.stats(), b.stats());
}
