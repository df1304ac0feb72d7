//! End-to-end server tests over real localhost TCP on an ephemeral port:
//! the served answers must be *bit-identical* to a direct in-process
//! engine fed the same stream, and the lifecycle (backpressure, drain,
//! shutdown) must hold up under load.

use she_server::codec::read_frame;
use she_server::protocol::Response;
use she_server::{
    loadgen, Client, DirectEngine, EngineConfig, LoadgenConfig, Record, Server, ServerConfig,
};

fn start_server(engine: EngineConfig) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine,
        queue_capacity: 64,
        retry_after_ms: 1,
        ..Default::default()
    })
    .expect("bind ephemeral port")
}

/// The acceptance-style run at test scale: 100k Zipf items, interleaved
/// probes of all four classes single-key and of member/freq batched,
/// every answer checked against the mirror.
#[test]
fn server_matches_direct_engine_on_zipf_stream() {
    let engine = EngineConfig { window: 1 << 14, shards: 4, memory_bytes: 64 << 10, seed: 11 };
    let server = start_server(engine);
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        items: 100_000,
        batch: 256,
        queries: 400,
        universe: 50_000,
        skew: 1.05,
        seed: 42,
        sim_every: 8,
        verify: Some(engine),
        ..Default::default()
    };
    let summary = loadgen::run(&cfg).expect("loadgen transport");
    assert_eq!(summary.items, 100_000);
    assert_eq!(summary.queries, 400);
    // 400 probes = 66 six-probe cycles + 4 singles: 268 single answers and
    // 132 batches of 16.
    assert_eq!(summary.verified, 268 + 132 * 16, "every answer must be checked");
    assert_eq!(summary.mismatches, 0, "server diverged from direct engine");

    let stats = server.join();
    assert_eq!(stats.len(), 4);
    let total: u64 = stats.iter().map(|s| s.inserts).sum();
    assert_eq!(total, 100_000, "drain must apply every enqueued item");
}

/// Same stream, two speakers: per-key routing means a second connection's
/// disjoint traffic does not perturb single-connection determinism checks
/// done *after* both connections quiesce.
#[test]
fn stats_reflect_all_connections() {
    let engine = EngineConfig { window: 1 << 10, shards: 2, memory_bytes: 8 << 10, seed: 5 };
    let server = start_server(engine);
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.insert_batch(0, &(0..500u64).collect::<Vec<_>>()).unwrap();
    b.insert_batch(0, &(500..1000u64).collect::<Vec<_>>()).unwrap();
    // A query fans out behind both connections' enqueued inserts.
    let card = a.query_card().unwrap();
    assert!(card > 0.0);
    let stats = a.stats().unwrap();
    assert_eq!(stats.iter().map(|s| s.inserts).sum::<u64>(), 1000);
    drop(a);
    drop(b);
    server.join();
}

/// Wire-level shutdown: the server answers, drains, and the port closes.
#[test]
fn wire_shutdown_drains_and_stops() {
    let engine = EngineConfig { window: 1 << 10, shards: 2, memory_bytes: 8 << 10, seed: 6 };
    let server = start_server(engine);
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    c.insert_batch(0, &(0..2048u64).collect::<Vec<_>>()).unwrap();
    c.shutdown().unwrap();
    drop(c);

    let stats = server.join();
    assert_eq!(stats.iter().map(|s| s.inserts).sum::<u64>(), 2048);
    // The listener is gone: a fresh connection must fail (allow the OS a
    // moment to tear the socket down).
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(std::net::TcpStream::connect(addr).is_err(), "port still accepting");
}

/// Malformed frames get an ERR response, and the connection survives to
/// serve well-formed requests afterwards.
#[test]
fn malformed_frame_gets_err_not_hangup() {
    use she_server::codec::{read_frame, write_frame};
    use she_server::protocol::{Request, Response};

    let engine = EngineConfig { window: 1 << 10, shards: 1, memory_bytes: 4 << 10, seed: 7 };
    let server = start_server(engine);
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();

    write_frame(&mut sock, &[0xFFu8, 1, 2, 3]).unwrap();
    let resp = Response::decode(&read_frame(&mut sock).unwrap().unwrap()).unwrap();
    assert!(matches!(resp, Response::Err(_)), "got {resp:?}");

    write_frame(&mut sock, &Request::QueryCard.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut sock).unwrap().unwrap()).unwrap();
    assert!(matches!(resp, Response::F64(_)), "got {resp:?}");

    drop(sock);
    server.join();
}

/// 1 023 connections held open at once — the feed subscription below is
/// the 1 024th, the default cap — each insert through one reactor,
/// interleaved by four threads. No keygen rerun could reproduce
/// that interleaving, but the node's op log *is* the admission order: a
/// twin rebuilt by subscribing from sequence 1 and replaying every
/// `REPL_OP` must answer the battery bit for bit.
///
/// Each connection completes a round trip before the next one dials, so
/// the accept queue never holds more than one: 1 024 threads dialling at
/// once overflow the listen backlog on a busy box and the kernel answers
/// the first write with a reset — a property of the herd, not of the
/// reactor.
#[test]
fn twin_rebuilt_from_the_op_log_matches_after_1023_concurrent_connections() {
    let engine = EngineConfig { window: 1 << 16, shards: 4, memory_bytes: 64 << 10, seed: 1 };
    let server = Server::start(ServerConfig { engine, repl_log: 8192, ..Default::default() })
        .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let mut conns: Vec<Client> = (0..1_023)
        .map(|_| {
            let mut c = Client::connect(&addr).expect("under the connection cap");
            c.hello().expect("registered with the reactor");
            c
        })
        .collect();
    std::thread::scope(|scope| {
        for (t, quarter) in conns.chunks_mut(256).enumerate() {
            scope.spawn(move || {
                for (i, c) in quarter.iter_mut().enumerate() {
                    let n = (t * 256 + i) as u64;
                    let keys: Vec<u64> =
                        (0..64).map(|j| she_hash::mix64(n * 64 + j) % 5_000).collect();
                    c.insert_batch(u8::from(n % 8 == 7), &keys).unwrap();
                    c.query_batch(she_server::cluster_op::MEMBER, &keys[..8]).unwrap();
                }
            });
        }
    });

    let client = &mut conns[0];
    let head = client.cluster_status().unwrap().head;
    assert_eq!(head, 1_023, "one op-log record per admitted batch");

    let mut feed = Client::connect(&addr).unwrap().subscribe(1, 0).unwrap();
    let mut twin = DirectEngine::new(engine);
    let mut applied = 0;
    while applied < head {
        let payload = read_frame(&mut feed).unwrap().expect("feed closed before the head");
        match Response::decode(&payload).unwrap() {
            Response::ReplOp(data) => {
                let rec = Record::decode(&data).unwrap();
                assert_eq!(rec.seq, applied + 1, "the feed skipped or repeated a record");
                for &k in &rec.keys {
                    twin.insert(rec.stream, k);
                }
                applied = rec.seq;
            }
            Response::ReplHeartbeat { .. } => {}
            other => panic!("unexpected frame on the feed: {other:?}"),
        }
    }
    drop(feed);

    for i in 0..64u64 {
        let k = she_hash::mix64(i) % 5_000;
        assert_eq!(client.query_member(k).unwrap(), twin.member(k), "member({k})");
        assert_eq!(client.query_freq(k).unwrap(), twin.frequency(k), "freq({k})");
    }
    assert_eq!(client.query_card().unwrap().to_bits(), twin.cardinality().to_bits());
    assert_eq!(client.query_sim().unwrap().to_bits(), twin.similarity().to_bits());

    drop(conns);
    server.join();
}
