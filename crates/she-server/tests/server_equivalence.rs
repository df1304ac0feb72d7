//! End-to-end server tests over real localhost TCP on an ephemeral port:
//! the served answers must be *bit-identical* to a direct in-process
//! engine fed the same stream, and the lifecycle (backpressure, drain,
//! shutdown) must hold up under load.

use she_server::codec::read_frame;
use she_server::protocol::Response;
use she_server::{
    loadgen, Client, DirectEngine, EngineConfig, LoadgenConfig, Record, Server, ServerConfig,
};

/// How long a raw-socket test waits for a reply before it fails.
const REPLY_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

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

/// Every frame in one write, so the reactor sees them all buffered at
/// once: runs of single reads, an insert between them, a batch, an
/// undecodable frame and an aggregate. Each reply must equal the twin
/// asked in request order, and the `ERR` must sit at the bad frame.
#[test]
fn pipelined_mixed_frames_answer_in_order_and_match_the_twin() {
    use she_server::cluster_op;
    use she_server::protocol::Request;
    use std::io::Write;

    let engine = EngineConfig { window: 1 << 12, shards: 4, memory_bytes: 32 << 10, seed: 9 };
    let server = start_server(engine);
    let mut twin = DirectEngine::new(engine);
    let warm: Vec<u64> = (0..3_000u64).map(|i| she_hash::mix64(i) % 700).collect();
    Client::connect(server.local_addr()).unwrap().insert_batch(0, &warm).unwrap();
    twin.apply(0, &warm);

    // Keys 700.. are fresh until the pipelined insert below, and reads
    // 2..5 ask for the same keys as reads 7..10: a read that saw an insert
    // sent after it, or missed one sent before it, differs from the twin.
    let key = |i: u64| 690 + (i % 5) * 5;
    let read = |i: u64| {
        if i.is_multiple_of(2) {
            Request::QueryMember { key: key(i) }
        } else {
            Request::QueryFreq { key: key(i) }
        }
    };
    let batch: Vec<u64> = (40..60).map(key).collect();
    let fresh: Vec<u64> = (0..200u64).map(|i| 700 + i % 150).collect();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    frames.extend((0..5).map(|i| read(i).encode()));
    frames.push(Request::InsertBatch { stream: 0, keys: fresh.clone() }.encode());
    frames.extend((5..8).map(|i| read(i).encode()));
    frames.push(Request::QueryBatch { op: cluster_op::FREQ, keys: batch.clone() }.encode());
    frames.push(vec![0xFF, 1, 2, 3]);
    frames.extend((8..10).map(|i| read(i).encode()));
    frames.push(Request::QueryCard.encode());

    let mut bytes = Vec::new();
    for f in &frames {
        bytes.extend_from_slice(&u32::try_from(f.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(f);
    }
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A frame the server never answers fails the test instead of hanging it.
    sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    sock.write_all(&bytes).unwrap();

    let ask = |i: u64, twin: &mut DirectEngine| {
        if i.is_multiple_of(2) {
            Response::Bool(twin.member(key(i)))
        } else {
            Response::U64(twin.frequency(key(i)))
        }
    };
    let mut expect: Vec<Option<Response>> = Vec::new();
    expect.extend((0..5).map(|i| Some(ask(i, &mut twin))));
    twin.apply(0, &fresh);
    expect.push(Some(Response::Ok { accepted: 200 }));
    expect.extend((5..8).map(|i| Some(ask(i, &mut twin))));
    expect.push(Some(Response::U64s(batch.iter().map(|&k| twin.frequency(k)).collect())));
    expect.push(None); // the undecodable frame: any ERR
    expect.extend((8..10).map(|i| Some(ask(i, &mut twin))));
    expect.push(Some(Response::F64(twin.cardinality())));

    for (at, want) in expect.into_iter().enumerate() {
        let got = Response::decode(&read_frame(&mut sock).unwrap().expect("a reply")).unwrap();
        match (want, got) {
            (None, Response::Err(_)) => {}
            (Some(Response::F64(w)), Response::F64(g)) => {
                assert_eq!(g.to_bits(), w.to_bits(), "reply {at}");
            }
            (want, got) => assert_eq!(Some(got), want, "reply {at}"),
        }
    }
    drop(sock);
    server.join();
}

/// One connection writes a mixed burst in one write: member, freq, a
/// `QUERY_BATCH`, card, sim and member again, an `INSERT_BATCH` of the
/// very keys it just probed, then the same reads once more. The reads on
/// either side of the insert are one read set each, so every answer must
/// equal the twin asked frame by frame: the first reads must not see the
/// insert and the second must. Afterwards the per-shard counters
/// (`queries` included) and the `SNAPSHOT_ALL` bytes equal the twin's.
#[test]
fn one_connection_pipelines_a_mixed_burst_around_an_insert() {
    use she_server::cluster_op;
    use she_server::protocol::Request;
    use std::io::Write;

    let engine = EngineConfig { window: 1 << 12, shards: 4, memory_bytes: 32 << 10, seed: 19 };
    let server = start_server(engine);
    let mut twin = DirectEngine::new(engine);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for stream in [0u8, 1] {
        let keys: Vec<u64> =
            (0..2_000u64).map(|i| she_hash::mix64(i * 2 + u64::from(stream)) % 800).collect();
        client.insert_batch(stream, &keys).unwrap();
        twin.apply(stream, &keys);
    }

    // Keys 1 000.. were never inserted: only the pipelined insert can
    // make them members.
    let probed: Vec<u64> = (1_000..1_012).collect();
    let reads = [
        Request::QueryMember { key: probed[0] },
        Request::QueryFreq { key: probed[1] },
        Request::QueryBatch { op: cluster_op::FREQ, keys: probed[2..].to_vec() },
        Request::QueryCard,
        Request::QuerySim,
        Request::QueryMember { key: probed[2] },
    ];
    let insert = Request::InsertBatch { stream: 0, keys: probed.clone() };
    let mut bytes = Vec::new();
    for req in reads.iter().chain([&insert]).chain(&reads) {
        let f = req.encode();
        bytes.extend_from_slice(&u32::try_from(f.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&f);
    }
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    sock.write_all(&bytes).unwrap();

    let ask = |req: &Request, twin: &mut DirectEngine| match req {
        Request::QueryMember { key } => Response::Bool(twin.member(*key)),
        Request::QueryFreq { key } => Response::U64(twin.frequency(*key)),
        Request::QueryBatch { keys, .. } => {
            Response::U64s(keys.iter().map(|&k| twin.frequency(k)).collect())
        }
        Request::QueryCard => Response::F64(twin.cardinality()),
        Request::QuerySim => Response::F64(twin.similarity()),
        other => panic!("not a read: {other:?}"),
    };
    let reply = |sock: &mut std::net::TcpStream| {
        Response::decode(&read_frame(sock).unwrap().expect("a reply")).unwrap()
    };
    let answers = |when: &str, sock: &mut std::net::TcpStream, twin: &mut DirectEngine| {
        let got: Vec<Response> = reads.iter().map(|_| reply(sock)).collect();
        for (req, got) in reads.iter().zip(&got) {
            match (got, ask(req, twin)) {
                (Response::F64(g), Response::F64(w)) => {
                    assert_eq!(g.to_bits(), w.to_bits(), "{when} the insert: {req:?}");
                }
                (got, want) => assert_eq!(got, &want, "{when} the insert: {req:?}"),
            }
        }
        got
    };

    let before = answers("before", &mut sock, &mut twin);
    twin.apply(0, &probed);
    assert_eq!(reply(&mut sock), Response::Ok { accepted: probed.len() as u64 });
    let after = answers("after", &mut sock, &mut twin);

    // The twin check above is what pins each side of the insert; this
    // shows the insert is there to be seen: every probed count rose.
    assert_eq!(after[0], Response::Bool(true), "a read after the insert missed it");
    let (Response::U64s(was), Response::U64s(now)) = (&before[2], &after[2]) else {
        panic!("batch answers: {before:?} / {after:?}")
    };
    assert!(was.iter().zip(now).all(|(w, n)| n > w), "counts {was:?} → {now:?}");

    assert_eq!(client.stats().unwrap(), twin.stats(), "per-shard inserts and queries");
    assert!(client.snapshot_all().unwrap() == twin.checkpoint(), "checkpoint bytes differ");
    drop((sock, client));
    server.join();
}

/// Eight connections, each with four reads in flight, released together
/// so their runs share reactor rounds: every answer equals the twin's.
#[test]
fn concurrent_pipelined_reads_match_the_twin() {
    use she_server::protocol::Request;
    use std::io::Write;
    use std::sync::Barrier;

    let engine = EngineConfig { window: 1 << 12, shards: 4, memory_bytes: 32 << 10, seed: 13 };
    let server = start_server(engine);
    let mut twin = DirectEngine::new(engine);
    let warm: Vec<u64> = (0..3_000u64).map(|i| she_hash::mix64(i) % 500).collect();
    Client::connect(server.local_addr()).unwrap().insert_batch(0, &warm).unwrap();
    twin.apply(0, &warm);

    // Reads between two inserts commute, so the twin can answer in any
    // order the reactor happens to pick.
    let conns: Vec<Vec<(Request, Response)>> = (0..8u64)
        .map(|c| {
            (0..4u64)
                .map(|i| {
                    let key = she_hash::mix64(c * 4 + i) % 600;
                    if (c + i) % 2 == 0 {
                        (Request::QueryMember { key }, Response::Bool(twin.member(key)))
                    } else {
                        (Request::QueryFreq { key }, Response::U64(twin.frequency(key)))
                    }
                })
                .collect()
        })
        .collect();
    let barrier = Barrier::new(conns.len());
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for (c, calls) in conns.iter().enumerate() {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut sock = std::net::TcpStream::connect(addr).unwrap();
                sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
                let mut bytes = Vec::new();
                for (req, _) in calls {
                    let f = req.encode();
                    bytes.extend_from_slice(&u32::try_from(f.len()).unwrap().to_le_bytes());
                    bytes.extend_from_slice(&f);
                }
                barrier.wait();
                sock.write_all(&bytes).unwrap();
                for (i, (req, want)) in calls.iter().enumerate() {
                    let got = read_frame(&mut sock).unwrap().expect("a reply");
                    let got = Response::decode(&got).unwrap();
                    assert_eq!(&got, want, "connection {c}, read {i}: {req:?}");
                }
            });
        }
    });
    server.join();
}

/// Four connections released together, each writing one batch that mixes
/// both aggregates with pipelined per-key reads and a `QUERY_BATCH`, so
/// several aggregates share a reactor round with other connections' reads.
/// Every answer equals the twin's bit for bit; afterwards the per-shard
/// counters (`queries` included) and the `SNAPSHOT_ALL` bytes equal those
/// of a twin asked the same reads, so no aggregate was answered twice or
/// from a memo.
#[test]
fn aggregates_sharing_a_round_match_the_twin() {
    use she_server::cluster_op;
    use she_server::protocol::Request;
    use std::io::Write;
    use std::sync::Barrier;

    let engine = EngineConfig { window: 1 << 12, shards: 4, memory_bytes: 32 << 10, seed: 17 };
    let server = start_server(engine);
    let addr = server.local_addr();
    let mut twin = DirectEngine::new(engine);
    let mut warm = Client::connect(addr).unwrap();
    for stream in [0u8, 1] {
        let keys: Vec<u64> =
            (0..3_000u64).map(|i| she_hash::mix64(i * 2 + u64::from(stream)) % 900).collect();
        warm.insert_batch(stream, &keys).unwrap();
        twin.apply(stream, &keys);
    }

    // Reads between two inserts commute, so the twin can answer in any
    // order the reactor happens to pick.
    let conns: Vec<Vec<(Request, Response)>> = (0..4u64)
        .map(|c| {
            let key = |i: u64| she_hash::mix64(c * 16 + i) % 1_000;
            let batch: Vec<u64> = (8..14).map(key).collect();
            let counts = batch.iter().map(|&k| twin.frequency(k)).collect();
            vec![
                (Request::QueryCard, Response::F64(twin.cardinality())),
                (Request::QueryMember { key: key(0) }, Response::Bool(twin.member(key(0)))),
                (Request::QueryFreq { key: key(1) }, Response::U64(twin.frequency(key(1)))),
                (Request::QuerySim, Response::F64(twin.similarity())),
                (Request::QueryBatch { op: cluster_op::FREQ, keys: batch }, Response::U64s(counts)),
                (Request::QueryMember { key: key(2) }, Response::Bool(twin.member(key(2)))),
                (Request::QueryCard, Response::F64(twin.cardinality())),
            ]
        })
        .collect();
    let barrier = Barrier::new(conns.len());
    std::thread::scope(|scope| {
        for (c, calls) in conns.iter().enumerate() {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut sock = std::net::TcpStream::connect(addr).unwrap();
                sock.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
                let mut bytes = Vec::new();
                for (req, _) in calls {
                    let f = req.encode();
                    bytes.extend_from_slice(&u32::try_from(f.len()).unwrap().to_le_bytes());
                    bytes.extend_from_slice(&f);
                }
                barrier.wait();
                sock.write_all(&bytes).unwrap();
                for (i, (req, want)) in calls.iter().enumerate() {
                    let got = read_frame(&mut sock).unwrap().expect("a reply");
                    match (Response::decode(&got).unwrap(), want) {
                        (Response::F64(g), Response::F64(w)) => {
                            assert_eq!(g.to_bits(), w.to_bits(), "connection {c}, {i}: {req:?}");
                        }
                        (got, want) => assert_eq!(&got, want, "connection {c}, {i}: {req:?}"),
                    }
                }
            });
        }
    });

    assert_eq!(warm.stats().unwrap(), twin.stats(), "per-shard inserts and queries");
    assert!(warm.snapshot_all().unwrap() == twin.checkpoint(), "checkpoint bytes differ");
    drop(warm);
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
