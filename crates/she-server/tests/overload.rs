//! Overload-degradation and connection-hygiene tests: reads — per-key
//! and aggregate — shed with `OVERLOADED` when a shard queue is
//! saturated, excess connections are refused at the door, and a client
//! stalled mid-frame is evicted within the configured deadline instead of
//! pinning a handler thread forever.

use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response, PROTOCOL_VERSION};
use she_server::{cluster_op, Client, DirectEngine, EngineConfig, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn small_engine() -> EngineConfig {
    EngineConfig { window: 1 << 12, shards: 1, memory_bytes: 16 << 10, seed: 1 }
}

/// Raw request/response round trip over an existing socket (the typed
/// `Client` retries `BUSY`/`OVERLOADED`, which would mask what this file
/// is testing).
fn raw_call(sock: &mut TcpStream, req: &Request) -> Response {
    write_frame(sock, &req.encode()).unwrap();
    let payload = read_frame(sock).unwrap().expect("server closed unexpectedly");
    Response::decode(&payload).unwrap()
}

/// Wedge a single-shard, depth-1 server: batch A is admitted and the
/// worker starts chewing (hundreds of ms in a debug build); batch B is
/// retried past `BUSY` until it is admitted, which happens only once the
/// worker has dequeued A, so B then holds the queue's single slot. A
/// `BUSY` applies nothing: the shard applies the returned keys exactly
/// twice. (Batches are bounded by MAX_BATCH ≈ 131k keys.)
fn wedge_worker(sock: &mut TcpStream) -> Vec<u64> {
    let big: Vec<u64> = (0..120_000u64).collect();
    let batch = Request::InsertBatch { stream: 0, keys: big.clone() };
    let resp = raw_call(sock, &batch);
    assert!(matches!(resp, Response::Ok { .. }), "batch A: {resp:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match raw_call(sock, &batch) {
            Response::Ok { .. } => return big,
            Response::Busy { .. } if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            resp => panic!("batch B not admitted within 5 s: {resp:?}"),
        }
    }
}

/// With one shard, a queue of depth 1, and the worker wedged on a huge
/// batch, a read must come back `OVERLOADED` immediately — not block
/// behind the write backlog, not `BUSY` (that's the write-side answer).
#[test]
fn saturated_queue_sheds_reads_as_overloaded() {
    let server = Server::start(ServerConfig {
        engine: small_engine(),
        queue_capacity: 1,
        retry_after_ms: 7,
        ..Default::default()
    })
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();

    wedge_worker(&mut sock);
    // The queue is now full: the read must shed, with the configured
    // retry hint, while the insert path still owns the next free slot.
    let t0 = Instant::now();
    let resp = raw_call(&mut sock, &Request::QueryMember { key: 1 });
    assert!(
        matches!(resp, Response::Overloaded { retry_after_ms: 7 }),
        "expected OVERLOADED with the retry hint, got {resp:?}"
    );
    assert!(t0.elapsed() < Duration::from_millis(100), "shed must not block behind the backlog");
    assert_eq!(server.counters().snapshot().shed_reads, 1);

    server.shutdown();
    server.join();
}

/// A full queue at the end of a reactor round sheds each read set in the
/// refused job whole: point reads, `QUERY_BATCH`es, both aggregates and
/// a frame that answers at parse time (an empty batch), pipelined in one
/// write behind a wedged worker, are one read set and get one
/// `OVERLOADED` per frame, in order, each counted once. The `HELLO`
/// behind the set is not a read, so it is answered after the set. Once
/// the backlog drains, the same reads retried equal the twin's, the
/// aggregates bit for bit.
#[test]
fn saturated_queue_sheds_a_whole_read_set() {
    let engine = small_engine();
    let server = Server::start(ServerConfig {
        engine,
        queue_capacity: 1,
        retry_after_ms: 7,
        ..Default::default()
    })
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut twin = DirectEngine::new(engine);

    let big = wedge_worker(&mut sock);
    let last = *big.last().unwrap();
    let reads = [
        Request::QueryMember { key: last },
        Request::QueryBatch { op: cluster_op::FREQ, keys: vec![last, last - 1, 5] },
        Request::QueryCard,
        Request::QueryFreq { key: last },
        Request::QueryBatch { op: cluster_op::MEMBER, keys: Vec::new() },
        Request::QuerySim,
    ];
    let mut bytes = Vec::new();
    for req in reads.iter().chain([&Request::Hello { version: PROTOCOL_VERSION }]) {
        write_frame(&mut bytes, &req.encode()).unwrap();
    }
    sock.write_all(&bytes).unwrap();
    let mut reply = || Response::decode(&read_frame(&mut sock).unwrap().expect("a reply")).unwrap();
    for (at, req) in reads.iter().enumerate() {
        let resp = reply();
        assert!(
            matches!(resp, Response::Overloaded { retry_after_ms: 7 }),
            "frame {at} ({req:?}): expected OVERLOADED, got {resp:?}"
        );
    }
    assert_eq!(reply(), Response::Hello { version: PROTOCOL_VERSION }, "the frame behind the set");
    let shed = server.counters().snapshot().shed_reads;
    assert_eq!(shed, reads.len() as u64, "one count per shed frame");
    twin.apply(0, &big);
    twin.apply(0, &big);

    let deadline = Instant::now() + Duration::from_secs(30);
    for req in &reads {
        let got = loop {
            match raw_call(&mut sock, req) {
                Response::Overloaded { .. } if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => break other,
            }
        };
        let want = match req {
            Request::QueryMember { key } => Response::Bool(twin.member(*key)),
            Request::QueryFreq { key } => Response::U64(twin.frequency(*key)),
            Request::QueryBatch { op, keys } if *op == cluster_op::MEMBER => {
                Response::U64s(keys.iter().map(|&k| u64::from(twin.member(k))).collect())
            }
            Request::QueryBatch { keys, .. } => {
                Response::U64s(keys.iter().map(|&k| twin.frequency(k)).collect())
            }
            Request::QueryCard => Response::F64(twin.cardinality()),
            _ => Response::F64(twin.similarity()),
        };
        match (got, want) {
            (Response::F64(g), Response::F64(w)) => assert_eq!(g.to_bits(), w.to_bits(), "{req:?}"),
            (got, want) => assert_eq!(got, want, "{req:?}"),
        }
    }

    server.shutdown();
    server.join();
}

/// The typed client's retry loop turns a shed read into a correct answer
/// once the backlog drains — callers see latency, not failure.
#[test]
fn client_retries_shed_reads_to_completion() {
    let server = Server::start(ServerConfig {
        engine: small_engine(),
        queue_capacity: 1,
        retry_after_ms: 1,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_op_timeout(Some(Duration::from_secs(30))).unwrap();
    // Small enough that the backlog drains inside the client's bounded
    // retry budget, big enough that the first read usually sheds.
    let big: Vec<u64> = (0..40_000u64).collect();
    client.insert_batch(0, &big).unwrap();
    client.insert_batch(0, &big).unwrap();
    // The answer reflects every admitted insert, shed retries included.
    // Query the stream's last key — early keys have slid out of the
    // 4096-item window by now.
    let last = *big.last().unwrap();
    assert!(client.query_member(last).unwrap(), "key {last} is inside the sliding window");
    server.shutdown();
    server.join();
}

/// Connections past `max_connections` get one `OVERLOADED` frame and a
/// close — they never tie up a handler thread.
#[test]
fn connection_cap_refuses_with_overloaded() {
    let server = Server::start(ServerConfig {
        engine: small_engine(),
        max_connections: 1,
        retry_after_ms: 3,
        ..Default::default()
    })
    .unwrap();
    // First connection: completes a round trip, so its handler (and the
    // accept-loop bookkeeping) is live before the second connect.
    let mut first = Client::connect(server.local_addr()).unwrap();
    first.hello().unwrap();

    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = read_frame(&mut second).unwrap().expect("expected a refusal frame, got EOF");
    let resp = Response::decode(&payload).unwrap();
    assert!(matches!(resp, Response::Overloaded { .. }), "{resp:?}");
    // And the socket is closed right after.
    assert!(matches!(read_frame(&mut second), Ok(None) | Err(_)));
    assert_eq!(server.counters().snapshot().refused_conns, 1);

    // When the first client leaves, the slot frees up.
    drop(first);
    let ok = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        Client::connect(server.local_addr()).and_then(|mut c| c.hello()).is_ok()
    });
    assert!(ok, "slot must be released when a connection ends");

    server.shutdown();
    server.join();
}

/// A client that announces a frame and goes silent is evicted within the
/// deadline; an idle client (no frame started) is left alone.
#[test]
fn stalled_client_is_evicted_but_idle_client_is_not() {
    let server = Server::start(ServerConfig {
        engine: small_engine(),
        client_deadline_ms: 300,
        ..Default::default()
    })
    .unwrap();

    // Idle connection: never sends a byte. Must still be alive later.
    let mut idle = Client::connect(server.local_addr()).unwrap();

    // Stalled connection: 4-byte header promising 100 bytes, then nothing.
    let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
    stalled.write_all(&100u32.to_le_bytes()).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let t0 = Instant::now();
    // The server closes the connection: read returns EOF (or a reset).
    let got = read_frame(&mut stalled);
    assert!(matches!(got, Ok(None) | Err(_)), "expected eviction, got {got:?}");
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(5), "eviction took {waited:?}, deadline is 300ms");
    assert_eq!(server.counters().snapshot().evicted_conns, 1);

    // The idle client was not evicted and still works.
    assert!(idle.hello().is_ok(), "idle connection must survive");

    server.shutdown();
    server.join();
}
