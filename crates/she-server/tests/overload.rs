//! Overload-degradation and connection-hygiene tests: reads — per-key
//! and aggregate — shed with `OVERLOADED` when a shard queue is
//! saturated, excess connections are refused at the door, and a client
//! stalled mid-frame is evicted within the configured deadline instead of
//! pinning a handler thread forever.

use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response};
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
/// refused job whole: three pipelined `QUERY_FREQ`s and one `QUERY_BATCH`
/// written at once get four `OVERLOADED` frames, in order. Once the
/// backlog drains, a read on the same connection answers like the twin.
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
    // A frame the server never answers fails the test instead of hanging it.
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut twin = DirectEngine::new(engine);

    let big = wedge_worker(&mut sock);
    let mut bytes = Vec::new();
    let reads = (0..3u64)
        .map(|key| Request::QueryFreq { key })
        .chain([Request::QueryBatch { op: cluster_op::MEMBER, keys: vec![1, 2, 3] }]);
    for req in reads {
        let payload = req.encode();
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    sock.write_all(&bytes).unwrap();
    for at in 0..4 {
        let resp = Response::decode(&read_frame(&mut sock).unwrap().expect("a reply")).unwrap();
        assert!(
            matches!(resp, Response::Overloaded { retry_after_ms: 7 }),
            "reply {at}: expected OVERLOADED, got {resp:?}"
        );
    }
    assert_eq!(server.counters().snapshot().shed_reads, 4, "one count per shed frame");
    twin.apply(0, &big);
    twin.apply(0, &big);

    let last = *big.last().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let answer = loop {
        match raw_call(&mut sock, &Request::QueryMember { key: last }) {
            Response::Overloaded { .. } if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            other => break other,
        }
    };
    assert_eq!(answer, Response::Bool(twin.member(last)));
    assert_eq!(
        raw_call(&mut sock, &Request::QueryFreq { key: last }),
        Response::U64(twin.frequency(last))
    );

    server.shutdown();
    server.join();
}

/// Aggregates are shed by the same end-of-round rule: `QUERY_CARD`,
/// `QUERY_SIM` and a `QUERY_FREQ` pipelined in one write behind a full
/// queue get three `OVERLOADED` frames, in order, each counted once.
/// After the drain both aggregates answer the twin's bits.
#[test]
fn saturated_queue_sheds_aggregates_like_reads() {
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
    let mut bytes = Vec::new();
    for req in [Request::QueryCard, Request::QuerySim, Request::QueryFreq { key: 1 }] {
        let payload = req.encode();
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    sock.write_all(&bytes).unwrap();
    for at in 0..3 {
        let resp = Response::decode(&read_frame(&mut sock).unwrap().expect("a reply")).unwrap();
        assert!(
            matches!(resp, Response::Overloaded { retry_after_ms: 7 }),
            "reply {at}: expected OVERLOADED, got {resp:?}"
        );
    }
    assert_eq!(server.counters().snapshot().shed_reads, 3, "one count per shed frame");
    twin.apply(0, &big);
    twin.apply(0, &big);

    let deadline = Instant::now() + Duration::from_secs(30);
    let card = loop {
        match raw_call(&mut sock, &Request::QueryCard) {
            Response::Overloaded { .. } if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Response::F64(v) => break v,
            other => panic!("card after the drain: {other:?}"),
        }
    };
    assert_eq!(card.to_bits(), twin.cardinality().to_bits());
    let Response::F64(sim) = raw_call(&mut sock, &Request::QuerySim) else {
        panic!("sim answers F64")
    };
    assert_eq!(sim.to_bits(), twin.similarity().to_bits());

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
