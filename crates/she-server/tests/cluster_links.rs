//! A coordinator's peer links: pipelined cluster frames answer in order,
//! equal to in-process twins of the partitions. When partitions fail — a
//! refused dial, a peer that hangs up mid-leg, a peer that shuts down
//! with legs in flight — requests answer `ERR` promptly, never hang a
//! client, and leave the coordinator serving the partitions that still
//! answer. A later request re-dials.

use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response, PROTOCOL_VERSION};
use she_server::{
    cluster_op, Client, ClusterDirectory, ClusterMap, DirectEngine, EngineConfig, NodeRef,
    PartitionMap, Server, ServerConfig,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Far below the coordinator's 10 s leg deadline: a failure must be
/// reported as soon as it is known, not when the sweep gives up.
const PROMPT: Duration = Duration::from_secs(3);

const PARTITION_ENGINE: EngineConfig =
    EngineConfig { window: 2_048, shards: 1, memory_bytes: 8_192, seed: 5 };

fn partition_server(addr: &str) -> Server {
    Server::start(ServerConfig {
        addr: addr.to_string(),
        engine: PARTITION_ENGINE,
        ..Default::default()
    })
    .expect("partition server")
}

fn map(epoch: u64, addrs: &[&str]) -> ClusterMap {
    let partitions = addrs
        .iter()
        .zip(1..)
        .map(|(addr, node_id)| PartitionMap {
            primary: NodeRef { node_id, addr: addr.to_string() },
            replicas: Vec::new(),
        })
        .collect();
    ClusterMap { epoch, rf: 1, partitions }
}

/// An address nothing listens on: bound once, then released.
fn refused_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr").to_string()
}

/// Send every request on one connection before reading any answer.
fn pipelined(addr: &str, reqs: &[Request]) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(15))).expect("timeout");
    let mut burst = Vec::new();
    for req in reqs {
        write_frame(&mut burst, &req.encode()).expect("frame");
    }
    stream.write_all(&burst).expect("burst");
    stream
}

fn answer(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream).expect("read").expect("an answer, not a close");
    Response::decode(&payload).expect("decode")
}

/// Each reply in order: `Some(want)` must equal it (an `F64` bit for
/// bit), `None` must be an `ERR` that contains `err`.
fn assert_replies(stream: &mut TcpStream, want: &[(Option<Response>, &str)]) {
    for (at, (want, err)) in want.iter().enumerate() {
        match (answer(stream), want) {
            (Response::F64(g), Some(Response::F64(w))) => {
                assert_eq!(g.to_bits(), w.to_bits(), "reply {at}");
            }
            (got, Some(want)) => assert_eq!(&got, want, "reply {at}"),
            (Response::Err(msg), None) => assert!(msg.contains(err), "reply {at}: {msg}"),
            (got, None) => panic!("reply {at}: expected ERR with {err:?}, got {got:?}"),
        }
    }
}

fn assert_err_naming(resp: &Response, part: usize) {
    match resp {
        Response::Err(msg) => assert!(msg.contains(&format!("partition {part}")), "{msg}"),
        other => panic!("expected ERR naming partition {part}, got {other:?}"),
    }
}

#[test]
fn a_failed_partition_answers_err_and_the_rest_keep_serving() {
    let live = partition_server("127.0.0.1:0");
    let live_addr = live.local_addr().to_string();
    let dead_addr = refused_addr();
    let dir = Arc::new(ClusterDirectory::new(map(1, &[&live_addr, &dead_addr])));
    let coord =
        Server::start(ServerConfig { cluster: Some(Arc::clone(&dir)), ..Default::default() })
            .expect("coordinator");
    let coord_addr = coord.local_addr().to_string();
    let cmap = dir.get();

    let mut keys: Vec<u64> = (0..400u64).map(|i| i * 7 + 1).collect();
    let (p0, p1): (Vec<u64>, Vec<u64>) = keys.drain(..).partition(|&k| cmap.partition_of(k) == 0);
    assert!(!p0.is_empty() && !p1.is_empty());
    let mut direct = Client::connect(&live_addr).expect("live");
    direct.insert_batch(0, &p0).expect("insert");
    let mut c = Client::connect(&coord_addr).expect("coordinator");
    // A request nobody answers fails the test instead of hanging it.
    c.set_op_timeout(Some(Duration::from_secs(15))).expect("op timeout");

    // A read routed to the refusing partition fails fast and says where.
    let t = Instant::now();
    let err = c.cluster_query(cluster_op::MEMBER, p1[0]).expect_err("dead partition");
    assert!(t.elapsed() < PROMPT, "took {:?}", t.elapsed());
    assert!(err.to_string().contains(&format!("partition 1 at {dead_addr}")), "{err}");
    let err = c.cluster_query(cluster_op::CARD, 0).expect_err("a gather needs every partition");
    assert!(err.to_string().contains("partition 1"), "{err}");

    // The live partition keeps answering on the same coordinator.
    for &k in p0.iter().take(40) {
        let want = direct.query_member(k).expect("direct");
        assert_eq!(c.cluster_query(cluster_op::MEMBER, k).expect("member"), Response::Bool(want));
        let want = direct.query_freq(k).expect("direct");
        assert_eq!(c.cluster_query(cluster_op::FREQ, k).expect("freq"), Response::U64(want));
    }
    let batch = &p0[..64];
    assert_eq!(
        c.cluster_query_batch(cluster_op::FREQ, batch).expect("batch"),
        direct.query_batch(cluster_op::FREQ, batch).expect("direct batch")
    );

    // A peer that takes a leg and hangs up fails the request in flight.
    let fake = TcpListener::bind("127.0.0.1:0").expect("fake peer");
    let fake_addr = fake.local_addr().expect("addr").to_string();
    assert!(dir.observe(&map(2, &[&live_addr, &fake_addr])));
    let hang_up = std::thread::spawn(move || {
        let (mut s, _) = fake.accept().expect("the coordinator dials");
        read_frame(&mut s).expect("read").expect("one leg");
    });
    let t = Instant::now();
    let err = c.cluster_query(cluster_op::FREQ, p1[0]).expect_err("peer hung up");
    assert!(t.elapsed() < PROMPT, "took {:?}", t.elapsed());
    assert!(err.to_string().contains(&format!("partition 1 at {fake_addr}")), "{err}");
    hang_up.join().expect("fake peer");

    // Shut the live partition down under pipelined batches: every
    // request answers — correctly if its legs made it, `ERR` otherwise.
    let want = direct.query_batch(cluster_op::MEMBER, &p0).expect("direct batch");
    drop(direct);
    let reqs: Vec<Request> = (0..8)
        .map(|_| Request::ClusterQueryBatch { op: cluster_op::MEMBER, keys: p0.clone() })
        .collect();
    let mut streams: Vec<TcpStream> = (0..3).map(|_| pipelined(&coord_addr, &reqs)).collect();
    live.shutdown();
    live.wait();
    for s in &mut streams {
        for _ in &reqs {
            match answer(s) {
                Response::U64s(values) => assert_eq!(values, want),
                other => assert_err_naming(&other, 0),
            }
        }
    }
    // With the partition gone, a new request answers `ERR` at once.
    let t = Instant::now();
    let err = c.cluster_query_batch(cluster_op::MEMBER, &p0).expect_err("partition 0 is down");
    assert!(t.elapsed() < PROMPT, "took {:?}", t.elapsed());
    assert!(err.to_string().contains("partition 0"), "{err}");

    // Back on the same address: the next request re-dials and answers.
    let back = partition_server(&live_addr);
    let mut direct = Client::connect(&live_addr).expect("live again");
    direct.insert_batch(0, &p0).expect("insert");
    assert_eq!(
        c.cluster_query_batch(cluster_op::MEMBER, &p0).expect("re-dialed"),
        direct.query_batch(cluster_op::MEMBER, &p0).expect("direct")
    );

    drop((c, direct));
    coord.shutdown();
    coord.wait();
    back.shutdown();
    back.wait();
}

/// One coordinator connection pipelines every cluster read — member,
/// freq, card, sim, a batch spanning both partitions and a one-key batch
/// — in one write, so they are one read set and share the coordinator's
/// round; the legs a link carries are one read set on its peer. Answers
/// arrive in request order and equal twins of the partitions: a key's
/// read its partition's, card the sum over partitions in partition order
/// from `0.0`, sim that sum over the partition count. Frames that answer
/// at once (a bad batch op, an empty batch, an unknown op) keep their
/// position, on the coordinator and, for a `CLUSTER_QUERY`, on a plain
/// server.
#[test]
fn pipelined_cluster_frames_answer_in_order_and_match_the_twins() {
    let parts = [partition_server("127.0.0.1:0"), partition_server("127.0.0.1:0")];
    let addrs: Vec<String> = parts.iter().map(|p| p.local_addr().to_string()).collect();
    let dir = Arc::new(ClusterDirectory::new(map(1, &[&addrs[0], &addrs[1]])));
    let coord =
        Server::start(ServerConfig { cluster: Some(Arc::clone(&dir)), ..Default::default() })
            .expect("coordinator");
    let cmap = dir.get();

    let mut twins = [DirectEngine::new(PARTITION_ENGINE), DirectEngine::new(PARTITION_ENGINE)];
    for stream in [0u8, 1] {
        let keys: Vec<u64> = (0..3_000u64).map(|i| (i * 2 + u64::from(stream)) % 1_300).collect();
        for (p, addr) in addrs.iter().enumerate() {
            let mine: Vec<u64> =
                keys.iter().copied().filter(|&k| cmap.partition_of(k) == p).collect();
            Client::connect(addr).expect("partition").insert_batch(stream, &mine).expect("insert");
            twins[p].apply(stream, &mine);
        }
    }
    let key_in = |p: usize, nth: usize| {
        (0..u64::MAX).filter(|&k| cmap.partition_of(k) == p).nth(nth).expect("a key")
    };
    let (a, b, c) = (key_in(0, 3), key_in(1, 5), key_in(1, 1_400));
    let batch: Vec<u64> = (100..140).collect();
    let member = |k: u64, twins: &mut [DirectEngine; 2]| twins[cmap.partition_of(k)].member(k);
    let freq = |k: u64, twins: &mut [DirectEngine; 2]| twins[cmap.partition_of(k)].frequency(k);
    let card = 0.0 + twins[0].cardinality() + twins[1].cardinality();
    let sim = (0.0 + twins[0].similarity() + twins[1].similarity()) / 2.0;
    let counts: Vec<u64> = batch.iter().map(|&k| freq(k, &mut twins)).collect();
    let want = [
        Some(Response::Bool(member(a, &mut twins))),
        Some(Response::U64(freq(b, &mut twins))),
        Some(Response::F64(card)),
        Some(Response::U64s(counts)),
        None,
        Some(Response::F64(sim)),
        Some(Response::U64s(Vec::new())),
        Some(Response::U64s(vec![u64::from(member(c, &mut twins))])),
        None,
        Some(Response::Bool(member(c, &mut twins))),
    ];
    let reqs = [
        Request::ClusterQuery { op: cluster_op::MEMBER, key: a },
        Request::ClusterQuery { op: cluster_op::FREQ, key: b },
        Request::ClusterQuery { op: cluster_op::CARD, key: 0 },
        Request::ClusterQueryBatch { op: cluster_op::FREQ, keys: batch.clone() },
        Request::ClusterQueryBatch { op: cluster_op::CARD, keys: vec![a] },
        Request::ClusterQuery { op: cluster_op::SIM, key: 0 },
        Request::ClusterQueryBatch { op: cluster_op::MEMBER, keys: Vec::new() },
        Request::ClusterQueryBatch { op: cluster_op::MEMBER, keys: vec![c] },
        Request::ClusterQuery { op: 9, key: a },
        Request::ClusterQuery { op: cluster_op::MEMBER, key: c },
    ];
    let errs = ["", "", "", "", "batch query op", "", "", "", "unknown cluster query op 9", ""];
    let want: Vec<(Option<Response>, &str)> = want.into_iter().zip(errs).collect();
    let mut s = pipelined(&coord.local_addr().to_string(), &reqs);
    assert_replies(&mut s, &want);

    // The same kinds of frame on a plain server: a `CLUSTER_QUERY` is a
    // read there too, answered at once in its own position.
    let reqs = [
        Request::QueryMember { key: a },
        Request::ClusterQuery { op: cluster_op::MEMBER, key: a },
        Request::QueryBatch { op: cluster_op::SIM, keys: vec![a] },
        Request::QueryBatch { op: cluster_op::FREQ, keys: Vec::new() },
        Request::ClusterQueryBatch { op: cluster_op::FREQ, keys: vec![a] },
        Request::QueryFreq { key: a },
    ];
    let want = [
        (Some(Response::Bool(twins[0].member(a))), ""),
        (None, "not a cluster node"),
        (None, "batch query op"),
        (Some(Response::U64s(Vec::new())), ""),
        (None, "not a cluster node"),
        (Some(Response::U64(twins[0].frequency(a))), ""),
    ];
    let mut s = pipelined(&addrs[0], &reqs);
    assert_replies(&mut s, &want);

    coord.shutdown();
    coord.wait();
    for p in parts {
        p.shutdown();
        p.wait();
    }
}

/// A failed leg fails every frame of its read set, not only the frames
/// it covers — as a shed does: three pipelined cluster frames, one of
/// them on a refusing partition, all answer that partition's `ERR`. The
/// frame behind the set is answered after it, and the live partition's
/// late answers to the failed set reach nobody: the next read on the
/// same connection equals a direct read.
#[test]
fn a_failed_leg_fails_every_frame_of_its_read_set() {
    let live = partition_server("127.0.0.1:0");
    let live_addr = live.local_addr().to_string();
    let dead_addr = refused_addr();
    let dir = Arc::new(ClusterDirectory::new(map(1, &[&live_addr, &dead_addr])));
    let coord =
        Server::start(ServerConfig { cluster: Some(Arc::clone(&dir)), ..Default::default() })
            .expect("coordinator");
    let cmap = dir.get();
    let keys: Vec<u64> = (0..200u64).collect();
    let (p0, p1): (Vec<u64>, Vec<u64>) = keys.iter().partition(|&&k| cmap.partition_of(k) == 0);
    let mut direct = Client::connect(&live_addr).expect("live");
    direct.insert_batch(0, &p0).expect("insert");

    let reqs = [
        Request::ClusterQuery { op: cluster_op::MEMBER, key: p0[0] },
        Request::ClusterQuery { op: cluster_op::FREQ, key: p1[0] },
        Request::ClusterQueryBatch { op: cluster_op::MEMBER, keys: p0[..16].to_vec() },
        Request::Hello { version: PROTOCOL_VERSION },
        Request::ClusterQueryBatch { op: cluster_op::FREQ, keys: p0.clone() },
    ];
    let mut s = pipelined(&coord.local_addr().to_string(), &reqs);
    let t = Instant::now();
    let dead = format!("partition 1 at {dead_addr}");
    let want = [
        (None, dead.as_str()),
        (None, dead.as_str()),
        (None, dead.as_str()),
        (Some(Response::Hello { version: PROTOCOL_VERSION }), ""),
        (Some(Response::U64s(direct.query_batch(cluster_op::FREQ, &p0).expect("direct"))), ""),
    ];
    assert_replies(&mut s, &want);
    assert!(t.elapsed() < PROMPT, "took {:?}", t.elapsed());

    drop(direct);
    coord.shutdown();
    coord.wait();
    live.shutdown();
    live.wait();
}
