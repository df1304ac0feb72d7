//! A coordinator's peer links when partitions fail: a refused dial, a
//! peer that hangs up mid-leg, and a peer that shuts down with legs in
//! flight all answer `ERR` promptly, never hang a client, and leave the
//! coordinator serving the partitions that still answer. A later request
//! re-dials.

use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response};
use she_server::{
    cluster_op, Client, ClusterDirectory, ClusterMap, EngineConfig, NodeRef, PartitionMap, Server,
    ServerConfig,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Far below the coordinator's 10 s leg deadline: a failure must be
/// reported as soon as it is known, not when the sweep gives up.
const PROMPT: Duration = Duration::from_secs(3);

fn partition_server(addr: &str) -> Server {
    Server::start(ServerConfig {
        addr: addr.to_string(),
        engine: EngineConfig { window: 2_048, shards: 1, memory_bytes: 8_192, seed: 5 },
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
