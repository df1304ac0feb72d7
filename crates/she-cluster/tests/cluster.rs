//! End-to-end cluster tests: scatter-gather answers bit-for-bit against a
//! single in-process engine, automated failover, and live migration.

use she_cluster::{migrate, ClusterNode, NodeConfig};
use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response};
use she_server::{cluster_op, Client, DirectEngine, EngineConfig, NodeRef, Server, ServerConfig};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Grab `n` free ports by binding and immediately releasing them.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind")).collect();
    listeners.iter().map(|l| l.local_addr().expect("addr").to_string()).collect()
}

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Start a three-node cluster on freshly reserved loopback ports. A
/// reserved port is free only until its node binds it: an earlier node's
/// replica slot, binding an ephemeral port meanwhile, can take it. On
/// `AddrInUse` the nodes started so far stop and the whole start retries
/// with a new roster.
fn start_cluster(heartbeat_ms: u64) -> (Vec<String>, Vec<NodeRef>, Vec<ClusterNode>) {
    for _ in 0..5 {
        let addrs = reserve_addrs(3);
        let roster: Vec<NodeRef> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| NodeRef { node_id: i as u64 + 1, addr: a.clone() })
            .collect();
        let mut nodes = Vec::new();
        let mut clash = false;
        for r in &roster {
            match ClusterNode::start(NodeConfig {
                node_id: r.node_id,
                roster: roster.clone(),
                window: 6 * 1024,
                memory_bytes: 12 * 1024,
                seed: 7,
                gossip_ms: 100,
                heartbeat_timeout_ms: heartbeat_ms,
                ..Default::default()
            }) {
                Ok(node) => nodes.push(node),
                Err(e) if e.kind() == ErrorKind::AddrInUse => {
                    clash = true;
                    break;
                }
                Err(e) => panic!("start node: {e}"),
            }
        }
        if !clash {
            return (addrs, roster, nodes);
        }
        for n in nodes {
            n.shutdown();
            n.wait();
        }
    }
    panic!("five reserved rosters in a row lost a port before their node bound it");
}

fn client(addr: &str) -> Client {
    let mut c = Client::connect_timeout(addr, Duration::from_secs(5)).expect("connect");
    c.hello().expect("hello");
    c
}

/// Route a key batch the way a cluster-aware writer does: bucket by the
/// map's partition function, preserving order, one insert per partition.
fn cluster_insert(roster: &[NodeRef], map: &she_server::ClusterMap, stream: u8, keys: &[u64]) {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); roster.len()];
    for &k in keys {
        buckets[map.partition_of(k)].push(k);
    }
    for (p, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut c = client(&map.partitions[p].primary.addr);
        c.insert_batch(stream, bucket).expect("insert");
    }
}

#[test]
fn scatter_gather_matches_direct_mirror_bit_for_bit() {
    let (addrs, roster, nodes) = start_cluster(60_000); // no failover here
    let map = nodes[0].directory().get();

    let mut mirror = DirectEngine::new(EngineConfig {
        window: 6 * 1024,
        shards: 3,
        memory_bytes: 12 * 1024,
        seed: 7,
    });

    let mut rng = Rng(0xC1A5_7E55);
    let keys_a: Vec<u64> = (0..2_000).map(|_| rng.next() % 4_096).collect();
    let keys_b: Vec<u64> = (0..500).map(|_| rng.next() % 4_096).collect();
    cluster_insert(&roster, &map, 0, &keys_a);
    cluster_insert(&roster, &map, 1, &keys_b);
    for &k in &keys_a {
        mirror.insert(0, k);
    }
    for &k in &keys_b {
        mirror.insert(1, k);
    }

    // Scatter-gather through two different coordinators; both must agree
    // with the mirror bit-for-bit.
    for coord in [&addrs[0], &addrs[2]] {
        let mut c = client(coord);
        for &k in keys_a.iter().rev().take(64) {
            match c.cluster_query(cluster_op::MEMBER, k).expect("member") {
                she_server::protocol::Response::Bool(b) => assert_eq!(b, mirror.member(k)),
                other => panic!("unexpected member reply {other:?}"),
            }
            match c.cluster_query(cluster_op::FREQ, k).expect("freq") {
                she_server::protocol::Response::U64(f) => assert_eq!(f, mirror.frequency(k)),
                other => panic!("unexpected freq reply {other:?}"),
            }
        }
        match c.cluster_query(cluster_op::CARD, 0).expect("card") {
            she_server::protocol::Response::F64(v) => {
                assert_eq!(v.to_bits(), mirror.cardinality().to_bits());
            }
            other => panic!("unexpected card reply {other:?}"),
        }
        match c.cluster_query(cluster_op::SIM, 0).expect("sim") {
            she_server::protocol::Response::F64(v) => {
                assert_eq!(v.to_bits(), mirror.similarity().to_bits());
            }
            other => panic!("unexpected sim reply {other:?}"),
        }
    }

    for n in nodes {
        n.shutdown();
        n.wait();
    }
}

/// Raw pipelined frames: several connections each send a burst of mixed
/// `CLUSTER_QUERY` member/freq frames plus a batch, a cardinality and a
/// similarity before reading a single answer, through two coordinators.
/// Every answer equals the twin's, asked in the same order.
#[test]
fn pipelined_cluster_reads_equal_the_twin() {
    let (addrs, roster, nodes) = start_cluster(60_000);
    let map = nodes[0].directory().get();
    let mut twin = DirectEngine::new(EngineConfig {
        window: 6 * 1024,
        shards: 3,
        memory_bytes: 12 * 1024,
        seed: 7,
    });
    let mut rng = Rng(0x9195_C0DE);
    for stream in [0u8, 1] {
        let keys: Vec<u64> = (0..1_500).map(|_| rng.next() % 3_000).collect();
        cluster_insert(&roster, &map, stream, &keys);
        keys.iter().for_each(|&k| twin.insert(stream, k));
    }

    // Four connections, two per coordinator; all bursts go out first.
    let mut conns: Vec<(TcpStream, Vec<Request>)> = Vec::new();
    for c in 0..4 {
        let mut stream = TcpStream::connect(&addrs[if c < 2 { 0 } else { 2 }]).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut reqs: Vec<Request> = (0..32)
            .map(|i| {
                let key = rng.next() % 3_000;
                let op = if (i + c) % 2 == 0 { cluster_op::MEMBER } else { cluster_op::FREQ };
                Request::ClusterQuery { op, key }
            })
            .collect();
        let op = if c % 2 == 0 { cluster_op::FREQ } else { cluster_op::MEMBER };
        reqs.push(Request::ClusterQueryBatch {
            op,
            keys: (0..48).map(|_| rng.next() % 3_000).collect(),
        });
        reqs.push(Request::ClusterQuery { op: cluster_op::CARD, key: 0 });
        reqs.push(Request::ClusterQuery { op: cluster_op::SIM, key: 0 });
        let mut burst = Vec::new();
        for req in &reqs {
            write_frame(&mut burst, &req.encode()).expect("frame");
        }
        std::io::Write::write_all(&mut stream, &burst).expect("burst");
        conns.push((stream, reqs));
    }

    for (mut stream, reqs) in conns {
        for req in reqs {
            let payload = read_frame(&mut stream).expect("read").expect("an answer per frame");
            let got = Response::decode(&payload).expect("decode");
            let want = match req {
                Request::ClusterQuery { op: cluster_op::MEMBER, key } => {
                    Response::Bool(twin.member(key))
                }
                Request::ClusterQuery { op: cluster_op::FREQ, key } => {
                    Response::U64(twin.frequency(key))
                }
                Request::ClusterQuery { op: cluster_op::CARD, .. } => {
                    Response::F64(twin.cardinality())
                }
                Request::ClusterQuery { op: cluster_op::SIM, .. } => {
                    Response::F64(twin.similarity())
                }
                Request::ClusterQueryBatch { op, keys } => Response::U64s(
                    keys.iter()
                        .map(|&k| {
                            if op == cluster_op::MEMBER {
                                u64::from(twin.member(k))
                            } else {
                                twin.frequency(k)
                            }
                        })
                        .collect(),
                ),
                other => panic!("unexpected request {other:?}"),
            };
            match (&got, &want) {
                (Response::F64(g), Response::F64(w)) => assert_eq!(g.to_bits(), w.to_bits()),
                _ => assert_eq!(got, want),
            }
        }
    }

    for n in nodes {
        n.shutdown();
        n.wait();
    }
}

#[test]
fn killing_a_primary_promotes_its_replica() {
    let (addrs, roster, mut nodes) = start_cluster(800);
    let map = nodes[0].directory().get();

    // Put keys into every partition, including some owned by partition 0
    // (whose primary we are about to kill).
    let mut rng = Rng(0xDEAD_BEEF_0001);
    let keys: Vec<u64> = (0..900).map(|_| rng.next() % 2_048).collect();
    cluster_insert(&roster, &map, 0, &keys);
    let p0_keys: Vec<u64> = keys.iter().copied().filter(|&k| map.partition_of(k) == 0).collect();
    assert!(!p0_keys.is_empty(), "need at least one partition-0 key");

    // Let the replica tail drain, then kill partition 0's primary.
    std::thread::sleep(Duration::from_millis(1_200));
    let node1 = nodes.remove(0);
    node1.shutdown();
    node1.wait();

    // Node 2 holds partition 0's replica; it must promote itself and the
    // new map must reach node 3 through gossip.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let view = nodes.last().expect("node 3").directory().get();
        if view.epoch >= 2 && view.partitions[0].primary.node_id == 2 {
            break;
        }
        assert!(Instant::now() < deadline, "failover did not converge: {view:?}");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Scatter-gather through node 3 keeps answering for partition-0 keys
    // via the promoted replica.
    let mut c = client(&addrs[2]);
    for &k in p0_keys.iter().rev().take(32) {
        match c.cluster_query(cluster_op::MEMBER, k).expect("member after failover") {
            she_server::protocol::Response::Bool(b) => {
                assert!(b, "key {k} lost by failover");
            }
            other => panic!("unexpected member reply {other:?}"),
        }
    }

    for n in nodes {
        n.shutdown();
        n.wait();
    }
}

#[test]
fn migrate_moves_state_to_a_different_shard_count() {
    let src = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig { window: 4_096, shards: 2, memory_bytes: 8_192, seed: 3 },
        repl_log: 4_096,
        ..Default::default()
    })
    .expect("src");
    // Destination sized exactly as `rebalanced_config(3)` of the source:
    // per-shard window 2048 and memory 4096, times three shards.
    let dst = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig { window: 6_144, shards: 3, memory_bytes: 12_288, seed: 3 },
        ..Default::default()
    })
    .expect("dst");
    let (src_addr, dst_addr) = (src.local_addr().to_string(), dst.local_addr().to_string());

    let mut rng = Rng(0x5EED_0042);
    let keys: Vec<u64> = (0..600).map(|_| rng.next() % 1_024).collect();
    let mut c = client(&src_addr);
    c.insert_batch(0, &keys).expect("insert");

    let report = migrate(&src_addr, &dst_addr, 3, Duration::from_secs(10)).expect("migrate");
    assert_eq!(report.dst_shards, 3);
    assert_eq!(report.applied, report.cut + report.records);

    let mut sc = client(&src_addr);
    let mut dc = client(&dst_addr);
    for &k in keys.iter().rev().take(64) {
        assert!(dc.query_member(k).expect("member"), "key {k} lost in migration");
        let sf = sc.query_freq(k).expect("src freq");
        let df = dc.query_freq(k).expect("dst freq");
        assert!(df >= 1 && df >= sf.min(1), "key {k}: src freq {sf}, dst freq {df}");
    }

    src.shutdown();
    src.wait();
    dst.shutdown();
    dst.wait();
}
