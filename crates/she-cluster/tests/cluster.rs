//! End-to-end cluster tests: scatter-gather answers bit-for-bit against a
//! single in-process engine, automated failover, and live migration.

use she_cluster::{migrate, ClusterNode, NodeConfig};
use she_server::{cluster_op, Client, DirectEngine, EngineConfig, NodeRef, Server, ServerConfig};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Grab `n` free ports by binding and immediately releasing them. The
/// tiny reuse race is acceptable in tests.
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

fn start_cluster(addrs: &[String], heartbeat_ms: u64) -> (Vec<NodeRef>, Vec<ClusterNode>) {
    let roster: Vec<NodeRef> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| NodeRef { node_id: i as u64 + 1, addr: a.clone() })
        .collect();
    let nodes: Vec<ClusterNode> = roster
        .iter()
        .map(|r| {
            ClusterNode::start(NodeConfig {
                node_id: r.node_id,
                roster: roster.clone(),
                window: 6 * 1024,
                memory_bytes: 12 * 1024,
                seed: 7,
                gossip_ms: 100,
                heartbeat_timeout_ms: heartbeat_ms,
                ..Default::default()
            })
            .expect("start node")
        })
        .collect();
    (roster, nodes)
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
    let addrs = reserve_addrs(3);
    let (roster, nodes) = start_cluster(&addrs, 60_000); // no failover here
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

#[test]
fn killing_a_primary_promotes_its_replica() {
    let addrs = reserve_addrs(3);
    let (roster, mut nodes) = start_cluster(&addrs, 800);
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
