//! The kill-primary failover drill: a quorum-replicated cluster under a
//! seeded workload loses primaries outright — the partition-0
//! primary and then the node just promoted in its place — while every
//! `CLUSTER_JOIN` gossip exchange is routed through a fault proxy
//! (partial reads, delays, mid-frame resets, duplicated deliveries). The
//! surviving nodes must elect and converge on a new map within the
//! failover budget after every kill, acknowledged writes must continue
//! from the correct offset, and a scatter-gather battery through a
//! surviving coordinator must stay bit-for-bit identical to a single
//! in-process mirror of the full stream.
//!
//! The drill is the cluster-layer counterpart of [`crate::soak`]: the
//! soak fires faults at one replication link, the drill removes whole
//! nodes and checks the *membership* machinery — deterministic election
//! over the full holder set (lowest-id live holder), replica top-up back
//! toward the replication factor, gossip convergence through a hostile
//! network, and query re-routing — end to end against real servers.

use crate::fault::FaultConfig;
use crate::proxy::ChaosProxy;
use she_cluster::{ClusterNode, NodeConfig};
use she_hash::{mix64, RandomSource, Xoshiro256};
use she_server::protocol::Response;
use she_server::{
    cluster_op, Client, ClusterMap, DirectEngine, EngineConfig, NodeRef, PartitionMap,
};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// The two values a drill run varies; the cluster's shape is fixed by
/// the constants below.
#[derive(Debug, Clone)]
pub struct ClusterDrillConfig {
    /// Master seed for the workload, the probe set, and the gossip fault
    /// schedules.
    pub seed: u64,
    /// Keys inserted before the first kill; each later round inserts a
    /// quarter more.
    pub keys: usize,
}

/// Cluster size (one partition per node; 3 so two kills leave a
/// survivor).
const NODES: usize = 3;
/// Cluster-wide window, in items.
const WINDOW: u64 = 6 * 1024;
/// Cluster-wide memory budget per structure.
const MEMORY_BYTES: usize = 12 * 1024;
/// Heartbeat timeout after which a silent peer is declared dead.
const HEARTBEAT_TIMEOUT_MS: u64 = 800;
/// Replication factor: holders per partition, primary included.
const REPLICATION: u16 = 2;
/// Primaries to kill, one per round: each round kills partition 0's
/// *current* primary, so round two takes out the freshly promoted node.
const KILLS: usize = 2;

/// What the drill observed. A report implies every check passed; the
/// fields are what the calling test asserts on.
#[derive(Debug, Clone)]
pub struct ClusterDrillReport {
    /// Keys inserted (cluster and mirror alike), all rounds.
    pub inserted: u64,
    /// Node ids killed, in order.
    pub killed: Vec<u64>,
    /// Partition 0's primary after each kill.
    pub promoted: Vec<u64>,
    /// Wall-clock from each kill to every survivor serving the new map.
    pub failover_ms: Vec<u64>,
    /// Faults the gossip proxies injected.
    pub gossip_faults: u64,
    /// Battery answers compared bit-for-bit after the last failover.
    pub battery: usize,
}

/// Outer bound on any single wait inside the drill.
const DRILL_TIMEOUT: Duration = Duration::from_secs(60);

fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Grab `n` distinct loopback ports by binding and immediately releasing
/// them; the tiny reuse window is acceptable in a drill.
fn reserve_addrs(n: usize) -> Result<Vec<String>, String> {
    let mut listeners = Vec::with_capacity(n);
    for _ in 0..n {
        listeners.push(TcpListener::bind("127.0.0.1:0").map_err(ctx("reserve port"))?);
    }
    let mut addrs = Vec::with_capacity(n);
    for l in &listeners {
        addrs.push(l.local_addr().map_err(ctx("read reserved port"))?.to_string());
    }
    Ok(addrs)
}

fn connect_node(addr: &str) -> Result<Client, String> {
    let mut c = Client::connect_timeout(addr, Duration::from_secs(5))
        .map_err(ctx("connect to cluster node"))?;
    c.hello().map_err(ctx("hello"))?;
    Ok(c)
}

/// Block until every replica the map lists for this partition has acked
/// the primary's log head. Replicas subscribe with their node id, so the
/// primary's peer list carries `id@addr` labels we can match holders
/// against. A kill before the holders drain would be testing data loss,
/// not failover.
fn drain_partition(part: &PartitionMap, deadline: Instant) -> Result<(), String> {
    loop {
        let info = connect_node(&part.primary.addr)?
            .cluster_status()
            .map_err(ctx("partition cluster status"))?;
        let caught = |id: u64| {
            let tag = format!("{id}@");
            info.peers.iter().any(|p| p.addr.starts_with(&tag) && p.acked >= info.head)
        };
        if info.head == 0 || part.replicas.iter().all(|r| caught(r.node_id)) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "partition of primary {} never drained (head {}, peers {:?}, want {:?})",
                part.primary.node_id,
                info.head,
                info.peers,
                part.replicas.iter().map(|r| r.node_id).collect::<Vec<_>>()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Route one batch of keys into the cluster the way a map-aware writer
/// would, mirroring every key into the in-process engine first.
fn insert_routed(
    map: &ClusterMap,
    mirror: &mut DirectEngine,
    stream: u8,
    keys: &[u64],
) -> Result<u64, String> {
    for &k in keys {
        mirror.insert(stream, k);
    }
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); map.partitions.len()];
    for &k in keys {
        // audit:allow(growth): one entry per workload key
        buckets[map.partition_of(k)].push(k);
    }
    let mut inserted = 0u64;
    for (p, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let mut c = connect_node(&map.partitions[p].primary.addr)?;
        inserted += c.insert_batch(stream, bucket).map_err(ctx("insert on partition"))?;
    }
    Ok(inserted)
}

/// Run the drill; `Err` carries the first failed check (the caller
/// prints the seed for replay).
pub fn run(cfg: &ClusterDrillConfig) -> Result<ClusterDrillReport, String> {
    let addrs = reserve_addrs(NODES)?;
    let roster: Vec<NodeRef> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| NodeRef {
            node_id: u64::try_from(i).unwrap_or(u64::MAX) + 1,
            addr: a.clone(),
        })
        .collect();

    // Every CLUSTER_JOIN dial goes through a per-peer fault proxy; the
    // data plane (inserts, queries, replication, anti-entropy) keeps the
    // real addresses — the drill attacks membership, not payloads.
    let mut proxies: Vec<ChaosProxy> = Vec::with_capacity(NODES);
    let mut gossip_via: BTreeMap<u64, String> = BTreeMap::new();
    for r in &roster {
        let proxy =
            ChaosProxy::start(r.addr.clone(), FaultConfig::gossip(cfg.seed ^ mix64(r.node_id)))
                .map_err(ctx("start gossip proxy"))?;
        gossip_via.insert(r.node_id, proxy.local_addr().to_string());
        // audit:allow(growth): one proxy per node
        proxies.push(proxy);
    }

    let mut nodes: Vec<(u64, ClusterNode)> = Vec::with_capacity(NODES);
    for r in &roster {
        nodes.push((
            r.node_id,
            ClusterNode::start(NodeConfig {
                node_id: r.node_id,
                roster: roster.clone(),
                window: WINDOW,
                memory_bytes: MEMORY_BYTES,
                seed: 7,
                gossip_ms: 50,
                heartbeat_timeout_ms: HEARTBEAT_TIMEOUT_MS,
                replication: REPLICATION,
                anti_entropy_ms: 500,
                gossip_via: gossip_via.clone(),
                ..Default::default()
            })
            .map_err(ctx("start cluster node"))?,
        ));
    }
    let map = nodes[0].1.directory().get();

    // ---- seeded workload, routed like a cluster-aware writer ----------
    let mut mirror = DirectEngine::new(EngineConfig {
        window: WINDOW,
        shards: NODES,
        memory_bytes: MEMORY_BYTES,
        seed: 7,
    });
    let mut rng = Xoshiro256::new(mix64(cfg.seed ^ 0xD1CE_D1CE));
    let mut inserted = 0u64;
    for stream in [0u8, 1u8] {
        let count = if stream == 0 { cfg.keys } else { cfg.keys / 4 };
        let keys: Vec<u64> = (0..count).map(|_| rng.next_range(0, 4_096)).collect();
        inserted += insert_routed(&map, &mut mirror, stream, &keys)?;
    }

    // ---- drain every partition's holders before the first kill --------
    let drain_by = Instant::now() + DRILL_TIMEOUT;
    for part in &map.partitions {
        drain_partition(part, drain_by)?;
    }

    // ---- kill rounds: partition 0's current primary, each time --------
    let mut killed: Vec<u64> = Vec::with_capacity(KILLS);
    let mut promoted: Vec<u64> = Vec::with_capacity(KILLS);
    let mut failover_ms: Vec<u64> = Vec::with_capacity(KILLS);
    let mut cur = map;
    for _round in 0..KILLS {
        let victim_id = cur.partitions[0].primary.node_id;
        let at = nodes
            .iter()
            .position(|(id, _)| *id == victim_id)
            .ok_or_else(|| format!("node {victim_id} not found in the started set"))?;
        let (_, victim) = nodes.remove(at);
        let killed_at = Instant::now();
        victim.shutdown();
        victim.wait();
        // audit:allow(growth): one entry per kill round
        killed.push(victim_id);

        // Every survivor must converge on one map in which every
        // partition — not just partition 0; the victim may have held or
        // served others — is led by a live node.
        let deadline = killed_at + DRILL_TIMEOUT;
        let new_map: ClusterMap = loop {
            let mut views: Vec<ClusterMap> =
                nodes.iter().map(|(_, n)| n.directory().get()).collect();
            let settled = views.iter().all(|v| v == &views[0])
                && views[0].partitions.iter().all(|p| !killed.contains(&p.primary.node_id));
            if settled {
                break views.remove(0);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "failover did not converge within {}s after killing {victim_id} \
                     (epochs: {:?})",
                    DRILL_TIMEOUT.as_secs(),
                    views.iter().map(|v| v.epoch).collect::<Vec<_>>()
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        failover_ms.push(u64::try_from(killed_at.elapsed().as_millis()).unwrap_or(u64::MAX));
        promoted.push(new_map.partitions[0].primary.node_id);

        // Acknowledged writes must continue from the correct offset:
        // route a fresh slice of the workload by the new map, then drain
        // the (topped-up) holder sets so the next kill finds every
        // surviving holder caught up.
        let extra: Vec<u64> = (0..cfg.keys / 4).map(|_| rng.next_range(0, 4_096)).collect();
        inserted += insert_routed(&new_map, &mut mirror, 0, &extra)?;
        let drain_by = Instant::now() + DRILL_TIMEOUT;
        for part in &new_map.partitions {
            drain_partition(part, drain_by)?;
        }
        cur = new_map;
    }

    // ---- post-failover battery, bit-for-bit vs the mirror -------------
    let coordinator = nodes.last().ok_or("no survivors")?.1.local_addr().to_string();
    let mut c = connect_node(&coordinator)?;
    let probes: Vec<u64> = (0..64).map(|_| rng.next_range(0, 4_096)).collect();
    let mut battery = 0usize;
    for &k in &probes {
        match c.cluster_query(cluster_op::MEMBER, k).map_err(ctx("cluster member"))? {
            Response::Bool(b) if b == mirror.member(k) => battery += 1,
            other => return Err(format!("member({k}) diverged after failover: {other:?}")),
        }
        match c.cluster_query(cluster_op::FREQ, k).map_err(ctx("cluster freq"))? {
            Response::U64(n) if n == mirror.frequency(k) => battery += 1,
            other => return Err(format!("freq({k}) diverged after failover: {other:?}")),
        }
    }
    match c.cluster_query(cluster_op::CARD, 0).map_err(ctx("cluster card"))? {
        Response::F64(v) if v.to_bits() == mirror.cardinality().to_bits() => battery += 1,
        other => return Err(format!("cardinality diverged after failover: {other:?}")),
    }
    match c.cluster_query(cluster_op::SIM, 0).map_err(ctx("cluster sim"))? {
        Response::F64(v) if v.to_bits() == mirror.similarity().to_bits() => battery += 1,
        other => return Err(format!("similarity diverged after failover: {other:?}")),
    }

    let gossip_fault_total: u64 = proxies.iter().map(|p| p.counters().snapshot().total()).sum();
    if gossip_fault_total == 0 {
        return Err("gossip proxies injected nothing — the chaos leg did not engage".to_string());
    }

    for (_, n) in nodes {
        n.shutdown();
        n.wait();
    }
    for p in proxies {
        p.stop();
    }

    Ok(ClusterDrillReport {
        inserted,
        killed,
        promoted,
        failover_ms,
        gossip_faults: gossip_fault_total,
        battery,
    })
}
