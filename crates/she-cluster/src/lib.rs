//! she-cluster: a partitioned multi-primary cluster over she-server.
//!
//! A cluster of `N` nodes serves `N` key-space *partitions*. Each node
//! runs, inside one [`ClusterNode`]:
//!
//! * a **primary server** for its own partition — a single-shard
//!   she-server sized `window/N`, `memory/N`, exactly how shard `p` of an
//!   `N`-shard engine is sized, which is what makes cluster-wide answers
//!   bit-for-bit identical to one `N`-shard single-process engine (see
//!   `docs/CLUSTER.md`);
//! * one **replica slot** per partition the cluster map says this node
//!   holds — at replication factor `R`, each partition is held by its
//!   primary plus the next `R-1` distinct ring successors — each slot
//!   reusing the `she-replica` bootstrap + op-log tail runtime with
//!   cluster-aware re-targeting ([`she_replica::ReplicaConfig::follow`])
//!   and periodic anti-entropy merge sweeps. Slots are *reconciled
//!   against the live map* every monitor tick: when an election drafts
//!   this node into a partition's replica set, the slot is spawned; when
//!   the map moves the partition away, the slot is unwound;
//! * a **gossip/failover monitor**: every `gossip_ms` it exchanges
//!   cluster maps with every peer (`CLUSTER_JOIN` push-pull, adopting
//!   whichever view is newer under the total order), tracks which peers
//!   answered recently, and when a partition's primary falls silent past
//!   `heartbeat_timeout_ms` runs the deterministic election
//!   ([`ClusterMap::elect`]: lowest-id live *holder* wins, and replica
//!   sets are topped back up toward the replication factor from live
//!   non-holders). A node that wins a partition promotes its local
//!   replica ([`she_replica::Replica::promote`]), rewrites the map entry
//!   with the promoted server's real address, and installs the epoch+1
//!   map; a live primary whose partition merely needs its replica set
//!   repaired installs the repair the same way. Every other node — and
//!   every cluster-aware client — picks the new map up through gossip
//!   and re-routes without restarting.
//!
//! Failover convergence is the point of the design: the election is a
//! pure function of `(map, alive)` and maps are totally ordered, so any
//! gossip schedule drives every surviving node to the same view — the
//! seeded property test below drives random heartbeat-loss sequences
//! through random gossip orders and asserts exactly that.
//!
//! [`migrate`] moves one partition between *running* servers: the bulk
//! travels as a `REPL_BOOTSTRAP` checkpoint rebuilt at the destination's
//! shard count (any count — the range-overlap merge in
//! `she_core::sharded` retired the divisible-only restriction), and
//! the delta replays from the source's op log until the destination has
//! caught the head.

use she_core::OrderedMutex;
use she_replica::{Replica, ReplicaConfig};
use she_server::codec::read_frame;
use she_server::protocol::Response;
use she_server::repl::Record;
use she_server::{
    Checkpoint, Client, ClusterDirectory, ClusterMap, EngineConfig, NodeRef, PartitionMap,
    ReadPathConfig, Server, ServerConfig,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connect/op deadline for one gossip exchange — short, so one dead peer
/// cannot stall the whole round past the heartbeat budget.
const GOSSIP_OP_TIMEOUT: Duration = Duration::from_millis(1_000);

/// How a node joins a cluster.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's cluster-unique id; elections break ties toward the
    /// lowest id, so ids are placement policy, not just names.
    pub node_id: u64,
    /// Every node in the cluster — including this one — as `id ⇒ addr`.
    /// All nodes must be started with the same roster: the epoch-1 map
    /// is computed from it deterministically, no coordinator involved.
    pub roster: Vec<NodeRef>,
    /// Cluster-wide window, in items; each partition gets `window/N`.
    pub window: u64,
    /// Cluster-wide memory budget per structure; each partition gets
    /// `memory/N`.
    pub memory_bytes: usize,
    /// Sketch seed, identical across the cluster.
    pub seed: u32,
    /// Bounded depth of each server's shard queue, in jobs.
    pub queue_capacity: usize,
    /// Op-log depth on every server (primary *and* replica, so a promoted
    /// replica can feed successors). Must be nonzero: replication is what
    /// failover promotes.
    pub repl_log: usize,
    /// Gossip round interval, in milliseconds.
    pub gossip_ms: u64,
    /// Declare a peer dead after this much gossip silence. Must
    /// comfortably exceed `gossip_ms`.
    pub heartbeat_timeout_ms: u64,
    /// Replication factor: total holders per partition, primary
    /// included (clamped to the roster size). 2 is primary plus one
    /// ring-successor replica.
    pub replication: u16,
    /// Anti-entropy merge-sweep interval for every replica slot, in
    /// milliseconds; 0 disables periodic sweeps.
    pub anti_entropy_ms: u64,
    /// Serve the `QUERY_FAST` read path on this node's primary and
    /// replica servers.
    pub readpath: bool,
    /// Dial these addresses instead of the roster addresses for
    /// `CLUSTER_JOIN` gossip exchanges with the named peers. This is the
    /// chaos hook: the drill routes gossip through `ChaosProxy` by
    /// pointing `gossip_via` at proxy listeners while data-plane
    /// traffic keeps the real addresses.
    pub gossip_via: BTreeMap<u64, String>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            node_id: 1,
            roster: Vec::new(),
            window: 1 << 16,
            memory_bytes: 64 << 10,
            seed: 1,
            queue_capacity: 256,
            repl_log: 4_096,
            gossip_ms: 250,
            heartbeat_timeout_ms: 2_000,
            replication: 2,
            anti_entropy_ms: 0,
            readpath: false,
            gossip_via: BTreeMap::new(),
        }
    }
}

/// Parse a `1@127.0.0.1:7501,2@127.0.0.1:7502` roster string.
pub fn parse_roster(s: &str) -> Result<Vec<NodeRef>, String> {
    let mut roster = Vec::new();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let Some((id, addr)) = part.split_once('@') else {
            return Err(format!("roster entry `{part}` is not `id@host:port`"));
        };
        let node_id =
            id.parse::<u64>().map_err(|e| format!("roster entry `{part}`: bad id: {e}"))?;
        if addr.is_empty() {
            return Err(format!("roster entry `{part}` has an empty address"));
        }
        // audit:allow(growth): one entry per roster argument
        roster.push(NodeRef { node_id, addr: addr.to_string() });
    }
    if roster.is_empty() {
        return Err("roster is empty".to_string());
    }
    Ok(roster)
}

/// The per-partition engine sizing: shard `p` of an `N`-shard engine.
fn partition_engine(cfg: &NodeConfig, n: usize) -> EngineConfig {
    EngineConfig {
        window: (cfg.window / n as u64).max(1),
        shards: 1,
        memory_bytes: (cfg.memory_bytes / n).max(64),
        seed: cfg.seed,
    }
}

/// One running cluster node: the partition primary, the replica slots
/// the map assigns it, and the gossip/failover monitor that owns them.
#[derive(Debug)]
pub struct ClusterNode {
    server: Server,
    directory: Arc<ClusterDirectory>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ClusterNode {
    /// Start this node's share of the cluster described by `cfg`.
    ///
    /// The primary server binds immediately; replica slots bootstrap in
    /// the background (peers boot in arbitrary order, so an upstream may
    /// not be up yet) and keep retrying until they succeed, the map
    /// moves the partition away, or the node stops.
    pub fn start(cfg: NodeConfig) -> io::Result<ClusterNode> {
        let mut roster = cfg.roster.clone();
        roster.sort_by_key(|r| r.node_id);
        let n = roster.len();
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty cluster roster"));
        }
        if roster.windows(2).any(|w| w[0].node_id == w[1].node_id) {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "duplicate node id in roster"));
        }
        let Some(me) = roster.iter().position(|r| r.node_id == cfg.node_id) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node id {} is not in the roster", cfg.node_id),
            ));
        };
        if cfg.repl_log == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cluster nodes need a nonzero repl-log (failover promotes replicas)",
            ));
        }

        let directory =
            Arc::new(ClusterDirectory::new(ClusterMap::initial_rf(&roster, cfg.replication)));
        let server = Server::start(ServerConfig {
            addr: roster[me].addr.clone(),
            engine: partition_engine(&cfg, n),
            queue_capacity: cfg.queue_capacity,
            repl_log: cfg.repl_log,
            cluster: Some(Arc::clone(&directory)),
            readpath: cfg.readpath.then(ReadPathConfig::default),
            ..Default::default()
        })?;

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        {
            let directory = Arc::clone(&directory);
            let stop = Arc::clone(&stop);
            let cfg = cfg.clone();
            let my_addr = roster[me].addr.clone();
            // audit:allow(growth): fixed worker set — one gossip/failover monitor per node
            threads.push(std::thread::Builder::new().name("she-cluster-gossip".into()).spawn(
                move || {
                    Monitor {
                        directory,
                        stop,
                        cfg,
                        roster,
                        my_addr,
                        slots: BTreeMap::new(),
                        promoted: Vec::new(),
                    }
                    .run();
                },
            )?);
        }

        Ok(ClusterNode { server, directory, stop, threads })
    }

    /// The primary server's bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The node's live view of the cluster map.
    pub fn directory(&self) -> &Arc<ClusterDirectory> {
        &self.directory
    }

    /// Ask the node to stop, as if a client sent `SHUTDOWN`.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }

    /// Block until something stops the node (a wire `SHUTDOWN` or
    /// [`ClusterNode::shutdown`]), then unwind: the monitor thread first
    /// (which in turn unwinds every replica slot and promoted replica it
    /// owns), then the primary server.
    pub fn wait(mut self) -> Vec<she_server::ShardStats> {
        while !self.server.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.server.wait()
    }
}

/// `host:port` → `host:0`, so the replica binds an ephemeral port on the
/// same interface its node serves on.
fn ephemeral_on_same_host(addr: &str) -> String {
    match addr.rsplit_once(':') {
        Some((host, _)) => format!("{host}:0"),
        None => "127.0.0.1:0".to_string(),
    }
}

/// One replica slot the monitor owns: the cell its bootstrap thread
/// fills, the flag that cancels that thread, and the thread itself.
#[derive(Debug)]
struct Slot {
    cell: Arc<OrderedMutex<Option<Replica>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// The gossip + failover loop (one thread per node). The monitor is the
/// sole owner of this node's replica slots and promoted replicas, so
/// slot lifecycle needs no cross-thread coordination beyond the cells.
#[derive(Debug)]
struct Monitor {
    directory: Arc<ClusterDirectory>,
    stop: Arc<AtomicBool>,
    cfg: NodeConfig,
    roster: Vec<NodeRef>,
    my_addr: String,
    /// Live replica slots, keyed by partition.
    slots: BTreeMap<usize, Slot>,
    /// Replicas this node promoted to partition primaries; they keep
    /// serving until the node unwinds.
    promoted: Vec<Replica>,
}

impl Monitor {
    fn run(mut self) {
        let gossip = Duration::from_millis(self.cfg.gossip_ms.max(10));
        let timeout = Duration::from_millis(self.cfg.heartbeat_timeout_ms.max(1));
        let my_id = self.cfg.node_id;
        // Grace period: every peer counts as just-seen at start, so a
        // node that boots first does not instantly elect itself over
        // peers that are still coming up.
        let mut last_seen: BTreeMap<u64, Instant> =
            self.roster.iter().map(|r| (r.node_id, Instant::now())).collect();
        while !self.stop.load(Ordering::SeqCst) {
            std::thread::sleep(gossip);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }

            // Push-pull round: offer my view, adopt any newer reply.
            // `gossip_via` lets the chaos drill splice a fault proxy into
            // exactly this exchange and nothing else.
            let my_view = self.directory.get();
            for peer in self.roster.iter().filter(|r| r.node_id != my_id) {
                let dial = self.cfg.gossip_via.get(&peer.node_id).map_or(peer.addr.as_str(), |v| v);
                if let Ok(mut c) = Client::connect_timeout(dial, GOSSIP_OP_TIMEOUT) {
                    if let Ok(reply) = c.cluster_join(my_id, &my_view) {
                        self.directory.observe(&reply);
                        last_seen.insert(peer.node_id, Instant::now());
                    }
                }
            }

            let now = Instant::now();
            let alive: BTreeSet<u64> = std::iter::once(my_id)
                .chain(
                    last_seen
                        .iter()
                        .filter(|(_, t)| now.duration_since(**t) < timeout)
                        .map(|(id, _)| *id),
                )
                .collect();

            self.reconcile_slots();
            self.elect_and_install(&alive);
        }
        self.unwind();
    }

    /// Bring the owned replica slots in line with the current map: spawn
    /// a slot for every partition whose replica set names this node, and
    /// unwind slots for partitions the map moved elsewhere (or that this
    /// node now serves as primary).
    fn reconcile_slots(&mut self) {
        let my_id = self.cfg.node_id;
        let map = self.directory.get();
        let desired: BTreeSet<usize> = map
            .partitions
            .iter()
            .enumerate()
            .filter(|(_, pm)| {
                pm.primary.node_id != my_id && pm.replicas.iter().any(|r| r.node_id == my_id)
            })
            .map(|(p, _)| p)
            .collect();
        let stale: Vec<usize> =
            self.slots.keys().copied().filter(|p| !desired.contains(p)).collect();
        for p in stale {
            if let Some(slot) = self.slots.remove(&p) {
                unwind_slot(slot);
            }
        }
        for &p in &desired {
            if !self.slots.contains_key(&p) {
                if let Some(slot) = self.spawn_slot(p, &map) {
                    self.slots.insert(p, slot);
                }
            }
        }
    }

    /// Start one replica slot for partition `p`: a retrying bootstrap
    /// thread that parks the built [`Replica`] in the slot's cell. The
    /// replica follows the partition through the directory, so it
    /// re-targets a promoted upstream on its own.
    fn spawn_slot(&self, p: usize, map: &ClusterMap) -> Option<Slot> {
        let rc = ReplicaConfig {
            listen_addr: ephemeral_on_same_host(&self.my_addr),
            primary: map.partitions.get(p)?.primary.addr.clone(),
            queue_capacity: self.cfg.queue_capacity,
            heartbeat_timeout_ms: self.cfg.heartbeat_timeout_ms,
            repl_log: self.cfg.repl_log,
            cluster: Some(Arc::clone(&self.directory)),
            readpath: self.cfg.readpath.then(ReadPathConfig::default),
            anti_entropy_ms: self.cfg.anti_entropy_ms,
            follow: Some(p),
            node_id: self.cfg.node_id,
            max_bootstrap_attempts: 2,
            ..Default::default()
        };
        let cell = Arc::new(OrderedMutex::new("cluster-node-replica", None));
        let slot_stop = Arc::new(AtomicBool::new(false));
        let (cell2, stop2, node_stop) =
            (Arc::clone(&cell), Arc::clone(&slot_stop), Arc::clone(&self.stop));
        let thread = std::thread::Builder::new()
            .name("she-cluster-replica".into())
            .spawn(move || {
                while !stop2.load(Ordering::SeqCst) && !node_stop.load(Ordering::SeqCst) {
                    match Replica::start(rc.clone()) {
                        Ok(r) => {
                            *cell2.lock() = Some(r);
                            return;
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(200)),
                    }
                }
            })
            .ok()?;
        Some(Slot { cell, stop: slot_stop, thread: Some(thread) })
    }

    /// Run the deterministic election and install every changed
    /// partition *this node* is responsible for: promotions of its own
    /// replica slots (rewriting the map entry with the promoted server's
    /// real address — only the winner knows it) and replica-set repairs
    /// of partitions it already serves as primary. Losers converge by
    /// hearing the winner's map through gossip.
    fn elect_and_install(&mut self, alive: &BTreeSet<u64>) {
        let my_id = self.cfg.node_id;
        let cur = self.directory.get();
        let Some(cand) = cur.elect(alive) else { return };
        let mut next = cur.clone();
        let mut installed = false;
        for p in 0..cand.partitions.len() {
            if cand.partitions[p] == cur.partitions[p]
                || cand.partitions[p].primary.node_id != my_id
            {
                continue;
            }
            if cur.partitions[p].primary.node_id == my_id {
                // Already this partition's primary: install the repaired
                // replica set as-is.
                next.partitions[p] = cand.partitions[p].clone();
                installed = true;
                continue;
            }
            // A promotion: take the local replica out of its slot. Not
            // bootstrapped yet means retry next round — the candidate is
            // a pure function of (map, alive), so it will reappear.
            let taken = match self.slots.get(&p) {
                Some(slot) => slot.cell.lock().take(),
                None => None,
            };
            let Some(mut replica) = taken else { continue };
            let addr = replica.promote();
            // audit:allow(growth): bounded by the partition count
            self.promoted.push(replica);
            next.partitions[p] = PartitionMap {
                primary: NodeRef { node_id: my_id, addr: addr.to_string() },
                replicas: cand.partitions[p].replicas.clone(),
            };
            installed = true;
        }
        if installed {
            next.epoch = cur.epoch + 1;
            self.directory.observe(&next);
        }
    }

    /// Stop and join everything the monitor owns.
    fn unwind(&mut self) {
        let slots = std::mem::take(&mut self.slots);
        for (_, slot) in slots {
            unwind_slot(slot);
        }
        for replica in self.promoted.drain(..) {
            replica.join();
        }
    }
}

/// Stop one slot: cancel its bootstrap thread, then shut down whatever
/// replica it had built.
fn unwind_slot(mut slot: Slot) {
    slot.stop.store(true, Ordering::SeqCst);
    if let Some(t) = slot.thread.take() {
        let _ = t.join();
    }
    let replica = slot.cell.lock().take();
    if let Some(r) = replica {
        r.join();
    }
}

/// What [`migrate`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Op-log position the bulk checkpoint was cut at.
    pub cut: u64,
    /// Last op-log record replayed into the destination.
    pub applied: u64,
    /// Delta records replayed after the bulk restore.
    pub records: u64,
    /// Shard count the state was rebuilt at on the destination.
    pub dst_shards: usize,
}

/// Move a running server's state to another running server, live:
///
/// 1. **Bulk** — fetch a `REPL_BOOTSTRAP` package from `src` (checkpoint
///    plus the op-log cut it reflects), rebuild it at `dst_shards` via
///    the range-overlap snapshot merge (any shard count, divisible or
///    not), and `RESTORE` each rebuilt shard into `dst`.
/// 2. **Delta** — subscribe to `src`'s op log from the cut and replay
///    every record into `dst` as a normal insert (routed by `dst`'s own
///    shard map), until a heartbeat confirms the destination has caught
///    the source's head.
///
/// `dst` must be a running server with `dst_shards` shards and the
/// matching rebalanced per-shard sizing (the `RESTORE` frames carry their
/// config, so a mismatch fails cleanly rather than corrupting). Pass
/// `dst_shards == src`'s count for a plain move, or a different count to
/// reshard in flight — this is what retired the "divisible shard-count
/// only" rebalancing restriction.
pub fn migrate(
    src: &str,
    dst: &str,
    dst_shards: usize,
    op_timeout: Duration,
) -> io::Result<MigrationReport> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);

    let mut sc = Client::connect_timeout(src, op_timeout)?;
    sc.hello()?;
    let (cut, bytes) = sc.repl_bootstrap()?;
    let ckpt = Checkpoint::decode(&bytes).map_err(|e| invalid(e.to_string()))?;
    let target = if dst_shards == 0 { ckpt.cfg.shards } else { dst_shards };
    let (cfg, engines) = ckpt.build_engines(target).map_err(|e| invalid(e.to_string()))?;

    let mut dc = Client::connect_timeout(dst, op_timeout)?;
    dc.hello()?;
    for (j, e) in engines.iter().enumerate() {
        let shard = u32::try_from(j).map_err(|_| invalid("shard index exceeds u32".into()))?;
        dc.restore(shard, &e.snapshot())?;
    }

    // Delta replay: tail the source's log from the cut; a heartbeat whose
    // head we have already applied means the destination is caught up.
    let mut tail = Client::connect_timeout(src, op_timeout)?;
    tail.hello()?;
    let mut sock = tail.subscribe(cut + 1, 0)?;
    sock.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut applied = cut;
    let mut records = 0u64;
    let deadline = Instant::now() + op_timeout;
    loop {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("migration delta did not converge within {op_timeout:?}"),
            ));
        }
        match read_frame(&mut sock) {
            Ok(Some(payload)) => {
                let resp = Response::decode(&payload).map_err(|e| invalid(format!("{e:?}")))?;
                match resp {
                    Response::ReplOp(data) => {
                        let rec = Record::decode(&data).map_err(|e| invalid(format!("{e:?}")))?;
                        if rec.seq <= applied {
                            continue;
                        }
                        if rec.seq != applied + 1 {
                            return Err(invalid(format!(
                                "op-log gap during migration: expected {}, got {}",
                                applied + 1,
                                rec.seq
                            )));
                        }
                        dc.insert_batch(rec.stream, &rec.keys)?;
                        applied = rec.seq;
                        records += 1;
                    }
                    Response::ReplHeartbeat { head } if head <= applied => break,
                    Response::ReplHeartbeat { .. } => {}
                    Response::LogTruncated { .. } => {
                        return Err(invalid("source log truncated under the migration".into()));
                    }
                    Response::Err(e) => return Err(invalid(format!("source refused tail: {e}"))),
                    other => return Err(invalid(format!("unexpected feed frame {other:?}"))),
                }
            }
            Ok(None) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "source hung up mid-migration",
                ));
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(MigrationReport { cut, applied, records, dst_shards: cfg.shards })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64) -> NodeRef {
        NodeRef { node_id: id, addr: format!("127.0.0.1:{}", 7000 + id) }
    }

    #[test]
    fn roster_parses_and_rejects() {
        let r = parse_roster("1@127.0.0.1:7501, 2@127.0.0.1:7502").expect("parse");
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].node_id, 1);
        assert_eq!(r[1].addr, "127.0.0.1:7502");
        assert!(parse_roster("").is_err());
        assert!(parse_roster("1-127.0.0.1:7501").is_err());
        assert!(parse_roster("x@127.0.0.1:7501").is_err());
        assert!(parse_roster("1@").is_err());
    }

    #[test]
    fn partition_sizing_matches_sharded_engine() {
        let cfg = NodeConfig { window: 1 << 16, memory_bytes: 64 << 10, ..Default::default() };
        let per = partition_engine(&cfg, 3);
        assert_eq!(per.shards, 1);
        assert_eq!(per.window, (1u64 << 16) / 3);
        assert_eq!(per.memory_bytes, (64 << 10) / 3);
    }

    #[test]
    fn start_validates_the_roster() {
        let bad = NodeConfig { node_id: 9, roster: vec![node(1), node(2)], ..Default::default() };
        assert!(ClusterNode::start(bad).is_err(), "id not in roster");
        let dup = NodeConfig { node_id: 1, roster: vec![node(1), node(1)], ..Default::default() };
        assert!(ClusterNode::start(dup).is_err(), "duplicate ids");
        let nolog =
            NodeConfig { node_id: 1, roster: vec![node(1)], repl_log: 0, ..Default::default() };
        assert!(ClusterNode::start(nolog).is_err(), "repl_log 0");
    }

    /// A tiny deterministic RNG (xorshift64*) for the convergence test.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            she_hash::reduce_range(self.next(), n)
        }
    }

    /// What one node's monitor does with an election, network-free: the
    /// exact rule [`Monitor::elect_and_install`] applies — install every
    /// changed partition this node is responsible for, promotions with
    /// this node's (simulated) promoted address, replica-set repairs of
    /// partitions it already serves as-is.
    fn apply_local_election(view: &ClusterMap, my_id: u64, alive: &BTreeSet<u64>) -> ClusterMap {
        let Some(cand) = view.elect(alive) else {
            return view.clone();
        };
        let mut next = view.clone();
        let mut installed = false;
        for (p, pm) in cand.partitions.iter().enumerate() {
            if *pm == view.partitions[p] || pm.primary.node_id != my_id {
                continue;
            }
            if view.partitions[p].primary.node_id == my_id {
                next.partitions[p] = pm.clone();
            } else {
                next.partitions[p] = PartitionMap {
                    primary: NodeRef { node_id: my_id, addr: format!("promoted-{my_id}-p{p}") },
                    replicas: pm.replicas.clone(),
                };
            }
            installed = true;
        }
        if installed {
            next.epoch = view.epoch + 1;
            next
        } else {
            view.clone()
        }
    }

    /// One convergence run: random heartbeat losses, each followed by
    /// local elections and gossip rounds whose exchanges are themselves
    /// faulted — dropped or delivered twice, in random order — until the
    /// surviving views reach a fixpoint under *clean* gossip. Asserts
    /// every pair of surviving views is identical and every partition
    /// that kept a live holder has a live primary.
    fn converge_under_faults(seed: u64, rf: u16) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(rf) | 1);
        let n = 3 + (seed as usize % 4); // 3..=6 nodes
        let roster: Vec<NodeRef> = (1..=n as u64).map(node).collect();
        let initial = ClusterMap::initial_rf(&roster, rf);
        let mut views: BTreeMap<u64, ClusterMap> =
            roster.iter().map(|r| (r.node_id, initial.clone())).collect();
        let mut live: BTreeSet<u64> = roster.iter().map(|r| r.node_id).collect();

        while live.len() > 1 {
            // One heartbeat loss: a random live node dies.
            let victims: Vec<u64> = live.iter().copied().collect();
            let dead = victims[rng.below(victims.len())];
            live.remove(&dead);
            views.remove(&dead);

            // Chaos phase: elections interleaved with gossip exchanges
            // that may be dropped (fault proxy reset) or applied twice
            // (duplicated delivery). Neither can corrupt convergence:
            // adoption is idempotent and drops only delay propagation.
            let ids: Vec<u64> = live.iter().copied().collect();
            for _ in 0..ids.len() * ids.len() {
                let id = ids[rng.below(ids.len())];
                let next = apply_local_election(&views[&id], id, &live);
                views.insert(id, next);
                let (a, b) = (ids[rng.below(ids.len())], ids[rng.below(ids.len())]);
                if a == b {
                    continue;
                }
                let repeats = match rng.below(4) {
                    0 => 0, // dropped exchange
                    3 => 2, // duplicated delivery
                    _ => 1,
                };
                for _ in 0..repeats {
                    let (va, vb) = (views[&a].clone(), views[&b].clone());
                    if va.supersedes(&vb) {
                        views.insert(b, va);
                    } else if vb.supersedes(&va) {
                        views.insert(a, vb);
                    }
                }
            }

            // Settle phase: elections + clean pairwise gossip to fixpoint.
            loop {
                let mut changed = false;
                for &id in &ids {
                    let next = apply_local_election(&views[&id], id, &live);
                    if next != views[&id] {
                        views.insert(id, next);
                        changed = true;
                    }
                }
                for &a in &ids {
                    for &b in &ids {
                        if a == b {
                            continue;
                        }
                        let (va, vb) = (views[&a].clone(), views[&b].clone());
                        if va.supersedes(&vb) {
                            views.insert(b, va);
                            changed = true;
                        } else if vb.supersedes(&va) {
                            views.insert(a, vb);
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }

            let mut iter = live.iter();
            if let Some(first) = iter.next() {
                for other in iter {
                    assert_eq!(
                        views[first], views[other],
                        "seed {seed} rf {rf}: views diverged after killing {dead}"
                    );
                }
                // Every partition that kept at least one live holder must
                // be served by a live primary. `views[first]` is the
                // settled holder set from *before* this kill round plus
                // repairs, so judge liveness against the previous settled
                // view's holders — conservatively, against the current
                // one: a live listed holder implies promotability.
                let settled = views[first].clone();
                for (p, pm) in settled.partitions.iter().enumerate() {
                    assert!(
                        live.contains(&pm.primary.node_id)
                            || pm.replicas.iter().all(|r| !live.contains(&r.node_id)),
                        "seed {seed} rf {rf}: partition {p} has a live holder but dead primary {}",
                        pm.primary.node_id
                    );
                    // Replica sets stay topped up while candidates exist:
                    // holders + primary reach min(rf, live).
                    if live.contains(&pm.primary.node_id) {
                        let holders =
                            1 + pm.replicas.iter().filter(|r| live.contains(&r.node_id)).count();
                        assert!(
                            holders >= usize::from(rf).min(live.len()),
                            "seed {seed} rf {rf}: partition {p} under-replicated: {holders} holders"
                        );
                    }
                }
            }
        }
    }

    /// Satellite: any sequence of heartbeat losses — with gossip
    /// exchanges dropped and duplicated along the way — converges every
    /// surviving node to the same cluster map, at RF=2 and RF=3.
    #[test]
    fn seeded_heartbeat_losses_converge_all_views() {
        for seed in 1..=20u64 {
            converge_under_faults(seed, 2);
        }
    }

    #[test]
    fn seeded_heartbeat_losses_converge_all_views_rf3() {
        for seed in 1..=20u64 {
            converge_under_faults(seed, 3);
        }
    }
}
