//! Cluster membership and partition routing.
//!
//! A cluster is a set of nodes, each serving one single-shard *partition*
//! engine. Keys route to partitions with the same monotone
//! [`she_core::sharded::route`] the sharded engine uses, and every
//! partition is sized `window/P`, `memory/P` — exactly how
//! [`ShardEngine`](she_core::sharded::ShardEngine) sizes shard `p` of a
//! `P`-shard engine.
//! A `P`-partition cluster therefore answers every query bit-for-bit like
//! one `P`-shard single-process engine of the same global sizing: member
//! and freq route to the owning partition, cardinality *sums* partition
//! estimates in partition order, similarity *averages* them (see
//! `docs/CLUSTER.md`).
//!
//! The membership table is a [`ClusterMap`]: an epoch plus, per
//! partition, the *ordered holder list* — the primary followed by its
//! replica set — and the cluster's replication factor `rf` (total
//! holders per partition, primary included). Maps spread by push-pull
//! gossip (`CLUSTER_JOIN` carries the sender's view, the reply carries
//! the receiver's) and every node adopts whichever view is *newer* under
//! a total order — `(epoch, encoded bytes)` lexicographically — so
//! concurrent promotions converge without coordination. Failover is the
//! deterministic [`ClusterMap::elect`] rule: for each partition whose
//! primary left the live set, the lowest-id live replica holder wins,
//! and live non-holders are drafted in to *top up* the replica set back
//! toward `rf` holders — which is what lets an RF=2 partition survive a
//! second failure of the freshly promoted node.

use crate::protocol::{ProtoError, Response};
use she_core::convert::usize_of;
use she_core::frame::Reader;
use she_core::sharded::route;
use she_core::LeafMutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Sanity cap on partitions in a decoded map (a map is a few hundred
/// bytes per partition; this bounds hostile counts, not real clusters).
const MAX_PARTITIONS: usize = 1 << 16;

/// Sanity cap on replicas per partition in a decoded map.
const MAX_REPLICAS: usize = 1 << 10;

/// Longest address string a map entry may carry.
const MAX_ADDR: usize = 256;

/// The merge operations `CLUSTER_QUERY` can scatter (the wire `op` byte).
pub mod cluster_op {
    /// Membership: routed to the key's owning partition.
    pub const MEMBER: u8 = 0;
    /// Cardinality: per-partition estimates summed in partition order.
    pub const CARD: u8 = 1;
    /// Frequency: routed to the key's owning partition.
    pub const FREQ: u8 = 2;
    /// Similarity: per-partition Jaccard estimates averaged.
    pub const SIM: u8 = 3;
}

/// Validate a batch-query op byte (only the per-key ops batch) — the one
/// rule for `QUERY_BATCH` and `CLUSTER_QUERY_BATCH` alike.
pub(crate) fn batch_op_check(op: u8) -> Result<(), Box<Response>> {
    if op == cluster_op::MEMBER || op == cluster_op::FREQ {
        Ok(())
    } else {
        Err(Box::new(Response::Err(format!(
            "batch query op {op} must be member ({}) or freq ({})",
            cluster_op::MEMBER,
            cluster_op::FREQ
        ))))
    }
}

/// One node as named in a cluster map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRef {
    /// Operator-assigned, cluster-unique id; ties in the election break
    /// toward the lowest id.
    pub node_id: u64,
    /// Where the node's serving endpoint for this role listens.
    pub addr: String,
}

/// One partition's placement: who accepts its writes, who replicates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// The node serving this partition's writes (and scatter reads).
    pub primary: NodeRef,
    /// Nodes tailing this partition's op log, promotion candidates.
    pub replicas: Vec<NodeRef>,
}

/// The cluster membership table: an epoch plus per-partition placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    /// Monotone map version; bumped by every election.
    pub epoch: u64,
    /// Replication factor: desired holders per partition, primary
    /// included (so `rf = 2` means primary + one replica, the default).
    /// Elections top replica sets back up toward this.
    pub rf: u16,
    /// Placement, indexed by partition.
    pub partitions: Vec<PartitionMap>,
}

impl ClusterMap {
    /// The partition a key routes to: the same [`route`] call as
    /// [`EngineConfig::shard_of`](she_core::sharded::EngineConfig::shard_of)
    /// with `shards` = partition count, which is what makes cluster
    /// answers coincide with a single sharded engine's.
    #[inline]
    pub fn partition_of(&self, key: u64) -> usize {
        route(key, self.partitions.len())
    }

    /// [`ClusterMap::initial_rf`] at the default replication factor 2
    /// (primary + one replica).
    pub fn initial(roster: &[NodeRef]) -> ClusterMap {
        ClusterMap::initial_rf(roster, 2)
    }

    /// The deterministic initial map for a fresh roster at replication
    /// factor `rf` (total holders per partition, primary included):
    /// partition `p` is primary on `roster[p]`, replicated on the next
    /// `rf - 1` *distinct* ring successors `roster[p+1 .. p+rf mod n]`.
    /// `rf` is clamped to the roster size. Every node computes the same
    /// epoch-1 map from the same `--peers` list, so a cluster boots
    /// without a coordinator. Requires one partition per roster node.
    pub fn initial_rf(roster: &[NodeRef], rf: u16) -> ClusterMap {
        let n = roster.len();
        let rf = usize::from(rf.max(1)).min(n);
        let partitions = (0..n)
            .map(|p| PartitionMap {
                primary: roster[p].clone(),
                replicas: (1..rf).map(|i| roster[(p + i) % n].clone()).collect(),
            })
            .collect();
        ClusterMap { epoch: 1, rf: u16::try_from(rf).unwrap_or(u16::MAX), partitions }
    }

    /// Every node the map knows about (any holder of any partition),
    /// keyed by id — the candidate pool for replica top-up.
    fn known_nodes(&self) -> BTreeMap<u64, &NodeRef> {
        let mut known = BTreeMap::new();
        for p in &self.partitions {
            known.entry(p.primary.node_id).or_insert(&p.primary);
            for r in &p.replicas {
                known.entry(r.node_id).or_insert(r);
            }
        }
        known
    }

    /// The deterministic failover rule over the full holder set.
    ///
    /// * A partition whose primary is not in `alive` is won by its
    ///   *lowest-id live replica holder*, which leaves the replica set;
    ///   dead replicas are pruned with it. Partitions with no live
    ///   replica at all are untouched (nothing can serve them).
    /// * Any partition whose surviving replica set fell below `rf - 1`
    ///   is *topped up* with live non-holder nodes, lowest id first, so
    ///   the partition regains its replication factor while candidates
    ///   exist — the repair that lets a second failure land safely.
    /// * A partition with a live primary loses its dead replicas the
    ///   same way (prune + top-up), keeping the map's holder lists an
    ///   honest picture of who can actually be promoted.
    ///
    /// Returns the epoch+1 successor map, or `None` when nothing
    /// changed. The rule is a pure function of `(map, alive)`, so any
    /// two nodes that agree on those inputs elect identically — the
    /// convergence property the seeded tests exercise. A winner's `addr`
    /// in the returned map is still the *replica-role* placeholder; only
    /// the node owning a changed partition installs the map, after
    /// rewriting a promoted entry with the promoted server's real
    /// address.
    pub fn elect(&self, alive: &BTreeSet<u64>) -> Option<ClusterMap> {
        let known = self.known_nodes();
        let mut changed = false;
        let partitions = self
            .partitions
            .iter()
            .map(|p| {
                let primary = if alive.contains(&p.primary.node_id) {
                    p.primary.clone()
                } else {
                    let Some(winner) = p
                        .replicas
                        .iter()
                        .filter(|r| alive.contains(&r.node_id))
                        .min_by_key(|r| r.node_id)
                    else {
                        return p.clone(); // nothing live can serve it
                    };
                    winner.clone()
                };
                let mut replicas: Vec<NodeRef> = p
                    .replicas
                    .iter()
                    .filter(|r| r.node_id != primary.node_id && alive.contains(&r.node_id))
                    .cloned()
                    .collect();
                // Top up toward rf holders with live non-holders.
                let target = usize::from(self.rf).saturating_sub(1);
                for (&id, &node) in &known {
                    if replicas.len() >= target {
                        break;
                    }
                    if id == primary.node_id
                        || !alive.contains(&id)
                        || replicas.iter().any(|r| r.node_id == id)
                    {
                        continue;
                    }
                    // audit:allow(growth): bounded by rf, itself bounded by the roster
                    replicas.push(node.clone());
                }
                let next = PartitionMap { primary, replicas };
                changed |= next != *p;
                next
            })
            .collect();
        changed.then_some(ClusterMap { epoch: self.epoch + 1, rf: self.rf, partitions })
    }

    /// Total order over maps: higher epoch wins, ties break on the
    /// encoded bytes. Any set of nodes adopting the greater of two maps
    /// pairwise converges to the one global maximum.
    pub fn supersedes(&self, other: &ClusterMap) -> bool {
        (self.epoch, self.encode()) > (other.epoch, other.encode())
    }

    /// Wire encoding (shared by `CLUSTER_JOIN` and `CLUSTER_MAP_REPLY`):
    /// `epoch u64 | n_partitions u32 | n × (primary ref | n_replicas u16 |
    /// replica refs) | rf u16`, each ref `node_id u64 | addr_len u16 |
    /// addr`. Every field is mandatory: a map cut short anywhere is a
    /// decode error, never a different map.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16 + 64 * self.partitions.len());
        self.encode_into(&mut b);
        b
    }

    /// Append the wire encoding to `b` (see [`ClusterMap::encode`]).
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        fn node_ref(b: &mut Vec<u8>, r: &NodeRef) {
            b.extend_from_slice(&r.node_id.to_le_bytes());
            assert!(r.addr.len() <= MAX_ADDR, "cluster addr too long");
            b.extend_from_slice(&u16::try_from(r.addr.len()).unwrap_or(u16::MAX).to_le_bytes());
            b.extend_from_slice(r.addr.as_bytes());
        }
        assert!(self.partitions.len() <= MAX_PARTITIONS, "too many partitions");
        b.extend_from_slice(&self.epoch.to_le_bytes());
        b.extend_from_slice(
            &u32::try_from(self.partitions.len()).unwrap_or(u32::MAX).to_le_bytes(),
        );
        for p in &self.partitions {
            node_ref(b, &p.primary);
            assert!(p.replicas.len() <= MAX_REPLICAS, "too many replicas");
            b.extend_from_slice(&u16::try_from(p.replicas.len()).unwrap_or(u16::MAX).to_le_bytes());
            for r in &p.replicas {
                node_ref(b, r);
            }
        }
        b.extend_from_slice(&self.rf.to_le_bytes());
    }

    /// Decode a map from the reader's current position.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<ClusterMap, ProtoError> {
        fn node_ref(r: &mut Reader<'_>) -> Result<NodeRef, ProtoError> {
            let node_id = r.u64()?;
            let len = usize::from(r.u16()?);
            if len > MAX_ADDR {
                return Err(ProtoError::Oversize);
            }
            let addr = String::from_utf8_lossy(r.take(len)?).into_owned();
            Ok(NodeRef { node_id, addr })
        }
        let epoch = r.u64()?;
        let n = usize_of(u64::from(r.u32()?));
        // A partition is at least an address-less primary ref plus its
        // replica count; the bytes present bound what gets allocated.
        if n > MAX_PARTITIONS.min(r.remaining() / 12) {
            return Err(ProtoError::Oversize);
        }
        let mut partitions = Vec::with_capacity(n);
        for _ in 0..n {
            let primary = node_ref(r)?;
            let n_replicas = usize::from(r.u16()?);
            if n_replicas > MAX_REPLICAS.min(r.remaining() / 10) {
                return Err(ProtoError::Oversize);
            }
            let mut replicas = Vec::with_capacity(n_replicas);
            for _ in 0..n_replicas {
                replicas.push(node_ref(r)?);
            }
            partitions.push(PartitionMap { primary, replicas });
        }
        let rf = r.u16()?;
        Ok(ClusterMap { epoch, rf, partitions })
    }
}

/// The shared, adopt-if-newer view of the cluster map. One directory is
/// shared by every server running on a node (the partition primary and
/// any promoted replicas), so a map installed by the failover monitor is
/// immediately what `CLUSTER_MAP` and `CLUSTER_QUERY` serve.
#[derive(Debug)]
pub struct ClusterDirectory {
    map: LeafMutex<Arc<ClusterMap>>,
}

impl ClusterDirectory {
    /// Start from `initial` (normally [`ClusterMap::initial`]).
    pub fn new(initial: ClusterMap) -> Self {
        ClusterDirectory { map: LeafMutex::new(Arc::new(initial)) }
    }

    /// A snapshot of the current view.
    pub fn get(&self) -> ClusterMap {
        ClusterMap::clone(&self.map.lock())
    }

    /// The current view, shared: a reference count instead of a copy,
    /// for the reactor's per-request scatter.
    pub(crate) fn current(&self) -> Arc<ClusterMap> {
        Arc::clone(&self.map.lock())
    }

    /// The current epoch (cheaper than cloning the whole map).
    pub fn epoch(&self) -> u64 {
        self.map.lock().epoch
    }

    /// Adopt `candidate` iff it supersedes the current view (see
    /// [`ClusterMap::supersedes`]). Returns whether it was adopted.
    pub fn observe(&self, candidate: &ClusterMap) -> bool {
        let mut cur = self.map.lock();
        if candidate.supersedes(&cur) {
            *cur = Arc::new(candidate.clone());
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64) -> NodeRef {
        NodeRef { node_id: id, addr: format!("127.0.0.1:{}", 7000 + id) }
    }

    fn roster(n: u64) -> Vec<NodeRef> {
        (1..=n).map(node).collect()
    }

    fn alive(ids: &[u64]) -> BTreeSet<u64> {
        ids.iter().copied().collect()
    }

    #[test]
    fn codec_round_trip() {
        for rf in [1, 2, 3, 5] {
            let map = ClusterMap::initial_rf(&roster(4), rf);
            let bytes = map.encode();
            let mut r = Reader::new(&bytes);
            let back = ClusterMap::decode_from(&mut r).expect("decode");
            assert!(r.finish().is_ok());
            assert_eq!(back, map, "rf {rf}");
        }
    }

    #[test]
    fn initial_map_is_a_rotated_ring() {
        let map = ClusterMap::initial(&roster(3));
        assert_eq!(map.epoch, 1);
        assert_eq!(map.rf, 2);
        for (p, pm) in map.partitions.iter().enumerate() {
            assert_eq!(pm.primary.node_id, p as u64 + 1);
            assert_eq!(pm.replicas.len(), 1);
            assert_eq!(pm.replicas[0].node_id, (p as u64 + 1) % 3 + 1);
        }
        assert!(ClusterMap::initial(&roster(1)).partitions[0].replicas.is_empty());
    }

    /// RF > 2 places each partition on the next rf−1 *distinct* ring
    /// successors; rf clamps to the roster size.
    #[test]
    fn initial_rf_places_distinct_ring_successors() {
        let map = ClusterMap::initial_rf(&roster(4), 3);
        assert_eq!(map.rf, 3);
        for (p, pm) in map.partitions.iter().enumerate() {
            let ids: Vec<u64> = pm.replicas.iter().map(|r| r.node_id).collect();
            assert_eq!(ids, vec![(p as u64 + 1) % 4 + 1, (p as u64 + 2) % 4 + 1], "partition {p}");
        }
        // rf beyond the roster clamps: 3 nodes can hold at most 3 copies.
        let clamped = ClusterMap::initial_rf(&roster(3), 9);
        assert_eq!(clamped.rf, 3);
        for pm in &clamped.partitions {
            let mut ids: Vec<u64> = pm.replicas.iter().map(|r| r.node_id).collect();
            ids.push(pm.primary.node_id);
            ids.sort_unstable();
            assert_eq!(ids, vec![1, 2, 3], "all distinct holders");
        }
    }

    #[test]
    fn elect_promotes_lowest_id_live_replica() {
        let mut map = ClusterMap::initial(&roster(3));
        map.partitions[0].replicas.push(node(3)); // partition 0: primary 1, replicas {2, 3}
        let next = map.elect(&alive(&[2, 3])).expect("changed");
        assert_eq!(next.epoch, 2);
        assert_eq!(next.partitions[0].primary.node_id, 2);
        assert_eq!(
            next.partitions[0].replicas.iter().map(|r| r.node_id).collect::<Vec<_>>(),
            vec![3]
        );
        // Partition 1 (primary 2, replica 3) is fully live: untouched.
        assert_eq!(next.partitions[1].primary.node_id, 2);
        assert_eq!(next.partitions[1].replicas.iter().map(|r| r.node_id).collect::<Vec<_>>(), [3]);
        // Partition 2 keeps its live primary 3 but its replica (node 1)
        // died: the dead holder is pruned and live node 2 drafted in.
        assert_eq!(next.partitions[2].primary.node_id, 3);
        assert_eq!(next.partitions[2].replicas.iter().map(|r| r.node_id).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn elect_is_a_noop_when_all_primaries_live_or_no_replica_survives() {
        let map = ClusterMap::initial(&roster(3));
        assert!(map.elect(&alive(&[1, 2, 3])).is_none());
        // Node 1 and its replica holder (node 2 backs partition 0? no —
        // partition 0 is replicated on node 2) both dead: partition 0 has
        // no live replica, partitions 1/2 elect nothing either way.
        let next = map.elect(&alive(&[3])).expect("partition 1 fails over to 3");
        assert_eq!(next.partitions[0].primary.node_id, 1, "no live replica: unchanged");
        assert_eq!(next.partitions[1].primary.node_id, 3);
    }

    /// The RF=2 double-kill story: after the first failover the promoted
    /// partition is topped back up with a live non-holder, so a second
    /// kill of the freshly promoted node still leaves a live holder.
    #[test]
    fn elect_tops_up_promoted_partitions_toward_rf() {
        let map = ClusterMap::initial(&roster(3)); // rf 2
        let first = map.elect(&alive(&[2, 3])).expect("node 1 dies");
        // Partition 0: replica 2 promoted, node 3 (the only live
        // non-holder) drafted as its new replica.
        assert_eq!(first.partitions[0].primary.node_id, 2);
        assert_eq!(first.partitions[0].replicas.iter().map(|r| r.node_id).collect::<Vec<_>>(), [3]);
        // Partition 2 (primary 3) lost replica 1: topped up with node 2.
        assert_eq!(first.partitions[2].primary.node_id, 3);
        assert_eq!(first.partitions[2].replicas.iter().map(|r| r.node_id).collect::<Vec<_>>(), [2]);

        // Kill the promoted node too: node 3 now holds everything.
        let second = first.elect(&alive(&[3])).expect("node 2 dies");
        for (p, pm) in second.partitions.iter().enumerate() {
            assert_eq!(pm.primary.node_id, 3, "partition {p}");
            assert!(pm.replicas.is_empty(), "no live candidates remain");
        }
    }

    /// At RF=3 losing one holder keeps two; top-up only fires while live
    /// non-holders exist, and never drafts a dead node.
    #[test]
    fn elect_at_rf3_prunes_and_tops_up_from_live_nodes_only() {
        let map = ClusterMap::initial_rf(&roster(4), 3);
        // Partition 0: primary 1, replicas {2, 3}. Kill node 2.
        let next = map.elect(&alive(&[1, 3, 4])).expect("changed");
        assert_eq!(next.rf, 3);
        assert_eq!(next.partitions[0].primary.node_id, 1);
        // Dead replica 2 pruned, live non-holder 4 drafted.
        assert_eq!(
            next.partitions[0].replicas.iter().map(|r| r.node_id).collect::<Vec<_>>(),
            [3, 4]
        );
        // Partition 1 (primary 2, replicas {3, 4}): lowest-id live
        // replica 3 wins, 4 stays, 1 drafted to reach rf.
        assert_eq!(next.partitions[1].primary.node_id, 3);
        assert_eq!(
            next.partitions[1].replicas.iter().map(|r| r.node_id).collect::<Vec<_>>(),
            [4, 1]
        );
    }

    #[test]
    fn supersedes_is_a_total_order() {
        let a = ClusterMap::initial(&roster(3));
        let b = a.elect(&alive(&[2, 3])).expect("changed");
        assert!(b.supersedes(&a));
        assert!(!a.supersedes(&b));
        assert!(!a.supersedes(&a.clone()));
        // Same epoch, different content: exactly one side wins.
        let mut c = a.clone();
        c.partitions[0].primary.addr = "127.0.0.1:9999".to_string();
        assert_ne!(a.supersedes(&c), c.supersedes(&a));
    }

    #[test]
    fn directory_adopts_only_newer() {
        let a = ClusterMap::initial(&roster(3));
        let b = a.elect(&alive(&[2, 3])).expect("changed");
        let dir = ClusterDirectory::new(a.clone());
        assert!(!dir.observe(&a), "same map is not newer");
        assert!(dir.observe(&b));
        assert_eq!(dir.epoch(), 2);
        assert!(!dir.observe(&a), "older map is rejected");
        assert_eq!(dir.get(), b);
    }
}
