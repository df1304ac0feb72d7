//! The she-server wire protocol: message types and their binary encoding.
//!
//! Every message travels as one *frame*: a `u32` little-endian payload
//! length followed by the payload. The payload's first byte is an opcode;
//! the rest is the fixed layout documented per variant (all integers
//! little-endian). `docs/PROTOCOL.md` is the normative description; this
//! module is its executable form.
//!
//! Requests carry a `stream` tag (0 = stream A, 1 = stream B) on inserts
//! so the similarity pair can be fed over the same connection.
//!
//! There is one protocol version, [`PROTOCOL_VERSION`]. A client may open
//! with `HELLO`; the server answers `HELLO_REPLY` with its own version and
//! the client proceeds only when the two are equal. No message has an
//! optional field: every layout below is read to its last byte.
//!
//! The messages group by feature:
//!
//! * **Snapshots** — `SNAPSHOT`, `SNAPSHOT_ALL`, `RESTORE`, answered with
//!   `BLOB` (an opaque `she_core` frame).
//! * **Replication** — `REPL_BOOTSTRAP`, `REPL_SUBSCRIBE`, `REPL_ACK`,
//!   `CLUSTER_STATUS` and their responses (`REPL_OP`, `REPL_HEARTBEAT`,
//!   `CLUSTER_STATUS_REPLY`), plus the `NOT_PRIMARY` / `LOG_TRUNCATED`
//!   errors. A subscriber names itself by cluster `node_id` (0 =
//!   anonymous).
//! * **Cluster** — `CLUSTER_JOIN`, `CLUSTER_MAP`, `CLUSTER_MAP_REPLY`:
//!   push-pull gossip of the membership map (see `crate::cluster` and
//!   `docs/CLUSTER.md`); `CLUSTER_QUERY` and `CLUSTER_QUERY_BATCH`:
//!   coordinator-side scatter-gather. The batch point queries
//!   (`QUERY_BATCH`, `CLUSTER_QUERY_BATCH`, `U64S`) carry N member/freq
//!   keys per round-trip, grouped per partition on the scatter path.
//! * **Read path** — `QUERY_FAST`: point queries answered inline on the
//!   reactor from the `she-readpath` mirror and mark cache, never queued
//!   to a shard worker. `CLUSTER_STATUS_REPLY` carries the per-shard
//!   queue depths and the read-path counters.
//! * **Quorum** — the `ClusterMap` payload (inside `CLUSTER_JOIN` and
//!   `CLUSTER_MAP_REPLY`) ends with the replication factor `rf u16`.

use crate::cluster::ClusterMap;
use she_core::convert::{le_u64s, usize_of};
use she_core::frame::{FrameError, Reader};
use she_core::sharded::ShardStats;

/// The one protocol version. `HELLO` carries the client's, `HELLO_REPLY`
/// the server's; a connection proceeds only when they are equal.
pub const PROTOCOL_VERSION: u16 = 6;

/// Hard cap on a frame payload; anything larger is a protocol error on
/// both ends (prevents a hostile length prefix from allocating memory).
/// Sized so a `BLOB` can carry a whole-server checkpoint.
pub const MAX_FRAME: usize = 16 << 20;

/// Maximum number of keys a single `InsertBatch` can carry: a 1 MiB
/// payload. Batch sizing is a throughput knob, not a framing limit, so it
/// sits well under [`MAX_FRAME`].
pub const MAX_BATCH: usize = ((1 << 20) - 6) / 8;

pub mod opcode {
    pub const INSERT: u8 = 0x01;
    pub const INSERT_BATCH: u8 = 0x02;
    pub const HELLO: u8 = 0x05;
    pub const QUERY_MEMBER: u8 = 0x10;
    pub const QUERY_CARD: u8 = 0x11;
    pub const QUERY_FREQ: u8 = 0x12;
    pub const QUERY_SIM: u8 = 0x13;
    pub const QUERY_BATCH: u8 = 0x14;
    pub const QUERY_FAST: u8 = 0x15;
    pub const STATS: u8 = 0x20;
    pub const SNAPSHOT: u8 = 0x21;
    pub const SNAPSHOT_ALL: u8 = 0x22;
    pub const RESTORE: u8 = 0x23;
    pub const SHUTDOWN: u8 = 0x2F;
    pub const REPL_BOOTSTRAP: u8 = 0x30;
    pub const REPL_SUBSCRIBE: u8 = 0x31;
    pub const REPL_ACK: u8 = 0x32;
    pub const CLUSTER_STATUS: u8 = 0x33;
    pub const CLUSTER_JOIN: u8 = 0x34;
    pub const CLUSTER_MAP: u8 = 0x35;
    pub const CLUSTER_QUERY: u8 = 0x36;
    pub const CLUSTER_QUERY_BATCH: u8 = 0x37;

    pub const OK: u8 = 0x80;
    pub const BOOL: u8 = 0x81;
    pub const U64: u8 = 0x82;
    pub const F64: u8 = 0x83;
    pub const STATS_REPLY: u8 = 0x84;
    pub const BLOB: u8 = 0x85;
    pub const HELLO_REPLY: u8 = 0x86;
    pub const REPL_OP: u8 = 0x87;
    pub const REPL_HEARTBEAT: u8 = 0x88;
    pub const CLUSTER_STATUS_REPLY: u8 = 0x89;
    pub const CLUSTER_MAP_REPLY: u8 = 0x8A;
    pub const U64S: u8 = 0x8B;
    pub const ERR: u8 = 0xE0;
    pub const BUSY: u8 = 0xE1;
    pub const NOT_PRIMARY: u8 = 0xE2;
    pub const LOG_TRUNCATED: u8 = 0xE3;
    pub const OVERLOADED: u8 = 0xE4;
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Insert one key into stream 0 (A) or 1 (B).
    Insert { stream: u8, key: u64 },
    /// Insert a batch of keys into one stream (bounded by [`MAX_BATCH`]).
    InsertBatch { stream: u8, keys: Vec<u64> },
    /// Sliding-window membership of `key` (answered from stream A's filter).
    QueryMember { key: u64 },
    /// Sliding-window cardinality of stream A (sums the shard estimates).
    QueryCard,
    /// Sliding-window frequency of `key` in stream A.
    QueryFreq { key: u64 },
    /// Sliding-window Jaccard similarity between streams A and B.
    QuerySim,
    /// Answer one point query per key in a single round-trip. `op` is
    /// one of the per-key [`crate::cluster::cluster_op`] codes (`MEMBER`
    /// or `FREQ`); the answer is [`Response::U64s`], one value per key in
    /// request order (membership encodes as 0/1). Bounded by
    /// [`MAX_BATCH`] like `InsertBatch`.
    QueryBatch {
        /// The per-key operation (`cluster_op::{MEMBER, FREQ}`).
        op: u8,
        /// The keys, answered in order.
        keys: Vec<u64>,
    },
    /// Accelerated point query, answered inline on the reactor from
    /// the read path (mirror + mark cache) without queuing to a
    /// shard worker. `op` is a `she-readpath` op code (`MEMBER` → [`
    /// Response::Bool`], `FREQ` → [`Response::U64`], `TOPK` →
    /// [`Response::U64s`] as alternating key/estimate pairs, with `key`
    /// carrying `n`). Servers without `--readpath` answer
    /// [`Response::Err`].
    QueryFast {
        /// The read-path operation (`she_readpath::op::{MEMBER, FREQ, TOPK}`).
        op: u8,
        /// The key (or `n` for `TOPK`).
        key: u64,
    },
    /// Server / per-shard counters.
    Stats,
    /// Announce the client's protocol version; the server answers
    /// [`Response::Hello`] with its own, and the two must be equal.
    Hello { version: u16 },
    /// Serialize one shard's engine state (quiescent, via its worker).
    Snapshot { shard: u32 },
    /// Serialize every shard into one checkpoint frame.
    SnapshotAll,
    /// Replace one shard's engine state with a shard frame.
    Restore { shard: u32, data: Vec<u8> },
    /// Capture a replica bootstrap package — a quiescent checkpoint
    /// plus the op-log sequence number it reflects (answered with
    /// [`Response::Blob`] carrying a `BOOTSTRAP` frame).
    ReplBootstrap,
    /// Turn this connection into a replication feed starting at
    /// `from_seq` (the first record the subscriber has *not* applied).
    /// The server answers with a stream of [`Response::ReplOp`] /
    /// [`Response::ReplHeartbeat`] instead of one response. `node_id` is
    /// the subscriber's cluster node id, so the primary can label the
    /// peer in `CLUSTER_STATUS`; 0 means anonymous.
    ReplSubscribe { from_seq: u64, node_id: u64 },
    /// Sent *by the subscriber* on a replication feed — everything
    /// up to `seq` has been applied (flow-control / cluster-status only).
    ReplAck { seq: u64 },
    /// This node's replication role, log positions, and peers.
    ClusterStatus,
    /// Push-pull gossip — the sender offers its view of the cluster
    /// map; the receiver adopts it if newer and answers
    /// [`Response::ClusterMapReply`] with its own (possibly just-updated)
    /// view. `from_node` identifies the gossiping node for diagnostics.
    ClusterJoin {
        /// The sender's cluster node id.
        from_node: u64,
        /// The sender's current view of the map.
        map: ClusterMap,
    },
    /// Fetch this node's current cluster map (client re-routing).
    ClusterMapGet,
    /// Scatter-gather query, merged by the coordinator (this node)
    /// across every partition: `op` is one of
    /// [`crate::cluster::cluster_op`], `key` is ignored by the
    /// whole-stream ops (card, sim).
    ClusterQuery {
        /// The merge operation (`cluster_op::{MEMBER, CARD, FREQ, SIM}`).
        op: u8,
        /// The key, for the routed ops (member, freq).
        key: u64,
    },
    /// Scatter-gather batch query — N keys per scatter round-trip.
    /// The coordinator groups the keys by owning partition, sends one
    /// [`Request::QueryBatch`] leg per involved partition, and reassembles
    /// the answers into one [`Response::U64s`] in request order. Only the
    /// per-key ops (`cluster_op::{MEMBER, FREQ}`) are valid.
    ClusterQueryBatch {
        /// The per-key operation (`cluster_op::{MEMBER, FREQ}`).
        op: u8,
        /// The keys, answered in order.
        keys: Vec<u64>,
    },
    /// Drain the queues and stop the server.
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Request applied; `accepted` items were enqueued.
    Ok { accepted: u64 },
    /// Boolean answer (membership).
    Bool(bool),
    /// Integer answer (frequency).
    U64(u64),
    /// Floating answer (cardinality, similarity).
    F64(f64),
    /// One `u64` answer per key of a batch query, in request order.
    U64s(Vec<u64>),
    /// Per-shard counters.
    Stats(Vec<ShardStats>),
    /// Opaque snapshot/checkpoint bytes (a she-core frame).
    Blob(Vec<u8>),
    /// The server's protocol version.
    Hello { version: u16 },
    /// One replication record (an `OPLOG` frame) on a feed.
    ReplOp(Vec<u8>),
    /// Feed keep-alive carrying the primary's current log head.
    ReplHeartbeat { head: u64 },
    /// Answer to [`Request::ClusterStatus`].
    ClusterStatus(ClusterStatusInfo),
    /// The node's current cluster map (answers
    /// [`Request::ClusterJoin`] and [`Request::ClusterMapGet`]).
    ClusterMapReply(ClusterMap),
    /// The request failed; human-readable reason.
    Err(String),
    /// Shard queue full and nothing was enqueued — retry the whole
    /// request after roughly this many milliseconds.
    Busy { retry_after_ms: u32 },
    /// A write was sent to a replica; `primary` is where writes go.
    NotPrimary { primary: String },
    /// The requested subscription position fell off the bounded op
    /// log; the subscriber must re-bootstrap (`floor` = oldest retained).
    LogTruncated { floor: u64 },
    /// The server is shedding load: either the connection cap was hit
    /// (sent once, then the connection is closed) or a read query was
    /// rejected because its shard queue is saturated (reads are shed
    /// before writes). Distinct from [`Response::Busy`], which is the
    /// per-request write backpressure signal.
    Overloaded { retry_after_ms: u32 },
}

/// One subscribed replica as seen by the primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// The peer's address (as reported by `accept`).
    pub addr: String,
    /// Highest sequence number the peer has acknowledged.
    pub acked: u64,
}

/// Answer to [`Request::ClusterStatus`]: the node's role plus log and
/// replication positions. Primaries report `head`/`floor` of their op log
/// and the subscribed `peers`; replicas report `head` = highest applied
/// sequence number, `boot_seq` = where their bootstrap snapshot cut, and
/// `primary`/`connected` for the upstream link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatusInfo {
    /// True when this node is a primary (accepts writes).
    pub is_primary: bool,
    /// Replica only: whether the upstream feed is currently connected.
    pub connected: bool,
    /// Primary: op-log head. Replica: highest applied sequence number.
    pub head: u64,
    /// Primary: oldest sequence number still in the log. Replica: 0.
    pub floor: u64,
    /// Replica: the sequence number its bootstrap snapshot reflected.
    pub boot_seq: u64,
    /// Replica: the primary's address. Empty on a primary.
    pub primary: String,
    /// Primary: currently subscribed replicas.
    pub peers: Vec<PeerStatus>,
    /// Pending jobs per shard worker queue at reply time — lets an
    /// operator tell overload (deep queues) from cache-miss storms
    /// (read-path misses with idle queues) in one call.
    pub queue_depths: Vec<u64>,
    /// Read-path cache state; disabled/zeroed without `--readpath`.
    pub readpath: ReadpathStatus,
}

/// Read-path section of [`ClusterStatusInfo`] (all zeros when the read
/// path is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadpathStatus {
    /// Whether this node serves `QUERY_FAST`.
    pub enabled: bool,
    /// Cache hits (see `she_metrics::ReadpathCounters`).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache fills.
    pub fills: u64,
    /// Mark-flip invalidations.
    pub invalidations: u64,
    /// Highest op-log sequence applied to the fast summary.
    pub seq: u64,
}

/// Decoding failure for a frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before the layout said it would.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A declared length exceeds the frame bounds.
    Oversize,
    /// Payload has bytes beyond the declared layout.
    TrailingBytes,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::Oversize => write!(f, "declared length exceeds frame"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

// Wire decoding reuses the shared little-endian cursor from
// `she_core::frame` (one cursor implementation, both call sites).
impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::TrailingBytes => ProtoError::TrailingBytes,
            _ => ProtoError::Truncated,
        }
    }
}

/// Encode a length into the wire's `u32` slot. Every caller asserts its
/// bound (`MAX_BATCH`, `MAX_FRAME`-derived) before encoding, so the
/// saturating fallback is unreachable; spelled via `try_from` so the
/// encoder contains no narrowing `as` cast to audit.
fn len_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Encode a length into the wire's `u16` slot (see [`len_u32`]).
fn len_u16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// The one layout the three key-batch requests share, after the opcode:
/// `tag u8 | count u32 | count × u64` (`tag` is the stream or the op),
/// with `count` bounded by [`MAX_BATCH`].
fn encode_keys(b: &mut Vec<u8>, opcode: u8, tag: u8, keys: &[u64]) {
    assert!(keys.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    b.reserve(6 + 8 * keys.len());
    b.push(opcode);
    b.push(tag);
    b.extend_from_slice(&len_u32(keys.len()).to_le_bytes());
    for k in keys {
        b.extend_from_slice(&k.to_le_bytes());
    }
}

/// Decode the body [`encode_keys`] wrote: `(tag, keys)`.
fn decode_keys(r: &mut Reader<'_>) -> Result<(u8, Vec<u64>), ProtoError> {
    let tag = r.u8()?;
    let n = usize_of(u64::from(r.u32()?));
    if n > MAX_BATCH {
        return Err(ProtoError::Oversize);
    }
    Ok((tag, le_u64s(r.take(8 * n)?)))
}

impl Request {
    /// Encode into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16);
        // audit:allow(growth): frame encoder — payload capped at MAX_FRAME by the asserts above each variable-length variant
        match self {
            Request::Insert { stream, key } => {
                b.push(opcode::INSERT);
                b.push(*stream);
                b.extend_from_slice(&key.to_le_bytes());
            }
            Request::InsertBatch { stream, keys } => {
                encode_keys(&mut b, opcode::INSERT_BATCH, *stream, keys);
            }
            Request::QueryMember { key } => {
                b.push(opcode::QUERY_MEMBER);
                b.extend_from_slice(&key.to_le_bytes());
            }
            Request::QueryCard => b.push(opcode::QUERY_CARD),
            Request::QueryFreq { key } => {
                b.push(opcode::QUERY_FREQ);
                b.extend_from_slice(&key.to_le_bytes());
            }
            Request::QuerySim => b.push(opcode::QUERY_SIM),
            Request::QueryBatch { op, keys } => {
                encode_keys(&mut b, opcode::QUERY_BATCH, *op, keys);
            }
            Request::QueryFast { op, key } => {
                b.push(opcode::QUERY_FAST);
                b.push(*op);
                b.extend_from_slice(&key.to_le_bytes());
            }
            Request::Stats => b.push(opcode::STATS),
            Request::Hello { version } => {
                b.push(opcode::HELLO);
                b.extend_from_slice(&version.to_le_bytes());
            }
            Request::Snapshot { shard } => {
                b.push(opcode::SNAPSHOT);
                b.extend_from_slice(&shard.to_le_bytes());
            }
            Request::SnapshotAll => b.push(opcode::SNAPSHOT_ALL),
            Request::Restore { shard, data } => {
                assert!(5 + data.len() <= MAX_FRAME, "restore blob exceeds MAX_FRAME");
                b.reserve(5 + data.len());
                b.push(opcode::RESTORE);
                b.extend_from_slice(&shard.to_le_bytes());
                b.extend_from_slice(data);
            }
            Request::ReplBootstrap => b.push(opcode::REPL_BOOTSTRAP),
            Request::ReplSubscribe { from_seq, node_id } => {
                b.push(opcode::REPL_SUBSCRIBE);
                b.extend_from_slice(&from_seq.to_le_bytes());
                b.extend_from_slice(&node_id.to_le_bytes());
            }
            Request::ReplAck { seq } => {
                b.push(opcode::REPL_ACK);
                b.extend_from_slice(&seq.to_le_bytes());
            }
            Request::ClusterStatus => b.push(opcode::CLUSTER_STATUS),
            Request::ClusterJoin { from_node, map } => {
                b.push(opcode::CLUSTER_JOIN);
                b.extend_from_slice(&from_node.to_le_bytes());
                map.encode_into(&mut b);
            }
            Request::ClusterMapGet => b.push(opcode::CLUSTER_MAP),
            Request::ClusterQuery { op, key } => {
                b.push(opcode::CLUSTER_QUERY);
                b.push(*op);
                b.extend_from_slice(&key.to_le_bytes());
            }
            Request::ClusterQueryBatch { op, keys } => {
                encode_keys(&mut b, opcode::CLUSTER_QUERY_BATCH, *op, keys);
            }
            Request::Shutdown => b.push(opcode::SHUTDOWN),
        }
        b
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(payload);
        let op = r.u8()?;
        let req = match op {
            opcode::INSERT => Request::Insert { stream: r.u8()?, key: r.u64()? },
            opcode::INSERT_BATCH => {
                let (stream, keys) = decode_keys(&mut r)?;
                Request::InsertBatch { stream, keys }
            }
            opcode::QUERY_MEMBER => Request::QueryMember { key: r.u64()? },
            opcode::QUERY_CARD => Request::QueryCard,
            opcode::QUERY_FREQ => Request::QueryFreq { key: r.u64()? },
            opcode::QUERY_SIM => Request::QuerySim,
            opcode::QUERY_BATCH => {
                let (op, keys) = decode_keys(&mut r)?;
                Request::QueryBatch { op, keys }
            }
            opcode::QUERY_FAST => Request::QueryFast { op: r.u8()?, key: r.u64()? },
            opcode::STATS => Request::Stats,
            opcode::HELLO => Request::Hello { version: r.u16()? },
            opcode::SNAPSHOT => Request::Snapshot { shard: r.u32()? },
            opcode::SNAPSHOT_ALL => Request::SnapshotAll,
            opcode::RESTORE => {
                let shard = r.u32()?;
                let n = r.remaining();
                let data = r.take(n)?.to_vec();
                return Ok(Request::Restore { shard, data });
            }
            opcode::REPL_BOOTSTRAP => Request::ReplBootstrap,
            opcode::REPL_SUBSCRIBE => {
                Request::ReplSubscribe { from_seq: r.u64()?, node_id: r.u64()? }
            }
            opcode::REPL_ACK => Request::ReplAck { seq: r.u64()? },
            opcode::CLUSTER_STATUS => Request::ClusterStatus,
            opcode::CLUSTER_JOIN => {
                let from_node = r.u64()?;
                let map = ClusterMap::decode_from(&mut r)?;
                Request::ClusterJoin { from_node, map }
            }
            opcode::CLUSTER_MAP => Request::ClusterMapGet,
            opcode::CLUSTER_QUERY => Request::ClusterQuery { op: r.u8()?, key: r.u64()? },
            opcode::CLUSTER_QUERY_BATCH => {
                let (op, keys) = decode_keys(&mut r)?;
                Request::ClusterQueryBatch { op, keys }
            }
            opcode::SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError::BadOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16);
        // audit:allow(growth): frame encoder — payload capped at MAX_FRAME by the asserts above each variable-length variant
        match self {
            Response::Ok { accepted } => {
                b.push(opcode::OK);
                b.extend_from_slice(&accepted.to_le_bytes());
            }
            Response::Bool(v) => {
                b.push(opcode::BOOL);
                b.push(u8::from(*v));
            }
            Response::U64(v) => {
                b.push(opcode::U64);
                b.extend_from_slice(&v.to_le_bytes());
            }
            Response::F64(v) => {
                b.push(opcode::F64);
                b.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Response::U64s(values) => {
                assert!(5 + 8 * values.len() <= MAX_FRAME, "batch answer exceeds MAX_FRAME");
                b.reserve(5 + 8 * values.len());
                b.push(opcode::U64S);
                b.extend_from_slice(&len_u32(values.len()).to_le_bytes());
                for v in values {
                    b.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::Stats(shards) => {
                b.reserve(5 + 24 * shards.len());
                b.push(opcode::STATS_REPLY);
                b.extend_from_slice(&len_u32(shards.len()).to_le_bytes());
                for s in shards {
                    b.extend_from_slice(&s.inserts.to_le_bytes());
                    b.extend_from_slice(&s.queries.to_le_bytes());
                    b.extend_from_slice(&s.memory_bits.to_le_bytes());
                }
            }
            Response::Blob(data) => {
                assert!(data.len() < MAX_FRAME, "blob exceeds MAX_FRAME");
                b.reserve(1 + data.len());
                b.push(opcode::BLOB);
                b.extend_from_slice(data);
            }
            Response::Hello { version } => {
                b.push(opcode::HELLO_REPLY);
                b.extend_from_slice(&version.to_le_bytes());
            }
            Response::ReplOp(data) => {
                assert!(data.len() < MAX_FRAME, "op-log record exceeds MAX_FRAME");
                b.reserve(1 + data.len());
                b.push(opcode::REPL_OP);
                b.extend_from_slice(data);
            }
            Response::ReplHeartbeat { head } => {
                b.push(opcode::REPL_HEARTBEAT);
                b.extend_from_slice(&head.to_le_bytes());
            }
            Response::ClusterStatus(info) => {
                b.push(opcode::CLUSTER_STATUS_REPLY);
                b.push(u8::from(info.is_primary));
                b.push(u8::from(info.connected));
                b.extend_from_slice(&info.head.to_le_bytes());
                b.extend_from_slice(&info.floor.to_le_bytes());
                b.extend_from_slice(&info.boot_seq.to_le_bytes());
                assert!(info.primary.len() <= usize::from(u16::MAX), "primary addr too long");
                b.extend_from_slice(&len_u16(info.primary.len()).to_le_bytes());
                b.extend_from_slice(info.primary.as_bytes());
                b.extend_from_slice(&len_u32(info.peers.len()).to_le_bytes());
                for p in &info.peers {
                    b.extend_from_slice(&p.acked.to_le_bytes());
                    assert!(p.addr.len() <= usize::from(u16::MAX), "peer addr too long");
                    b.extend_from_slice(&len_u16(p.addr.len()).to_le_bytes());
                    b.extend_from_slice(p.addr.as_bytes());
                }
                b.extend_from_slice(&len_u32(info.queue_depths.len()).to_le_bytes());
                for d in &info.queue_depths {
                    b.extend_from_slice(&d.to_le_bytes());
                }
                let rp = &info.readpath;
                b.push(u8::from(rp.enabled));
                for v in [rp.hits, rp.misses, rp.fills, rp.invalidations, rp.seq] {
                    b.extend_from_slice(&v.to_le_bytes());
                }
            }
            Response::ClusterMapReply(map) => {
                b.push(opcode::CLUSTER_MAP_REPLY);
                map.encode_into(&mut b);
            }
            Response::Err(msg) => {
                b.push(opcode::ERR);
                b.extend_from_slice(msg.as_bytes());
            }
            Response::Busy { retry_after_ms } => {
                b.push(opcode::BUSY);
                b.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
            Response::NotPrimary { primary } => {
                b.push(opcode::NOT_PRIMARY);
                b.extend_from_slice(primary.as_bytes());
            }
            Response::LogTruncated { floor } => {
                b.push(opcode::LOG_TRUNCATED);
                b.extend_from_slice(&floor.to_le_bytes());
            }
            Response::Overloaded { retry_after_ms } => {
                b.push(opcode::OVERLOADED);
                b.extend_from_slice(&retry_after_ms.to_le_bytes());
            }
        }
        b
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(payload);
        let op = r.u8()?;
        let resp = match op {
            opcode::OK => Response::Ok { accepted: r.u64()? },
            opcode::BOOL => Response::Bool(r.u8()? != 0),
            opcode::U64 => Response::U64(r.u64()?),
            opcode::F64 => Response::F64(r.f64()?),
            opcode::U64S => {
                let n = usize_of(u64::from(r.u32()?));
                if n > MAX_FRAME / 8 {
                    return Err(ProtoError::Oversize);
                }
                Response::U64s(le_u64s(r.take(8 * n)?))
            }
            opcode::STATS_REPLY => {
                let n = usize_of(u64::from(r.u32()?));
                // Bound the count by the bytes present (24 per shard), so
                // a short frame cannot size the allocation.
                if n > r.remaining() / 24 {
                    return Err(ProtoError::Oversize);
                }
                let mut shards = Vec::with_capacity(n);
                for _ in 0..n {
                    shards.push(ShardStats {
                        inserts: r.u64()?,
                        queries: r.u64()?,
                        memory_bits: r.u64()?,
                    });
                }
                Response::Stats(shards)
            }
            opcode::BLOB => {
                let n = r.remaining();
                return Ok(Response::Blob(r.take(n)?.to_vec()));
            }
            opcode::HELLO_REPLY => Response::Hello { version: r.u16()? },
            opcode::REPL_OP => {
                let n = r.remaining();
                return Ok(Response::ReplOp(r.take(n)?.to_vec()));
            }
            opcode::REPL_HEARTBEAT => Response::ReplHeartbeat { head: r.u64()? },
            opcode::CLUSTER_STATUS_REPLY => {
                let is_primary = r.u8()? != 0;
                let connected = r.u8()? != 0;
                let head = r.u64()?;
                let floor = r.u64()?;
                let boot_seq = r.u64()?;
                let plen = usize::from(r.u16()?);
                let primary = String::from_utf8_lossy(r.take(plen)?).into_owned();
                let n = usize_of(u64::from(r.u32()?));
                // A peer is at least `acked u64 | addr_len u16`.
                if n > r.remaining() / 10 {
                    return Err(ProtoError::Oversize);
                }
                let mut peers = Vec::with_capacity(n);
                for _ in 0..n {
                    let acked = r.u64()?;
                    let alen = usize::from(r.u16()?);
                    let addr = String::from_utf8_lossy(r.take(alen)?).into_owned();
                    peers.push(PeerStatus { addr, acked });
                }
                let d = usize_of(u64::from(r.u32()?));
                if d > MAX_FRAME / 8 {
                    return Err(ProtoError::Oversize);
                }
                let queue_depths = le_u64s(r.take(8 * d)?);
                let readpath = ReadpathStatus {
                    enabled: r.u8()? != 0,
                    hits: r.u64()?,
                    misses: r.u64()?,
                    fills: r.u64()?,
                    invalidations: r.u64()?,
                    seq: r.u64()?,
                };
                Response::ClusterStatus(ClusterStatusInfo {
                    is_primary,
                    connected,
                    head,
                    floor,
                    boot_seq,
                    primary,
                    peers,
                    queue_depths,
                    readpath,
                })
            }
            opcode::CLUSTER_MAP_REPLY => {
                Response::ClusterMapReply(ClusterMap::decode_from(&mut r)?)
            }
            opcode::ERR => {
                let rest = r.take(payload.len() - 1)?;
                return Ok(Response::Err(String::from_utf8_lossy(rest).into_owned()));
            }
            opcode::BUSY => Response::Busy { retry_after_ms: r.u32()? },
            opcode::NOT_PRIMARY => {
                let rest = r.take(payload.len() - 1)?;
                return Ok(Response::NotPrimary {
                    primary: String::from_utf8_lossy(rest).into_owned(),
                });
            }
            opcode::LOG_TRUNCATED => Response::LogTruncated { floor: r.u64()? },
            opcode::OVERLOADED => Response::Overloaded { retry_after_ms: r.u32()? },
            other => return Err(ProtoError::BadOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}
