//! she-server: a std-only concurrent stream-serving subsystem over the
//! SHE engines.
//!
//! Turns the in-process sliding-window sketches of `she-core` into a
//! network service: `S` shard worker threads each own one
//! [`ShardEngine`] (membership, cardinality, frequency, and similarity
//! structures over the shard's slice of the key space — defined, with the
//! router, checkpoints and shard rebalancing, in `she_core::sharded` and
//! re-exported here), fed through bounded queues from a single epoll reactor thread
//! speaking a length-prefixed binary protocol over TCP.
//!
//! The crate is deliberately dependency-free beyond the workspace:
//! `std::net` for transport, `std::thread` for workers, `std::sync::mpsc`
//! for the queues, and four raw `epoll` syscalls ([`sys`]) for readiness.
//! See `docs/PROTOCOL.md` for the wire format, `docs/SERVER.md` for the
//! serving tier, and module docs for the concurrency story:
//!
//! * [`protocol`] — message types and their binary encoding;
//! * [`codec`] — `u32`-length-prefixed framing (blocking I/O form);
//! * [`conn`] — the sans-IO per-connection protocol state machine;
//! * [`sys`] — minimal epoll FFI shims and the reactor waker;
//! * [`worker`] — shard worker loop and its batch-drained job queue;
//! * [`server`] — server lifecycle, dispatch, backpressure, shutdown;
//! * [`client`] — blocking client with backoff-based `BUSY` retry;
//! * [`loadgen`] — workload driver with latency reports and a
//!   bit-exact verification mode;
//! * [`repl`] — the primary's op log, record/bootstrap codecs, and peer
//!   registry (see `docs/REPLICATION.md`);
//! * [`cluster`] — the partition map, deterministic failover election,
//!   and scatter-gather query merge (see `docs/CLUSTER.md`);
//! * `readpath` — the QUERY_FAST accelerator's server glue: seeds
//!   `she-readpath`'s frozen [`DirectEngine`] mirror from the shard
//!   engines and refreshes it from the op-log tail (see
//!   `docs/READPATH.md`);
//! * [`store`] — generation-rotating checkpoint store with corrupt-file
//!   quarantine and automatic fallback;
//! * [`backoff`] — capped exponential backoff with jitter, shared by the
//!   client's retry loop and the replica's reconnects.

// The serving path must never truncate a length or a count silently:
// `she audit`'s cast rule holds this crate at a zero baseline, and the
// compiler enforces the same contract on every new cast.
#![deny(clippy::cast_possible_truncation)]

pub mod backoff;
pub mod client;
pub mod cluster;
pub mod codec;
pub mod conn;
pub mod loadgen;
pub mod protocol;
pub(crate) mod reactor;
pub(crate) mod readpath;
pub mod repl;
pub mod server;
pub mod store;
pub mod sys;
pub mod worker;

pub use conn::{Connection, Event, FrameEvent};

pub use backoff::Backoff;
pub use client::Client;
pub use cluster::{cluster_op, ClusterDirectory, ClusterMap, NodeRef, PartitionMap};
pub use loadgen::{LoadSummary, LoadgenConfig, Mode};
pub use protocol::{
    ClusterStatusInfo, PeerStatus, ProtoError, ReadpathStatus, Request, Response, PROTOCOL_VERSION,
};
pub use repl::{Bootstrap, Record, ReplLog};
pub use server::{Injector, ReplicaStatus, Role, Server, ServerConfig};
pub use she_core::sharded::{Checkpoint, DirectEngine, EngineConfig, ShardEngine, ShardStats};
pub use she_readpath::{op as fast_op, FastAnswer, ReadPath, ReadPathConfig};
pub use store::{CheckpointStore, LoadOutcome};
