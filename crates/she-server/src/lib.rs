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
//! * [`loadgen`] — the verified feeder: seeded inserts and probes,
//!   every answer checked bit for bit against an in-process twin;
//! * [`repl`] — the primary's op log, record/bootstrap codecs, and peer
//!   registry (see `docs/REPLICATION.md`);
//! * [`cluster`] — the partition map and deterministic failover
//!   election (see `docs/CLUSTER.md`);
//! * `link` — a coordinator's persistent peer links: the scatter legs
//!   of `CLUSTER_QUERY`, answered in order on the reactor;
//! * `readpath` — the QUERY_FAST accelerator's server glue: seeds
//!   `she-readpath`'s frozen mirror of the shards' point halves
//!   (SHE-BF + SHE-CM) from the shard engines and refreshes it from the
//!   op-log tail (see `docs/READPATH.md`);
//! * [`store`] — generation-rotating checkpoint store with corrupt-file
//!   quarantine and automatic fallback;
//! * [`backoff`] — capped exponential backoff with jitter, shared by the
//!   client's retry loop and the replica's reconnects.

// No panic and no silent truncation outside tests: a panic on the
// serving path kills a shard worker or a connection, a truncated length
// corrupts data. A deliberate exception carries
// `#[expect(<lint>, reason = "…")]` stating why it cannot fire.
#![deny(clippy::cast_possible_truncation)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod backoff;
pub mod client;
pub mod cluster;
pub mod codec;
pub mod conn;
pub(crate) mod link;
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
pub use loadgen::{LoadSummary, LoadgenConfig};
pub use protocol::{
    ClusterStatusInfo, PeerStatus, ProtoError, ReadpathStatus, Request, Response, PROTOCOL_VERSION,
};
pub use repl::{Bootstrap, Record, ReplLog};
pub use server::{Injector, ReplicaStatus, Role, Server, ServerConfig};
pub use she_core::sharded::{Checkpoint, DirectEngine, EngineConfig, ShardEngine, ShardStats};
pub use she_readpath::{op as fast_op, FastAnswer, ReadPath, ReadPathConfig};
pub use store::{CheckpointStore, LoadOutcome};
