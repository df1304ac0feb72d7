//! `she-chaos`: deterministic fault injection for the SHE serving path.
//!
//! Everything here is driven by one seed. A [`fault::Faults`] injector
//! draws each fault decision from a seeded in-tree RNG: the decision
//! *schedule* is a pure function of the seed, so a failing run — a unit
//! test, the chaos soak in CI, a by-hand repro — replays from the seed
//! printed with the failure. (Over live sockets, which operation lands
//! on which decision still depends on TCP chunking; the workload, the
//! schedule, and every in-memory test replay exactly.)
//!
//! The pieces, bottom-up:
//!
//! - [`fault`] — the fault model: per-operation probabilities
//!   ([`FaultConfig`]), the decisions ([`WireFault`], [`FileFault`]),
//!   and the seeded injector ([`Faults`]) that tallies what it injected.
//! - [`stream`] — [`ChaosStream`], a `Read`/`Write` wrapper applying the
//!   schedule to any transport: partial transfers, delays, mid-frame
//!   resets, single-bit flips.
//! - [`fs`] — [`atomic_write`] (temp file + `sync_all` + rename), the
//!   crash-safe write the serving path uses, and [`ChaosFs`], the shim
//!   that proves it survives injected `ENOSPC` and torn writes.
//! - [`proxy`] — [`ChaosProxy`], a TCP proxy that pushes every byte of a
//!   real connection through fault injection; [`ChaosProxy::sever`] is
//!   the scripted network blip.
//! - [`soak`] — the end-to-end scenario: primary + replica under the
//!   proxy, kill/restart cycles, checkpoint corruption with generation
//!   fallback, and a bit-for-bit verdict against an in-process mirror.
//!   `tests/chaos.rs` runs it with a fixed seed.
//! - [`drill`] — the cluster failover drill: a partitioned cluster loses
//!   one primary outright; election, gossip convergence, and
//!   scatter-gather re-routing must keep answers bit-for-bit identical
//!   to a single-engine mirror.
//! - [`sansio`] — chaos for the protocol state machine itself, with zero
//!   sockets: seeded frame streams torn at seeded split points (and
//!   optionally bit-flipped) drive `she-server`'s sans-IO `Connection`
//!   directly, asserting it never panics and reassembles byte-exactly.

pub mod drill;
pub mod fault;
pub mod fs;
pub mod proxy;
pub mod sansio;
pub mod soak;
pub mod stream;

pub use drill::{ClusterDrillConfig, ClusterDrillReport};
pub use fault::{FaultConfig, Faults, FileFault, WireFault};
pub use fs::{atomic_write, ChaosFs};
pub use proxy::ChaosProxy;
pub use sansio::{drive, SansIoConfig, SansIoReport};
pub use soak::{SoakConfig, SoakReport};
pub use stream::ChaosStream;
