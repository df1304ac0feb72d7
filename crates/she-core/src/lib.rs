//! The SHE framework — Sliding Hardware Estimator (Sections 3–5 of the
//! paper).
//!
//! SHE turns any fixed-window algorithm expressed as a Common Sketch Model
//! triple (`she_sketch::CsmSpec`) into a sliding-window algorithm with almost
//! no extra state: one *time mark* bit per group of cells plus an item
//! counter. Two implementations are provided:
//!
//! * [`She`] — the **hardware version** (Sec. 3.3): the cell array is split
//!   into `G` groups with evenly-spaced time offsets; a group is lazily reset
//!   when its stored mark differs from the current mark (Algorithm 1). This
//!   is the version the paper evaluates on both CPU and FPGA, and the version
//!   the five adapters below wrap.
//! * [`SoftClock`] — the **software version** (Sec. 3.2): a conceptual
//!   cleaning process sweeps the array at constant speed, one cell at a time.
//!   Provided for completeness and for the equivalence tests between the two
//!   versions.
//!
//! The five adapters of Section 4:
//! [`SheBloomFilter`] (membership), [`SheBitmap`] and [`SheHyperLogLog`]
//! (cardinality), [`SheCountMin`] (frequency), [`SheMinHash`] (similarity).
//!
//! The [`analysis`] module implements Section 5: the on-demand-cleaning group
//! bound (Eq. 1), the optimal-α solver for SHE-BF (Eq. 2), and the error
//! bounds for SHE-BM / SHE-HLL / SHE-MH (Eqs. 3–5).

//! Beyond the paper's five adapters, the crate ships the natural
//! engineering extensions a deployment needs: the [`sharded`] engine (the
//! one router, per-shard state, serial composition and checkpoints every
//! serving layer builds on), [`SheCountSketch`] (a sixth CSM instance
//! demonstrating the framework's genericity), multi-window queries
//! ([`SheBitmap::estimate_at`]), and a uniform persistence layer: every
//! adapter implements [`SnapshotState`] (versioned binary snapshots in
//! the shared [`frame`] format, with cell-wise [`MergeMode`] merging for
//! the mergeable sketches).

// No panic and no silent truncation outside tests: a panic on the
// serving path kills a shard worker or a connection, a truncated length
// corrupts data. A deliberate exception carries
// `#[expect(<lint>, reason = "…")]` stating why it cannot fire.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod analysis;
mod bf;
mod bm;
mod cm;
mod config;
pub mod convert;
mod cs;
mod engine;
pub mod frame;
mod hll;
mod leaf;
mod mh;
pub mod sharded;
mod snapshot;
mod soft;
mod topk;

pub use bf::SheBloomFilter;
pub use bm::SheBitmap;
pub use cm::SheCountMin;
pub use config::{SheConfig, SheConfigBuilder};
pub use cs::SheCountSketch;
pub use engine::{GroupView, She};
pub use hll::SheHyperLogLog;
pub use leaf::{LeafGuard, LeafMutex};
pub use mh::SheMinHash;
pub use snapshot::{MergeMode, SnapshotError, SnapshotState};
pub use soft::SoftClock;
pub use topk::SlidingTopK;

// Serving layers move adapters into worker threads; keep them `Send`
// (a regression here would only surface downstream, in she-server).
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SheBloomFilter>();
    assert_send::<SheBitmap>();
    assert_send::<SheCountMin>();
    assert_send::<SheHyperLogLog>();
    assert_send::<SheMinHash>();
    assert_send::<SheCountSketch>();
};
