//! Experiment harness: the metrics and runners behind every figure.
//!
//! §7.1 defines four metrics — FPR (membership), RE (cardinality,
//! similarity), ARE (frequency), and throughput in Mips. This crate
//! provides:
//!
//! * task traits ([`MemberSketch`], [`CardinalitySketch`],
//!   [`FrequencySketch`], [`SimilaritySketch`]), implemented directly on
//!   every SHE algorithm and every baseline, plus the **Ideal goal** types
//!   (the fixed-window original replayed on the exact window contents);
//! * [`sized`]: each algorithm built from a `(window, memory-bytes, seed)`
//!   triple, the one place its memory budget becomes parameters;
//! * experiment runners ([`membership_fpr`], [`cardinality_re`],
//!   [`frequency_are`], [`similarity_re`], [`throughput_mips`]) that feed a
//!   workload, track exact ground truth, and measure at checkpoints exactly
//!   the way the paper describes (e.g. membership probes are drawn from
//!   keys absent from the last `(1+α)·N` items).
//!
//! For the serving path (`she-server`), the [`latency`] module adds a
//! mergeable log-bucket [`LatencyHistogram`], and the [`counters`]
//! module adds robustness tallies ([`ServeCounters`] for server
//! self-protection events, [`FaultCounters`] for injected faults under
//! `she-chaos`).

pub mod counters;
pub mod latency;
mod runners;
pub mod sized;
mod sketches;

pub use counters::{
    FaultCounters, FaultCountersSnapshot, ReadpathCounters, ReadpathCountersSnapshot,
    ServeCounters, ServeCountersSnapshot,
};
pub use latency::LatencyHistogram;
pub use runners::*;
pub use sketches::{IdealBitmap, IdealBloom, IdealCm, IdealHll, IdealMh};

/// A sliding-window membership structure under test.
pub trait MemberSketch {
    /// Display name for reports.
    fn name(&self) -> &'static str;
    /// Insert the next item.
    fn insert(&mut self, key: u64);
    /// Is `key` in the window? (`&mut` because SHE queries may clean.)
    fn query(&mut self, key: u64) -> bool;
    /// Memory footprint in bits.
    fn memory_bits(&self) -> usize;
}

/// A sliding-window cardinality estimator under test.
pub trait CardinalitySketch {
    /// Display name for reports.
    fn name(&self) -> &'static str;
    /// Insert the next item.
    fn insert(&mut self, key: u64);
    /// Estimated number of distinct keys in the window.
    fn estimate(&mut self) -> f64;
    /// Memory footprint in bits.
    fn memory_bits(&self) -> usize;
}

/// A sliding-window frequency estimator under test.
pub trait FrequencySketch {
    /// Display name for reports.
    fn name(&self) -> &'static str;
    /// Insert the next item.
    fn insert(&mut self, key: u64);
    /// Estimated frequency of `key` in the window.
    fn query(&mut self, key: u64) -> u64;
    /// Memory footprint in bits.
    fn memory_bits(&self) -> usize;
}

/// A sliding-window similarity estimator under test (owns both streams).
pub trait SimilaritySketch {
    /// Display name for reports.
    fn name(&self) -> &'static str;
    /// Insert the next aligned pair of items.
    fn insert_pair(&mut self, a: u64, b: u64);
    /// Estimated Jaccard similarity of the two windows.
    fn estimate(&mut self) -> f64;
    /// Memory footprint in bits (both signatures).
    fn memory_bits(&self) -> usize;
}
