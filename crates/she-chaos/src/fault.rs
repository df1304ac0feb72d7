//! The fault model: what can go wrong, how often, and — crucially — a
//! *deterministic schedule* of it. Every decision is drawn from a seeded
//! [`Xoshiro256`], so a failing run replays bit-for-bit from its seed.

use she_core::{LeafGuard, LeafMutex};
use she_hash::{mix64, RandomSource, Xoshiro256};
use she_metrics::FaultCounters;
use std::sync::Arc;
use std::time::Duration;

/// Fault probabilities (per I/O operation) plus the master seed.
///
/// All probabilities default to zero; a default config injects nothing.
/// At most one fault fires per operation — the draws are a partition of
/// `[0, 1)`, so raising one probability never changes *which* operations
/// another fault lands on less than the sum requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; every derived injector's schedule is a pure function
    /// of this and its salt.
    pub seed: u64,
    /// P(read/write is cut short to a random prefix).
    pub partial_io: f64,
    /// P(an injected delay of up to `delay_ms` before the operation).
    pub delay: f64,
    /// Ceiling for one injected delay, in milliseconds.
    pub delay_ms: u64,
    /// P(the operation fails with `ConnectionReset`).
    pub reset: f64,
    /// P(a single bit of the transferred bytes is flipped).
    pub bitflip: f64,
    /// P(the transferred bytes are delivered twice — the duplicated
    /// delivery a retrying network or a confused middlebox produces).
    pub duplicate: f64,
    /// P(a file write fails as if the disk were full, writing nothing).
    pub enospc: f64,
    /// P(a file write is torn: a prefix lands, then the "process dies").
    pub torn_write: f64,
}

impl FaultConfig {
    /// No faults at all — a transparent wrapper (useful as a control).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            partial_io: 0.0,
            delay: 0.0,
            delay_ms: 0,
            reset: 0.0,
            bitflip: 0.0,
            duplicate: 0.0,
            enospc: 0.0,
            torn_write: 0.0,
        }
    }

    /// A hostile-but-survivable wire preset: frequent short reads, some
    /// delays, occasional resets and bit flips. Tuned so a replication
    /// link keeps converging between disruptions.
    pub fn wire(seed: u64) -> Self {
        Self {
            partial_io: 0.05,
            delay: 0.01,
            delay_ms: 5,
            reset: 0.001,
            bitflip: 0.002,
            ..Self::quiet(seed)
        }
    }

    /// A gossip-link preset: short reads, delays, mid-frame resets, and
    /// duplicated deliveries — everything a flaky network does to a
    /// `CLUSTER_JOIN` push-pull exchange. Deliberately no bit flips:
    /// cluster maps carry no checksum, so a flipped byte could decode as
    /// a *valid* poisoned map instead of a detectable transport error.
    pub fn gossip(seed: u64) -> Self {
        Self {
            partial_io: 0.08,
            delay: 0.02,
            delay_ms: 5,
            reset: 0.02,
            duplicate: 0.04,
            ..Self::quiet(seed)
        }
    }

    /// A failing-disk preset for the FS shim.
    pub fn disk(seed: u64) -> Self {
        Self { enospc: 0.05, torn_write: 0.05, ..Self::quiet(seed) }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::quiet(0)
    }
}

/// One wire-level fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Pass the operation through untouched.
    None,
    /// Transfer at most `keep` bytes (≥ 1, so progress is guaranteed).
    Partial { keep: usize },
    /// Sleep this long, then do the operation normally.
    Delay(Duration),
    /// Fail with `ConnectionReset`.
    Reset,
    /// Flip bit `bit` of byte `byte % transferred_len`.
    BitFlip { byte: usize, bit: u8 },
    /// Deliver the transferred bytes twice.
    Duplicate,
}

/// One file-write fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileFault {
    /// Write normally.
    None,
    /// Fail before writing anything ("no space left on device").
    Enospc,
    /// Write only `keep` bytes (< the full length), then fail — the
    /// simulated crash mid-write.
    Torn { keep: usize },
}

/// A live, seeded fault injector: draws [`WireFault`]/[`FileFault`]
/// decisions and tallies what it injected into a shared
/// [`FaultCounters`].
///
/// The schedule of injector `i` is a pure function of `(cfg.seed, salt)`
/// and the sequence of calls made on it — independent of wall clock,
/// thread timing, or any other injector. [`Faults::derive`] hands out
/// per-connection injectors that share the counters but not the RNG, so
/// concurrent connections stay individually reproducible.
#[derive(Debug)]
pub struct Faults {
    cfg: FaultConfig,
    rng: LeafMutex<Xoshiro256>,
    counters: Arc<FaultCounters>,
}

impl Faults {
    /// A root injector with fresh counters.
    pub fn new(cfg: FaultConfig) -> Self {
        Self::with_counters(cfg, Arc::new(FaultCounters::new()))
    }

    /// A root injector tallying into existing counters.
    pub fn with_counters(cfg: FaultConfig, counters: Arc<FaultCounters>) -> Self {
        Self { cfg, rng: LeafMutex::new(Xoshiro256::new(mix64(cfg.seed))), counters }
    }

    /// A child injector whose schedule depends only on `(seed, salt)`,
    /// sharing this injector's counters.
    pub fn derive(&self, salt: u64) -> Faults {
        Faults {
            cfg: self.cfg,
            rng: LeafMutex::new(Xoshiro256::new(mix64(self.cfg.seed ^ mix64(salt)))),
            counters: Arc::clone(&self.counters),
        }
    }

    /// The shared fault tallies.
    pub fn counters(&self) -> Arc<FaultCounters> {
        Arc::clone(&self.counters)
    }

    /// The config this injector draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn rng(&self) -> LeafGuard<'_, Xoshiro256> {
        self.rng.lock()
    }

    /// Decide the fault (if any) for one read/write of `len` bytes.
    /// Counters are bumped at decision time, so the tally is part of the
    /// deterministic schedule.
    pub fn wire_fault(&self, len: usize) -> WireFault {
        let mut rng = self.rng();
        let draw = rng.next_f64();
        let c = &self.cfg;
        let mut edge = c.reset;
        if draw < edge {
            drop(rng);
            self.counters.resets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return WireFault::Reset;
        }
        edge += c.delay;
        if draw < edge {
            let ms = rng.next_range(0, c.delay_ms.max(1)) + 1;
            drop(rng);
            self.counters.delays.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return WireFault::Delay(Duration::from_millis(ms));
        }
        edge += c.bitflip;
        if draw < edge {
            let byte = rng.next_below(len.max(1));
            let bit = (rng.next_u64() % 8) as u8;
            drop(rng);
            self.counters.bitflips.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return WireFault::BitFlip { byte, bit };
        }
        edge += c.partial_io;
        if draw < edge {
            // A 1-byte transfer cannot be cut shorter. The draw still
            // belongs to this band: letting it fall through would hand it
            // to `duplicate` below even at `duplicate == 0`, and a byte
            // delivered twice desynchronises a stream no preset asked to
            // corrupt.
            if len <= 1 {
                return WireFault::None;
            }
            let keep = rng.next_range(1, len as u64) as usize;
            drop(rng);
            self.counters.partial_io.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return WireFault::Partial { keep };
        }
        edge += c.duplicate;
        if draw < edge {
            drop(rng);
            self.counters.duplicates.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return WireFault::Duplicate;
        }
        WireFault::None
    }

    /// Decide the fault (if any) for one file write of `len` bytes.
    pub fn file_fault(&self, len: usize) -> FileFault {
        let mut rng = self.rng();
        let draw = rng.next_f64();
        let c = &self.cfg;
        if draw < c.enospc {
            drop(rng);
            self.counters.enospc.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return FileFault::Enospc;
        }
        if draw < c.enospc + c.torn_write && len > 1 {
            let keep = rng.next_range(1, len as u64) as usize;
            drop(rng);
            self.counters.torn_writes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return FileFault::Torn { keep };
        }
        FileFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(f: &Faults, n: usize) -> Vec<WireFault> {
        (0..n).map(|_| f.wire_fault(4096)).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Faults::new(FaultConfig::wire(42));
        let b = Faults::new(FaultConfig::wire(42));
        assert_eq!(schedule(&a, 500), schedule(&b, 500));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Faults::new(FaultConfig::wire(42));
        let b = Faults::new(FaultConfig::wire(43));
        assert_ne!(schedule(&a, 500), schedule(&b, 500));
    }

    #[test]
    fn derived_injectors_are_independent_and_reproducible() {
        let root = Faults::new(FaultConfig::wire(7));
        let a1 = schedule(&root.derive(1), 200);
        // Burn the sibling's schedule; it must not perturb a re-derived 1.
        let _ = schedule(&root.derive(2), 123);
        let a2 = schedule(&root.derive(1), 200);
        assert_eq!(a1, a2);
    }

    #[test]
    fn quiet_config_injects_nothing() {
        let f = Faults::new(FaultConfig::quiet(9));
        assert!(schedule(&f, 1000).iter().all(|w| *w == WireFault::None));
        assert_eq!(f.counters().snapshot().total(), 0);
    }

    #[test]
    fn counters_match_the_schedule() {
        let f = Faults::new(FaultConfig { duplicate: 0.01, ..FaultConfig::wire(11) });
        let sched = schedule(&f, 2000);
        let snap = f.counters().snapshot();
        let count = |pred: fn(&WireFault) -> bool| sched.iter().filter(|w| pred(w)).count() as u64;
        assert_eq!(snap.resets, count(|w| matches!(w, WireFault::Reset)));
        assert_eq!(snap.delays, count(|w| matches!(w, WireFault::Delay(_))));
        assert_eq!(snap.bitflips, count(|w| matches!(w, WireFault::BitFlip { .. })));
        assert_eq!(snap.partial_io, count(|w| matches!(w, WireFault::Partial { .. })));
        assert_eq!(snap.duplicates, count(|w| matches!(w, WireFault::Duplicate)));
        assert!(snap.total() > 0, "wire preset over 2000 ops should inject something");
    }

    /// The wire preset has `duplicate == 0`; a 1-byte op (the tail a
    /// `Partial` leaves behind) that draws in the partial band used to
    /// come back `Duplicate` and desynchronise the stream.
    #[test]
    fn one_byte_ops_never_draw_a_disabled_fault() {
        let f = Faults::new(FaultConfig::wire(3));
        for _ in 0..4000 {
            let w = f.wire_fault(1);
            assert!(!matches!(w, WireFault::Duplicate | WireFault::Partial { .. }), "{w:?}");
        }
        assert_eq!(f.counters().snapshot().duplicates, 0);
    }

    #[test]
    fn gossip_preset_never_flips_bits() {
        let f = Faults::new(FaultConfig::gossip(17));
        let sched = schedule(&f, 2000);
        assert!(sched.iter().all(|w| !matches!(w, WireFault::BitFlip { .. })));
        let snap = f.counters().snapshot();
        assert_eq!(snap.bitflips, 0);
        assert!(snap.duplicates > 0, "gossip preset should duplicate some deliveries");
    }
}
