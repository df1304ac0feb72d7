//! The mark cache: a direct-mapped query-result cache whose entries are
//! invalidated by time-mark *flips*, not by inserts.
//!
//! Each entry stores the answer to one `(op, key)` query together with the
//! [mark signature](she_core::She::mark_sig) of the groups the key
//! hashes to at fill time. A lookup recomputes the current signature and
//! compares: equal means no group the answer depends on has flipped its
//! time-mark since fill, so the cached answer is still *valid* (see the
//! staleness bound in `docs/READPATH.md` — inserts may have raised a
//! counter since fill, but no cleaning the cached answer predates can have
//! happened). A differing signature drops the entry on the spot: that is
//! the "invalidated on the next observation" half of the bound.
//!
//! The table is direct-mapped on purpose: eviction is free (overwrite),
//! memory is a fixed power-of-two slot array, and a collision only costs a
//! recompute — correctness never depends on residency.

use she_core::convert::{u64_of, usize_of};
use she_hash::mix64;

/// One cached answer. `val` packs the answer for the op: membership as
/// 0/1, frequency as the count.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    used: bool,
    op: u8,
    key: u64,
    sig: u64,
    val: u64,
}

/// Outcome of a [`MarkCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Entry present and its mark signature still current.
    Hit(u64),
    /// No usable entry. `invalidated` is true when an entry for this exact
    /// `(op, key)` existed but a relevant time-mark flipped since fill.
    Miss {
        /// A stale entry was dropped by this lookup.
        invalidated: bool,
    },
}

/// Direct-mapped `(op, key) → answer` cache with mark-signature
/// validation. Not thread-safe; the owner locks around it.
#[derive(Debug)]
pub struct MarkCache {
    slots: Vec<Slot>,
    mask: u64,
}

impl MarkCache {
    /// A cache with at least `slots` entries (rounded up to a power of
    /// two, minimum 16). Memory is 32 bytes per slot, fixed at build.
    pub fn new(slots: usize) -> Self {
        let n = slots.next_power_of_two().max(16);
        Self { slots: vec![Slot::default(); n], mask: u64_of(n - 1) }
    }

    /// Slot index for `(op, key)` — one mix over key and op.
    #[inline]
    fn index_of(&self, op: u8, key: u64) -> usize {
        usize_of(mix64(key ^ u64::from(op).rotate_left(56)) & self.mask)
    }

    /// Look up `(op, key)` given the *current* mark signature of the
    /// groups the key hashes to. A signature mismatch drops the entry.
    pub fn lookup(&mut self, op: u8, key: u64, cur_sig: u64) -> Lookup {
        let i = self.index_of(op, key);
        let s = self.slots[i];
        if !s.used || s.op != op || s.key != key {
            return Lookup::Miss { invalidated: false };
        }
        if s.sig != cur_sig {
            self.slots[i].used = false;
            return Lookup::Miss { invalidated: true };
        }
        Lookup::Hit(s.val)
    }

    /// Install (or overwrite) the entry for `(op, key)`.
    pub fn fill(&mut self, op: u8, key: u64, sig: u64, val: u64) {
        let i = self.index_of(op, key);
        self.slots[i] = Slot { used: true, op, key, sig, val };
    }

    /// Drop every entry (state reload, failover resync).
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.used = false;
        }
    }

    /// Number of slots in the table.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit_same_sig() {
        let mut c = MarkCache::new(64);
        assert_eq!(c.lookup(0, 42, 7), Lookup::Miss { invalidated: false });
        c.fill(0, 42, 7, 1);
        assert_eq!(c.lookup(0, 42, 7), Lookup::Hit(1));
        // Different op is a different entry even for the same key.
        assert_eq!(c.lookup(2, 42, 7), Lookup::Miss { invalidated: false });
    }

    #[test]
    fn sig_change_invalidates_once() {
        let mut c = MarkCache::new(64);
        c.fill(2, 9, 100, 5);
        assert_eq!(c.lookup(2, 9, 101), Lookup::Miss { invalidated: true });
        // The stale entry is gone: the next miss is a plain miss.
        assert_eq!(c.lookup(2, 9, 101), Lookup::Miss { invalidated: false });
    }

    #[test]
    fn rounds_to_power_of_two_and_clears() {
        let mut c = MarkCache::new(100);
        assert_eq!(c.slots(), 128);
        c.fill(0, 1, 1, 1);
        c.clear();
        assert_eq!(c.lookup(0, 1, 1), Lookup::Miss { invalidated: false });
    }
}
