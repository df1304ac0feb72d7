//! The uniform persistence layer: versioned snapshots of SHE state,
//! with config validation on load and cell-wise merge where the
//! structure supports it.
//!
//! A `She<S>` is `(config, clock, marks, cells)`; the hash spec `S` is
//! *not* serialized (seeds are configuration, not state), so loading
//! requires an identically-configured engine — exactly like restoring a
//! sketch into a router after a control-plane restart. State travels in
//! the shared [`crate::frame`] format; an engine frame carries four
//! sections:
//!
//! * `CONFIG` — `window u64 | t_cycle u64 | group_cells u64 | beta f64
//!   | num_cells u64 | cell_bits u32 | k u32`, checked field-by-field on
//!   load;
//! * `CLOCK` — `t u64`, refused when the time-mark arithmetic cannot hold
//!   it ([`SnapshotError::ClockOutOfRange`]);
//! * `MARKS` — `n u64` + bit-packed stored marks;
//! * `CELLS` — `n_words u64` + raw cell words.
//!
//! Every structure in the crate implements [`SnapshotState`]; the
//! mergeable ones (SHE-BF/BM via cell-wise OR, SHE-HLL/CM via cell-wise
//! max, SHE-MH via non-zero min) additionally support
//! [`SnapshotState::merge_snapshot`], which reconciles the two time-mark
//! sets so a merge commutes cell-for-cell (see `She::merge_state`).

use crate::frame::{self, Frame, FrameError, FrameWriter, Reader};
use crate::She;
use she_sketch::CsmSpec;
use std::fmt;

/// Why a snapshot failed to load or merge.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The container itself is malformed (magic, version, checksum,
    /// truncation).
    Frame(FrameError),
    /// The frame serializes a different structure than the target.
    WrongKind {
        /// Kind the target expects.
        expected: u16,
        /// Kind found in the frame.
        found: u16,
    },
    /// A section the layout requires is absent.
    MissingSection {
        /// The missing section's tag.
        tag: u16,
    },
    /// The snapshot's configuration disagrees with the target's.
    ConfigMismatch {
        /// Field that disagreed.
        field: &'static str,
    },
    /// The snapshot's geometry (cells/marks/hashes) disagrees with the
    /// target's.
    GeometryMismatch,
    /// The snapshot's clock is beyond what the time-mark arithmetic can
    /// hold (`t + 2·Tcycle` must stay below `2^62`) — no stream gets
    /// there by counting items, so the frame is hostile or corrupt.
    ClockOutOfRange {
        /// The clock found in the frame.
        t: u64,
    },
    /// The structure defines no cell-wise merge.
    NotMergeable,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "snapshot frame: {e}"),
            Self::WrongKind { expected, found } => {
                write!(f, "snapshot kind mismatch: expected {expected:#06x}, found {found:#06x}")
            }
            Self::MissingSection { tag } => write!(f, "snapshot missing section {tag:#06x}"),
            Self::ConfigMismatch { field } => write!(f, "snapshot config mismatch: {field}"),
            Self::GeometryMismatch => write!(f, "snapshot geometry mismatch"),
            Self::ClockOutOfRange { t } => write!(f, "snapshot clock {t} is out of range"),
            Self::NotMergeable => write!(f, "structure does not support snapshot merging"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

/// The cell-wise operator a structure's snapshots combine under.
///
/// A merge models "both states observed the same logical stream split in
/// two"; all three operators are commutative and have zero (the cleaned
/// cell) as identity, which is what makes `merge(a, b) == merge(b, a)`
/// cell-for-cell after time-mark reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Bitwise OR — exact for set-bit sketches (SHE-BF, SHE-BM).
    Or,
    /// Cell-wise max — exact for SHE-HLL registers, a safe (still
    /// one-sided) upper bound for SHE-CM counters over disjoint streams.
    Max,
    /// Cell-wise min, treating zero as "empty" — the MinHash register
    /// merge (the min over a union of streams).
    MinNonZero,
}

impl MergeMode {
    /// Combine two cell values.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            MergeMode::Or => a | b,
            MergeMode::Max => a.max(b),
            MergeMode::MinNonZero => {
                if a == 0 {
                    b
                } else if b == 0 {
                    a
                } else {
                    a.min(b)
                }
            }
        }
    }
}

/// Uniform persistence for every SHE structure: encode into a versioned,
/// self-describing frame; decode with config validation; merge cell-wise
/// where the structure supports it.
pub trait SnapshotState {
    /// The [`frame::kind`] tag identifying this structure's frames.
    const KIND: u16;

    /// The cell-wise merge operator, or `None` for structures whose
    /// state cannot be combined without replay.
    const MERGE: Option<MergeMode>;

    /// Serialize the structure's state into a frame.
    fn save_snapshot(&self) -> Vec<u8>;

    /// Replace this structure's state from a frame written by an
    /// identically-configured instance.
    fn load_snapshot(&mut self, buf: &[u8]) -> Result<(), SnapshotError>;

    /// Merge a frame's state into this structure cell-for-cell
    /// (`Err(NotMergeable)` when [`Self::MERGE`] is `None`).
    fn merge_snapshot(&mut self, buf: &[u8]) -> Result<(), SnapshotError>;
}

/// Bit-pack a mark vector, little-endian within each byte.
pub(crate) fn pack_marks(marks: &[bool], out: &mut Vec<u8>) {
    out.extend_from_slice(&(marks.len() as u64).to_le_bytes());
    for chunk in marks.chunks(8) {
        let mut byte = 0u8;
        for (i, &m) in chunk.iter().enumerate() {
            if m {
                byte |= 1 << i;
            }
        }
        out.push(byte);
    }
}

impl<S: CsmSpec> She<S> {
    /// Encode the engine state into a frame of the given kind.
    pub(crate) fn encode_frame(&self, kind: u16) -> Vec<u8> {
        let cfg = *self.config();
        let (t, marks, cells) = self.snapshot_state();
        let mut w = FrameWriter::new(kind);

        let mut sec = Vec::with_capacity(48);
        sec.extend_from_slice(&cfg.window.to_le_bytes());
        sec.extend_from_slice(&cfg.t_cycle.to_le_bytes());
        sec.extend_from_slice(&(cfg.group_cells as u64).to_le_bytes());
        sec.extend_from_slice(&cfg.beta.to_le_bytes());
        sec.extend_from_slice(&(self.spec().num_cells() as u64).to_le_bytes());
        sec.extend_from_slice(&self.spec().cell_bits().to_le_bytes());
        sec.extend_from_slice(&(self.spec().k() as u32).to_le_bytes());
        w.section(frame::tag::CONFIG, &sec);

        w.section(frame::tag::CLOCK, &t.to_le_bytes());

        sec = Vec::with_capacity(8 + marks.len().div_ceil(8));
        pack_marks(&marks, &mut sec);
        w.section(frame::tag::MARKS, &sec);

        let words = cells.words();
        sec = Vec::with_capacity(8 + words.len() * 8);
        sec.extend_from_slice(&(words.len() as u64).to_le_bytes());
        for &word in words {
            sec.extend_from_slice(&word.to_le_bytes());
        }
        w.section(frame::tag::CELLS, &sec);

        w.finish()
    }

    /// Parse an engine frame, validating kind, config and geometry
    /// against this engine. Returns `(t, stored marks, cell words)`.
    fn parse_engine_frame(
        &self,
        kind: u16,
        buf: &[u8],
    ) -> Result<(u64, Vec<bool>, Vec<u64>), SnapshotError> {
        let f = Frame::parse(buf)?;
        if f.kind != kind {
            return Err(SnapshotError::WrongKind { expected: kind, found: f.kind });
        }
        let section = |tag: u16| f.section(tag).ok_or(SnapshotError::MissingSection { tag });

        let mut r = Reader::new(section(frame::tag::CONFIG)?);
        let cfg = *self.config();
        if r.u64()? != cfg.window {
            return Err(SnapshotError::ConfigMismatch { field: "window" });
        }
        if r.u64()? != cfg.t_cycle {
            return Err(SnapshotError::ConfigMismatch { field: "t_cycle" });
        }
        if r.u64()? != cfg.group_cells as u64 {
            return Err(SnapshotError::ConfigMismatch { field: "group_cells" });
        }
        if r.f64()?.to_bits() != cfg.beta.to_bits() {
            return Err(SnapshotError::ConfigMismatch { field: "beta" });
        }
        if r.u64()? != self.spec().num_cells() as u64
            || r.u32()? != self.spec().cell_bits()
            || r.u32()? != self.spec().k() as u32
        {
            return Err(SnapshotError::GeometryMismatch);
        }
        r.finish()?;

        let mut r = Reader::new(section(frame::tag::CLOCK)?);
        let t = r.u64()?;
        r.finish()?;
        if !self.clock_fits(t) {
            return Err(SnapshotError::ClockOutOfRange { t });
        }

        let mut r = Reader::new(section(frame::tag::MARKS)?);
        let n_marks = r.u64()? as usize;
        if n_marks != self.num_groups() {
            return Err(SnapshotError::GeometryMismatch);
        }
        let packed = r.take(n_marks.div_ceil(8))?;
        r.finish()?;
        let mut marks = Vec::with_capacity(n_marks);
        for &byte in packed {
            for bit in 0..8 {
                if marks.len() < n_marks {
                    marks.push(byte & (1 << bit) != 0);
                }
            }
        }

        let mut r = Reader::new(section(frame::tag::CELLS)?);
        let n_words = r.u64()? as usize;
        {
            let (_, _, cells) = self.snapshot_state();
            if n_words != cells.words().len() {
                return Err(SnapshotError::GeometryMismatch);
            }
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(r.u64()?);
        }
        r.finish()?;

        Ok((t, marks, words))
    }

    /// Replace this engine's state from a frame of the given kind.
    pub(crate) fn decode_frame(&mut self, kind: u16, buf: &[u8]) -> Result<(), SnapshotError> {
        let (t, marks, words) = self.parse_engine_frame(kind, buf)?;
        self.restore_state(t, &marks, &words);
        Ok(())
    }

    /// Merge a frame's state into this engine under `mode` (see
    /// `She::merge_state` for the time-mark reconciliation).
    pub(crate) fn merge_frame(
        &mut self,
        kind: u16,
        buf: &[u8],
        mode: MergeMode,
    ) -> Result<(), SnapshotError> {
        let (t, marks, words) = self.parse_engine_frame(kind, buf)?;
        self.merge_state(t, &marks, &words, mode);
        Ok(())
    }

    /// Serialize the engine state (not the hash spec) to a binary frame.
    pub fn save_state(&self) -> Vec<u8> {
        self.encode_frame(frame::kind::ENGINE)
    }

    /// Restore state saved by [`She::save_state`] into this engine.
    ///
    /// The engine must have been built with the same configuration and the
    /// same spec geometry (and, for meaningful answers, the same hash
    /// seeds).
    pub fn load_state(&mut self, buf: &[u8]) -> Result<(), SnapshotError> {
        self.decode_frame(frame::kind::ENGINE, buf)
    }
}

/// Implement [`SnapshotState`] for an adapter that wraps a `She<S>`
/// engine one-to-one (all five paper adapters plus SHE-CS).
macro_rules! impl_snapshot_for_adapter {
    ($ty:ty, $kind:expr, $merge:expr) => {
        impl SnapshotState for $ty {
            const KIND: u16 = $kind;
            const MERGE: Option<MergeMode> = $merge;

            fn save_snapshot(&self) -> Vec<u8> {
                self.engine().encode_frame(Self::KIND)
            }

            fn load_snapshot(&mut self, buf: &[u8]) -> Result<(), SnapshotError> {
                self.engine_mut().decode_frame(Self::KIND, buf)
            }

            fn merge_snapshot(&mut self, buf: &[u8]) -> Result<(), SnapshotError> {
                match Self::MERGE {
                    Some(mode) => self.engine_mut().merge_frame(Self::KIND, buf, mode),
                    None => Err(SnapshotError::NotMergeable),
                }
            }
        }
    };
}

impl_snapshot_for_adapter!(crate::SheBloomFilter, frame::kind::BF, Some(MergeMode::Or));
impl_snapshot_for_adapter!(crate::SheBitmap, frame::kind::BM, Some(MergeMode::Or));
impl_snapshot_for_adapter!(crate::SheCountMin, frame::kind::CM, Some(MergeMode::Max));
impl_snapshot_for_adapter!(crate::SheHyperLogLog, frame::kind::HLL, Some(MergeMode::Max));
impl_snapshot_for_adapter!(crate::SheMinHash, frame::kind::MH, Some(MergeMode::MinNonZero));
// Count-Sketch cells are signed sums; neither OR nor max is sound, and a
// cell-wise sum would break the zero-identity the time-mark
// reconciliation needs. Snapshot/restore only.
impl_snapshot_for_adapter!(crate::SheCountSketch, frame::kind::CS, None);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SheConfig;
    use she_sketch::BloomSpec;

    fn engine(seed: u32) -> She<BloomSpec> {
        let cfg = SheConfig::builder().window(1 << 10).alpha(1.0).group_cells(64).build();
        She::new(BloomSpec::new(1 << 13, 4, seed), cfg)
    }

    fn bf_contains(s: &mut She<BloomSpec>, key: u64) -> bool {
        let mut ups = Vec::new();
        s.updates_for(&key, &mut ups);
        for u in ups {
            let gid = s.group_of(u.index);
            if !s.check_mature(gid) {
                continue;
            }
            if s.peek_cell(u.index) == 0 {
                return false;
            }
        }
        true
    }

    #[test]
    fn roundtrip_preserves_every_answer() {
        let mut a = engine(7);
        for i in 0..5_000u64 {
            a.insert(&she_hash::mix64(i));
        }
        let snap = a.save_state();
        let mut b = engine(7);
        b.load_state(&snap).expect("load");
        assert_eq!(b.now(), a.now());
        for i in 0..6_000u64 {
            let k = she_hash::mix64(i);
            assert_eq!(bf_contains(&mut a, k), bf_contains(&mut b, k), "key {i}");
        }
    }

    #[test]
    fn snapshot_then_continue_streaming() {
        let mut a = engine(8);
        for i in 0..3_000u64 {
            a.insert(&i);
        }
        let snap = a.save_state();
        let mut b = engine(8);
        b.load_state(&snap).expect("load");
        // Both continue with the same suffix: answers stay identical.
        for i in 3_000..5_000u64 {
            a.insert(&i);
            b.insert(&i);
        }
        for i in 4_000..5_000u64 {
            assert_eq!(bf_contains(&mut a, i), bf_contains(&mut b, i));
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut b = engine(9);
        assert_eq!(b.load_state(b"nope").unwrap_err(), SnapshotError::Frame(FrameError::BadMagic));
        let mut a = engine(9);
        a.insert(&1u64);
        let snap = a.save_state();
        for cut in [0, 4, snap.len() / 2, snap.len() - 1] {
            assert!(
                matches!(b.load_state(&snap[..cut]).unwrap_err(), SnapshotError::Frame(_)),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn rejects_config_mismatch() {
        let a = engine(10);
        let snap = a.save_state();
        let cfg = SheConfig::builder().window(1 << 11).alpha(1.0).group_cells(64).build();
        let mut b = She::new(BloomSpec::new(1 << 13, 4, 10), cfg);
        assert!(matches!(
            b.load_state(&snap).unwrap_err(),
            SnapshotError::ConfigMismatch { field: "window" }
        ));
    }

    #[test]
    fn rejects_geometry_mismatch() {
        let a = engine(11);
        let snap = a.save_state();
        let cfg = *a.config();
        let mut b = She::new(BloomSpec::new(1 << 12, 4, 11), cfg); // half the bits
        assert_eq!(b.load_state(&snap).unwrap_err(), SnapshotError::GeometryMismatch);
    }

    #[test]
    fn rejects_wrong_kind() {
        use crate::{SheBitmap, SheBloomFilter};
        let bf = SheBloomFilter::builder().window(512).memory_bytes(1 << 10).seed(2).build();
        let snap = bf.save_snapshot();
        let mut bm = SheBitmap::builder().window(512).memory_bytes(1 << 10).seed(2).build();
        assert!(matches!(
            bm.load_snapshot(&snap).unwrap_err(),
            SnapshotError::WrongKind { expected: frame::kind::BM, found: frame::kind::BF }
        ));
    }

    #[test]
    fn snapshot_error_boxes_as_std_error() {
        // The server path mixes SnapshotError with io::Error behind one
        // Box<dyn Error>; keep the impl (and source chaining) alive.
        let err: Box<dyn std::error::Error> =
            Box::new(SnapshotError::Frame(FrameError::BadChecksum));
        assert!(err.source().is_some());
        let err: Box<dyn std::error::Error> = Box::new(SnapshotError::GeometryMismatch);
        assert!(err.source().is_none());
    }

    #[test]
    fn count_sketch_is_not_mergeable() {
        use crate::SheCountSketch;
        let cs = SheCountSketch::builder().window(512).memory_bytes(4 << 10).seed(3).build();
        let snap = cs.save_snapshot();
        let mut other = SheCountSketch::builder().window(512).memory_bytes(4 << 10).seed(3).build();
        assert_eq!(other.merge_snapshot(&snap).unwrap_err(), SnapshotError::NotMergeable);
    }
}
