//! The shared binary frame format: versioned, self-describing,
//! checksummed containers for persisted SHE state.
//!
//! One frame carries one serialized object (an engine, an adapter, a
//! server shard, a whole-server checkpoint — see [`kind`]) as a list of
//! typed, length-prefixed sections:
//!
//! ```text
//! magic "SHEF" | version u16 | kind u16 | n_sections u16
//! | n × (tag u16 | len u32 | payload)
//! | checksum u64 (FNV-1a over everything before it)
//! ```
//!
//! All integers are little-endian. Readers skip sections whose tag they
//! don't know (forward compatibility within a version) and reject frames
//! whose version they don't speak. The checksum makes torn or bit-flipped
//! state files a typed error instead of a misparse.
//!
//! This module also owns the one little-endian [`Reader`] cursor shared
//! by every decoder in the workspace (snapshots here, the wire protocol
//! in `she-server`).

/// Leading magic of every frame.
pub const MAGIC: [u8; 4] = *b"SHEF";

/// Format version this build writes and accepts.
pub const VERSION: u16 = 1;

/// Fixed header: magic + version + kind + section count.
const HEADER: usize = 4 + 2 + 2 + 2;

/// Trailing FNV-1a 64 checksum.
const CHECKSUM: usize = 8;

/// What a frame serializes. Decoders must check the kind: a Bloom-filter
/// snapshot restored into a bitmap would pass every geometry check and
/// silently answer garbage.
pub mod kind {
    /// A raw `She<S>` engine (no adapter semantics).
    pub const ENGINE: u16 = 0x0001;
    /// `SheBloomFilter`.
    pub const BF: u16 = 0x0002;
    /// `SheBitmap`.
    pub const BM: u16 = 0x0003;
    /// `SheCountMin`.
    pub const CM: u16 = 0x0004;
    /// `SheHyperLogLog`.
    pub const HLL: u16 = 0x0005;
    /// `SheMinHash`.
    pub const MH: u16 = 0x0006;
    /// `SheCountSketch`.
    pub const CS: u16 = 0x0007;
    // 0x0008 and 0x0009 are retired: old builds wrote them, so never
    // reuse them.
    /// One she-server shard (nested structure frames).
    pub const SHARD: u16 = 0x0010;
    /// A whole-server checkpoint (engine config + all shard frames).
    pub const CHECKPOINT: u16 = 0x0011;
    /// One replication op-log record (sequence number + insert keys).
    pub const OPLOG: u16 = 0x0012;
    /// A replica bootstrap package (log position + nested checkpoint).
    pub const BOOTSTRAP: u16 = 0x0013;
}

/// Section tags. Tags may repeat within a frame (e.g. one `SHARD` section
/// per shard in a checkpoint); [`Frame::section`] returns the first,
/// [`Frame::sections`] all of them in order.
pub mod tag {
    /// Engine configuration (window, cycle, geometry).
    pub const CONFIG: u16 = 0x0001;
    /// Logical clock(s).
    pub const CLOCK: u16 = 0x0002;
    /// Per-group stored time marks, bit-packed.
    pub const MARKS: u16 = 0x0003;
    /// Raw cell words.
    pub const CELLS: u16 = 0x0004;
    /// Structure-specific parameters (e.g. an op-log record's sequence).
    pub const META: u16 = 0x0005;
    /// Operational counters (inserts/queries).
    pub const COUNTERS: u16 = 0x0006;
    // 0x0007 is retired: old builds wrote it, so never reuse it.
    /// A nested frame (e.g. a bootstrap package's checkpoint).
    pub const SKETCH: u16 = 0x0008;
    /// Shard frame: nested Bloom filter.
    pub const STRUCT_BF: u16 = 0x0010;
    /// Shard frame: nested bitmap.
    pub const STRUCT_BM: u16 = 0x0011;
    /// Shard frame: nested Count-Min.
    pub const STRUCT_CM: u16 = 0x0012;
    /// Shard frame: nested MinHash, stream A.
    pub const STRUCT_MH_A: u16 = 0x0013;
    /// Shard frame: nested MinHash, stream B.
    pub const STRUCT_MH_B: u16 = 0x0014;
    /// Checkpoint frame: one nested shard frame (repeated, in shard order).
    pub const SHARD: u16 = 0x0020;
    /// Op-log record: raw little-endian `u64` insert keys.
    pub const KEYS: u16 = 0x0021;
}

/// Why a frame failed to parse. Every malformed input maps here — parsing
/// never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer does not start with the `SHEF` magic.
    BadMagic,
    /// The buffer ended before the declared layout was complete.
    Truncated,
    /// The frame was written by a format version this build doesn't speak.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The trailing checksum disagrees with the content (corruption).
    BadChecksum,
    /// Bytes remain after the declared layout.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a SHE frame (bad magic)"),
            Self::Truncated => write!(f, "frame truncated"),
            Self::BadVersion { found } => {
                write!(f, "unsupported frame version {found} (this build speaks {VERSION})")
            }
            Self::BadChecksum => write!(f, "frame checksum mismatch (corrupt state)"),
            Self::TrailingBytes => write!(f, "trailing bytes after frame content"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a 64 over `bytes` — dependency-free, good enough to catch torn
/// writes and bit flips (this is an integrity check, not authentication).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian cursor over a byte slice — the workspace's single,
/// dependency-free stand-in for `bytes::Buf`, shared by the snapshot
/// codec and the she-server wire protocol.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() < n {
            return Err(FrameError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// Consume exactly `N` bytes as an array (the checked core of the
    /// fixed-width readers: the length test lives in `take`, so no
    /// panicking conversion is needed afterwards).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Consume a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Consume a little-endian `f64` (bit pattern).
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Assert everything was consumed.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

/// Incremental frame builder: header, sections, then checksum.
#[derive(Debug)]
pub struct FrameWriter {
    buf: Vec<u8>,
    sections: u16,
}

impl FrameWriter {
    /// Start a frame of the given [`kind`].
    pub fn new(kind: u16) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // section count, patched
        Self { buf, sections: 0 }
    }

    /// Append one section. Panics (via the asserts) on a payload over
    /// `u32::MAX` bytes or a 65536th section — both are structurally
    /// impossible for the fixed section layouts the codecs emit, and a
    /// programming error rather than an input error if ever hit.
    pub fn section(&mut self, tag: u16, payload: &[u8]) {
        let len = u32::try_from(payload.len());
        assert!(len.is_ok(), "section exceeds u32 length");
        let next = self.sections.checked_add(1);
        assert!(next.is_some(), "too many sections");
        self.sections = next.unwrap_or(u16::MAX);
        self.buf.reserve(6 + payload.len());
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf.extend_from_slice(&len.unwrap_or(u32::MAX).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Patch the section count, append the checksum, return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[8..10].copy_from_slice(&self.sections.to_le_bytes());
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// A parsed frame: kind plus borrowed sections.
#[derive(Debug)]
pub struct Frame<'a> {
    /// The frame's [`kind`].
    pub kind: u16,
    sections: Vec<(u16, &'a [u8])>,
}

impl<'a> Frame<'a> {
    /// Parse and integrity-check a frame. Checks run magic → version →
    /// checksum → layout so the caller gets the most specific error.
    pub fn parse(buf: &'a [u8]) -> Result<Frame<'a>, FrameError> {
        if buf.len() < 4 {
            return Err(FrameError::Truncated);
        }
        if buf[..4] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if buf.len() < HEADER + CHECKSUM {
            return Err(FrameError::Truncated);
        }
        let mut hdr = Reader::new(&buf[4..HEADER]);
        let version = hdr.u16().map_err(|_| FrameError::Truncated)?;
        if version != VERSION {
            return Err(FrameError::BadVersion { found: version });
        }
        let body = &buf[..buf.len() - CHECKSUM];
        let mut tail = Reader::new(&buf[buf.len() - CHECKSUM..]);
        let stored = tail.u64().map_err(|_| FrameError::Truncated)?;
        if checksum(body) != stored {
            return Err(FrameError::BadChecksum);
        }
        let kind = hdr.u16().map_err(|_| FrameError::Truncated)?;
        let n = hdr.u16().map_err(|_| FrameError::Truncated)?;
        let mut r = Reader::new(&body[HEADER..]);
        let mut sections = Vec::with_capacity(usize::from(n));
        for _ in 0..n {
            let tag = r.u16()?;
            let len = crate::convert::usize_of(u64::from(r.u32()?));
            sections.push((tag, r.take(len)?));
        }
        r.finish()?;
        Ok(Frame { kind, sections })
    }

    /// First section with this tag, if any.
    pub fn section(&self, tag: u16) -> Option<&'a [u8]> {
        self.sections.iter().find(|(t, _)| *t == tag).map(|&(_, s)| s)
    }

    /// All sections with this tag, in frame order.
    pub fn sections(&self, tag: u16) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.sections.iter().filter(move |(t, _)| *t == tag).map(|&(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = FrameWriter::new(kind::ENGINE);
        w.section(tag::CLOCK, &7u64.to_le_bytes());
        w.section(tag::CELLS, b"abcdef");
        w.section(tag::CELLS, b"second");
        w.finish()
    }

    #[test]
    fn roundtrip_with_repeated_tags() {
        let buf = sample();
        let f = Frame::parse(&buf).unwrap();
        assert_eq!(f.kind, kind::ENGINE);
        assert_eq!(f.section(tag::CLOCK), Some(&7u64.to_le_bytes()[..]));
        let cells: Vec<_> = f.sections(tag::CELLS).collect();
        assert_eq!(cells, vec![&b"abcdef"[..], &b"second"[..]]);
        assert_eq!(f.section(tag::MARKS), None);
    }

    #[test]
    fn empty_frame_roundtrips() {
        let buf = FrameWriter::new(kind::SHARD).finish();
        let f = Frame::parse(&buf).unwrap();
        assert_eq!(f.kind, kind::SHARD);
        assert_eq!(f.sections(tag::SHARD).count(), 0);
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut buf = sample();
        buf[0] = b'X';
        assert!(matches!(Frame::parse(&buf), Err(FrameError::BadMagic)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = sample();
        buf[4] = 0xFE;
        match Frame::parse(&buf) {
            Err(FrameError::BadVersion { found }) => assert_eq!(found, 0x00FE),
            other => panic!("expected BadVersion, got {:?}", other.err()),
        }
    }

    #[test]
    fn flipped_byte_fails_checksum() {
        let buf = sample();
        // Every single-byte corruption outside magic/version must be caught
        // by the checksum (magic/version flips get their own errors).
        for i in 6..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            assert!(Frame::parse(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn every_truncation_rejected() {
        let buf = sample();
        for cut in 0..buf.len() {
            assert!(Frame::parse(&buf[..cut]).is_err(), "truncation to {cut} accepted");
        }
    }

    #[test]
    fn checksum_is_stable() {
        // Pin the FNV-1a constants: a silent change would orphan every
        // state file in the wild.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
