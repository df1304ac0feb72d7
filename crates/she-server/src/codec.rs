//! Length-prefixed framing over any `Read`/`Write` pair.
//!
//! A frame is `u32` little-endian payload length + payload, payload at
//! most [`MAX_FRAME`] bytes. The codec is
//! blocking; callers that need to poll a shutdown flag set a read timeout
//! on the socket and treat `WouldBlock`/`TimedOut` as "no frame yet".

use crate::protocol::MAX_FRAME;
use she_core::convert::usize_of;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// A payload too large for the `u32` length prefix / `MAX_FRAME` cap.
///
/// Carried as the source of the `InvalidInput` error [`write_frame`]
/// returns, so callers can downcast and distinguish "you built an
/// impossible frame" from transport failures. Before this type existed
/// the length was cast with `as u32` — a payload over 4 GiB would have
/// written a silently truncated prefix and desynchronised the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The rejected payload length in bytes.
    pub len: usize,
}

impl fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame payload of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", self.len)
    }
}

impl std::error::Error for FrameTooLarge {}

/// Write one frame (length prefix + payload) and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    // MAX_FRAME < u32::MAX, so a length that passes the cap check always
    // fits the prefix; try_from (not `as`) keeps that connection checked.
    let len = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= MAX_FRAME => len,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                FrameTooLarge { len: payload.len() },
            ))
        }
    };
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Outcome of one deadline-aware frame read.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameIn {
    /// A complete frame payload arrived.
    Frame(Vec<u8>),
    /// Clean EOF at a frame boundary (peer hung up between frames).
    Eof,
    /// No header byte arrived before the socket read timeout fired. The
    /// stream is still synchronised; the caller may poll again.
    Idle,
    /// A frame *started* (at least one header byte arrived) but did not
    /// complete within the deadline. The stream is desynchronised; the
    /// only safe response is to drop the connection.
    Stalled,
}

/// Read one frame's payload. Returns `Ok(None)` on clean EOF *before* a
/// length prefix; EOF mid-frame is an `UnexpectedEof` error. Socket read
/// timeouts surface as `WouldBlock` before the first header byte and are
/// swallowed (wait forever) once a frame has started — use
/// [`read_frame_deadline`] when a stalled peer must be evicted.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    match read_frame_deadline(r, Duration::MAX)? {
        FrameIn::Frame(payload) => Ok(Some(payload)),
        FrameIn::Eof => Ok(None),
        FrameIn::Idle => Err(io::Error::new(io::ErrorKind::WouldBlock, "no frame yet")),
        // Unreachable with an infinite deadline, but keep a sane mapping.
        FrameIn::Stalled => Err(io::Error::new(io::ErrorKind::TimedOut, "frame stalled")),
    }
}

/// Read one frame's payload with an overall per-frame deadline.
///
/// The deadline clock starts when the *first header byte* arrives, so an
/// idle-but-healthy connection is [`FrameIn::Idle`] (poll again), while a
/// peer that starts a frame and stalls mid-way is [`FrameIn::Stalled`]
/// once `deadline` elapses — even if it trickles a byte per timeout tick
/// (slow-loris), because the deadline is checked on every loop iteration.
/// The reader relies on the caller having set a finite socket read
/// timeout; without one a silent peer blocks in `read` and the deadline
/// can only be observed after the next byte.
pub fn read_frame_deadline<R: Read>(r: &mut R, deadline: Duration) -> io::Result<FrameIn> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled read_exact for the prefix so a clean EOF at a frame
    // boundary is distinguishable from a torn frame.
    let mut filled = 0;
    let mut started: Option<Instant> = None;
    while filled < 4 {
        if let Some(t0) = started {
            if t0.elapsed() >= deadline {
                return Ok(FrameIn::Stalled);
            }
        }
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameIn::Eof),
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame header"))
            }
            Ok(n) => {
                if started.is_none() {
                    started = Some(Instant::now());
                }
                filled += n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A timeout mid-prefix would desynchronise the stream; only
            // report Idle when no header byte has arrived.
            Err(e)
                if filled == 0
                    && matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                return Ok(FrameIn::Idle)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    let started = started.unwrap_or_else(Instant::now);
    let len = usize_of(u64::from(u32::from_le_bytes(len_buf)));
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        if started.elapsed() >= deadline {
            return Ok(FrameIn::Stalled);
        }
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof inside frame body"))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Inside a frame body a timeout means "keep waiting" (the peer
            // has committed to `len` bytes) — until the deadline says
            // otherwise at the top of the loop.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FrameIn::Frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut c = Cursor::new(buf);
        assert_eq!(read_frame(&mut c).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut c).unwrap().unwrap(), b"");
        assert!(read_frame(&mut c).unwrap().is_none());
    }

    #[test]
    fn oversize_payload_is_a_typed_error_not_a_truncated_prefix() {
        let payload = vec![0u8; MAX_FRAME + 1];
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let inner = err.get_ref().expect("typed source");
        let too_large = inner.downcast_ref::<FrameTooLarge>().expect("FrameTooLarge");
        assert_eq!(too_large.len, MAX_FRAME + 1);
        // Nothing — not even a length prefix — reached the stream.
        assert!(buf.is_empty());
    }

    #[test]
    fn torn_header_is_an_error() {
        let mut c = Cursor::new(vec![5u8, 0]);
        assert_eq!(read_frame(&mut c).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn torn_body_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut c = Cursor::new(buf);
        assert_eq!(read_frame(&mut c).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversize_prefix_rejected_without_allocation() {
        let mut c = Cursor::new((u32::MAX).to_le_bytes().to_vec());
        assert_eq!(read_frame(&mut c).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// Feeds scripted chunks; `None` entries simulate a socket read
    /// timeout (`WouldBlock`), and after the script runs out every read
    /// times out.
    struct Scripted {
        steps: Vec<Option<Vec<u8>>>,
        next: usize,
    }

    impl Scripted {
        fn new(steps: Vec<Option<Vec<u8>>>) -> Self {
            Self { steps, next: 0 }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let step = self.steps.get(self.next).cloned();
            self.next += 1;
            match step {
                Some(Some(chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    Ok(n)
                }
                Some(None) | None => Err(io::Error::new(io::ErrorKind::WouldBlock, "tick")),
            }
        }
    }

    #[test]
    fn deadline_idle_before_any_byte() {
        let mut r = Scripted::new(vec![None]);
        assert_eq!(read_frame_deadline(&mut r, Duration::from_millis(50)).unwrap(), FrameIn::Idle);
    }

    #[test]
    fn deadline_stalls_mid_header() {
        // Two header bytes arrive, then silence: the frame has started, so
        // the reader must report Stalled (never Idle) once the deadline
        // passes.
        let mut r = Scripted::new(vec![Some(vec![5, 0])]);
        assert_eq!(read_frame_deadline(&mut r, Duration::ZERO).unwrap(), FrameIn::Stalled);
    }

    #[test]
    fn deadline_stalls_mid_body() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2); // header + "hel"
        let mut r = Scripted::new(vec![Some(buf)]);
        assert_eq!(read_frame_deadline(&mut r, Duration::ZERO).unwrap(), FrameIn::Stalled);
    }

    #[test]
    fn deadline_slow_loris_trickle_still_stalls() {
        // One byte per timeout tick: each read makes "progress", but the
        // per-frame clock still expires.
        let mut steps = vec![Some(vec![9u8]), None, Some(vec![0u8]), None];
        steps.extend(std::iter::repeat_with(|| Some(vec![0u8])).take(64).flat_map(|s| [s, None]));
        let mut r = Scripted::new(steps);
        let got = read_frame_deadline(&mut r, Duration::ZERO).unwrap();
        assert_eq!(got, FrameIn::Stalled);
    }

    #[test]
    fn deadline_whole_frame_within_budget() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        // An idle tick before the frame is Idle (poll again), then the
        // whole frame lands well inside the budget. (Scripted hands each
        // chunk to exactly one read call, so header and body are
        // separate steps.)
        let (header, body) = buf.split_at(4);
        let mut r = Scripted::new(vec![None, Some(header.to_vec()), Some(body.to_vec())]);
        let deadline = Duration::from_secs(5);
        assert_eq!(read_frame_deadline(&mut r, deadline).unwrap(), FrameIn::Idle);
        let got = read_frame_deadline(&mut r, deadline).unwrap();
        assert_eq!(got, FrameIn::Frame(b"hello".to_vec()));
    }

    #[test]
    fn read_frame_surfaces_idle_as_would_block() {
        let mut r = Scripted::new(vec![None]);
        assert_eq!(read_frame(&mut r).unwrap_err().kind(), io::ErrorKind::WouldBlock);
    }
}
