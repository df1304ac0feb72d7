//! Sans-IO protocol connection state machine.
//!
//! A [`Connection`] owns both directions of one client connection as pure
//! state: callers *feed* it raw bytes ([`Connection::feed`]) and *poll*
//! typed events out ([`Connection::poll`], or [`Connection::poll_if`] to
//! take the next request only if it is one they want); responses are
//! queued with [`Connection::push_response`] and drained as byte slices
//! ([`Connection::out_slices`] / [`Connection::advance_out`]). No sockets,
//! no threads, no clocks — time enters only as the `now_ms` the caller
//! passes in, so the epoll reactor, unit tests, fuzzers, and `she-chaos`
//! all drive the exact same protocol logic.
//!
//! Framing matches `codec.rs` byte for byte: a `u32` little-endian payload
//! length followed by the payload, payload at most
//! [`MAX_FRAME`] bytes. The state machine
//! preserves the blocking codec's semantics:
//!
//! * an oversize length prefix is **fatal** ([`Event::Fatal`]) — the
//!   stream is desynchronised and the only safe response is to close;
//! * a payload that does not decode is [`Event::Bad`] — the connection
//!   stays synchronised (the frame boundary is known), the caller answers
//!   `ERR` and keeps serving, exactly like the thread-per-connection
//!   handler did;
//! * the per-frame deadline clock starts when the first byte of a
//!   *partial* frame arrives and clears when no partial frame is pending,
//!   so [`Connection::stalled`] reproduces the slow-loris eviction rule
//!   (`Idle` connections with no buffered bytes are never stalled).
//!
//! Overload and deadline policy live in the caller (the reactor): shed a
//! query by pushing `OVERLOADED`, evict a peer when `stalled` reports
//! true. The state machine just keeps the bytes and frames straight.

use crate::protocol::{ProtoError, Request, Response, MAX_FRAME};
use she_core::convert::usize_of;
use std::collections::VecDeque;
use std::ops::Range;

/// One event from [`Connection::poll`].
#[derive(Debug, PartialEq)]
pub enum Event {
    /// A complete frame arrived and decoded.
    Request(Request),
    /// A complete frame arrived but its payload does not decode; answer
    /// an `ERR` response — the stream itself is still synchronised.
    Bad(ProtoError),
    /// No complete frame buffered; feed more bytes.
    NeedMore,
    /// The stream is unrecoverable (oversize length prefix); close it.
    Fatal,
}

/// One event from [`Connection::poll_frame`] — the framing layer below
/// [`Event`], exposed so fuzzers can check the payload bytes themselves.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame payload.
    Payload(Vec<u8>),
    /// No complete frame buffered; feed more bytes.
    NeedMore,
    /// Oversize length prefix; the stream is unrecoverable.
    Fatal,
}

/// Transport-free protocol state for one connection: an input accumulator
/// with an incremental frame parser, and an outgoing frame queue.
#[derive(Debug, Default)]
pub struct Connection {
    /// Raw bytes fed in and not yet consumed (`pos..` is live).
    input: Vec<u8>,
    /// Parse cursor into `input`; compacted on the next `feed`.
    pos: usize,
    /// Encoded outgoing frames (length prefix included), oldest first.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written by the caller.
    out_front: usize,
    /// Total unwritten output bytes across `out`.
    out_bytes: usize,
    /// When the currently pending partial frame started arriving; `None`
    /// when no partial frame is buffered (idle connections never stall).
    frame_start_ms: Option<u64>,
    /// Timestamp of the most recent `feed`, for re-arming the deadline
    /// clock when a popped frame leaves partial bytes behind.
    last_feed_ms: u64,
    /// Set once an oversize prefix was seen; the stream is dead.
    fatal: bool,
}

impl Connection {
    /// A fresh connection with empty buffers.
    pub fn new() -> Connection {
        Connection::default()
    }

    /// Feed raw bytes received at `now_ms` (any monotone millisecond
    /// clock; only differences are used).
    pub fn feed(&mut self, bytes: &[u8], now_ms: u64) {
        self.last_feed_ms = now_ms;
        if self.pos > 0 {
            self.input.drain(..self.pos);
            self.pos = 0;
        }
        self.input.extend_from_slice(bytes);
        if self.frame_start_ms.is_none() && self.pos < self.input.len() {
            self.frame_start_ms = Some(now_ms);
        }
    }

    /// Where the next complete frame's payload sits in `input`, or the
    /// [`FrameEvent`] that says why none is buffered. Consumes nothing; an
    /// oversize prefix marks the stream fatal.
    fn next_frame(&mut self) -> Result<Range<usize>, FrameEvent> {
        if self.fatal {
            return Err(FrameEvent::Fatal);
        }
        let avail = self.input.len() - self.pos;
        if avail < 4 {
            return Err(FrameEvent::NeedMore);
        }
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&self.input[self.pos..self.pos + 4]);
        let len = usize_of(u64::from(u32::from_le_bytes(len_buf)));
        if len > MAX_FRAME {
            // Same verdict as the blocking codec's InvalidData: a hostile
            // or corrupt prefix must not drive an allocation, and the
            // stream can never resynchronise.
            self.fatal = true;
            return Err(FrameEvent::Fatal);
        }
        if avail < 4 + len {
            return Err(FrameEvent::NeedMore);
        }
        Ok(self.pos + 4..self.pos + 4 + len)
    }

    /// Consume input up to `end`, the end of the frame just popped.
    fn consume(&mut self, end: usize) {
        self.pos = end;
        if self.pos == self.input.len() {
            self.input.clear();
            self.pos = 0;
            self.frame_start_ms = None;
        } else {
            // The next frame already started arriving; its deadline clock
            // starts at the feed that delivered its first byte.
            self.frame_start_ms = Some(self.last_feed_ms);
        }
    }

    /// Decode the next complete frame where it lies in `input`, without
    /// consuming it: the event [`Connection::poll`] would return, and the
    /// end of the frame to consume when it is taken.
    fn peek(&mut self) -> (Event, usize) {
        match self.next_frame() {
            Ok(frame) => {
                let end = frame.end;
                match Request::decode(&self.input[frame]) {
                    Ok(req) => (Event::Request(req), end),
                    Err(e) => (Event::Bad(e), end),
                }
            }
            Err(FrameEvent::Fatal) => (Event::Fatal, self.pos),
            Err(_) => (Event::NeedMore, self.pos),
        }
    }

    /// Pop the next complete frame payload, if one is buffered.
    pub fn poll_frame(&mut self) -> FrameEvent {
        match self.next_frame() {
            Ok(frame) => {
                let end = frame.end;
                let payload = self.input[frame].to_vec();
                self.consume(end);
                FrameEvent::Payload(payload)
            }
            Err(event) => event,
        }
    }

    /// Pop and decode the next complete frame.
    pub fn poll(&mut self) -> Event {
        let (event, end) = self.peek();
        if matches!(event, Event::Request(_) | Event::Bad(_)) {
            self.consume(end);
        }
        event
    }

    /// Pop the next complete frame only if it decodes to a request that
    /// `accept` takes. Anything else — a rejected request, an undecodable
    /// or incomplete frame, a fatal prefix — stays for [`Connection::poll`]
    /// to report, so interleaving the two never changes what `poll` alone
    /// would have returned.
    pub fn poll_if(&mut self, accept: impl FnOnce(&Request) -> bool) -> Option<Request> {
        match self.peek() {
            (Event::Request(req), end) if accept(&req) => {
                self.consume(end);
                Some(req)
            }
            _ => None,
        }
    }

    /// Queue one response frame for writing.
    pub fn push_response(&mut self, resp: &Response) {
        self.push_frame(|b| resp.encode_into(b));
    }

    /// Queue one frame for writing: `encode` appends the payload straight
    /// behind its length prefix, so a frame is built in one buffer.
    pub(crate) fn push_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut framed = Vec::with_capacity(4 + 16);
        framed.resize(4, 0);
        encode(&mut framed);
        let len = framed.len() - 4;
        debug_assert!(len <= MAX_FRAME, "oversize frame payload");
        framed[..4].copy_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
        self.out_bytes += framed.len();
        // audit:allow(growth): callers hold one pending read set or request per connection (a round sends one job per shard), so the queue holds at most the responses to frames already buffered in `input`
        self.out.push_back(framed);
    }

    /// Is there unwritten output?
    pub fn has_output(&self) -> bool {
        self.out_bytes > 0
    }

    /// Total unwritten output bytes.
    pub fn out_bytes(&self) -> usize {
        self.out_bytes
    }

    /// The unwritten output as a sequence of byte slices, oldest first —
    /// ready for a vectored write. Pair with [`Connection::advance_out`].
    pub fn out_slices(&self) -> impl Iterator<Item = &[u8]> {
        let front = self.out_front;
        self.out.iter().enumerate().map(move |(i, b)| if i == 0 { &b[front..] } else { &b[..] })
    }

    /// Record that the caller wrote `n` bytes of the queued output.
    pub fn advance_out(&mut self, mut n: usize) {
        self.out_bytes = self.out_bytes.saturating_sub(n);
        while n > 0 {
            let Some(front) = self.out.front() else { return };
            let left = front.len() - self.out_front;
            if n >= left {
                n -= left;
                self.out.pop_front();
                self.out_front = 0;
            } else {
                self.out_front += n;
                return;
            }
        }
    }

    /// Slow-loris check: a partial frame has been pending for at least
    /// `limit_ms`. Connections with no buffered partial frame are idle,
    /// never stalled.
    pub fn stalled(&self, now_ms: u64, limit_ms: u64) -> bool {
        match self.frame_start_ms {
            Some(t0) => now_ms.saturating_sub(t0) >= limit_ms,
            None => false,
        }
    }

    /// Are unconsumed input bytes buffered (complete or partial frames)?
    pub fn has_buffered_input(&self) -> bool {
        self.pos < self.input.len()
    }

    /// Did the stream hit a fatal framing error?
    pub fn is_fatal(&self) -> bool {
        self.fatal
    }

    /// Remove and return every unconsumed input byte — the replication
    /// hand-off: when a connection turns into a feed, bytes already read
    /// from the socket must travel with the stream to the feed thread.
    pub fn take_input(&mut self) -> Vec<u8> {
        let rest = self.input[self.pos..].to_vec();
        self.input.clear();
        self.pos = 0;
        self.frame_start_ms = None;
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut b = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
        b.extend_from_slice(payload);
        b
    }

    #[test]
    fn whole_frame_decodes() {
        let mut c = Connection::new();
        c.feed(&frame(&Request::QueryCard.encode()), 0);
        assert_eq!(c.poll(), Event::Request(Request::QueryCard));
        assert_eq!(c.poll(), Event::NeedMore);
        assert!(!c.has_buffered_input());
    }

    #[test]
    fn split_frame_needs_more_then_decodes() {
        let bytes = frame(&Request::QueryFreq { key: 42 }.encode());
        for split in 0..bytes.len() {
            let mut c = Connection::new();
            c.feed(&bytes[..split], 0);
            assert_eq!(c.poll(), Event::NeedMore, "split at {split}");
            c.feed(&bytes[split..], 1);
            assert_eq!(c.poll(), Event::Request(Request::QueryFreq { key: 42 }));
        }
    }

    #[test]
    fn pipelined_frames_pop_in_order() {
        let mut c = Connection::new();
        let mut bytes = frame(&Request::Insert { stream: 0, key: 7 }.encode());
        bytes.extend_from_slice(&frame(&Request::QueryMember { key: 7 }.encode()));
        c.feed(&bytes, 0);
        assert_eq!(c.poll(), Event::Request(Request::Insert { stream: 0, key: 7 }));
        assert_eq!(c.poll(), Event::Request(Request::QueryMember { key: 7 }));
        assert_eq!(c.poll(), Event::NeedMore);
    }

    #[test]
    fn bad_payload_is_recoverable() {
        let mut c = Connection::new();
        c.feed(&frame(&[0xFF, 1, 2, 3]), 0);
        c.feed(&frame(&Request::QueryCard.encode()), 0);
        assert!(matches!(c.poll(), Event::Bad(ProtoError::BadOpcode(0xFF))));
        assert_eq!(c.poll(), Event::Request(Request::QueryCard), "stream stays synchronised");
    }

    #[test]
    fn oversize_prefix_is_fatal_and_sticky() {
        let mut c = Connection::new();
        c.feed(&u32::MAX.to_le_bytes(), 0);
        assert_eq!(c.poll(), Event::Fatal);
        c.feed(&frame(&Request::QueryCard.encode()), 1);
        assert_eq!(c.poll(), Event::Fatal, "a desynchronised stream never recovers");
        assert!(c.is_fatal());
    }

    fn is_read(req: &Request) -> bool {
        matches!(req, Request::QueryMember { .. } | Request::QueryFreq { .. })
    }

    #[test]
    fn poll_if_never_consumes_a_rejected_frame() {
        let mut c = Connection::new();
        let mut bytes = frame(&Request::QueryFreq { key: 1 }.encode());
        bytes.extend_from_slice(&frame(&Request::QueryCard.encode()));
        bytes.extend_from_slice(&frame(&[0xFF, 1, 2, 3]));
        bytes.extend_from_slice(&frame(&Request::QueryMember { key: 2 }.encode())[..5]);
        c.feed(&bytes, 0);
        assert_eq!(c.poll_if(is_read), Some(Request::QueryFreq { key: 1 }));
        assert_eq!(c.poll_if(is_read), None, "a request the predicate rejects");
        assert_eq!(c.poll_if(is_read), None, "asking twice changes nothing");
        assert_eq!(c.poll(), Event::Request(Request::QueryCard));
        assert_eq!(c.poll_if(|_| true), None, "an undecodable frame");
        assert!(matches!(c.poll(), Event::Bad(ProtoError::BadOpcode(0xFF))));
        assert_eq!(c.poll_if(|_| true), None, "an incomplete frame");
        assert!(c.has_buffered_input());
        c.feed(&frame(&Request::QueryMember { key: 2 }.encode())[5..], 1);
        assert_eq!(c.poll_if(is_read), Some(Request::QueryMember { key: 2 }));
        assert!(!c.has_buffered_input());
    }

    #[test]
    fn poll_if_leaves_an_oversize_prefix_fatal() {
        let mut c = Connection::new();
        c.feed(&u32::MAX.to_le_bytes(), 0);
        assert_eq!(c.poll_if(|_| true), None);
        assert!(c.is_fatal());
        assert_eq!(c.poll(), Event::Fatal);
        c.feed(&frame(&Request::QueryCard.encode()), 1);
        assert_eq!(c.poll_if(|_| true), None, "a desynchronised stream never recovers");
        assert_eq!(c.poll(), Event::Fatal);
    }

    #[test]
    fn stall_clock_tracks_partial_frames_only() {
        let mut c = Connection::new();
        assert!(!c.stalled(10_000, 100), "no bytes: idle, never stalled");
        c.feed(&[5, 0], 1_000); // torn header
        assert!(!c.stalled(1_050, 100));
        assert!(c.stalled(1_100, 100));
        // Completing the frame clears the clock.
        c.feed(&[0, 0, 1, 2, 3, 4, 5], 1_120);
        assert!(matches!(c.poll_frame(), FrameEvent::Payload(p) if p == [1, 2, 3, 4, 5]));
        assert!(!c.stalled(99_999, 100), "no partial frame pending");
    }

    #[test]
    fn stall_clock_rearms_for_a_trailing_partial_frame() {
        let mut c = Connection::new();
        let mut bytes = frame(b"x");
        bytes.extend_from_slice(&[9, 0]); // next frame's torn header
        c.feed(&bytes, 500);
        assert!(matches!(c.poll_frame(), FrameEvent::Payload(_)));
        assert!(c.stalled(700, 200), "trailing partial frame keeps the clock armed");
    }

    #[test]
    fn output_queue_round_trips_through_partial_writes() {
        let mut c = Connection::new();
        c.push_response(&Response::Ok { accepted: 3 });
        c.push_response(&Response::Bool(true));
        let total = c.out_bytes();
        let mut written = Vec::new();
        // Drain two bytes at a time through the slice view.
        while c.has_output() {
            let take: Vec<u8> = c.out_slices().flatten().copied().take(2).collect();
            written.extend_from_slice(&take);
            c.advance_out(take.len());
        }
        assert_eq!(written.len(), total);
        // Re-parse what was "written": must be the two framed responses.
        let mut expect = frame(&Response::Ok { accepted: 3 }.encode());
        expect.extend_from_slice(&frame(&Response::Bool(true).encode()));
        assert_eq!(written, expect);
    }

    #[test]
    fn take_input_hands_off_leftover_bytes() {
        let mut c = Connection::new();
        let mut bytes = frame(&Request::ReplSubscribe { from_seq: 1, node_id: 0 }.encode());
        bytes.extend_from_slice(&frame(&Request::ReplAck { seq: 9 }.encode()));
        c.feed(&bytes, 0);
        assert_eq!(c.poll(), Event::Request(Request::ReplSubscribe { from_seq: 1, node_id: 0 }));
        let leftover = c.take_input();
        assert_eq!(leftover, frame(&Request::ReplAck { seq: 9 }.encode()));
        assert!(!c.has_buffered_input());
    }
}
