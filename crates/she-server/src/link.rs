//! Persistent peer links: the client side of a cluster scatter-gather.
//!
//! A coordinating reactor keeps one non-blocking TCP link per peer
//! address. A `CLUSTER_QUERY`/`CLUSTER_QUERY_BATCH` writes one *leg*
//! frame per partition it involves (`QUERY_MEMBER`/`QUERY_FREQ` for one
//! key, `QUERY_BATCH` for several, `QUERY_CARD`/`QUERY_SIM`) into that
//! partition's link, and the peer answers a connection's frames in
//! request order, so a FIFO of in-flight legs matches each answer to its
//! leg; the peer takes a link's buffered legs, of every kind, as one
//! read set, one job per shard in one round. Every leg carries
//! the [`Route::Reads`] a shard's round job carries — an aggregate leg
//! one read at position = partition index — and its answer becomes the
//! [`Answer::Values`] a worker would post (an estimate as its `f64`
//! bits), back through the reactor's one completion path, so partitions
//! fill read sets and merge exactly like shards.
//!
//! This module is the link's sans-epoll state: framing (a [`Connection`]
//! holds the queued legs as output and parses answers from input), the
//! in-flight FIFO, and the sweep rule. The reactor owns the sockets. A
//! link is dialed on a one-shot thread ([`dial`]) so the reactor never
//! blocks on a connect; legs queue in the link's output meanwhile.

use crate::cluster::ClusterMap;
use crate::conn::{Connection, FrameEvent};
use crate::protocol::{Request, Response};
use crate::sys::Waker;
use crate::worker::{Answer, Completion, Route};
use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

/// One leg written (or queued) on a link, awaiting its answer.
#[derive(Debug)]
pub(crate) struct Leg {
    /// Who the answer is for — the same route a shard job carries.
    pub(crate) route: Route,
    /// The partition the leg asks, for error messages.
    pub(crate) part: usize,
    /// A `QUERY_CARD`/`QUERY_SIM` leg, answered `F64`; every other leg is
    /// a per-key read, answered `Bool`, `U64` or `U64s`.
    pub(crate) agg: bool,
    /// When the leg was queued, on the reactor's millisecond clock.
    pub(crate) sent_ms: u64,
}

/// What the sweep does with a link.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LinkSweep {
    /// Leave it be.
    Keep,
    /// Its oldest leg is past the deadline: fail every leg, drop it.
    Expire,
    /// Nothing in flight and no primary in the map names it: close it.
    Retire,
}

/// A dial's outcome, posted back to the reactor: the link's serial and
/// the connected, non-blocking stream (or why there is none).
pub(crate) type Dialed = (u64, io::Result<TcpStream>);

/// One persistent client link to a peer's listener.
#[derive(Debug)]
pub(crate) struct Link {
    /// The peer address, as the cluster map names it.
    pub(crate) addr: String,
    /// Distinguishes this link from an earlier one to the same address,
    /// so a late dial result never lands on the wrong link.
    pub(crate) serial: u64,
    /// The connected socket; `None` while the dial runs.
    pub(crate) stream: Option<TcpStream>,
    /// Framing both ways: legs queue as output, answers parse from input.
    pub(crate) conn: Connection,
    /// Legs in request order, oldest first.
    legs: VecDeque<Leg>,
    /// Saw a read-readiness edge not yet drained to `WouldBlock`.
    pub(crate) readable: bool,
}

impl Link {
    /// A link to `addr` whose dial has just started.
    pub(crate) fn new(addr: &str, serial: u64) -> Link {
        Link {
            addr: addr.to_string(),
            serial,
            stream: None,
            conn: Connection::new(),
            legs: VecDeque::new(),
            readable: false,
        }
    }

    /// Queue one leg: its frame goes out with the round's other legs.
    pub(crate) fn queue(&mut self, req: &Request, leg: Leg) {
        // audit:allow(growth): one request frame, capped at MAX_FRAME by its encoder
        self.conn.push_frame(|b| req.encode_into(b));
        // audit:allow(growth): each client connection holds one pending read set, and each leg carries at least one of its values, so a set puts at most MAX_BATCH values plus one frame's worth of legs in flight; legs leave on answer, failure or the sweep deadline (a failed set's other legs too)
        self.legs.push_back(leg);
    }

    /// Parse every complete answer in `bytes` (just read from the
    /// socket) and pair it with its leg, oldest first. An undecodable
    /// frame or an answer nobody asked for is `Err`: the link is out of
    /// step with its peer and must be failed.
    pub(crate) fn answers(&mut self, bytes: &[u8], now_ms: u64) -> Result<Vec<Completion>, String> {
        self.conn.feed(bytes, now_ms);
        let mut done = Vec::new();
        loop {
            let payload = match self.conn.poll_frame() {
                FrameEvent::Payload(p) => p,
                FrameEvent::NeedMore => return Ok(done),
                FrameEvent::Fatal => return Err("oversize answer frame".to_string()),
            };
            let resp = Response::decode(&payload).map_err(|e| format!("bad answer: {e}"))?;
            let leg = self.legs.pop_front().ok_or("answer with no leg in flight")?;
            let answer = leg_answer(resp, leg.part, leg.agg);
            // audit:allow(growth): at most one completion per leg in flight
            done.push(Completion { route: leg.route, answer });
        }
    }

    /// Every leg still in flight, oldest first, for failing the link.
    pub(crate) fn take_legs(&mut self) -> VecDeque<Leg> {
        std::mem::take(&mut self.legs)
    }

    /// The sweep rule: a link whose oldest leg has waited `limit_ms` or
    /// more expires; a link with nothing in flight that no primary in
    /// `map` names retires, so the table stays bounded by the roster.
    pub(crate) fn sweep(&self, now_ms: u64, limit_ms: u64, map: Option<&ClusterMap>) -> LinkSweep {
        match self.legs.front() {
            Some(leg) if now_ms.saturating_sub(leg.sent_ms) >= limit_ms => LinkSweep::Expire,
            Some(_) => LinkSweep::Keep,
            None if map
                .is_some_and(|m| m.partitions.iter().any(|p| p.primary.addr == self.addr)) =>
            {
                LinkSweep::Keep
            }
            None => LinkSweep::Retire,
        }
    }
}

/// A leg's answer as the reactor's read path takes it: values that fill
/// the leg's read set by position — an aggregate leg's estimate as its
/// `f64` bits. A peer's `OVERLOADED` passes through, so the client
/// retries it like any shed read; an `ERR` or a reply of the wrong kind
/// for the leg (`agg`) fails the request.
fn leg_answer(resp: Response, part: usize, agg: bool) -> Answer {
    match resp {
        Response::Bool(b) if !agg => Answer::Values(vec![u64::from(b)]),
        Response::U64(v) if !agg => Answer::Values(vec![v]),
        Response::U64s(values) if !agg => Answer::Values(values),
        Response::F64(v) if agg => Answer::Values(vec![v.to_bits()]),
        resp @ Response::Overloaded { .. } => Answer::Resp(resp),
        Response::Err(m) => Answer::Resp(Response::Err(format!("partition {part}: {m}"))),
        other => Answer::Resp(Response::Err(format!("partition {part}: unexpected {other:?}"))),
    }
}

/// Dial `addr` on a one-shot thread, bounded by `timeout`; the stream (or
/// the error) comes back over `tx`, followed by a wake.
pub(crate) fn dial(
    addr: String,
    serial: u64,
    timeout: Duration,
    tx: Sender<Dialed>,
    waker: Arc<Waker>,
) {
    let post = move |result| {
        let _ = tx.send((serial, result));
        waker.wake();
    };
    let post_err = post.clone();
    let spawned = std::thread::Builder::new().name("she-dial".to_string()).spawn(move || {
        post(open(&addr, timeout));
    });
    if let Err(e) = spawned {
        post_err(Err(e));
    }
}

/// Connect, then make the stream ready for the reactor.
fn open(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sa = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let stream = TcpStream::connect_timeout(&sa, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeRef;
    use crate::worker::ReadShare;

    fn leg(part: usize, agg: bool, sent_ms: u64) -> Leg {
        let share = ReadShare { slot: 0, gen: 0, token: 1, len: 1 };
        Leg { route: Route::Reads { shares: vec![share], pos: vec![0] }, part, agg, sent_ms }
    }

    fn map_naming(addr: &str) -> ClusterMap {
        ClusterMap::initial(&[NodeRef { node_id: 1, addr: addr.to_string() }])
    }

    fn frame(resp: &Response) -> Vec<u8> {
        let payload = resp.encode();
        let mut b = u32::try_from(payload.len()).expect("small").to_le_bytes().to_vec();
        b.extend_from_slice(&payload);
        b
    }

    /// The leg deadline is measured from the oldest leg; a link with
    /// nothing in flight retires only once no primary names it.
    #[test]
    fn sweep_expires_on_the_oldest_leg_and_retires_unnamed_idle_links() {
        let map = map_naming("127.0.0.1:1");
        let mut link = Link::new("127.0.0.1:1", 0);
        link.queue(&Request::QueryCard, leg(0, true, 1_000));
        link.queue(&Request::QueryCard, leg(0, true, 5_000));
        assert_eq!(link.sweep(10_999, 10_000, Some(&map)), LinkSweep::Keep);
        assert_eq!(link.sweep(11_000, 10_000, Some(&map)), LinkSweep::Expire);
        assert_eq!(link.sweep(11_000, 10_000, None), LinkSweep::Expire, "legs outrank the map");

        assert_eq!(link.take_legs().len(), 2);
        assert_eq!(link.sweep(99_000, 10_000, Some(&map)), LinkSweep::Keep, "named, idle");
        assert_eq!(link.sweep(99_000, 10_000, Some(&map_naming("127.0.0.1:2"))), LinkSweep::Retire);
        assert_eq!(link.sweep(0, 10_000, None), LinkSweep::Retire, "no map names anything");
    }

    /// Answers pair with legs in request order, split frames included;
    /// an answer with no leg in flight puts the link out of step.
    #[test]
    fn answers_pair_with_legs_in_order() {
        let mut link = Link::new("127.0.0.1:1", 0);
        link.queue(&Request::QueryMember { key: 1 }, leg(0, false, 0));
        link.queue(&Request::QueryCard, leg(1, true, 0));
        link.queue(&Request::QueryFreq { key: 2 }, leg(2, false, 0));
        let mut bytes = frame(&Response::Bool(true));
        bytes.extend(frame(&Response::Err("boom".to_string())));
        bytes.extend(frame(&Response::U64(7)));
        let (head, tail) = bytes.split_at(bytes.len() - 3);
        let first = link.answers(head, 0).expect("in step");
        let parts: Vec<(usize, Answer)> = first
            .into_iter()
            .map(|c| match c.route {
                Route::Reads { pos, .. } => (pos.len(), c.answer),
                Route::Request { .. } => (0, c.answer),
            })
            .collect();
        assert_eq!(parts.len(), 2, "the torn third frame waits");
        assert_eq!(parts[0].1, Answer::Values(vec![1]));
        assert_eq!(parts[1].1, Answer::Resp(Response::Err("partition 1: boom".to_string())));
        let rest = link.answers(tail, 1).expect("in step");
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].answer, Answer::Values(vec![7]));

        assert!(link.answers(&frame(&Response::U64(9)), 2).is_err(), "no leg in flight");
    }

    /// An aggregate leg's estimate becomes its bits, a read set's one
    /// value; a reply of the wrong kind for its leg fails the request.
    #[test]
    fn overloaded_passes_through_and_odd_replies_fail() {
        let hint = Response::Overloaded { retry_after_ms: 3 };
        assert_eq!(leg_answer(hint.clone(), 0, true), Answer::Resp(hint));
        assert_eq!(leg_answer(Response::U64s(vec![4, 5]), 0, false), Answer::Values(vec![4, 5]));
        assert_eq!(leg_answer(Response::F64(0.5), 0, true), Answer::Values(vec![0.5f64.to_bits()]));
        for (odd, agg) in [
            (Response::Ok { accepted: 1 }, false),
            (Response::F64(0.5), false),
            (Response::U64(7), true),
            (Response::Bool(true), true),
        ] {
            assert!(matches!(
                leg_answer(odd, 2, agg),
                Answer::Resp(Response::Err(m)) if m.starts_with("partition 2:")
            ));
        }
    }
}
