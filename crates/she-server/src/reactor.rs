//! The epoll reactor: one thread owns every client socket.
//!
//! Each connection is a sans-IO [`Connection`] state machine plus a
//! non-blocking `TcpStream`; the reactor shuttles bytes between the two
//! and dispatches decoded requests:
//!
//! * **inline** — inserts (admission control is `try_send`-first, so the
//!   reactor never waits behind an un-admitted write), HELLO, cluster map
//!   ops, SHUTDOWN;
//! * **native** — every local read joins the round's per-shard
//!   accumulator: a `QUERY_MEMBER`/`QUERY_FREQ` or a `QUERY_BATCH` key
//!   is one read on the key's shard, a `QUERY_CARD`/`QUERY_SIM` one read
//!   per shard at shard index. The worker posts a [`Completion`] and
//!   wakes the reactor, which scatters values back by position; an
//!   aggregate's parts are folded by [`merge_parts`] — the server's only
//!   merge rule;
//! * **peer-link gathers** — a `CLUSTER_QUERY`/`CLUSTER_QUERY_BATCH`
//!   writes one leg frame per partition involved into that partition's
//!   persistent [`Link`], and reads the answers back in order on this
//!   same loop; each leg carries the [`Route`] a shard job carries, so
//!   its answer fills the same read set and partitions merge exactly
//!   like shards. A link is dialed on a one-shot thread, never here; legs
//!   queue in its output meanwhile;
//! * **offloaded** — snapshots, stats, restores and bootstrap cuts run on
//!   a small offload pool so their blocking rendezvous never stalls the
//!   event loop;
//! * **detached** — `REPL_SUBSCRIBE` hands the socket (re-blocking, plus
//!   any over-read bytes) to a dedicated feed thread.
//!
//! Each connection holds **one pending read set or request** at a time —
//! parsing pauses while an answer is in flight — which preserves the
//! thread-per-connection tier's FIFO request/response order per
//! connection. A read set is a maximal run of buffered read frames of
//! every kind, native and cluster, one [`Shape`] per frame over one
//! values vector, answered frame by frame in request order. It stops at
//! the first other frame (an insert, `QUERY_FAST`, an offloaded op, an
//! undecodable or incomplete frame) and at `MAX_BATCH` values. The
//! event-loop **round** is the unit of shard
//! work: every read set parsed while pumping the round's connections
//! lands in one per-shard accumulator, and the end of the round sends
//! **one job per shard** that has reads ([`Job::Reads`]). The job carries
//! its own delivery list ([`Route::Reads`]) back through the completion,
//! so the reactor keeps no table a dropped job could leak. A full shard
//! queue sheds every read set with a read in that job, and a failed leg
//! fails every set it covers: one `OVERLOADED` (or the leg's `ERR`) per
//! frame. Frames behind a read set wait in the connection's input
//! buffer. A peer link is a connection to its peer like any other, so
//! the legs queued on it in one round are one read set there.
//!
//! Sockets are registered edge-triggered (`EPOLLET`); the listener and
//! the waker are level-triggered and fully drained on every wakeup.
//! Connection slots live in a slab whose epoll token packs
//! `generation << 32 | index`, so events and completions for a slot that
//! was freed and reused are recognized as stale and dropped. Peer links
//! take tokens `LINK_TAG | index`; connection indices stay below
//! `LINK_TAG`, so the two never meet. The same
//! goes for a per-connection *request* token: a shed read set leaves
//! already-enqueued jobs behind, and their late completions must not be
//! mistaken for the answer to a newer request.

use crate::cluster::{batch_op_check, cluster_op, ClusterMap};
use crate::conn::{Connection, Event};
use crate::link::{dial, Dialed, Leg, Link, LinkSweep};
use crate::protocol::{Request, Response, MAX_BATCH};
use crate::server::{
    answer_mismatch, not_a_cluster_node, serve_feed, shutting_down, ConnGuard, Shared,
};
use crate::sys::{
    raw_fd, Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::worker::{Answer, Completion, Job, QuerySink, ReadShare, Route};
use she_core::convert::usize_of;
use she_metrics::ServeCounters;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Epoll token of the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the waker's read half.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Epoll token bit marking a peer link (`LINK_TAG | index`). Connection
/// slab indices stay below it.
const LINK_TAG: u64 = 1 << 31;
/// Threads in the offload pool (blocking ops: stats, snapshots, restores,
/// bootstrap cuts).
const OFFLOAD_THREADS: usize = 4;
/// End-to-end budget for one scatter-gather leg to a peer partition: the
/// dial, and the wait for the answer once the leg is queued.
const CLUSTER_LEG_TIMEOUT: Duration = Duration::from_secs(10);
/// Sweep cadence for deadline eviction and feed-thread reaping, in ms;
/// also the `epoll_wait` timeout, so a quiet reactor still sweeps.
const SWEEP_MS: u64 = 100;
/// Most frames a single vectored write gathers.
const WRITE_BATCH: usize = 64;

/// A blocking request shipped to the offload pool; the answer comes back
/// through the completion queue as [`Answer::Resp`].
struct OffloadJob {
    slot: u32,
    gen: u32,
    token: u64,
    req: Request,
}

/// What a connection is waiting for.
enum Pending {
    /// Nothing in flight; the reactor may parse its next frame.
    Idle,
    /// One answer outstanding (an offloaded op).
    Single,
    /// A read set in this round's jobs and legs: `values[i]` arrives from
    /// the shard (or partition) owning read `i`; `remaining` counts the
    /// values still out; `set` holds one shape per frame, in order.
    Reads { values: Vec<u64>, remaining: usize, set: Vec<Shape> },
}

/// One frame of a read set: how many of the set's values it takes, in
/// frame order, and the one response they make.
enum Shape {
    /// `QUERY_MEMBER`/`QUERY_FREQ` or its cluster form, by op: one value,
    /// a `Bool` or `U64` frame.
    Point(u8),
    /// A `QUERY_BATCH` of `n` keys or its cluster form: `n` values, one
    /// `U64s` frame.
    Batch(usize),
    /// `QUERY_CARD`/`QUERY_SIM` or its cluster form, by op, over `n`
    /// shards or partitions: value `i` is part `i`'s `f64` bits, folded
    /// by [`merge_parts`] into one `F64` frame.
    Agg(u8, usize),
    /// A frame answered when it was parsed (a bad batch op, an empty
    /// batch, no cluster map): no values.
    Ready(Box<Response>),
}

impl Shape {
    /// How many of the set's values the frame takes.
    fn len(&self) -> usize {
        match self {
            Shape::Point(_) => 1,
            Shape::Batch(n) | Shape::Agg(_, n) => *n,
            Shape::Ready(_) => 0,
        }
    }
}

/// Queue a read set's responses in request order, each frame taking its
/// values from the front of what the frames before it left.
fn respond(set: Vec<Shape>, conn: &mut Connection, values: &[u64]) {
    let mut rest = values;
    for shape in set {
        let (vals, tail) = rest.split_at(shape.len().min(rest.len()));
        rest = tail;
        let first = vals.first().copied().unwrap_or(0);
        let resp = match shape {
            Shape::Point(cluster_op::MEMBER) => Response::Bool(first != 0),
            Shape::Point(_) => Response::U64(first),
            Shape::Batch(_) => Response::U64s(vals.to_vec()),
            Shape::Agg(op, _) => Response::F64(merge_parts(op, vals)),
            Shape::Ready(resp) => *resp,
        };
        conn.push_response(&resp);
    }
}

/// One shard's reads gathered so far this round, aggregate parts
/// included; the end of the round sends them as one [`Job::Reads`].
#[derive(Default)]
struct RoundPart {
    /// `(op, key)` in arrival order.
    reads: Vec<(u8, u64)>,
    /// Each key's position in its connection's read set.
    pos: Vec<u32>,
    /// One share per connection, in key order.
    shares: Vec<ReadShare>,
}

/// One served connection.
struct ConnState {
    stream: TcpStream,
    conn: Connection,
    /// Releases the connection-cap reservation on drop.
    _guard: ConnGuard,
    pending: Pending,
    /// Request counter; bumped at every dispatch. Completions carrying an
    /// older token are stale and dropped.
    token: u64,
    /// Saw a read-readiness edge not yet drained to `WouldBlock`.
    readable: bool,
    /// First `WouldBlock` on the write side since the last progress;
    /// cleared whenever a write advances. Drives write-stall eviction.
    stall_since: Option<u64>,
    /// Already queued for this round's pump.
    dirty: bool,
}

/// One slab slot. `gen` increments when the slot is freed, invalidating
/// any epoll events or completions still referring to the old tenant.
struct Slot {
    gen: u32,
    conn: Option<ConnState>,
}

/// What to do with a connection after pumping it.
enum Disp {
    Keep,
    Close,
    Detach { from_seq: u64, node_id: u64 },
}

/// Dispatch outcome for one request.
enum Ctl {
    Continue,
    Detach { from_seq: u64, node_id: u64 },
}

/// Spawn the reactor thread and its offload pool.
pub(crate) fn spawn_reactor(
    listener: TcpListener,
    waker_rx: UnixStream,
    shared: Arc<Shared>,
) -> io::Result<(JoinHandle<()>, Vec<JoinHandle<()>>)> {
    let epoll = Epoll::new()?;
    epoll.add(raw_fd(&listener), EPOLLIN, LISTENER_TOKEN)?;
    epoll.add(raw_fd(&waker_rx), EPOLLIN, WAKER_TOKEN)?;
    let (comp_tx, comp_rx) = channel();
    let (dial_tx, dial_rx) = channel();
    let shards = shared.txs.len();

    // Each offload thread owns its receiver outright (round-robin fan-out
    // instead of a shared locked queue). The senders live only in the
    // reactor: when the reactor exits and drops them, the pool drains and
    // exits, releasing its `Shared` handles so the workers can follow.
    let mut offload_txs = Vec::with_capacity(OFFLOAD_THREADS);
    let mut offload = Vec::with_capacity(OFFLOAD_THREADS);
    for i in 0..OFFLOAD_THREADS {
        let (tx, rx) = channel::<OffloadJob>();
        offload_txs.push(tx);
        let shared = Arc::clone(&shared);
        let comp_tx = comp_tx.clone();
        offload.push(std::thread::Builder::new().name(format!("she-offload-{i}")).spawn(
            move || {
                // audit:allow(blocking): this closure runs on the offload worker thread, not the reactor — parking on the queue is its whole job
                while let Ok(job) = rx.recv() {
                    let resp = shared.handle(job.req);
                    let done = Completion {
                        route: Route::Request { slot: job.slot, gen: job.gen, token: job.token },
                        answer: Answer::Resp(resp),
                    };
                    if comp_tx.send(done).is_err() {
                        break;
                    }
                    shared.waker.wake();
                }
            },
        )?);
    }

    let reactor = Reactor {
        shared,
        epoll,
        listener: Some(listener),
        waker_rx,
        comp_tx,
        comp_rx,
        offload_txs,
        next_offload: 0,
        dial_tx,
        dial_rx,
        links: Vec::new(),
        next_serial: 0,
        slots: Vec::new(),
        free: Vec::new(),
        feeds: Vec::new(),
        scratch: vec![0u8; 64 * 1024],
        dirty: Vec::new(),
        round: (0..shards).map(|_| RoundPart::default()).collect(),
        epoch: Instant::now(),
        last_sweep: 0,
    };
    let handle = std::thread::Builder::new().name("she-reactor".to_string()).spawn(move || {
        reactor.run();
    })?;
    Ok((handle, offload))
}

struct Reactor {
    shared: Arc<Shared>,
    epoll: Epoll,
    /// Dropped the moment shutdown starts, so new connects are refused
    /// immediately even while in-flight answers grace-flush.
    listener: Option<TcpListener>,
    waker_rx: UnixStream,
    comp_tx: Sender<Completion>,
    comp_rx: Receiver<Completion>,
    offload_txs: Vec<Sender<OffloadJob>>,
    next_offload: usize,
    /// Dial outcomes from the one-shot dial threads.
    dial_tx: Sender<Dialed>,
    dial_rx: Receiver<Dialed>,
    /// Peer links, at most one per address; a closed link leaves `None`.
    links: Vec<Option<Link>>,
    /// Serial for the next link.
    next_serial: u64,
    slots: Vec<Slot>,
    free: Vec<u32>,
    feeds: Vec<JoinHandle<()>>,
    scratch: Vec<u8>,
    /// Connections touched this round (events or completions), deduped by
    /// the per-connection `dirty` flag. Read sets shed at the end of a
    /// round stay listed for the next one.
    dirty: Vec<u32>,
    /// This round's per-key reads, one part per shard.
    round: Vec<RoundPart>,
    epoch: Instant,
    last_sweep: u64,
}

impl Reactor {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Connections still dirty (read sets shed at the last flush)
            // must not wait out a quiet epoll.
            let timeout =
                if self.dirty.is_empty() { i32::try_from(SWEEP_MS).unwrap_or(100) } else { 0 };
            let n = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) event before use.
                let data = ev.data;
                let flags = ev.events;
                match data {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    token if token & LINK_TAG != 0 => self.note_link_event(token, flags),
                    token => self.note_conn_event(token, flags),
                }
            }
            self.drain_completions();
            self.pump_links();
            self.pump_dirty();
            self.flush_round();
            self.flush_links();
            self.sweep();
        }
        self.shutdown_sequence();
    }

    // ---- readiness plumbing -------------------------------------------

    /// Accept until the listener would block, admitting or refusing.
    fn accept_ready(&mut self) {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => self.admit_conn(stream),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Reserve a cap slot, or refuse with one `OVERLOADED` frame.
    fn admit_conn(&mut self, stream: TcpStream) {
        if self.shared.conns.fetch_add(1, Ordering::SeqCst) >= self.shared.max_connections {
            self.shared.conns.fetch_sub(1, Ordering::SeqCst);
            ServeCounters::bump(&self.shared.counters.refused_conns);
            refuse(stream, self.shared.retry_after_ms);
            return;
        }
        let guard = ConnGuard(Arc::clone(&self.shared));
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return; // guard drop releases the reservation
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                if u64::from(idx) >= LINK_TAG {
                    return; // the token space above belongs to links
                }
                self.slots.push(Slot { gen: 0, conn: None });
                idx
            }
        };
        let slot_i = usize_of(u64::from(idx));
        let gen = self.slots[slot_i].gen;
        let token = (u64::from(gen) << 32) | u64::from(idx);
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        if self.epoll.add(raw_fd(&stream), interest, token).is_err() {
            // audit:allow(growth): free list never exceeds the slab, itself capped by max_connections
            self.free.push(idx);
            return;
        }
        self.slots[slot_i].conn = Some(ConnState {
            stream,
            conn: Connection::new(),
            _guard: guard,
            pending: Pending::Idle,
            token: 0,
            // Bytes may already be waiting; under EPOLLET the edge fired
            // (or will fire) but the first pump must read regardless.
            readable: true,
            stall_since: None,
            dirty: false,
        });
        self.mark_dirty(idx);
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => {}
                Err(_) => return,
            }
        }
    }

    /// Record readiness for a connection token (stale tokens ignored).
    fn note_conn_event(&mut self, token: u64, flags: u32) {
        let idx = u32::try_from(token & 0xFFFF_FFFF).unwrap_or(u32::MAX);
        let gen = u32::try_from(token >> 32).unwrap_or(u32::MAX);
        let Some(slot) = self.slots.get_mut(usize_of(u64::from(idx))) else { return };
        if slot.gen != gen {
            return;
        }
        let Some(cs) = slot.conn.as_mut() else { return };
        if flags & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
            cs.readable = true;
        }
        // EPOLLOUT just means "try flushing again" — pump does that.
        self.mark_dirty(idx);
    }

    /// Record readiness for a peer link; writes go out at the end of
    /// every round regardless, so only read readiness matters.
    fn note_link_event(&mut self, token: u64, flags: u32) {
        let idx = usize_of(token & !LINK_TAG);
        if let Some(Some(link)) = self.links.get_mut(idx) {
            if flags & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
                link.readable = true;
            }
        }
    }

    fn mark_dirty(&mut self, idx: u32) {
        if let Some(slot) = self.slots.get_mut(usize_of(u64::from(idx))) {
            if let Some(cs) = slot.conn.as_mut() {
                if !cs.dirty {
                    cs.dirty = true;
                    // audit:allow(growth): at most one entry per live connection per round; cleared every round
                    self.dirty.push(idx);
                }
            }
        }
    }

    // ---- completions ---------------------------------------------------

    fn drain_completions(&mut self) {
        while let Ok(c) = self.comp_rx.try_recv() {
            self.apply_completion(c);
        }
        while let Ok((serial, result)) = self.dial_rx.try_recv() {
            self.dialed(serial, result);
        }
    }

    /// The one completion path, for shard jobs and peer legs alike.
    fn apply_completion(&mut self, c: Completion) {
        match (c.route, c.answer) {
            (Route::Request { slot, gen, token }, answer) => {
                self.answer_request(slot, gen, token, answer);
            }
            (Route::Reads { shares, pos }, Answer::Values(values)) if values.len() == pos.len() => {
                self.deliver_reads(&shares, &pos, &values);
            }
            // A failed leg (a worker answers a `Job::Reads` with its
            // values only) fails every read set it covers.
            (Route::Reads { shares, .. }, answer) => {
                let resp = match answer {
                    Answer::Resp(resp) => resp,
                    _ => answer_mismatch(),
                };
                for share in shares {
                    self.fail_request(share.slot, share.gen, share.token, |_| resp.clone());
                }
            }
        }
    }

    /// An offloaded request's answer.
    fn answer_request(&mut self, slot: u32, gen: u32, token: u64, answer: Answer) {
        let Some(cs) = live_conn(&mut self.slots, slot, gen, token) else { return };
        if !matches!(cs.pending, Pending::Single) {
            return;
        }
        cs.pending = Pending::Idle;
        match answer {
            Answer::Resp(resp) => cs.conn.push_response(&resp),
            _ => cs.conn.push_response(&answer_mismatch()),
        }
        self.mark_dirty(slot);
    }

    /// Answer whatever the request `slot`/`gen`/`token` still waits for
    /// with `resp`, once per frame it covers; the parts still out die on
    /// the idle state.
    fn fail_request(
        &mut self,
        slot: u32,
        gen: u32,
        token: u64,
        resp: impl Fn(&Shared) -> Response,
    ) {
        let Some(cs) = live_conn(&mut self.slots, slot, gen, token) else { return };
        let frames = match std::mem::replace(&mut cs.pending, Pending::Idle) {
            Pending::Idle => return, // already answered or failed
            Pending::Reads { set, .. } => set.len(),
            Pending::Single => 1,
        };
        for _ in 0..frames {
            cs.conn.push_response(&resp(&self.shared));
        }
        self.mark_dirty(slot);
    }

    /// Scatter one shard's read values back to the read sets they answer;
    /// a set whose last value arrives queues its responses.
    fn deliver_reads(&mut self, shares: &[ReadShare], pos: &[u32], values: &[u64]) {
        let mut at = 0;
        for share in shares {
            let end = at + usize_of(u64::from(share.len));
            let (Some(pos), Some(vals)) = (pos.get(at..end), values.get(at..end)) else { return };
            at = end;
            let Some(cs) = live_conn(&mut self.slots, share.slot, share.gen, share.token) else {
                continue;
            };
            // A shed set's parts on other shards die here.
            let Pending::Reads { values, remaining, .. } = &mut cs.pending else { continue };
            for (&p, &v) in pos.iter().zip(vals) {
                if let Some(o) = values.get_mut(usize_of(u64::from(p))) {
                    *o = v;
                }
            }
            *remaining = remaining.saturating_sub(pos.len());
            if *remaining > 0 {
                continue;
            }
            if let Pending::Reads { values, set, .. } =
                std::mem::replace(&mut cs.pending, Pending::Idle)
            {
                respond(set, &mut cs.conn, &values);
            }
            self.mark_dirty(share.slot);
        }
    }

    // ---- the pump ------------------------------------------------------

    fn pump_dirty(&mut self) {
        let mut i = 0;
        // `pump` can re-mark peers dirty (it never re-marks itself); the
        // index walk picks up appends within the same round.
        while i < self.dirty.len() {
            let idx = self.dirty[i];
            i += 1;
            self.pump(idx);
        }
        self.dirty.clear();
    }

    /// Drive one connection: parse/dispatch buffered frames, flush output,
    /// read more bytes — until it blocks, waits on an answer, or dies.
    fn pump(&mut self, idx: u32) {
        let slot_i = usize_of(u64::from(idx));
        let Some(slot) = self.slots.get_mut(slot_i) else { return };
        let Some(mut cs) = slot.conn.take() else { return };
        cs.dirty = false;
        let gen = slot.gen;
        match self.drive(&mut cs, idx, gen) {
            Disp::Keep => {
                if let Some(slot) = self.slots.get_mut(slot_i) {
                    slot.conn = Some(cs);
                }
            }
            Disp::Close => self.release(slot_i, &cs.stream),
            Disp::Detach { from_seq, node_id } => self.detach(slot_i, cs, from_seq, node_id),
        }
    }

    fn drive(&mut self, cs: &mut ConnState, idx: u32, gen: u32) -> Disp {
        loop {
            // Parse while nothing is in flight (one read set or request
            // at a time).
            while matches!(cs.pending, Pending::Idle) {
                match cs.conn.poll() {
                    Event::Request(req) => match self.dispatch(cs, idx, gen, req) {
                        Ctl::Continue => {}
                        Ctl::Detach { from_seq, node_id } => {
                            return Disp::Detach { from_seq, node_id }
                        }
                    },
                    Event::Bad(e) => cs.conn.push_response(&Response::Err(e.to_string())),
                    Event::NeedMore => break,
                    Event::Fatal => return Disp::Close,
                }
            }
            let now = self.now_ms();
            if !flush_out(&cs.stream, &mut cs.conn, &mut cs.stall_since, now) {
                return Disp::Close;
            }
            if !cs.readable || !matches!(cs.pending, Pending::Idle) {
                return Disp::Keep;
            }
            match (&cs.stream).read(&mut self.scratch) {
                Ok(0) => return Disp::Close,
                Ok(n) => cs.conn.feed(&self.scratch[..n], now),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    cs.readable = false;
                    return Disp::Keep;
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Disp::Close,
            }
        }
    }

    fn dispatch(&mut self, cs: &mut ConnState, idx: u32, gen: u32, req: Request) -> Ctl {
        cs.token = cs.token.wrapping_add(1);
        match req {
            req if read_of(&req).is_some() => self.read_set(cs, idx, gen, req),
            Request::ReplSubscribe { from_seq, node_id } => {
                return Ctl::Detach { from_seq, node_id }
            }
            req @ (Request::Stats
            | Request::Snapshot { .. }
            | Request::SnapshotAll
            | Request::Restore { .. }
            | Request::ReplBootstrap) => self.offload(cs, idx, gen, req),
            // Everything else is cheap and lock-light: inserts (try_send
            // admission first — BUSY without blocking), HELLO, cluster map
            // ops, SHUTDOWN (flips the flag; the loop notices this round).
            // `handle_inline` is the statically-audited reactor-safe
            // subset; a blocking request landing there answers ERR.
            req => {
                let resp = self.shared.handle_inline(req);
                cs.conn.push_response(&resp);
            }
        }
        Ctl::Continue
    }

    /// A read set: `first` plus every read frame buffered right behind
    /// it, until the first other frame or `MAX_BATCH` values. Each
    /// frame's values take the next positions of the set's one values
    /// vector; the connection waits until every value is back, unless
    /// every frame answered at once.
    fn read_set(&mut self, cs: &mut ConnState, idx: u32, gen: u32, first: Request) {
        let who = ReadShare { slot: idx, gen, token: cs.token, len: 0 };
        let mut map = None;
        let mut set = Vec::new();
        let mut n = 0;
        let mut next = Some(first);
        while let Some(req) = next {
            let shape = self.add_frame(&req, &who, n, &mut map);
            n += shape.len();
            // audit:allow(growth): one shape per frame of the set, which stops at MAX_BATCH frames
            set.push(shape);
            let more = n.max(set.len()) < MAX_BATCH;
            next = more.then(|| cs.conn.poll_if(|r| read_of(r).is_some())).flatten();
        }
        if n == 0 {
            respond(set, &mut cs.conn, &[]);
        } else {
            cs.pending = Pending::Reads { values: vec![0; n], remaining: n, set };
        }
    }

    /// Place one read frame's reads at positions `at..` of the set `who`
    /// names — a local read in its shard's part of this round, a cluster
    /// read in a leg — and say how the frame answers. `map` is the
    /// cluster map the set scatters over, looked up at its first cluster
    /// frame.
    fn add_frame(
        &mut self,
        req: &Request,
        who: &ReadShare,
        at: usize,
        map: &mut Option<Result<Arc<ClusterMap>, Box<Response>>>,
    ) -> Shape {
        let Some((cluster, batch, op, keys)) = read_of(req) else {
            return Shape::Ready(Box::new(answer_mismatch()));
        };
        if let Some(Err(resp)) = batch.then(|| batch_op_check(op)) {
            return Shape::Ready(resp);
        }
        let map = match cluster.then(|| map.get_or_insert_with(|| self.cluster_map())) {
            None => None,
            Some(Ok(map)) => Some(&**map),
            Some(Err(resp)) => return Shape::Ready(resp.clone()),
        };
        let shape = match op {
            _ if batch && keys.is_empty() => {
                return Shape::Ready(Box::new(Response::U64s(Vec::new())));
            }
            _ if batch => Shape::Batch(keys.len()),
            cluster_op::MEMBER | cluster_op::FREQ => Shape::Point(op),
            cluster_op::CARD | cluster_op::SIM => {
                Shape::Agg(op, map.map_or(self.round.len(), |map| map.partitions.len()))
            }
            other => {
                let resp = Response::Err(format!("unknown cluster query op {other}"));
                return Shape::Ready(Box::new(resp));
            }
        };
        match map {
            Some(map) => self.add_legs(map, op, keys, who, at),
            // An aggregate has no keys: its read `i` goes to shard `i`.
            None => {
                for i in 0..shape.len() {
                    let (shard, key) =
                        keys.get(i).map_or((i, 0), |&k| (self.shared.engine.shard_of(k), k));
                    self.add_read(shard, (op, key), who, at + i);
                }
            }
        }
        shape
    }

    /// Put one read into `shard`'s part of this round at position `pos`
    /// of the set `who` names.
    fn add_read(&mut self, shard: usize, read: (u8, u64), who: &ReadShare, pos: usize) {
        let part = &mut self.round[shard];
        // A set is added whole, so its reads on one shard are contiguous.
        match part.shares.last_mut() {
            Some(last) if (last.slot, last.gen, last.token) == (who.slot, who.gen, who.token) => {
                last.len += 1
            }
            // audit:allow(growth): one share per connection per round, bounded by the live connection count
            _ => part.shares.push(ReadShare { len: 1, ..*who }),
        }
        // audit:allow(growth): a round holds at most one read set per live connection, each at most MAX_BATCH values plus one frame's; flushed every round
        part.reads.push(read);
        // audit:allow(growth): as above
        part.pos.push(u32::try_from(pos).unwrap_or(u32::MAX));
    }

    /// A cluster frame's legs: an aggregate asks every partition, value
    /// `i` from partition `i`; per-key reads ask each partition holding
    /// keys once — its one key as `QUERY_MEMBER`/`QUERY_FREQ`, several as
    /// a `QUERY_BATCH` — each value landing at its key's position.
    fn add_legs(&mut self, map: &ClusterMap, op: u8, keys: &[u64], who: &ReadShare, at: usize) {
        let route = |pos: Vec<u32>| {
            let len = u32::try_from(pos.len()).unwrap_or(u32::MAX);
            Route::Reads { shares: vec![ReadShare { len, ..*who }], pos }
        };
        let pos_of = |i: usize| u32::try_from(at + i).unwrap_or(u32::MAX);
        // A batch op is member or freq, so these are aggregates.
        if op == cluster_op::CARD || op == cluster_op::SIM {
            let req = if op == cluster_op::CARD { Request::QueryCard } else { Request::QuerySim };
            for part in 0..map.partitions.len() {
                self.send_leg(map, part, &req, route(vec![pos_of(part)]));
            }
            return;
        }
        let mut per: Vec<(Vec<u64>, Vec<u32>)> =
            vec![(Vec::new(), Vec::new()); map.partitions.len()];
        for (i, &key) in keys.iter().enumerate() {
            let (part_keys, pos) = &mut per[map.partition_of(key)];
            // audit:allow(growth): per-partition split of one frame's keys, bounded by MAX_BATCH at decode
            part_keys.push(key);
            // audit:allow(growth): position index of the same bounded keys
            pos.push(pos_of(i));
        }
        for (part, (part_keys, pos)) in per.into_iter().enumerate() {
            let req = match part_keys[..] {
                [] => continue,
                [key] if op == cluster_op::MEMBER => Request::QueryMember { key },
                [key] => Request::QueryFreq { key },
                _ => Request::QueryBatch { op, keys: part_keys },
            };
            self.send_leg(map, part, &req, route(pos));
        }
    }

    /// End of round: one [`Job::Reads`] per shard that has reads. A full
    /// queue sheds every read set with a read in that job — one
    /// `OVERLOADED` per frame it covers — and the set's parts already
    /// sent to other shards die on its token.
    fn flush_round(&mut self) {
        for shard in 0..self.round.len() {
            if self.round[shard].reads.is_empty() {
                continue;
            }
            let RoundPart { reads, pos, shares } = std::mem::take(&mut self.round[shard]);
            let sink = QuerySink::Reactor {
                tx: self.comp_tx.clone(),
                waker: Arc::clone(&self.shared.waker),
                route: Route::Reads { shares, pos },
            };
            let (job, overloaded) =
                match self.shared.txs[shard].try_send(Job::Reads { reads, sink }) {
                    Ok(()) => continue,
                    Err(TrySendError::Full(job)) => (job, true),
                    Err(TrySendError::Disconnected(job)) => (job, false),
                };
            let Job::Reads {
                sink: QuerySink::Reactor { route: Route::Reads { shares, .. }, .. },
                ..
            } = job
            else {
                continue;
            };
            for share in shares {
                // A set already shed by an earlier shard's job is idle.
                self.fail_request(share.slot, share.gen, share.token, |shared| {
                    if overloaded {
                        shared.shed()
                    } else {
                        shutting_down()
                    }
                });
            }
        }
    }

    /// The map a cluster request scatters over, or the `ERR` that answers
    /// it instead. The legs are plain `QUERY_*` requests (never a nested
    /// `CLUSTER_QUERY`), so coordinators cannot recurse.
    fn cluster_map(&self) -> Result<Arc<ClusterMap>, Box<Response>> {
        let Some(dir) = &self.shared.cluster else { return Err(Box::new(not_a_cluster_node())) };
        let map = dir.current();
        if map.partitions.is_empty() {
            return Err(Box::new(Response::Err("cluster map has no partitions".to_string())));
        }
        Ok(map)
    }

    /// Queue one leg on the link to `part`'s primary, opening the link
    /// (a dial on a one-shot thread) if there is none. Never fails here:
    /// a failure reaches the leg through [`Reactor::close_link`] in a
    /// later step of the round, after the request is pending.
    fn send_leg(&mut self, map: &ClusterMap, part: usize, req: &Request, route: Route) {
        let addr = &map.partitions[part].primary.addr;
        let at = match self.links.iter().position(|l| l.as_ref().is_some_and(|l| l.addr == *addr)) {
            Some(at) => at,
            None => self.open_link(addr),
        };
        let agg = matches!(req, Request::QueryCard | Request::QuerySim);
        let leg = Leg { route, part, agg, sent_ms: self.now_ms() };
        if let Some(Some(link)) = self.links.get_mut(at) {
            link.queue(req, leg);
        }
    }

    /// Start a link to `addr` in the first free table slot.
    fn open_link(&mut self, addr: &str) -> usize {
        let serial = self.next_serial;
        self.next_serial += 1;
        let link = Some(Link::new(addr, serial));
        let at = match self.links.iter().position(Option::is_none) {
            Some(at) => {
                self.links[at] = link;
                at
            }
            None => {
                // audit:allow(growth): one slot per peer address, bounded by the roster (idle links retire at the sweep)
                self.links.push(link);
                self.links.len() - 1
            }
        };
        let (tx, waker) = (self.dial_tx.clone(), Arc::clone(&self.shared.waker));
        dial(addr.to_string(), serial, CLUSTER_LEG_TIMEOUT, tx, waker);
        at
    }

    /// A dial finished: register the stream (its queued legs go out at
    /// the end of the round) or fail the link's legs with the error.
    fn dialed(&mut self, serial: u64, result: io::Result<TcpStream>) {
        let Some(at) = self
            .links
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.serial == serial && l.stream.is_none()))
        else {
            return; // the link expired while dialing
        };
        let token = LINK_TAG | u64::try_from(at).unwrap_or(0);
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        let registered = result.and_then(|stream| {
            self.epoll.add(raw_fd(&stream), interest, token)?;
            Ok(stream)
        });
        match registered {
            Ok(stream) => {
                if let Some(Some(link)) = self.links.get_mut(at) {
                    link.stream = Some(stream);
                    link.readable = true;
                }
            }
            Err(e) => self.close_link(at, &e.to_string()),
        }
    }

    /// Read every readable link to `WouldBlock`, delivering each answer
    /// through [`Reactor::apply_completion`]; a closed or out-of-step
    /// link fails its remaining legs.
    fn pump_links(&mut self) {
        for at in 0..self.links.len() {
            let now = self.now_ms();
            let Some(link) = self.links[at].as_mut().filter(|l| l.readable) else { continue };
            let Some(stream) = link.stream.take() else { continue };
            let mut done = Vec::new();
            let outcome = loop {
                match (&stream).read(&mut self.scratch) {
                    Ok(0) => break Err("peer closed the link".to_string()),
                    Ok(n) => match link.answers(&self.scratch[..n], now) {
                        // audit:allow(growth): at most one completion per leg in flight on this link
                        Ok(answers) => done.extend(answers),
                        Err(e) => break Err(e),
                    },
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                        link.readable = false;
                        break Ok(());
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e.to_string()),
                }
            };
            link.stream = Some(stream);
            for c in done {
                self.apply_completion(c);
            }
            if let Err(why) = outcome {
                self.close_link(at, &why);
            }
        }
    }

    /// End of round: every connected link writes its queued legs, one
    /// vectored write per link.
    fn flush_links(&mut self) {
        for at in 0..self.links.len() {
            let Some(link) = self.links[at].as_mut() else { continue };
            let Some(stream) = &link.stream else { continue };
            if link.conn.has_output() && !flush_out(stream, &mut link.conn, &mut None, 0) {
                self.close_link(at, "link write failed");
            }
        }
    }

    /// Close a link, answering each leg still in flight `ERR` through the
    /// completion path.
    fn close_link(&mut self, at: usize, why: &str) {
        let Some(mut link) = self.links.get_mut(at).and_then(Option::take) else { return };
        if let Some(stream) = &link.stream {
            let _ = self.epoll.del(raw_fd(stream));
        }
        for leg in link.take_legs() {
            let msg = format!("partition {} at {}: {why}", leg.part, link.addr);
            let answer = Answer::Resp(Response::Err(msg));
            self.apply_completion(Completion { route: leg.route, answer });
        }
    }

    /// Ship a blocking op to the offload pool (round-robin).
    fn offload(&mut self, cs: &mut ConnState, idx: u32, gen: u32, req: Request) {
        let job = OffloadJob { slot: idx, gen, token: cs.token, req };
        let k = self.next_offload % self.offload_txs.len().max(1);
        self.next_offload = self.next_offload.wrapping_add(1);
        match self.offload_txs.get(k) {
            Some(tx) if tx.send(job).is_ok() => cs.pending = Pending::Single,
            _ => cs.conn.push_response(&shutting_down()),
        }
    }

    // ---- lifecycle -----------------------------------------------------

    /// Free a slot: deregister its socket, bump the generation, return it
    /// to the free list. Dropping the caller's `ConnState` then closes the
    /// socket and releases the cap slot.
    fn release(&mut self, slot_i: usize, stream: &TcpStream) {
        let _ = self.epoll.del(raw_fd(stream));
        if let Some(slot) = self.slots.get_mut(slot_i) {
            slot.gen = slot.gen.wrapping_add(1);
            slot.conn = None;
        }
        // audit:allow(growth): free list never exceeds the slab, itself capped by max_connections
        self.free.push(u32::try_from(slot_i).unwrap_or(u32::MAX));
    }

    /// `REPL_SUBSCRIBE`: pull the socket out of the reactor, re-block it,
    /// flush anything still queued, and hand it (plus over-read bytes) to
    /// a dedicated feed thread.
    fn detach(&mut self, slot_i: usize, mut cs: ConnState, from_seq: u64, node_id: u64) {
        self.release(slot_i, &cs.stream);
        if cs.stream.set_nonblocking(false).is_err() {
            return;
        }
        if cs.conn.has_output() {
            // audit:allow(blocking): one-time bounded flush while handing a feed socket off the reactor
            let _ = cs.stream.set_write_timeout(self.shared.client_deadline);
            let queued: Vec<u8> = cs.conn.out_slices().flatten().copied().collect();
            // audit:allow(blocking): see above — the socket leaves the reactor right after
            if (&cs.stream).write_all(&queued).is_err() {
                return;
            }
            // audit:allow(blocking): restoring the no-timeout default for the feed thread taking this socket over
            let _ = cs.stream.set_write_timeout(None);
        }
        let leftover = cs.conn.take_input();
        let shared = Arc::clone(&self.shared);
        let ConnState { stream, _guard: guard, .. } = cs;
        let spawned = std::thread::Builder::new().name("she-feed".to_string()).spawn(move || {
            let _guard = guard;
            serve_feed(stream, leftover, &shared, from_seq, node_id);
        });
        if let Ok(h) = spawned {
            // audit:allow(growth): one handle per live replication feed; reaped in sweep()
            self.feeds.push(h);
        }
    }

    /// Periodic housekeeping: reap finished feed threads, expire or
    /// retire peer links, evict deadline-busting connections.
    fn sweep(&mut self) {
        let now = self.now_ms();
        if now.saturating_sub(self.last_sweep) < SWEEP_MS {
            return;
        }
        self.last_sweep = now;
        let mut i = 0;
        while i < self.feeds.len() {
            if self.feeds[i].is_finished() {
                let _ = self.feeds.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        self.sweep_links(now);
        let Some(deadline) = self.shared.client_deadline else { return };
        let limit = u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX);
        let mut evict = Vec::new();
        for (slot_i, slot) in self.slots.iter().enumerate() {
            let Some(cs) = &slot.conn else { continue };
            let read_stall = cs.conn.stalled(now, limit);
            let write_stall = cs.conn.has_output()
                && matches!(cs.stall_since, Some(t0) if now.saturating_sub(t0) >= limit);
            if read_stall || write_stall {
                // audit:allow(growth): bounded by the live connection count
                evict.push(slot_i);
            }
        }
        for slot_i in evict {
            if let Some(cs) = self.slots.get_mut(slot_i).and_then(|s| s.conn.take()) {
                ServeCounters::bump(&self.shared.counters.evicted_conns);
                self.release(slot_i, &cs.stream);
            }
        }
    }

    /// Give every connection's queued output one write.
    fn flush_all(&mut self) {
        let now = self.now_ms();
        for cs in self.slots.iter_mut().filter_map(|slot| slot.conn.as_mut()) {
            if cs.conn.has_output() {
                let _ = flush_out(&cs.stream, &mut cs.conn, &mut cs.stall_since, now);
            }
        }
    }

    /// Apply [`Link::sweep`] to every link: a leg older than
    /// `CLUSTER_LEG_TIMEOUT` fails its link; an idle link no primary names
    /// closes.
    fn sweep_links(&mut self, now: u64) {
        if self.links.iter().all(Option::is_none) {
            return;
        }
        let map = self.shared.cluster.as_ref().map(|dir| dir.current());
        let limit = u64::try_from(CLUSTER_LEG_TIMEOUT.as_millis()).unwrap_or(u64::MAX);
        for at in 0..self.links.len() {
            let Some(link) = &self.links[at] else { continue };
            match link.sweep(now, limit, map.as_deref()) {
                LinkSweep::Keep => {}
                LinkSweep::Expire => self.close_link(at, &format!("no answer within {limit} ms")),
                LinkSweep::Retire => self.close_link(at, "retired"),
            }
        }
    }

    /// Stop accepting immediately, grace-flush in-flight answers, close
    /// everything, join the feed threads.
    fn shutdown_sequence(&mut self) {
        self.listener = None;
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        for _ in 0..50 {
            let busy = self.slots.iter().any(|s| {
                s.conn
                    .as_ref()
                    .is_some_and(|cs| !matches!(cs.pending, Pending::Idle) || cs.conn.has_output())
            });
            if !busy {
                break;
            }
            let _ = self.epoll.wait(&mut events, 20);
            self.drain_waker();
            self.drain_completions();
            // The wait's events are dropped; a link read that would block
            // costs one syscall.
            for link in self.links.iter_mut().flatten() {
                link.readable = true;
            }
            self.pump_links();
            self.flush_links();
            self.flush_all();
        }
        for at in 0..self.links.len() {
            self.close_link(at, "server shutting down");
        }
        self.flush_all();
        for slot_i in 0..self.slots.len() {
            if let Some(cs) = self.slots[slot_i].conn.take() {
                self.release(slot_i, &cs.stream);
            }
        }
        // Feed threads watch the shutdown flag between streaming rounds.
        for h in self.feeds.drain(..) {
            let _ = h.join();
        }
    }
}

/// Write as much of `conn`'s queued output as `stream` accepts, vectored.
/// Returns `false` when the stream is dead. Tracks write-stall onset in
/// `stall_since` for the deadline sweeper.
fn flush_out(
    stream: &TcpStream,
    conn: &mut Connection,
    stall_since: &mut Option<u64>,
    now: u64,
) -> bool {
    while conn.has_output() {
        let bufs: Vec<IoSlice<'_>> =
            conn.out_slices().take(WRITE_BATCH).map(IoSlice::new).collect();
        match (&*stream).write_vectored(&bufs) {
            Ok(0) => return false,
            Ok(n) => {
                drop(bufs);
                conn.advance_out(n);
                *stall_since = None;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                if stall_since.is_none() {
                    *stall_since = Some(now);
                }
                return true;
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    *stall_since = None;
    true
}

/// A read frame as a read set takes it — `(cluster, batch, op, keys)`,
/// an aggregate with no keys — or `None` for a frame that ends the set.
fn read_of(req: &Request) -> Option<(bool, bool, u8, &[u64])> {
    let one = std::slice::from_ref;
    Some(match req {
        Request::QueryMember { key } => (false, false, cluster_op::MEMBER, one(key)),
        Request::QueryFreq { key } => (false, false, cluster_op::FREQ, one(key)),
        Request::QueryCard => (false, false, cluster_op::CARD, &[]),
        Request::QuerySim => (false, false, cluster_op::SIM, &[]),
        Request::QueryBatch { op, keys } => (false, true, *op, keys),
        Request::ClusterQuery { op, key } => (true, false, *op, one(key)),
        Request::ClusterQueryBatch { op, keys } => (true, true, *op, keys),
        _ => return None,
    })
}

/// The live connection at `slot`, if it is still the tenant of `gen` and
/// `token` is still its current request.
fn live_conn(slots: &mut [Slot], slot: u32, gen: u32, token: u64) -> Option<&mut ConnState> {
    let slot = slots.get_mut(usize_of(u64::from(slot)))?;
    if slot.gen != gen {
        return None; // the connection this answered is gone
    }
    slot.conn.as_mut().filter(|cs| cs.token == token) // else a superseded request
}

/// The merge rule for every multi-part aggregate the server gives, over a
/// server's shards and a cluster's partitions alike: `parts[i]` holds part
/// `i`'s `f64` bits, `op` is `cluster_op::CARD` or `SIM`. Cardinality is the sum of the per-part estimates and
/// similarity their mean, both accumulated in part index order from `0.0`
/// — f64 addition is not associative, so the fixed order is what makes
/// the answer equal bit for bit to
/// [`DirectEngine`](she_core::sharded::DirectEngine)'s.
fn merge_parts(op: u8, parts: &[u64]) -> f64 {
    let sum = parts.iter().fold(0.0f64, |sum, &bits| sum + f64::from_bits(bits));
    if op == cluster_op::SIM {
        sum / parts.len() as f64
    } else {
        sum
    }
}

/// Refuse an over-cap connection: one best-effort `OVERLOADED` frame on
/// the just-accepted socket, then close. The socket goes non-blocking
/// first, so a zero-window client cannot stall the reactor at all; a
/// frame that does not fit the socket buffer in one write is abandoned
/// and the client only sees the close.
fn refuse(stream: TcpStream, retry_after_ms: u32) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let resp = Response::Overloaded { retry_after_ms: retry_after_ms.max(1).saturating_mul(10) };
    let mut conn = Connection::new();
    conn.push_response(&resp);
    let frame: Vec<u8> = conn.out_slices().flatten().copied().collect();
    let _ = (&stream).write(&frame);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parts whose sum depends on the order it is taken in: the answer is
    /// the left-to-right fold from `0.0` (a pairwise sum would give 2.0),
    /// and similarity divides it by the part count.
    #[test]
    fn aggregate_parts_fold_in_index_order() {
        let parts = [1e16, 1.0, -1e16, 1.0];
        let bits: Vec<u64> = parts.iter().map(|v: &f64| v.to_bits()).collect();
        let fold = parts.iter().fold(0.0f64, |sum, &v| sum + v);
        assert_eq!(fold, 1.0);
        assert_ne!((parts[0] + parts[2]) + (parts[1] + parts[3]), fold, "order matters here");
        assert_eq!(merge_parts(cluster_op::CARD, &bits).to_bits(), fold.to_bits());
        assert_eq!(merge_parts(cluster_op::SIM, &bits).to_bits(), (fold / 4.0).to_bits());
    }

    /// A read set answers frame by frame in request order, each frame
    /// taking its values in turn; a frame answered at parse time takes
    /// none and keeps its position.
    #[test]
    fn a_read_set_answers_each_frame_from_its_own_values() {
        let sim: Vec<u64> = [1e16, 1.0, -1e16, 1.0].iter().map(|v: &f64| v.to_bits()).collect();
        let set = vec![
            Shape::Point(cluster_op::MEMBER),
            Shape::Batch(2),
            Shape::Ready(Box::new(Response::Err("bad op".to_string()))),
            Shape::Agg(cluster_op::SIM, 4),
            Shape::Point(cluster_op::FREQ),
        ];
        let mut values = vec![1, 7, 8];
        values.extend(&sim);
        values.push(9);
        assert_eq!(set.iter().map(Shape::len).sum::<usize>(), values.len());
        let mut conn = Connection::new();
        respond(set, &mut conn, &values);
        let out: Vec<u8> = conn.out_slices().flatten().copied().collect();
        let mut frames = Vec::new();
        let mut rest = &out[..];
        while let Some((len, tail)) = rest.split_first_chunk::<4>() {
            let (payload, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            frames.push(Response::decode(payload).expect("a frame"));
            rest = tail;
        }
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[0], Response::Bool(true));
        assert_eq!(frames[1], Response::U64s(vec![7, 8]));
        assert_eq!(frames[2], Response::Err("bad op".to_string()));
        assert!(matches!(frames[3], Response::F64(v) if v.to_bits() == 0.25f64.to_bits()));
        assert_eq!(frames[4], Response::U64(9));
    }
}
