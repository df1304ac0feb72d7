//! The epoll reactor: one thread owns every client socket.
//!
//! Each connection is a sans-IO [`Connection`] state machine plus a
//! non-blocking `TcpStream`; the reactor shuttles bytes between the two
//! and dispatches decoded requests:
//!
//! * **inline** — inserts (admission control is `try_send`-first, so the
//!   reactor never waits behind an un-admitted write), HELLO, cluster map
//!   ops, SHUTDOWN;
//! * **native** — the per-key queries go to the shard queues with a
//!   completion sink; the worker posts a [`Completion`] and wakes the
//!   reactor, which merges multi-shard answers in [`finish_gather`] —
//!   the server's only merge rule;
//! * **offloaded** — snapshots, stats, bootstrap cuts, and cluster
//!   scatter-gathers run on a small offload pool so their blocking
//!   rendezvous never stalls the event loop;
//! * **detached** — `REPL_SUBSCRIBE` hands the socket (re-blocking, plus
//!   any over-read bytes) to a dedicated feed thread.
//!
//! The reactor dispatches at most **one request per connection at a
//! time** — parsing pauses while an answer is in flight — which preserves
//! the thread-per-connection tier's FIFO request/response order per
//! connection. Pipelined frames simply wait in the connection's input
//! buffer.
//!
//! Sockets are registered edge-triggered (`EPOLLET`); the listener and
//! the waker are level-triggered and fully drained on every wakeup.
//! Connection slots live in a slab whose epoll token packs
//! `generation << 32 | index`, so events and completions for a slot that
//! was freed and reused are recognized as stale and dropped. The same
//! goes for a per-connection *request* token: a shed multi-shard gather
//! leaves already-enqueued jobs behind, and their late completions must
//! not be mistaken for the answer to a newer request.

use crate::cluster::batch_op_check;
use crate::conn::{Connection, Event};
use crate::protocol::{Request, Response};
use crate::server::{partition_batch, serve_feed, shutting_down, ConnGuard, Shared};
use crate::sys::{
    raw_fd, Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::worker::{Answer, Completion, Job, QuerySink};
use she_core::convert::usize_of;
use she_metrics::ServeCounters;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Epoll token of the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll token of the waker's read half.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Threads in the offload pool (blocking ops: snapshots, scatter legs).
const OFFLOAD_THREADS: usize = 4;
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
    /// One answer outstanding (single-shard query or offloaded op).
    Single,
    /// A multi-shard gather in flight.
    Gather { parts: Vec<Option<Answer>>, remaining: usize, kind: GatherKind },
}

/// How a finished gather's parts merge into one response.
#[derive(Clone, Copy)]
enum GatherKind {
    /// Cardinality: sum the per-shard f64s in shard order.
    CardSum,
    /// Similarity: sum in shard order, divide by shard count.
    SimAvg,
    /// Batch point query over `n` keys: scatter values back by position.
    Batch { n: usize },
}

/// One served connection.
struct ConnState {
    stream: TcpStream,
    conn: Connection,
    /// Releases the connection-cap reservation on drop.
    #[allow(dead_code)]
    guard: ConnGuard,
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
                        slot: job.slot,
                        gen: job.gen,
                        token: job.token,
                        shard: 0,
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
        slots: Vec::new(),
        free: Vec::new(),
        feeds: Vec::new(),
        scratch: vec![0u8; 64 * 1024],
        dirty: Vec::new(),
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
    slots: Vec<Slot>,
    free: Vec<u32>,
    feeds: Vec<JoinHandle<()>>,
    scratch: Vec<u8>,
    /// Connections touched this round (events or completions), deduped by
    /// the per-connection `dirty` flag.
    dirty: Vec<u32>,
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
            let timeout = i32::try_from(SWEEP_MS).unwrap_or(100);
            let n = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) event before use.
                let data = ev.data;
                let flags = ev.events;
                match data {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.drain_waker(),
                    token => self.note_conn_event(token, flags),
                }
            }
            self.drain_completions();
            self.pump_dirty();
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
            guard,
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
    }

    fn apply_completion(&mut self, c: Completion) {
        let slot_i = usize_of(u64::from(c.slot));
        let Some(slot) = self.slots.get_mut(slot_i) else { return };
        if slot.gen != c.gen {
            return; // the connection this answered is gone
        }
        let Some(cs) = slot.conn.as_mut() else { return };
        if cs.token != c.token {
            return; // stale answer to a superseded request
        }
        match std::mem::replace(&mut cs.pending, Pending::Idle) {
            // A shed gather's stragglers land here: token still matches,
            // but nothing is in flight any more.
            Pending::Idle => return,
            Pending::Single => {
                cs.conn.push_response(&single_response(c.answer));
            }
            Pending::Gather { mut parts, mut remaining, kind } => {
                if let Some(p) = parts.get_mut(c.shard) {
                    if p.is_none() {
                        *p = Some(c.answer);
                        remaining -= 1;
                    }
                }
                if remaining == 0 {
                    cs.conn.push_response(&finish_gather(parts, kind));
                } else {
                    cs.pending = Pending::Gather { parts, remaining, kind };
                    return;
                }
            }
        }
        self.mark_dirty(c.slot);
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
            Disp::Close => self.release(slot_i, cs),
            Disp::Detach { from_seq, node_id } => self.detach(slot_i, cs, from_seq, node_id),
        }
    }

    fn drive(&mut self, cs: &mut ConnState, idx: u32, gen: u32) -> Disp {
        loop {
            // Parse while nothing is in flight (one request at a time).
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
            if !flush_out(cs, now) {
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
            Request::QueryMember { key } => {
                let shard = self.shared.engine.shard_of(key);
                self.native_single(cs, idx, gen, shard, |sink| Job::Member { key, sink });
            }
            Request::QueryFreq { key } => {
                let shard = self.shared.engine.shard_of(key);
                self.native_single(cs, idx, gen, shard, |sink| Job::Freq { key, sink });
            }
            Request::QueryCard => self.native_all(cs, idx, gen, GatherKind::CardSum),
            Request::QuerySim => self.native_all(cs, idx, gen, GatherKind::SimAvg),
            Request::QueryBatch { op, keys } => self.native_batch(cs, idx, gen, op, keys),
            Request::ReplSubscribe { from_seq, node_id } => {
                return Ctl::Detach { from_seq, node_id }
            }
            req @ (Request::Stats
            | Request::Snapshot { .. }
            | Request::SnapshotAll
            | Request::Restore { .. }
            | Request::ReplBootstrap
            | Request::ClusterQuery { .. }
            | Request::ClusterQueryBatch { .. }) => self.offload(cs, idx, gen, req),
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

    fn reactor_sink(&self, slot: u32, gen: u32, token: u64, shard: usize) -> QuerySink {
        QuerySink::Reactor {
            tx: self.comp_tx.clone(),
            waker: Arc::clone(&self.shared.waker),
            slot,
            gen,
            token,
            shard,
        }
    }

    /// Single-shard read query: `try_send` or shed.
    fn native_single(
        &mut self,
        cs: &mut ConnState,
        idx: u32,
        gen: u32,
        shard: usize,
        make: impl FnOnce(QuerySink) -> Job,
    ) {
        let sink = self.reactor_sink(idx, gen, cs.token, shard);
        match self.shared.txs[shard].try_send(make(sink)) {
            Ok(()) => cs.pending = Pending::Single,
            Err(TrySendError::Full(_)) => {
                let resp = self.shared.shed();
                cs.conn.push_response(&resp);
            }
            Err(TrySendError::Disconnected(_)) => cs.conn.push_response(&shutting_down()),
        }
    }

    /// All-shard gather (cardinality / similarity). Any full queue sheds
    /// the whole query; completions already in flight die on the token.
    fn native_all(&mut self, cs: &mut ConnState, idx: u32, gen: u32, kind: GatherKind) {
        let shards = self.shared.txs.len();
        for shard in 0..shards {
            let sink = self.reactor_sink(idx, gen, cs.token, shard);
            let job = match kind {
                GatherKind::CardSum => Job::Card { sink },
                GatherKind::SimAvg | GatherKind::Batch { .. } => Job::Sim { sink },
            };
            match self.shared.txs[shard].try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    let resp = self.shared.shed();
                    cs.conn.push_response(&resp);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    cs.conn.push_response(&shutting_down());
                    return;
                }
            }
        }
        cs.pending = Pending::Gather { parts: vec![None; shards], remaining: shards, kind };
    }

    /// Batch point query: split keys by owning shard, gather slices.
    fn native_batch(&mut self, cs: &mut ConnState, idx: u32, gen: u32, op: u8, keys: Vec<u64>) {
        if let Err(resp) = batch_op_check(op) {
            cs.conn.push_response(&resp);
            return;
        }
        if keys.is_empty() {
            cs.conn.push_response(&Response::U64s(Vec::new()));
            return;
        }
        let n = keys.len();
        let shards = self.shared.txs.len();
        let mut remaining = 0;
        for (shard, (shard_keys, pos)) in
            partition_batch(&self.shared.engine, &keys, shards).into_iter().enumerate()
        {
            if shard_keys.is_empty() {
                continue;
            }
            let sink = self.reactor_sink(idx, gen, cs.token, shard);
            let job = Job::QueryBatch { op, keys: shard_keys, pos, sink };
            match self.shared.txs[shard].try_send(job) {
                Ok(()) => remaining += 1,
                Err(TrySendError::Full(_)) => {
                    let resp = self.shared.shed();
                    cs.conn.push_response(&resp);
                    return;
                }
                Err(TrySendError::Disconnected(_)) => {
                    cs.conn.push_response(&shutting_down());
                    return;
                }
            }
        }
        cs.pending =
            Pending::Gather { parts: vec![None; shards], remaining, kind: GatherKind::Batch { n } };
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

    /// Free a slot: deregister, bump the generation, return to the free
    /// list. Dropping `cs` closes the socket and releases the cap slot.
    fn release(&mut self, slot_i: usize, cs: ConnState) {
        let _ = self.epoll.del(raw_fd(&cs.stream));
        if let Some(slot) = self.slots.get_mut(slot_i) {
            slot.gen = slot.gen.wrapping_add(1);
            slot.conn = None;
        }
        // audit:allow(growth): free list never exceeds the slab, itself capped by max_connections
        self.free.push(u32::try_from(slot_i).unwrap_or(u32::MAX));
        drop(cs);
    }

    /// `REPL_SUBSCRIBE`: pull the socket out of the reactor, re-block it,
    /// flush anything still queued, and hand it (plus over-read bytes) to
    /// a dedicated feed thread.
    fn detach(&mut self, slot_i: usize, mut cs: ConnState, from_seq: u64, node_id: u64) {
        let _ = self.epoll.del(raw_fd(&cs.stream));
        if let Some(slot) = self.slots.get_mut(slot_i) {
            slot.gen = slot.gen.wrapping_add(1);
            slot.conn = None;
        }
        // audit:allow(growth): free list never exceeds the slab, itself capped by max_connections
        self.free.push(u32::try_from(slot_i).unwrap_or(u32::MAX));
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
        let ConnState { stream, guard, .. } = cs;
        let spawned = std::thread::Builder::new().name("she-feed".to_string()).spawn(move || {
            let _guard = guard;
            serve_feed(stream, leftover, &shared, from_seq, node_id);
        });
        if let Ok(h) = spawned {
            // audit:allow(growth): one handle per live replication feed; reaped in sweep()
            self.feeds.push(h);
        }
    }

    /// Periodic housekeeping: evict deadline-busting connections, reap
    /// finished feed threads.
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
                self.release(slot_i, cs);
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
            let now = self.now_ms();
            for slot in &mut self.slots {
                if let Some(cs) = slot.conn.as_mut() {
                    if cs.conn.has_output() {
                        let _ = flush_out(cs, now);
                    }
                }
            }
        }
        for slot_i in 0..self.slots.len() {
            if let Some(cs) = self.slots[slot_i].conn.take() {
                self.release(slot_i, cs);
            }
        }
        // Feed threads watch the shutdown flag between streaming rounds.
        for h in self.feeds.drain(..) {
            let _ = h.join();
        }
    }
}

/// Write as much queued output as the socket accepts, vectored. Returns
/// `false` when the connection is dead. Tracks write-stall onset for the
/// deadline sweeper.
fn flush_out(cs: &mut ConnState, now: u64) -> bool {
    while cs.conn.has_output() {
        let bufs: Vec<IoSlice<'_>> =
            cs.conn.out_slices().take(WRITE_BATCH).map(IoSlice::new).collect();
        match (&cs.stream).write_vectored(&bufs) {
            Ok(0) => return false,
            Ok(n) => {
                drop(bufs);
                cs.conn.advance_out(n);
                cs.stall_since = None;
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                if cs.stall_since.is_none() {
                    cs.stall_since = Some(now);
                }
                return true;
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    cs.stall_since = None;
    true
}

/// Map a worker's answer to the wire response for a single-part query.
fn single_response(answer: Answer) -> Response {
    match answer {
        Answer::Bool(v) => Response::Bool(v),
        Answer::U64(v) => Response::U64(v),
        Answer::F64(v) => Response::F64(v),
        Answer::Resp(resp) => resp,
        Answer::Slots(_) => crate::server::answer_mismatch(),
    }
}

/// The merge rule for every multi-shard answer the server gives.
/// Cardinality is the sum of the per-shard estimates and similarity their
/// mean, both accumulated in shard index order from `0.0` — f64 addition
/// is not associative, so the fixed order is what makes the answer equal
/// bit for bit to [`DirectEngine`](she_core::sharded::DirectEngine)'s and
/// to the cluster scatter's. A batch scatters each shard's
/// `(position, value)` pairs back to their request positions.
fn finish_gather(parts: Vec<Option<Answer>>, kind: GatherKind) -> Response {
    match kind {
        GatherKind::CardSum | GatherKind::SimAvg => {
            let n = parts.len() as f64;
            let mut sum = 0.0f64;
            for a in parts.into_iter().flatten() {
                match a {
                    Answer::F64(v) => sum += v,
                    _ => return crate::server::answer_mismatch(),
                }
            }
            Response::F64(if matches!(kind, GatherKind::SimAvg) { sum / n } else { sum })
        }
        GatherKind::Batch { n } => {
            let mut out = vec![0u64; n];
            for a in parts.into_iter().flatten() {
                match a {
                    Answer::Slots(slots) => {
                        for (pos, value) in slots {
                            if let Some(o) = out.get_mut(usize_of(u64::from(pos))) {
                                *o = value;
                            }
                        }
                    }
                    _ => return crate::server::answer_mismatch(),
                }
            }
            Response::U64s(out)
        }
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
    let payload = resp.encode();
    let Ok(len) = u32::try_from(payload.len()) else { return };
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&payload);
    let mut stream = stream;
    let _ = stream.write(&frame);
}
