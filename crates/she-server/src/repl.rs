//! Primary-side replication state: the bounded op log, its record and
//! bootstrap codecs, and the registry of subscribed replicas.
//!
//! ## The op log
//!
//! Every accepted insert becomes one [`Record`] with a dense sequence
//! number. Appends happen *atomically with the enqueue* onto the shard
//! FIFOs (both under the log mutex), which gives the one invariant the
//! whole design rests on: **the log order is the apply order**. A
//! bootstrap cut ([`ReplLog::cut`]) reads the head and enqueues the
//! snapshot jobs under the same lock, so the returned checkpoint reflects
//! exactly the records with `seq <= cut` — a replica that restores the
//! checkpoint and then tails from `cut + 1` replays the identical
//! per-shard insert order the primary applied, making the two engines
//! bit-for-bit equal (the property
//! `tests/server_equivalence.rs::twin_rebuilt_from_the_op_log_matches_after_1023_concurrent_connections`
//! asserts).
//!
//! The log is bounded (`cap` records): old records fall off the floor and
//! a subscriber that asks for one gets `LOG_TRUNCATED` and re-bootstraps.
//! Only connection handlers take the log lock — shard workers never do —
//! so enqueue-under-lock cannot deadlock with a full queue: workers keep
//! draining regardless.

use crate::protocol::PeerStatus;
use she_core::convert::{le_u64s, usize_of};
use she_core::frame::{self, Frame, FrameWriter, Reader};
use she_core::{LeafMutex, SnapshotError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// One replicated insert: the keys of a single `INSERT`/`INSERT_BATCH`
/// request, in arrival order, tagged with the stream they fed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Dense sequence number (1-based; 0 means "nothing yet").
    pub seq: u64,
    /// Stream tag (0 = A, 1 = B).
    pub stream: u8,
    /// Inserted keys, in arrival order.
    pub keys: Vec<u64>,
}

impl Record {
    /// Serialize into an `OPLOG` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(frame::kind::OPLOG);
        let mut meta = Vec::with_capacity(9);
        meta.extend_from_slice(&self.seq.to_le_bytes());
        meta.push(self.stream);
        w.section(frame::tag::META, &meta);
        let mut raw = Vec::with_capacity(8 * self.keys.len());
        for k in &self.keys {
            raw.extend_from_slice(&k.to_le_bytes());
        }
        w.section(frame::tag::KEYS, &raw);
        w.finish()
    }

    /// Parse an `OPLOG` frame.
    pub fn decode(buf: &[u8]) -> Result<Record, SnapshotError> {
        let f = Frame::parse(buf)?;
        if f.kind != frame::kind::OPLOG {
            return Err(SnapshotError::WrongKind { expected: frame::kind::OPLOG, found: f.kind });
        }
        let meta = f
            .section(frame::tag::META)
            .ok_or(SnapshotError::MissingSection { tag: frame::tag::META })?;
        let mut r = Reader::new(meta);
        let seq = r.u64().map_err(SnapshotError::Frame)?;
        let stream = r.u8().map_err(SnapshotError::Frame)?;
        r.finish().map_err(SnapshotError::Frame)?;
        let raw = f
            .section(frame::tag::KEYS)
            .ok_or(SnapshotError::MissingSection { tag: frame::tag::KEYS })?;
        if !raw.len().is_multiple_of(8) {
            return Err(SnapshotError::Frame(frame::FrameError::Truncated));
        }
        let keys = le_u64s(raw);
        Ok(Record { seq, stream, keys })
    }
}

/// A replica bootstrap package: the op-log position of the snapshot cut
/// plus the whole-server checkpoint taken at that cut.
#[derive(Debug)]
pub struct Bootstrap {
    /// Sequence number of the last record the checkpoint reflects.
    pub seq: u64,
    /// A `CHECKPOINT` frame (see [`she_core::sharded::Checkpoint`]).
    pub checkpoint: Vec<u8>,
}

impl Bootstrap {
    /// Serialize into a `BOOTSTRAP` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = FrameWriter::new(frame::kind::BOOTSTRAP);
        w.section(frame::tag::META, &self.seq.to_le_bytes());
        w.section(frame::tag::SKETCH, &self.checkpoint);
        w.finish()
    }

    /// Parse a `BOOTSTRAP` frame.
    pub fn decode(buf: &[u8]) -> Result<Bootstrap, SnapshotError> {
        let f = Frame::parse(buf)?;
        if f.kind != frame::kind::BOOTSTRAP {
            return Err(SnapshotError::WrongKind {
                expected: frame::kind::BOOTSTRAP,
                found: f.kind,
            });
        }
        let meta = f
            .section(frame::tag::META)
            .ok_or(SnapshotError::MissingSection { tag: frame::tag::META })?;
        let mut r = Reader::new(meta);
        let seq = r.u64().map_err(SnapshotError::Frame)?;
        r.finish().map_err(SnapshotError::Frame)?;
        let checkpoint = f
            .section(frame::tag::SKETCH)
            .ok_or(SnapshotError::MissingSection { tag: frame::tag::SKETCH })?
            .to_vec();
        Ok(Bootstrap { seq, checkpoint })
    }
}

#[derive(Debug)]
struct Inner {
    /// Highest sequence number ever appended (0 = none).
    head: u64,
    /// Retained records, oldest first; `records[0].seq == floor`.
    records: VecDeque<Arc<Record>>,
}

/// What [`ReplLog::wait_from`] found at a subscription position.
#[derive(Debug)]
pub enum Tail {
    /// Records from the requested position, oldest first.
    Records(Vec<Arc<Record>>),
    /// The position fell off the bounded log; re-bootstrap.
    Truncated {
        /// Oldest sequence number still retained.
        floor: u64,
    },
    /// Nothing new within the timeout (send a heartbeat instead).
    Timeout,
}

/// The primary's bounded, in-memory op log (see module docs).
#[derive(Debug)]
pub struct ReplLog {
    inner: LeafMutex<Inner>,
    grew: Condvar,
    cap: usize,
}

impl ReplLog {
    /// An empty log retaining at most `cap` records.
    pub fn new(cap: usize) -> Self {
        Self {
            inner: LeafMutex::new(Inner { head: 0, records: VecDeque::new() }),
            grew: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Run `enqueue` (the shard-FIFO sends) and, if it reports success,
    /// append the op as the next record — both under the log lock, so log
    /// order equals apply order. Returns `enqueue`'s response unchanged.
    pub fn ingest<R>(&self, stream: u8, keys: &[u64], enqueue: impl FnOnce() -> (R, bool)) -> R {
        let mut g = self.inner.lock();
        let (resp, accepted) = enqueue();
        if accepted {
            g.head += 1;
            let rec = Arc::new(Record { seq: g.head, stream, keys: keys.to_vec() });
            if g.records.len() == self.cap {
                g.records.pop_front();
            }
            g.records.push_back(rec);
            drop(g);
            self.grew.notify_all();
        }
        resp
    }

    /// Run `enqueue` (snapshot jobs to every shard) under the log lock and
    /// return the head at that instant: the checkpoint the jobs produce
    /// reflects exactly the records with `seq <=` the returned cut.
    pub fn cut(&self, enqueue: impl FnOnce()) -> u64 {
        let g = self.inner.lock();
        enqueue();
        g.head
    }

    /// Highest appended sequence number (0 = empty).
    pub fn head(&self) -> u64 {
        self.inner.lock().head
    }

    /// Oldest retained sequence number (0 = empty log).
    pub fn floor(&self) -> u64 {
        let g = self.inner.lock();
        g.records.front().map_or(0, |r| r.seq)
    }

    /// Collect up to `max` records starting at `next`, blocking up to
    /// `timeout` for the first one. `next` may be `head + 1` (caught up).
    pub fn wait_from(&self, next: u64, max: usize, timeout: Duration) -> Tail {
        let mut g = self.inner.lock();
        loop {
            if let Some(front) = g.records.front() {
                if next < front.seq {
                    return Tail::Truncated { floor: front.seq };
                }
                if next <= g.head {
                    let skip = usize_of(next - front.seq);
                    let out: Vec<Arc<Record>> =
                        g.records.iter().skip(skip).take(max).map(Arc::clone).collect();
                    return Tail::Records(out);
                }
            }
            let (g2, timed_out) = g.wait_timeout(&self.grew, timeout);
            g = g2;
            if timed_out && g.head < next {
                return Tail::Timeout;
            }
        }
    }
}

/// The primary's registry of live replication subscribers, for
/// `CLUSTER_STATUS`. Entries are added when a feed starts and removed
/// when it ends; `acked` tracks the peer's `REPL_ACK`s.
#[derive(Debug)]
pub struct ReplHub {
    peers: LeafMutex<Vec<(u64, String, u64)>>, // (id, addr, acked)
    /// The last id handed out; ids start at 1. `Relaxed` suffices: the
    /// counter publishes no other data, and `fetch_add` alone keeps ids
    /// unique.
    last_id: AtomicU64,
}

impl Default for ReplHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplHub {
    /// An empty registry.
    pub fn new() -> Self {
        Self { peers: LeafMutex::new(Vec::new()), last_id: AtomicU64::new(0) }
    }

    /// Register a subscriber; returns its registry id.
    pub fn register(&self, addr: String) -> u64 {
        let id = self.last_id.fetch_add(1, Ordering::Relaxed) + 1;
        // audit:allow(growth): one entry per live subscriber; the accept loop caps connections
        self.peers.lock().push((id, addr, 0));
        id
    }

    /// Record an acknowledged sequence number for a subscriber.
    pub fn ack(&self, id: u64, seq: u64) {
        let mut g = self.peers.lock();
        if let Some(p) = g.iter_mut().find(|(pid, _, _)| *pid == id) {
            p.2 = p.2.max(seq);
        }
    }

    /// Remove a subscriber (its feed ended).
    pub fn deregister(&self, id: u64) {
        let mut g = self.peers.lock();
        g.retain(|(pid, _, _)| *pid != id);
    }

    /// Snapshot the registry for `CLUSTER_STATUS`.
    pub fn status(&self) -> Vec<PeerStatus> {
        let g = self.peers.lock();
        g.iter().map(|(_, addr, acked)| PeerStatus { addr: addr.clone(), acked: *acked }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let rec = Record { seq: 42, stream: 1, keys: vec![0, u64::MAX, 7] };
        let dec = Record::decode(&rec.encode()).expect("decode");
        assert_eq!(dec, rec);
        let empty = Record { seq: 1, stream: 0, keys: vec![] };
        assert_eq!(Record::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn record_rejects_wrong_kind() {
        let boot = Bootstrap { seq: 1, checkpoint: vec![1, 2, 3] }.encode();
        assert!(Record::decode(&boot).is_err());
        assert!(Record::decode(b"garbage").is_err());
    }

    #[test]
    fn bootstrap_roundtrip() {
        let b = Bootstrap { seq: 99, checkpoint: vec![4, 5, 6] };
        let dec = Bootstrap::decode(&b.encode()).expect("decode");
        assert_eq!(dec.seq, 99);
        assert_eq!(dec.checkpoint, vec![4, 5, 6]);
    }

    #[test]
    fn log_appends_and_tails() {
        let log = ReplLog::new(8);
        for i in 0..5u64 {
            log.ingest(0, &[i], || ((), true));
        }
        assert_eq!(log.head(), 5);
        assert_eq!(log.floor(), 1);
        match log.wait_from(1, 10, Duration::from_millis(1)) {
            Tail::Records(rs) => {
                assert_eq!(rs.len(), 5);
                assert_eq!(rs[0].seq, 1);
                assert_eq!(rs[4].seq, 5);
            }
            _ => panic!("expected records"),
        }
        // Caught up: next = head + 1 times out rather than truncating.
        assert!(matches!(log.wait_from(6, 10, Duration::from_millis(1)), Tail::Timeout));
    }

    #[test]
    fn log_truncates_at_cap() {
        let log = ReplLog::new(3);
        for i in 0..10u64 {
            log.ingest(0, &[i], || ((), true));
        }
        assert_eq!(log.head(), 10);
        assert_eq!(log.floor(), 8);
        assert!(matches!(
            log.wait_from(5, 10, Duration::from_millis(1)),
            Tail::Truncated { floor: 8 }
        ));
        match log.wait_from(8, 10, Duration::from_millis(1)) {
            Tail::Records(rs) => assert_eq!(rs.len(), 3),
            _ => panic!("expected records"),
        }
    }

    #[test]
    fn rejected_enqueue_appends_nothing() {
        let log = ReplLog::new(4);
        log.ingest(0, &[1], || ((), false));
        assert_eq!(log.head(), 0);
        assert_eq!(log.floor(), 0);
    }

    #[test]
    fn cut_is_exact() {
        let log = ReplLog::new(16);
        log.ingest(0, &[1], || ((), true));
        log.ingest(0, &[2], || ((), true));
        let cut = log.cut(|| {});
        assert_eq!(cut, 2);
        log.ingest(0, &[3], || ((), true));
        assert_eq!(log.head(), 3);
    }

    #[test]
    fn hub_tracks_peers() {
        let hub = ReplHub::new();
        let a = hub.register("1.2.3.4:5".into());
        let b = hub.register("6.7.8.9:10".into());
        hub.ack(a, 7);
        hub.ack(b, 3);
        hub.ack(b, 2); // acks never regress
        let st = hub.status();
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].acked, 7);
        assert_eq!(st[1].acked, 3);
        hub.deregister(a);
        assert_eq!(hub.status().len(), 1);
    }
}
