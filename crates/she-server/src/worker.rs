//! Shard worker threads: each owns one [`ShardEngine`] outright and
//! drains a bounded job queue, so the sketch hot path takes no locks.
//!
//! Jobs arrive over `std::sync::mpsc` — the channel doubles as the
//! shutdown protocol: when every sender (the reactor, the injector, any
//! offload thread) has dropped, `recv` returns `Err` *after* the queue is
//! empty, so every enqueued insert is applied before the worker exits
//! (drain-on-shutdown for free).
//!
//! Each wakeup drains a **batch** of queued jobs (up to
//! [`DRAIN_BATCH`]) instead of one, amortizing the channel rendezvous
//! over a run of ops when the queue is deep — the per-shard batch
//! dispatch half of the reactor rewrite.

use crate::cluster::cluster_op;
use crate::protocol::Response;
use crate::sys::Waker;
use she_core::sharded::{ShardEngine, ShardStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, Sender, SyncSender, TrySendError};
use std::sync::Arc;

/// How many queued jobs one worker wakeup drains before checking the
/// channel again. Bounds the latency a just-enqueued query can hide
/// behind while still amortizing wakeups under load.
pub const DRAIN_BATCH: usize = 64;

/// One query answer, typed by the query that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Membership.
    Bool(bool),
    /// Frequency.
    U64(u64),
    /// Cardinality / similarity contribution.
    F64(f64),
    /// Batch query: `(request position, value)` per key this shard owns.
    Slots(Vec<(u32, u64)>),
    /// A full response computed off the reactor (offloaded ops).
    Resp(Response),
}

/// A completed query headed back to the reactor: `slot`/`gen` name the
/// connection, `token` names the request (a connection's dispatch
/// counter — a stale completion whose token no longer matches is
/// dropped), `shard` indexes multi-shard gathers.
#[derive(Debug)]
pub struct Completion {
    /// Connection slab slot.
    pub slot: u32,
    /// Slot generation at dispatch time.
    pub gen: u32,
    /// Connection request counter at dispatch time.
    pub token: u64,
    /// Which shard answered (orders f64 merges).
    pub shard: usize,
    /// The answer.
    pub answer: Answer,
}

/// Where a query's answer goes: a rendezvous channel (a caller that
/// drives a worker directly and waits for the answer) or the reactor's
/// completion queue plus its waker (every served query).
#[derive(Debug, Clone)]
pub enum QuerySink {
    /// Blocking rendezvous.
    Channel(SyncSender<Answer>),
    /// Post a [`Completion`] and wake the reactor.
    Reactor {
        /// The reactor's completion queue.
        tx: Sender<Completion>,
        /// Wakes the reactor's `epoll_wait`.
        waker: Arc<Waker>,
        /// Connection slab slot.
        slot: u32,
        /// Slot generation at dispatch time.
        gen: u32,
        /// Connection request counter at dispatch time.
        token: u64,
        /// Which shard this sink is answering for.
        shard: usize,
    },
}

impl QuerySink {
    /// Deliver the answer. Send failures are ignored — a connection that
    /// went away simply doesn't get its answer.
    pub fn send(self, answer: Answer) {
        match self {
            QuerySink::Channel(tx) => {
                let _ = tx.send(answer);
            }
            QuerySink::Reactor { tx, waker, slot, gen, token, shard } => {
                let _ = tx.send(Completion { slot, gen, token, shard, answer });
                waker.wake();
            }
        }
    }
}

/// One unit of work for a shard. Queries carry a [`QuerySink`] for the
/// answer; batched inserts are fire-and-forget (admission control
/// happened at enqueue time).
#[derive(Debug)]
pub enum Job {
    /// Apply a run of same-stream inserts, in order.
    Batch { stream: u8, keys: Vec<u64> },
    /// Membership of `key` in stream A (answers [`Answer::Bool`]).
    Member { key: u64, sink: QuerySink },
    /// This shard's cardinality contribution (answers [`Answer::F64`]).
    Card { sink: QuerySink },
    /// Frequency of `key` in stream A (answers [`Answer::U64`]).
    Freq { key: u64, sink: QuerySink },
    /// This shard's A/B Jaccard estimate (answers [`Answer::F64`]).
    Sim { sink: QuerySink },
    /// Batch point query over this shard's slice of the keys: `op` is
    /// `cluster_op::{MEMBER, FREQ}`, `pos[i]` is `keys[i]`'s position in
    /// the original request (answers [`Answer::Slots`]).
    QueryBatch { op: u8, keys: Vec<u64>, pos: Vec<u32>, sink: QuerySink },
    /// Counter snapshot.
    Stats { reply: SyncSender<ShardStats> },
    /// Serialize this shard's state. Rides the same FIFO queue as the
    /// inserts, so the snapshot is quiescent — it reflects every insert
    /// enqueued before it and none after, without stalling other shards.
    Snapshot { reply: SyncSender<Vec<u8>> },
    /// Replace this shard's state with a snapshot frame.
    Restore { data: Vec<u8>, reply: SyncSender<Result<(), String>> },
    /// Anti-entropy: fold a same-placement snapshot of this shard into
    /// the current state (cell-wise merge, counter max — idempotent).
    Merge { data: Vec<u8>, reply: SyncSender<Result<(), String>> },
}

/// A shard's bounded job queue plus a live depth gauge: every send bumps
/// the gauge before the job is enqueued and the worker decrements it as
/// jobs are dequeued, so `CLUSTER_STATUS` can report per-shard backlog
/// without touching the queues themselves.
#[derive(Debug, Clone)]
pub struct ShardQueue {
    tx: SyncSender<Job>,
    depth: Arc<AtomicU64>,
}

impl ShardQueue {
    /// Build a bounded queue of `capacity` jobs; returns the sending
    /// half, the worker's receiver, and the worker's decrement handle.
    pub fn new(capacity: usize) -> (ShardQueue, Receiver<Job>, Arc<AtomicU64>) {
        let (tx, rx) = sync_channel(capacity);
        let depth = Arc::new(AtomicU64::new(0));
        (ShardQueue { tx, depth: Arc::clone(&depth) }, rx, depth)
    }

    /// Blocking send. The job counts toward the depth from just before
    /// enqueue until the worker dequeues it.
    pub fn send(&self, job: Job) -> Result<(), SendError<Job>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.send(job) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Non-blocking send (the admission-control / read-shed path).
    pub fn try_send(&self, job: Job) -> Result<(), TrySendError<Job>> {
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Jobs currently enqueued (or mid-rendezvous) for this shard.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

fn apply(engine: &mut ShardEngine, job: Job) {
    match job {
        Job::Batch { stream, keys } => {
            for k in keys {
                engine.insert(stream, k);
            }
        }
        Job::Member { key, sink } => sink.send(Answer::Bool(engine.member(key))),
        Job::Card { sink } => sink.send(Answer::F64(engine.cardinality())),
        Job::Freq { key, sink } => sink.send(Answer::U64(engine.frequency(key))),
        Job::Sim { sink } => sink.send(Answer::F64(engine.similarity())),
        Job::QueryBatch { op, keys, pos, sink } => {
            let mut slots = Vec::with_capacity(keys.len());
            for (k, p) in keys.into_iter().zip(pos) {
                let v = if op == cluster_op::MEMBER {
                    u64::from(engine.member(k))
                } else {
                    engine.frequency(k)
                };
                slots.push((p, v));
            }
            sink.send(Answer::Slots(slots));
        }
        Job::Stats { reply } => {
            let _ = reply.send(engine.stats());
        }
        Job::Snapshot { reply } => {
            let _ = reply.send(engine.snapshot());
        }
        Job::Restore { data, reply } => {
            let _ = reply.send(engine.restore(&data).map_err(|e| e.to_string()));
        }
        Job::Merge { data, reply } => {
            let _ = reply.send(engine.reconcile(&data).map_err(|e| e.to_string()));
        }
    }
}

/// Drain `rx` until every sender is gone; returns the shard's final
/// counters. Each blocking `recv` is followed by a `try_recv` drain of up
/// to [`DRAIN_BATCH`]` - 1` more jobs, so a deep queue is consumed in
/// batches per wakeup rather than one rendezvous per job. `depth` is the
/// paired [`ShardQueue`]'s gauge, decremented once per dequeued job.
pub fn run_worker(mut engine: ShardEngine, rx: Receiver<Job>, depth: Arc<AtomicU64>) -> ShardStats {
    'serve: while let Ok(first) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        apply(&mut engine, first);
        for _ in 1..DRAIN_BATCH {
            match rx.try_recv() {
                Ok(job) => {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    apply(&mut engine, job);
                }
                Err(_) => continue 'serve,
            }
        }
    }
    engine.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use she_core::sharded::EngineConfig;

    /// A worker driven with no reactor: answers come back over
    /// [`QuerySink::Channel`] in FIFO order behind the inserts, the depth
    /// gauge returns to zero, and dropping the queue stops the worker.
    #[test]
    fn channel_sink_answers_in_queue_order() {
        let cfg = EngineConfig { window: 1 << 10, shards: 1, memory_bytes: 8 << 10, seed: 3 };
        let (queue, rx, depth) = ShardQueue::new(8);
        let worker = std::thread::spawn(move || run_worker(ShardEngine::new(&cfg, 0), rx, depth));
        let ask = |make: &dyn Fn(QuerySink) -> Job| {
            let (tx, answer) = sync_channel(1);
            queue.send(make(QuerySink::Channel(tx))).expect("worker alive");
            answer.recv().expect("worker answers")
        };

        assert_eq!(ask(&|sink| Job::Member { key: 7, sink }), Answer::Bool(false));
        queue.send(Job::Batch { stream: 0, keys: vec![7, 7, 9] }).expect("worker alive");
        assert_eq!(ask(&|sink| Job::Member { key: 7, sink }), Answer::Bool(true));
        assert_eq!(ask(&|sink| Job::Freq { key: 7, sink }), Answer::U64(2));
        let batch = |sink| Job::QueryBatch {
            op: cluster_op::FREQ,
            keys: vec![9, 7],
            pos: vec![1, 0],
            sink,
        };
        assert_eq!(ask(&batch), Answer::Slots(vec![(1, 1), (0, 2)]));
        assert_eq!(queue.depth(), 0, "every job was dequeued");

        drop(queue);
        let stats = worker.join().expect("worker thread");
        assert_eq!(stats.inserts, 3);
    }
}
