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
    /// Membership of one key ([`Job::Member`]).
    Bool(bool),
    /// A [`Job::Reads`]: one value per read, in the job's order —
    /// membership as 0/1, frequency as the count, an aggregate as the
    /// bits of this shard's `f64` part.
    Values(Vec<u64>),
    /// A full response computed off the reactor (offloaded ops).
    Resp(Response),
}

/// One connection's share of a [`Job::Reads`]: the next `len` keys of the
/// job belong to the pending read set that `slot`/`gen`/`token` name.
#[derive(Debug, Clone, Copy)]
pub struct ReadShare {
    /// Connection slab slot.
    pub slot: u32,
    /// Slot generation when the read set was parsed.
    pub gen: u32,
    /// The connection's request counter for that read set.
    pub token: u64,
    /// How many consecutive keys of the job are this connection's.
    pub len: u32,
}

/// Who a reactor completion answers. The worker never looks inside: the
/// route rides the job to the shard and back, so the reactor keeps no
/// table that a dropped job could leak.
#[derive(Debug, Clone)]
pub enum Route {
    /// One offloaded request: `slot`/`gen` name the connection, `token`
    /// the request (a connection's dispatch counter — a stale completion
    /// whose token no longer matches is dropped).
    Request { slot: u32, gen: u32, token: u64 },
    /// One shard's reads of a reactor round: `shares` split the job's
    /// reads among connections in order, and `pos[i]` is read `i`'s
    /// position in its connection's read set (for an aggregate, the
    /// shard's — or the partition's — index).
    Reads { shares: Vec<ReadShare>, pos: Vec<u32> },
}

/// A completed query headed back to the reactor.
#[derive(Debug)]
pub struct Completion {
    /// Who asked.
    pub route: Route,
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
        /// Who the answer is for.
        route: Route,
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
            QuerySink::Reactor { tx, waker, route } => {
                let _ = tx.send(Completion { route, answer });
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
    /// Membership of `key` in stream A (answers [`Answer::Bool`]). The
    /// reactor sends [`Job::Reads`]; this one-key form is for callers
    /// that drive a worker directly.
    Member { key: u64, sink: QuerySink },
    /// Every read one reactor round has for this shard — runs of
    /// pipelined `QUERY_MEMBER`/`QUERY_FREQ`, `QUERY_BATCH` keys and
    /// `QUERY_CARD`/`QUERY_SIM` parts, from any number of connections:
    /// `(op, key)` pairs, `op` being a [`cluster_op`], read in order
    /// (answers [`Answer::Values`]). `CARD`/`SIM` ignore the key and
    /// answer the bits of [`ShardEngine::cardinality`] /
    /// [`ShardEngine::similarity`]; every one asks the engine, so the
    /// shard's query count moves exactly as a twin's does.
    Reads { reads: Vec<(u8, u64)>, sink: QuerySink },
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
        Job::Reads { reads, sink } => {
            let values = reads
                .into_iter()
                .map(|(op, k)| match op {
                    cluster_op::MEMBER => u64::from(engine.member(k)),
                    cluster_op::CARD => engine.cardinality().to_bits(),
                    cluster_op::SIM => engine.similarity().to_bits(),
                    _ => engine.frequency(k),
                })
                .collect();
            sink.send(Answer::Values(values));
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
        let reads = |sink| Job::Reads {
            reads: vec![(cluster_op::FREQ, 7), (cluster_op::MEMBER, 9), (cluster_op::FREQ, 4)],
            sink,
        };
        assert_eq!(ask(&reads), Answer::Values(vec![2, 1, 0]));

        // Aggregates ride the same job, key ignored, answered in job order
        // as the bits of the engine's own estimates.
        queue.send(Job::Batch { stream: 1, keys: vec![9, 11] }).expect("worker alive");
        let mut twin = ShardEngine::new(&cfg, 0);
        for (stream, key) in [(0, 7), (0, 7), (0, 9), (1, 9), (1, 11)] {
            twin.insert(stream, key);
        }
        let mixed = |sink| Job::Reads {
            reads: vec![
                (cluster_op::CARD, 0),
                (cluster_op::MEMBER, 7),
                (cluster_op::SIM, 99),
                (cluster_op::FREQ, 9),
            ],
            sink,
        };
        let want = vec![twin.cardinality().to_bits(), 1, twin.similarity().to_bits(), 1];
        assert_eq!(ask(&mixed), Answer::Values(want));
        assert_eq!(queue.depth(), 0, "every job was dequeued");

        drop(queue);
        let stats = worker.join().expect("worker thread");
        assert_eq!(stats.inserts, 5);
    }
}
