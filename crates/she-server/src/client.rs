//! A blocking client for the she-server wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a
//! time (the protocol is strictly request/response). `BUSY` responses to
//! inserts — and `OVERLOADED` responses to any request — are retried
//! internally with capped exponential backoff plus jitter, up to a
//! bounded number of attempts — safe because both mean the server
//! applied nothing, and the jitter keeps a fleet of blocked clients from
//! hammering the queue in lockstep.
//!
//! An optional *operation timeout* ([`Client::set_op_timeout`]) bounds
//! each logical operation end to end: the response read, a stalled
//! server, and the whole retry loop all count against one deadline,
//! surfaced as `TimedOut`.

use crate::backoff::Backoff;
use crate::cluster::ClusterMap;
use crate::codec::{read_frame, read_frame_deadline, write_frame, FrameIn};
use crate::protocol::{ClusterStatusInfo, Request, Response, MAX_BATCH, PROTOCOL_VERSION};
use crate::repl::Bootstrap;
use she_core::sharded::ShardStats;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Attempts per operation before giving up on a persistently-full shard
/// (`BUSY`) or persistently-shedding server (`OVERLOADED`).
const MAX_BUSY_RETRIES: u32 = 64;

/// Ceiling on one backoff sleep while a shard queue stays full.
const BUSY_BACKOFF_CAP: Duration = Duration::from_millis(64);

/// Socket read-timeout tick used while an operation deadline is armed;
/// the poll interval at which the deadline is re-checked.
const DEADLINE_TICK: Duration = Duration::from_millis(20);

fn deadline_exceeded() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "operation deadline exceeded")
}

fn bad_reply(resp: Response) -> io::Error {
    let msg = match resp {
        Response::Err(m) => format!("server error: {m}"),
        Response::NotPrimary { primary } => {
            format!("server is a read-only replica; writes go to the primary at {primary}")
        }
        Response::Overloaded { retry_after_ms } => {
            format!("server overloaded; retry after {retry_after_ms} ms")
        }
        other => format!("unexpected response {other:?}"),
    };
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A connected she-server client.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// `BUSY` responses received (and retried) so far — a backpressure
    /// gauge for load generators.
    pub busy_retries: u64,
    /// `OVERLOADED` responses received (and retried) so far — the
    /// server-side shed gauge.
    pub shed_retries: u64,
    /// Total per-operation deadline; `None` = wait forever (the default).
    op_timeout: Option<Duration>,
}

impl Client {
    /// Connect; `addr` is anything `ToSocketAddrs` accepts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, busy_retries: 0, shed_retries: 0, op_timeout: None })
    }

    /// Connect with a bound on the connect itself *and* on every
    /// subsequent operation (see [`Client::set_op_timeout`]) — the
    /// scatter-gather and gossip paths, where a dead peer must fail the
    /// leg quickly instead of wedging the caller.
    pub fn connect_timeout<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Client> {
        let sa = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&sa, timeout)?;
        stream.set_nodelay(true)?;
        let mut client = Client { stream, busy_retries: 0, shed_retries: 0, op_timeout: None };
        client.set_op_timeout(Some(timeout))?;
        Ok(client)
    }

    /// Bound every subsequent operation — request write, response read,
    /// and the whole `BUSY`/`OVERLOADED` retry loop — by `timeout` total.
    /// Exceeding it surfaces as `TimedOut`. `None` restores the default
    /// (wait forever).
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        // The read timeout is a short tick so the deadline is re-checked
        // even while the server is silent; writes get the full budget.
        let tick = timeout.map(|t| t.min(DEADLINE_TICK).max(Duration::from_millis(1)));
        self.stream.set_read_timeout(tick)?;
        self.stream.set_write_timeout(timeout)?;
        self.op_timeout = timeout;
        Ok(())
    }

    /// When the next operation must be finished, given the timeout.
    fn op_deadline(&self) -> Option<Instant> {
        self.op_timeout.map(|t| Instant::now() + t)
    }

    /// One request, one response, optionally bounded by an absolute
    /// deadline.
    fn call_by(&mut self, req: &Request, by: Option<Instant>) -> io::Result<Response> {
        write_frame(&mut self.stream, &req.encode()).map_err(|e| {
            if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                deadline_exceeded()
            } else {
                e
            }
        })?;
        let payload = match by {
            None => read_frame(&mut self.stream)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?,
            Some(by) => loop {
                let left = by.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(deadline_exceeded());
                }
                match read_frame_deadline(&mut self.stream, left)? {
                    FrameIn::Frame(p) => break p,
                    FrameIn::Eof => {
                        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
                    }
                    FrameIn::Idle => continue,
                    FrameIn::Stalled => return Err(deadline_exceeded()),
                }
            },
        };
        Response::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One request, one response, under this client's operation timeout.
    fn call(&mut self, req: &Request) -> io::Result<Response> {
        let by = self.op_deadline();
        self.call_by(req, by)
    }

    /// Issue a request, retrying `BUSY` and `OVERLOADED` with capped
    /// exponential backoff + jitter seeded from the server's hint. The
    /// operation deadline (when set) spans the entire retry loop.
    fn call_retrying(&mut self, req: &Request) -> io::Result<Response> {
        let by = self.op_deadline();
        let mut backoff: Option<Backoff> = None;
        for _ in 0..MAX_BUSY_RETRIES {
            let retry_after_ms = match self.call_by(req, by)? {
                Response::Busy { retry_after_ms } => {
                    self.busy_retries += 1;
                    retry_after_ms
                }
                Response::Overloaded { retry_after_ms } => {
                    self.shed_retries += 1;
                    retry_after_ms
                }
                other => return Ok(other),
            };
            let b = backoff.get_or_insert_with(|| {
                let base = Duration::from_millis(retry_after_ms.max(1) as u64);
                Backoff::from_clock(base.min(BUSY_BACKOFF_CAP), BUSY_BACKOFF_CAP)
            });
            let delay = b.next_delay();
            if let Some(by) = by {
                if Instant::now() + delay >= by {
                    return Err(deadline_exceeded());
                }
            }
            std::thread::sleep(delay);
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, "server busy: retries exhausted"))
    }

    /// Issue an insert-class request (retrying backpressure responses).
    fn call_insert(&mut self, req: &Request) -> io::Result<u64> {
        match self.call_retrying(req)? {
            Response::Ok { accepted } => Ok(accepted),
            other => Err(bad_reply(other)),
        }
    }

    /// Insert one key into stream 0 (A) or 1 (B).
    pub fn insert(&mut self, stream: u8, key: u64) -> io::Result<()> {
        self.call_insert(&Request::Insert { stream, key }).map(|_| ())
    }

    /// Insert a slice of keys into one stream, splitting into wire-sized
    /// batches as needed. Returns the number of keys accepted.
    pub fn insert_batch(&mut self, stream: u8, keys: &[u64]) -> io::Result<u64> {
        let mut accepted = 0;
        for chunk in keys.chunks(MAX_BATCH) {
            accepted += self.call_insert(&Request::InsertBatch { stream, keys: chunk.to_vec() })?;
        }
        Ok(accepted)
    }

    /// Sliding-window membership of `key` in stream A. Shed reads
    /// (`OVERLOADED`) are retried like `BUSY` writes.
    pub fn query_member(&mut self, key: u64) -> io::Result<bool> {
        match self.call_retrying(&Request::QueryMember { key })? {
            Response::Bool(v) => Ok(v),
            other => Err(bad_reply(other)),
        }
    }

    /// Sliding-window cardinality of stream A.
    pub fn query_card(&mut self) -> io::Result<f64> {
        match self.call_retrying(&Request::QueryCard)? {
            Response::F64(v) => Ok(v),
            other => Err(bad_reply(other)),
        }
    }

    /// Sliding-window frequency of `key` in stream A.
    pub fn query_freq(&mut self, key: u64) -> io::Result<u64> {
        match self.call_retrying(&Request::QueryFreq { key })? {
            Response::U64(v) => Ok(v),
            other => Err(bad_reply(other)),
        }
    }

    /// Sliding-window A/B Jaccard similarity.
    pub fn query_sim(&mut self) -> io::Result<f64> {
        match self.call_retrying(&Request::QuerySim)? {
            Response::F64(v) => Ok(v),
            other => Err(bad_reply(other)),
        }
    }

    /// Batch point query: one `u64` answer per key, in key order
    /// (`op` is `cluster_op::MEMBER` — answers 0/1 — or
    /// `cluster_op::FREQ`). Splits into wire-sized batches as needed.
    pub fn query_batch(&mut self, op: u8, keys: &[u64]) -> io::Result<Vec<u64>> {
        self.call_batches(keys, |keys| Request::QueryBatch { op, keys })
    }

    /// One `U64S` answer per wire-sized chunk of `keys`, concatenated in
    /// key order; a chunk answered with the wrong length is an error.
    fn call_batches(
        &mut self,
        keys: &[u64],
        make: impl Fn(Vec<u64>) -> Request,
    ) -> io::Result<Vec<u64>> {
        let mut out = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(MAX_BATCH) {
            match self.call_retrying(&make(chunk.to_vec()))? {
                Response::U64s(values) if values.len() == chunk.len() => out.extend(values),
                Response::U64s(values) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("batch answered {} values for {} keys", values.len(), chunk.len()),
                    ))
                }
                other => return Err(bad_reply(other)),
            }
        }
        Ok(out)
    }

    /// Accelerated point query: answered inline on the reactor from
    /// the read path's mark cache + fast summary, never queued or shed.
    /// `op` is [`fast_op::MEMBER`](crate::fast_op::MEMBER) (→ `Bool`),
    /// [`fast_op::FREQ`](crate::fast_op::FREQ) (→ `U64`), or
    /// [`fast_op::TOPK`](crate::fast_op::TOPK) (→ `U64s`; `key` carries
    /// the requested length). Servers without `--readpath` answer `ERR`.
    pub fn query_fast(&mut self, op: u8, key: u64) -> io::Result<Response> {
        match self.call(&Request::QueryFast { op, key })? {
            r @ (Response::Bool(_) | Response::U64(_) | Response::U64s(_)) => Ok(r),
            other => Err(bad_reply(other)),
        }
    }

    /// Fast membership: [`Client::query_fast`] with the `MEMBER` op.
    pub fn fast_member(&mut self, key: u64) -> io::Result<bool> {
        match self.query_fast(crate::fast_op::MEMBER, key)? {
            Response::Bool(v) => Ok(v),
            other => Err(bad_reply(other)),
        }
    }

    /// Fast frequency: [`Client::query_fast`] with the `FREQ` op.
    pub fn fast_freq(&mut self, key: u64) -> io::Result<u64> {
        match self.query_fast(crate::fast_op::FREQ, key)? {
            Response::U64(v) => Ok(v),
            other => Err(bad_reply(other)),
        }
    }

    /// Drop every cached fast answer: subsequent fast reads refill
    /// from the mirror at its applied position.
    pub fn fast_flush(&mut self) -> io::Result<()> {
        match self.query_fast(crate::fast_op::FLUSH, 0)? {
            Response::Bool(true) => Ok(()),
            other => Err(bad_reply(other)),
        }
    }

    /// Fast top-k: up to `n` `(key, frequency estimate)` pairs,
    /// heaviest first.
    pub fn fast_topk(&mut self, n: u64) -> io::Result<Vec<(u64, u64)>> {
        match self.query_fast(crate::fast_op::TOPK, n)? {
            Response::U64s(flat) => {
                Ok(flat.chunks_exact(2).map(|pair| (pair[0], pair[1])).collect())
            }
            other => Err(bad_reply(other)),
        }
    }

    /// Per-shard server counters.
    pub fn stats(&mut self) -> io::Result<Vec<ShardStats>> {
        match self.call(&Request::Stats)? {
            Response::Stats(v) => Ok(v),
            other => Err(bad_reply(other)),
        }
    }

    /// Check that the server speaks this build's protocol version.
    /// Anything else — another version, or an `ERR` from a peer that does
    /// not know `HELLO` — is `Unsupported`: there is one protocol and no
    /// downgrade.
    pub fn hello(&mut self) -> io::Result<()> {
        match self.call(&Request::Hello { version: PROTOCOL_VERSION })? {
            Response::Hello { version } if version == PROTOCOL_VERSION => Ok(()),
            other @ (Response::Hello { .. } | Response::Err(_)) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("server does not speak protocol {PROTOCOL_VERSION}: answered {other:?}"),
            )),
            other => Err(bad_reply(other)),
        }
    }

    /// Fetch one shard's quiescent snapshot.
    pub fn snapshot(&mut self, shard: u32) -> io::Result<Vec<u8>> {
        match self.call(&Request::Snapshot { shard })? {
            Response::Blob(data) => Ok(data),
            other => Err(bad_reply(other)),
        }
    }

    /// Fetch a whole-server checkpoint.
    pub fn snapshot_all(&mut self) -> io::Result<Vec<u8>> {
        match self.call(&Request::SnapshotAll)? {
            Response::Blob(data) => Ok(data),
            other => Err(bad_reply(other)),
        }
    }

    /// Replace one shard's state with a snapshot frame.
    pub fn restore(&mut self, shard: u32, data: &[u8]) -> io::Result<()> {
        match self.call(&Request::Restore { shard, data: data.to_vec() })? {
            Response::Ok { .. } => Ok(()),
            other => Err(bad_reply(other)),
        }
    }

    /// Fetch a replica bootstrap package from a primary: the op-log
    /// cut sequence number plus the checkpoint bytes at that cut.
    pub fn repl_bootstrap(&mut self) -> io::Result<(u64, Vec<u8>)> {
        match self.call(&Request::ReplBootstrap)? {
            Response::Blob(data) => {
                let boot = Bootstrap::decode(&data)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                Ok((boot.seq, boot.checkpoint))
            }
            other => Err(bad_reply(other)),
        }
    }

    /// The node's replication role and positions.
    pub fn cluster_status(&mut self) -> io::Result<ClusterStatusInfo> {
        match self.call(&Request::ClusterStatus)? {
            Response::ClusterStatus(info) => Ok(info),
            other => Err(bad_reply(other)),
        }
    }

    /// Push-pull gossip: offer `map` as node `from_node`; the peer
    /// adopts it if newer and answers with its own current view.
    pub fn cluster_join(&mut self, from_node: u64, map: &ClusterMap) -> io::Result<ClusterMap> {
        match self.call(&Request::ClusterJoin { from_node, map: map.clone() })? {
            Response::ClusterMapReply(m) => Ok(m),
            other => Err(bad_reply(other)),
        }
    }

    /// Fetch the node's current cluster map — how clients re-route
    /// after a failover without restarting.
    pub fn cluster_map(&mut self) -> io::Result<ClusterMap> {
        match self.call(&Request::ClusterMapGet)? {
            Response::ClusterMapReply(m) => Ok(m),
            other => Err(bad_reply(other)),
        }
    }

    /// Scatter-gather query: the server coordinates across every
    /// partition and merges. Returns the merged `Bool`/`U64`/`F64`
    /// answer; callers match on the variant their `op` implies.
    pub fn cluster_query(&mut self, op: u8, key: u64) -> io::Result<Response> {
        match self.call_retrying(&Request::ClusterQuery { op, key })? {
            r @ (Response::Bool(_) | Response::U64(_) | Response::F64(_)) => Ok(r),
            other => Err(bad_reply(other)),
        }
    }

    /// Scatter-gather batch query: N member/freq keys per scatter
    /// round-trip, answered in key order.
    pub fn cluster_query_batch(&mut self, op: u8, keys: &[u64]) -> io::Result<Vec<u64>> {
        self.call_batches(keys, |keys| Request::ClusterQueryBatch { op, keys })
    }

    /// Turn this connection into a replication feed starting at
    /// `from_seq`, returning the raw socket. The caller reads
    /// `REPL_OP`/`REPL_HEARTBEAT` frames and writes `REPL_ACK`s with the
    /// codec; the request/response discipline no longer applies. A
    /// nonzero `node_id` names the subscriber by its cluster node id, so
    /// the primary labels the peer `{node}@{addr}` in `CLUSTER_STATUS`;
    /// 0 stays anonymous.
    pub fn subscribe(mut self, from_seq: u64, node_id: u64) -> io::Result<TcpStream> {
        write_frame(&mut self.stream, &Request::ReplSubscribe { from_seq, node_id }.encode())?;
        Ok(self.stream)
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok { .. } => Ok(()),
            other => Err(bad_reply(other)),
        }
    }
}
