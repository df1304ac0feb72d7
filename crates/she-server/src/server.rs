//! The serving tier: an epoll reactor front end over shard worker
//! threads, with explicit backpressure.
//!
//! Threading model (all `std`; see `docs/SERVER.md` for the full story):
//!
//! ```text
//!  epoll reactor thread ──► S bounded mpsc queues ──► S shard workers
//!        │    ▲                        (batch-drained per wakeup)
//!        │    └── completion queue + waker (query answers return)
//!        ├──► offload pool (snapshots, stats, scatter-gather legs)
//!        └──► feed threads (replication subscriptions)
//! ```
//!
//! One reactor thread owns every client socket non-blockingly (the
//! sans-IO [`crate::conn::Connection`] state machine per connection, the
//! epoll shims from [`crate::sys`]); queries are dispatched to the shard
//! queues with a completion sink and answered when the worker posts back,
//! so thousands of idle or slow connections cost no threads.
//!
//! * **Backpressure** — inserts are admitted with `try_send`; if the
//!   target shard's queue is full *before anything was enqueued*, the
//!   client gets `BUSY{retry_after_ms}` and nothing changes. Once any
//!   sub-batch of a request has been enqueued the remainder uses blocking
//!   sends, so a request is applied exactly once or not at all.
//! * **Ordering** — the reactor parses one connection's frames in order
//!   and dispatches at most one request per connection at a time, and the
//!   shard queues are FIFO, so a query observes every insert the same
//!   connection sent before it (the property the verify mode relies on).
//! * **Shutdown** — the `SHUTDOWN` request flips a flag and wakes the
//!   reactor, which closes the listener immediately, grace-flushes
//!   in-flight answers, joins its feed threads, and exits; when the last
//!   queue sender drops, workers drain their queues and return their
//!   final stats.
//! * **Self-protection** — a connection cap refuses excess clients with
//!   `OVERLOADED` at accept time; a per-connection deadline evicts peers
//!   that stall mid-frame (read side) or stop draining their socket
//!   (write side); read queries are shed with `OVERLOADED` when their
//!   shard queue is saturated, so writes keep their `BUSY`-with-nothing-
//!   applied guarantee while reads degrade first. All three are counted
//!   in [`ServeCounters`].

use crate::cluster::{scatter_query, scatter_query_batch, ClusterDirectory};
use crate::codec::{read_frame, write_frame};
use crate::protocol::{
    ClusterStatusInfo, ReadpathStatus, Request, Response, MAX_FRAME, PROTOCOL_VERSION,
};
use crate::reactor::spawn_reactor;
use crate::repl::{Bootstrap, ReplHub, ReplLog, Tail};
use crate::sys::{waker_pair, Waker};
use crate::worker::{run_worker, Job, ShardQueue};
use she_core::sharded::{Checkpoint, EngineConfig, ShardEngine, ShardStats};
use she_metrics::ServeCounters;
use she_readpath::{FastAnswer, ReadPath, ReadPathConfig};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live replica-side link state, shared between the embedded server
/// (which answers `CLUSTER_STATUS` and `NOT_PRIMARY` from it) and the
/// `she-replica` runtime that updates it.
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    /// Highest op-log sequence number applied locally.
    pub applied: AtomicU64,
    /// Whether the feed from the primary is currently connected.
    pub connected: AtomicBool,
    /// The sequence number the bootstrap snapshot reflected.
    pub boot_seq: AtomicU64,
}

/// Whether this server accepts writes or follows a primary.
#[derive(Debug, Clone, Default)]
pub enum Role {
    /// Accepts writes; replicates them when `repl_log > 0`.
    #[default]
    Primary,
    /// Serves reads only; writes are answered `NOT_PRIMARY`.
    Replica {
        /// Where writes should go (returned in `NOT_PRIMARY`).
        primary: String,
        /// Link state maintained by the replication runtime.
        status: Arc<ReplicaStatus>,
    },
}

/// Everything needed to start a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Engine sizing (window, shards, memory, seed).
    pub engine: EngineConfig,
    /// Bounded depth of each shard's job queue, in jobs.
    pub queue_capacity: usize,
    /// Hint returned with `BUSY` responses.
    pub retry_after_ms: u32,
    /// Primary (default) or replica.
    pub role: Role,
    /// Op-log capacity in records; 0 disables replication serving.
    pub repl_log: usize,
    /// Idle keep-alive interval on replication feeds, in milliseconds.
    pub heartbeat_ms: u64,
    /// Per-connection deadline in milliseconds: a frame that starts but
    /// does not complete within this budget, or a response write that
    /// stalls this long, evicts the connection. 0 disables eviction.
    pub client_deadline_ms: u64,
    /// Maximum simultaneously served connections; excess clients get one
    /// `OVERLOADED` frame and are closed.
    pub max_connections: usize,
    /// The node's shared cluster-map view. `Some` makes this server a
    /// cluster member: it answers `CLUSTER_JOIN` / `CLUSTER_MAP` from the
    /// directory and coordinates `CLUSTER_QUERY` scatter-gathers.
    pub cluster: Option<Arc<ClusterDirectory>>,
    /// `Some` enables the two-stage read path (fast mirror + mark
    /// cache) behind `QUERY_FAST`. On a primary this requires
    /// `repl_log > 0` — the mirror refreshes from the op-log tail.
    pub readpath: Option<ReadPathConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            queue_capacity: 256,
            retry_after_ms: 2,
            role: Role::Primary,
            repl_log: 0,
            heartbeat_ms: 500,
            client_deadline_ms: 10_000,
            max_connections: 1024,
            cluster: None,
            readpath: None,
        }
    }
}

/// End-to-end budget for one scatter-gather leg to a peer partition.
pub(crate) const CLUSTER_LEG_TIMEOUT: Duration = Duration::from_secs(10);

/// State shared by the reactor, the offload pool, and the feed threads.
/// Workers are *not* behind this — they own their engines; only their
/// queue senders live here, and dropping the last `Shared` is what lets
/// the workers drain and exit.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) txs: Vec<ShardQueue>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) local_addr: SocketAddr,
    pub(crate) engine: EngineConfig,
    pub(crate) retry_after_ms: u32,
    pub(crate) role: Role,
    pub(crate) log: Option<ReplLog>,
    pub(crate) hub: ReplHub,
    pub(crate) heartbeat_ms: u64,
    /// `None` when eviction is disabled (`client_deadline_ms = 0`).
    pub(crate) client_deadline: Option<Duration>,
    pub(crate) max_connections: usize,
    pub(crate) conns: AtomicUsize,
    pub(crate) counters: Arc<ServeCounters>,
    pub(crate) cluster: Option<Arc<ClusterDirectory>>,
    /// The QUERY_FAST accelerator (fast mirror + mark cache), when
    /// the server was started with a read-path config.
    pub(crate) readpath: Option<Arc<ReadPath>>,
    /// Wakes the reactor out of `epoll_wait` (shutdown, completions).
    pub(crate) waker: Arc<Waker>,
    /// Failover: a replica-role server that won a partition election
    /// flips this and serves writes from then on (its own op log starts
    /// at its promotion point; followers re-bootstrap from it).
    promoted: AtomicBool,
}

/// Split a batch query's keys by owning shard, remembering each key's
/// position in the request (`u32` — positions are bounded by `MAX_BATCH`).
pub(crate) fn partition_batch(
    engine: &EngineConfig,
    keys: &[u64],
    shards: usize,
) -> Vec<(Vec<u64>, Vec<u32>)> {
    let mut per: Vec<(Vec<u64>, Vec<u32>)> = vec![(Vec::new(), Vec::new()); shards];
    for (i, &key) in keys.iter().enumerate() {
        let shard = engine.shard_of(key);
        // audit:allow(growth): per-shard split of one batch, total bounded by MAX_BATCH at decode
        per[shard].0.push(key);
        // audit:allow(growth): position index of the same bounded batch
        per[shard].1.push(u32::try_from(i).unwrap_or(u32::MAX));
    }
    per
}

pub(crate) fn answer_mismatch() -> Response {
    Response::Err("internal: query answered with the wrong type".to_string())
}

impl Shared {
    /// Answer one *offloaded* request: the seven ops whose blocking
    /// rendezvous with the shard workers (or peer partitions) must not
    /// run on the reactor. The offload pool is the only caller; anything
    /// else falls through to [`Shared::handle_inline`], which answers
    /// `ERR internal` for a request it does not own either.
    pub(crate) fn handle(&self, req: Request) -> Response {
        match req {
            Request::Stats => match self.ask_all(|reply| Job::Stats { reply }) {
                Some(parts) => Response::Stats(parts),
                None => shutting_down(),
            },
            Request::Snapshot { shard } => {
                let shard = shard as usize;
                if shard >= self.txs.len() {
                    return Response::Err(format!(
                        "shard {shard} out of range (server has {})",
                        self.txs.len()
                    ));
                }
                match self.ask(shard, |reply| Job::Snapshot { reply }) {
                    Some(blob) => Response::Blob(blob),
                    None => shutting_down(),
                }
            }
            Request::SnapshotAll => match self.ask_all(|reply| Job::Snapshot { reply }) {
                Some(shards) => {
                    let blob = Checkpoint { cfg: self.engine, shards }.encode();
                    if 1 + blob.len() > MAX_FRAME {
                        return Response::Err(format!(
                            "checkpoint of {} bytes exceeds the {} byte frame cap; \
                             fetch per-shard snapshots instead",
                            blob.len(),
                            MAX_FRAME
                        ));
                    }
                    Response::Blob(blob)
                }
                None => shutting_down(),
            },
            Request::Restore { shard, data } => {
                if let Some(primary) = self.write_refusal() {
                    return Response::NotPrimary { primary };
                }
                let shard = shard as usize;
                if shard >= self.txs.len() {
                    return Response::Err(format!(
                        "shard {shard} out of range (server has {})",
                        self.txs.len()
                    ));
                }
                // Restores bypass the op log, so the read-path mirror
                // must be fed the same frame directly or it diverges.
                let mirror = self.readpath.as_ref().map(|rp| (Arc::clone(rp), data.clone()));
                match self.ask(shard, |reply| Job::Restore { data, reply }) {
                    Some(Ok(())) => {
                        if let Some((rp, frame)) = mirror {
                            if rp.load(shard, &frame, false).is_err() {
                                rp.invalidate_all();
                            }
                        }
                        Response::Ok { accepted: 0 }
                    }
                    Some(Err(msg)) => Response::Err(msg),
                    None => shutting_down(),
                }
            }
            Request::ReplBootstrap => self.bootstrap(),
            Request::ClusterQuery { op, key } => match &self.cluster {
                // The scatter legs are plain QUERY_* requests (never a
                // nested CLUSTER_QUERY), so coordinators cannot recurse;
                // the self-leg loops back through our own reactor.
                Some(dir) => scatter_query(&dir.get(), op, key, CLUSTER_LEG_TIMEOUT),
                None => not_a_cluster_node(),
            },
            Request::ClusterQueryBatch { op, keys } => match &self.cluster {
                Some(dir) => scatter_query_batch(&dir.get(), op, &keys, CLUSTER_LEG_TIMEOUT),
                None => not_a_cluster_node(),
            },
            req => self.handle_inline(req),
        }
    }

    /// The reactor-safe subset of [`Shared::handle`]: every arm finishes
    /// with non-blocking work only — `try_send` admission for inserts,
    /// the mutex-light read path, atomic map swaps, a shutdown flag
    /// flip. The reactor's dispatch catch-all calls this directly, which
    /// lets `she audit` prove statically that no blocking syscall
    /// wrapper is reachable from the poll thread.
    pub(crate) fn handle_inline(&self, req: Request) -> Response {
        match req {
            Request::Insert { stream, key } => self.ingest(stream, vec![key]),
            Request::InsertBatch { stream, keys } => self.ingest(stream, keys),
            // Served inline (mutex + compute, never a shard queue).
            Request::QueryFast { op, key } => match &self.readpath {
                Some(rp) => match rp.query(op, key) {
                    Some(FastAnswer::Bool(v)) => Response::Bool(v),
                    Some(FastAnswer::Count(v)) => Response::U64(v),
                    Some(FastAnswer::Ranked(pairs)) => {
                        let mut flat = Vec::with_capacity(pairs.len() * 2);
                        for (k, est) in pairs {
                            flat.push(k);
                            flat.push(est);
                        }
                        Response::U64s(flat)
                    }
                    None => Response::Err(format!(
                        "unknown fast op {op} (member {}, freq {}, topk {}, flush {})",
                        she_readpath::op::MEMBER,
                        she_readpath::op::FREQ,
                        she_readpath::op::TOPK,
                        she_readpath::op::FLUSH
                    )),
                },
                None => Response::Err("read path disabled (serve with --readpath)".to_string()),
            },
            // Always our own version: the client checks for equality.
            Request::Hello { .. } => Response::Hello { version: PROTOCOL_VERSION },
            Request::ClusterStatus => Response::ClusterStatus(self.cluster_status()),
            Request::ClusterJoin { from_node: _, map } => match &self.cluster {
                Some(dir) => {
                    dir.observe(&map);
                    Response::ClusterMapReply(dir.get())
                }
                None => not_a_cluster_node(),
            },
            Request::ClusterMapGet => match &self.cluster {
                Some(dir) => Response::ClusterMapReply(dir.get()),
                None => not_a_cluster_node(),
            },
            // Valid only *on* a feed; the reactor intercepts the
            // subscribe before it can reach here.
            Request::ReplSubscribe { .. } | Request::ReplAck { .. } => {
                Response::Err("replication feed messages outside a feed".to_string())
            }
            Request::Shutdown => {
                self.begin_shutdown();
                Response::Ok { accepted: 0 }
            }
            // A blocking request routed here is a dispatch bug, not a
            // client error — fail loudly instead of blocking the reactor.
            _ => Response::Err("internal: blocking request routed to the inline handler".into()),
        }
    }

    /// `Some(primary)` when this server must refuse writes: a replica
    /// that has not been promoted. A promoted replica serves writes like
    /// a primary (its op log begins at the promotion point).
    pub(crate) fn write_refusal(&self) -> Option<String> {
        match &self.role {
            Role::Replica { primary, .. } if !self.promoted.load(Ordering::SeqCst) => {
                Some(primary.clone())
            }
            _ => None,
        }
    }

    /// The write path: reject on replicas, then admit onto the shard
    /// queues — appending to the op log atomically when one is kept, so
    /// replicas replay the identical per-shard insert order.
    pub(crate) fn ingest(&self, stream: u8, keys: Vec<u64>) -> Response {
        if let Some(primary) = self.write_refusal() {
            return Response::NotPrimary { primary };
        }
        let accepted = keys.len() as u64;
        let parts: Vec<(usize, u8, Vec<u64>)> =
            self.engine.partition(&keys).into_iter().map(|(s, ks)| (s, stream, ks)).collect();
        match &self.log {
            Some(log) => log.ingest(stream, &keys, || {
                let resp = self.admit(parts, accepted);
                let ok = matches!(resp, Response::Ok { .. });
                (resp, ok)
            }),
            None => self.admit(parts, accepted),
        }
    }

    /// Capture a bootstrap package: snapshot jobs enqueued under the log
    /// lock (an exact cut), answers collected outside it.
    fn bootstrap(&self) -> Response {
        if let Some(primary) = self.write_refusal() {
            return Response::NotPrimary { primary };
        }
        let Some(log) = &self.log else {
            return Response::Err(
                "replication is disabled on this server (serve with --repl-log N)".to_string(),
            );
        };
        let mut rxs = Vec::with_capacity(self.txs.len());
        let mut wedged = false;
        let seq = log.cut(|| {
            for tx in &self.txs {
                let (reply, rx) = sync_channel(1);
                wedged |= tx.send(Job::Snapshot { reply }).is_err();
                rxs.push(rx);
            }
        });
        if wedged {
            return shutting_down();
        }
        let shards: Option<Vec<Vec<u8>>> = rxs.into_iter().map(|rx| rx.recv().ok()).collect();
        let Some(shards) = shards else {
            return shutting_down();
        };
        let checkpoint = Checkpoint { cfg: self.engine, shards }.encode();
        let blob = Bootstrap { seq, checkpoint }.encode();
        if blob.len() >= MAX_FRAME {
            return Response::Err(format!(
                "bootstrap of {} bytes exceeds the {MAX_FRAME} byte frame cap",
                blob.len()
            ));
        }
        Response::Blob(blob)
    }

    /// Live per-shard queue backlog, in shard order.
    fn queue_depths(&self) -> Vec<u64> {
        self.txs.iter().map(ShardQueue::depth).collect()
    }

    /// Read-path counters for `CLUSTER_STATUS`. On a following replica
    /// the mirror is fed synchronously by the injector (its own log is
    /// empty, so the refresher's watermark stays 0); `floor_seq` carries
    /// the replica's applied position so the report stays truthful.
    fn readpath_status(&self, floor_seq: u64) -> ReadpathStatus {
        match &self.readpath {
            Some(rp) => {
                let s = rp.counters().snapshot();
                ReadpathStatus {
                    enabled: true,
                    hits: s.hits,
                    misses: s.misses,
                    fills: s.fills,
                    invalidations: s.invalidations,
                    seq: rp.seq().max(floor_seq),
                }
            }
            None => ReadpathStatus::default(),
        }
    }

    /// Role, log positions, and peers for `CLUSTER_STATUS`. A promoted
    /// replica reports like a primary (its feed is gone for good; what
    /// matters now is its own log head and subscribers).
    fn cluster_status(&self) -> ClusterStatusInfo {
        match &self.role {
            Role::Replica { primary, status } if !self.promoted.load(Ordering::SeqCst) => {
                let applied = status.applied.load(Ordering::SeqCst);
                ClusterStatusInfo {
                    is_primary: false,
                    connected: status.connected.load(Ordering::SeqCst),
                    head: applied,
                    floor: 0,
                    boot_seq: status.boot_seq.load(Ordering::SeqCst),
                    primary: primary.clone(),
                    peers: Vec::new(),
                    queue_depths: self.queue_depths(),
                    readpath: self.readpath_status(applied),
                }
            }
            _ => ClusterStatusInfo {
                is_primary: true,
                connected: true,
                head: self.log.as_ref().map_or(0, |l| l.head()),
                floor: self.log.as_ref().map_or(0, |l| l.floor()),
                boot_seq: 0,
                primary: String::new(),
                peers: self.hub.status(),
                queue_depths: self.queue_depths(),
                readpath: self.readpath_status(0),
            },
        }
    }

    /// Admission control for inserts: `try_send` until the first part is
    /// enqueued (full queue ⇒ `BUSY`, nothing applied), blocking sends for
    /// the rest (the request is already partially committed).
    fn admit(&self, parts: Vec<(usize, u8, Vec<u64>)>, accepted: u64) -> Response {
        let mut committed = false;
        for (shard, stream, keys) in parts {
            let job = Job::Batch { stream, keys };
            if committed {
                if self.txs[shard].send(job).is_err() {
                    return shutting_down();
                }
            } else {
                match self.txs[shard].try_send(job) {
                    Ok(()) => committed = true,
                    Err(TrySendError::Full(_)) => {
                        return Response::Busy { retry_after_ms: self.retry_after_ms }
                    }
                    Err(TrySendError::Disconnected(_)) => return shutting_down(),
                }
            }
        }
        Response::Ok { accepted }
    }

    /// Rendezvous with one shard; `None` when the worker is gone.
    fn ask<T>(&self, shard: usize, make: impl FnOnce(SyncSender<T>) -> Job) -> Option<T> {
        let (tx, rx) = sync_channel(1);
        self.txs[shard].send(make(tx)).ok()?;
        rx.recv().ok()
    }

    /// Count a shed read and answer `OVERLOADED`.
    pub(crate) fn shed(&self) -> Response {
        ServeCounters::bump(&self.counters.shed_reads);
        Response::Overloaded { retry_after_ms: self.retry_after_ms }
    }

    /// Fan a query out to every shard, collecting answers in shard order.
    fn ask_all<T>(&self, mut make: impl FnMut(SyncSender<T>) -> Job) -> Option<Vec<T>> {
        let pending: Vec<_> = self
            .txs
            .iter()
            .map(|tx| {
                let (reply_tx, reply_rx) = sync_channel(1);
                tx.send(make(reply_tx)).ok()?;
                Some(reply_rx)
            })
            .collect::<Option<_>>()?;
        pending.into_iter().map(|rx| rx.recv().ok()).collect()
    }

    /// Flip the flag and wake the reactor out of `epoll_wait`.
    pub(crate) fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

pub(crate) fn shutting_down() -> Response {
    Response::Err("server shutting down".to_string())
}

pub(crate) fn not_a_cluster_node() -> Response {
    Response::Err("not a cluster node (serve with `she cluster-serve`)".to_string())
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send the wire `SHUTDOWN`) then [`Server::join`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
    offload: Vec<JoinHandle<()>>,
    refresher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<ShardStats>>,
}

impl Server {
    /// Bind, spawn the shard workers and the reactor, and return.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let engines = (0..cfg.engine.shards).map(|i| ShardEngine::new(&cfg.engine, i)).collect();
        Server::start_with_engines(cfg, engines)
    }

    /// Like [`Server::start`], but with pre-built shard engines — the
    /// restore path: engines come from a [`Checkpoint`] instead of empty.
    pub fn start_with_engines(cfg: ServerConfig, engines: Vec<ShardEngine>) -> io::Result<Server> {
        assert_eq!(engines.len(), cfg.engine.shards, "engine count must match cfg.engine.shards");
        if cfg.readpath.is_some() && cfg.repl_log == 0 && matches!(cfg.role, Role::Primary) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--readpath on a primary requires --repl-log N: the fast mirror refreshes \
                 from the op-log tail",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // Seed the read-path mirror from the engines *before* they move
        // into the worker threads — a restored server's fast reads must
        // start from the restored state, not empty.
        let readpath = match cfg.readpath {
            Some(rcfg) => Some(crate::readpath::build(&cfg.engine, rcfg, &engines)?),
            None => None,
        };

        let mut txs = Vec::with_capacity(cfg.engine.shards);
        let mut workers = Vec::with_capacity(cfg.engine.shards);
        for (shard, engine) in engines.into_iter().enumerate() {
            let (queue, rx, depth) = ShardQueue::new(cfg.queue_capacity.max(1));
            txs.push(queue);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("she-shard-{shard}"))
                    .spawn(move || run_worker(engine, rx, depth))?,
            );
        }

        let (waker, waker_rx) = waker_pair()?;

        // Any server with `repl_log > 0` keeps a log — including a
        // replica, whose log stays empty while it follows but lets it
        // serve subscribers of its own the moment it is promoted.
        let log = (cfg.repl_log > 0).then(|| ReplLog::new(cfg.repl_log));
        let shared = Arc::new(Shared {
            txs,
            shutdown: AtomicBool::new(false),
            local_addr,
            engine: cfg.engine,
            retry_after_ms: cfg.retry_after_ms,
            role: cfg.role,
            log,
            hub: ReplHub::new(),
            heartbeat_ms: cfg.heartbeat_ms,
            client_deadline: (cfg.client_deadline_ms > 0)
                .then(|| Duration::from_millis(cfg.client_deadline_ms)),
            max_connections: cfg.max_connections.max(1),
            conns: AtomicUsize::new(0),
            counters: Arc::new(ServeCounters::new()),
            cluster: cfg.cluster,
            readpath,
            waker: Arc::new(waker),
            promoted: AtomicBool::new(false),
        });

        let (reactor, offload) = spawn_reactor(listener, waker_rx, Arc::clone(&shared))?;

        // The refresher tails the op log into the fast mirror. On a
        // replica the local log stays empty while following (the
        // injector feeds the mirror instead), so the thread idles until
        // a promotion starts filling the log — then it takes over.
        let refresher = match &shared.readpath {
            Some(rp) if shared.log.is_some() => {
                let shared = Arc::clone(&shared);
                let rp = Arc::clone(rp);
                Some(
                    std::thread::Builder::new()
                        .name("she-readpath-refresh".to_string())
                        .spawn(move || crate::readpath::run_refresher(&shared, &rp))?,
                )
            }
            _ => None,
        };
        Ok(Server { shared, reactor, offload, refresher, workers })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A handle that feeds this server's shard queues directly, bypassing
    /// the wire — the replica runtime's apply path. Holding an [`Injector`]
    /// keeps the shard workers alive: drop it before expecting
    /// [`Server::wait`] to finish draining.
    pub fn injector(&self) -> Injector {
        Injector {
            txs: self.shared.txs.clone(),
            cfg: self.shared.engine,
            readpath: self.shared.readpath.clone(),
        }
    }

    /// The QUERY_FAST accelerator, when enabled — how embedding runtimes
    /// and tests reach its counters and applied-sequence watermark.
    pub fn readpath(&self) -> Option<Arc<ReadPath>> {
        self.shared.readpath.clone()
    }

    /// Whether shutdown has been requested (poll-friendly; does not block
    /// or consume the handle).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Live self-protection counters (evictions, shed reads, refused
    /// connections). The handle can be cloned out and read after
    /// [`Server::join`] via the returned `Arc`.
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// Promote a replica-role server to serve writes (failover). From
    /// here on it accepts inserts, answers `REPL_BOOTSTRAP`, and reports
    /// as a primary in `CLUSTER_STATUS`; its op log (present when the
    /// server was started with `repl_log > 0`) begins at the promotion
    /// point. Idempotent; a no-op on a server that is already a primary.
    pub fn promote(&self) {
        self.shared.promoted.store(true, Ordering::SeqCst);
    }

    /// Ask the server to stop, as if a client sent `SHUTDOWN`.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Initiate shutdown, then wait for every connection to close and
    /// every queue to drain; returns the final per-shard stats.
    pub fn join(self) -> Vec<ShardStats> {
        self.shared.begin_shutdown();
        self.wait()
    }

    /// Block until something *else* stops the server (a wire `SHUTDOWN`
    /// or [`Server::shutdown`] from another thread), then drain and
    /// return the final per-shard stats.
    pub fn wait(self) -> Vec<ShardStats> {
        // The reactor exits on the shutdown flag, joining its feed
        // threads on the way out; its death drops the offload senders,
        // which lets the offload threads drain and exit.
        let _ = self.reactor.join();
        for h in self.offload {
            let _ = h.join();
        }
        // The refresher exits on the shutdown flag within one poll; it
        // must be joined before the Shared drop below, because it holds
        // its own Arc<Shared> (and with it, queue senders).
        if let Some(h) = self.refresher {
            let _ = h.join();
        }
        // Last queue senders die with this Arc; workers then drain.
        drop(self.shared);
        self.workers.into_iter().map(|w| w.join().unwrap_or_default()).collect()
    }
}

/// Releases a connection-cap reservation when its holder exits, however
/// it exits.
pub(crate) struct ConnGuard(pub(crate) Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run one replication feed on its own thread: the reactor hands over
/// the (re-blocking) socket plus any bytes it had already read past the
/// `REPL_SUBSCRIBE` frame.
pub(crate) fn serve_feed(
    stream: TcpStream,
    leftover: Vec<u8>,
    shared: &Shared,
    from_seq: u64,
    node_id: u64,
) {
    let Ok(mut write) = stream.try_clone() else { return };
    // Ack reads are a sub-millisecond poll between streaming rounds.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1)));
    let mut read = io::Cursor::new(leftover).chain(stream);
    serve_subscription(&mut read, &mut write, shared, from_seq, node_id);
}

/// Stream the op log to one subscriber: records as they arrive, ordered,
/// starting at `from_seq`; heartbeats when idle; `LOG_TRUNCATED` (then
/// hang up) when the position has fallen off the bounded log. `REPL_ACK`s
/// flow back on the same socket and update the hub for `CLUSTER_STATUS`.
/// The reader must carry a finite read timeout (see [`serve_feed`]).
fn serve_subscription<R: Read>(
    read: &mut R,
    write: &mut TcpStream,
    shared: &Shared,
    from_seq: u64,
    node_id: u64,
) {
    let Some(log) = &shared.log else {
        let _ = write_frame(
            write,
            &Response::Err(
                "replication is disabled on this server (serve with --repl-log N)".to_string(),
            )
            .encode(),
        );
        return;
    };
    let head = log.head();
    let mut next = from_seq.max(1);
    if next > head + 1 {
        let _ = write_frame(
            write,
            &Response::Err(format!("subscribe position {next} is past the log head {head}"))
                .encode(),
        );
        return;
    }
    let addr = write.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".to_string());
    // An identified subscriber is labelled `{node}@{addr}` so
    // `CLUSTER_STATUS` readers can match holders to ack positions.
    let peer = if node_id != 0 { format!("{node_id}@{addr}") } else { addr };
    let id = shared.hub.register(peer);
    let heartbeat = Duration::from_millis(shared.heartbeat_ms.max(1));
    let mut last_sent = Instant::now();
    if write_frame(write, &Response::ReplHeartbeat { head }.encode()).is_err() {
        shared.hub.deregister(id);
        return;
    }
    'feed: while !shared.shutdown.load(Ordering::SeqCst) {
        // Drain whatever acks have arrived.
        loop {
            match read_frame(read) {
                Ok(None) => break 'feed,
                Ok(Some(p)) => match Request::decode(&p) {
                    Ok(Request::ReplAck { seq }) => shared.hub.ack(id, seq),
                    _ => break 'feed, // anything else on a feed is a violation
                },
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    break
                }
                Err(_) => break 'feed,
            }
        }
        match log.wait_from(next, 64, Duration::from_millis(100)) {
            Tail::Records(records) => {
                for r in records {
                    if write_frame(write, &Response::ReplOp(r.encode()).encode()).is_err() {
                        break 'feed;
                    }
                    next = r.seq + 1;
                }
                last_sent = Instant::now();
            }
            Tail::Truncated { floor } => {
                let _ = write_frame(write, &Response::LogTruncated { floor }.encode());
                break 'feed;
            }
            Tail::Timeout => {
                if last_sent.elapsed() >= heartbeat {
                    let hb = Response::ReplHeartbeat { head: log.head() };
                    if write_frame(write, &hb.encode()).is_err() {
                        break 'feed;
                    }
                    last_sent = Instant::now();
                }
            }
        }
    }
    shared.hub.deregister(id);
}

/// Direct, wire-free access to a running server's shard queues — how the
/// replica runtime applies bootstrap state and op-log records. Uses the
/// same [`EngineConfig::partition`] as the server's own insert path, so
/// the per-shard apply order is identical to the primary's.
#[derive(Debug)]
pub struct Injector {
    txs: Vec<ShardQueue>,
    cfg: EngineConfig,
    /// The server's read path, fed in lockstep with the shard queues so
    /// a replica's fast mirror tracks its authoritative engines (the
    /// replica's own op log stays empty while it follows, so the
    /// refresher can't do it).
    readpath: Option<Arc<ReadPath>>,
}

impl Injector {
    /// The engine sizing of the server behind this injector.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Apply one op-log record's keys (blocking sends; order-preserving).
    pub fn apply(&self, stream: u8, keys: &[u64]) -> io::Result<()> {
        for (shard, ks) in self.cfg.partition(keys) {
            self.txs[shard]
                .send(Job::Batch { stream, keys: ks })
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "server stopped"))?;
        }
        if let Some(rp) = &self.readpath {
            rp.apply(stream, keys);
        }
        Ok(())
    }

    /// Replace one shard's state with a snapshot frame (bootstrap path).
    pub fn restore(&self, shard: usize, frame: &[u8]) -> io::Result<()> {
        self.shard_op(shard, |reply| Job::Restore { data: frame.to_vec(), reply })?;
        if let Some(rp) = &self.readpath {
            if rp.load(shard, frame, false).is_err() {
                rp.invalidate_all();
            }
        }
        Ok(())
    }

    /// Fold a same-placement shard snapshot into the current state
    /// (anti-entropy path; idempotent).
    pub fn merge(&self, shard: usize, frame: &[u8]) -> io::Result<()> {
        self.shard_op(shard, |reply| Job::Merge { data: frame.to_vec(), reply })?;
        if let Some(rp) = &self.readpath {
            if rp.load(shard, frame, true).is_err() {
                rp.invalidate_all();
            }
        }
        Ok(())
    }

    fn shard_op(
        &self,
        shard: usize,
        make: impl FnOnce(SyncSender<Result<(), String>>) -> Job,
    ) -> io::Result<()> {
        if shard >= self.txs.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "shard out of range"));
        }
        let (reply, rx) = sync_channel(1);
        self.txs[shard]
            .send(make(reply))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "server stopped"))?;
        match rx.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(msg)) => Err(io::Error::new(io::ErrorKind::InvalidData, msg)),
            Err(_) => Err(io::Error::new(io::ErrorKind::BrokenPipe, "server stopped")),
        }
    }
}
