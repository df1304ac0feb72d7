//! she-replica: the replica-side replication runtime for she-server.
//!
//! A [`Replica`] is a full she-server (it answers every read in the
//! protocol) whose state is a follower of a primary's:
//!
//! 1. **Bootstrap** — fetch a `REPL_BOOTSTRAP` package from the primary:
//!    a whole-server checkpoint plus the op-log sequence number it
//!    reflects, cut atomically on the primary. The replica rebuilds its
//!    shard engines from the checkpoint — no replay of history.
//! 2. **Tail** — subscribe to the primary's op log from the cut, apply
//!    each record through the embedded server's [`Injector`] (the same
//!    [`EngineConfig::partition`](she_server::EngineConfig::partition)
//!    routing as the primary's own insert path, so per-shard apply order
//!    is bit-identical), and acknowledge progress so the primary's
//!    `CLUSTER_STATUS` can report replica lag.
//! 3. **Recover** — if the feed drops, reconnect with capped exponential
//!    backoff and resume from `applied + 1`. If that position has fallen
//!    off the primary's bounded log (`LOG_TRUNCATED`, or the primary was
//!    replaced and its log restarted), take a fresh bootstrap instead of
//!    replaying — snapshot + delta, never full history.
//! 4. **Anti-entropy** (optional) — periodically fetch an atomically cut
//!    bootstrap package from the upstream primary and *fold* it in with
//!    [`ShardEngine::reconcile`](she_server::ShardEngine::reconcile)'s
//!    commutative, idempotent merge (cell-wise OR/max/min-nonzero,
//!    counter max), then advance the applied position to the cut. The
//!    sweep runs on the tail thread itself — never concurrently with
//!    feed applies — so a record is counted exactly once: everything up
//!    to the cut arrives via the merged state and the feed's duplicate
//!    skip drops it, everything after arrives via the feed. A holder
//!    that missed ops while partitioned converges this way without
//!    discarding local state.
//! 5. **Re-targeting** — when [`ReplicaConfig::follow`] names a cluster
//!    partition, every upstream dial resolves the partition's *current*
//!    primary from the shared [`ClusterDirectory`]. After a failover the
//!    next reconnect lands on the promoted node automatically; since the
//!    promoted node's log is fresh, the subscribe position is refused and
//!    the replica takes a full bootstrap from its new upstream.
//!
//! Writes sent to a replica are answered `NOT_PRIMARY` naming the
//! primary; that mapping lives in the embedded server and is driven by
//! the [`ReplicaStatus`] this runtime keeps current. Primary loss is
//! detected by heartbeat silence: the primary sends `REPL_HEARTBEAT` on
//! an idle feed, and a replica that hears nothing for
//! [`ReplicaConfig::heartbeat_timeout_ms`] declares the link dead and
//! starts reconnecting.
//!
//! See `docs/REPLICATION.md` for the protocol-level story.

// No panic and no silent truncation outside tests: a panic on the
// serving path kills a shard worker or a connection, a truncated length
// corrupts data. A deliberate exception carries
// `#[expect(<lint>, reason = "…")]` stating why it cannot fire.
#![deny(clippy::cast_possible_truncation)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response};
use she_server::repl::Record;
use she_server::{
    Backoff, Checkpoint, Client, ClusterDirectory, Injector, ReadPathConfig, ReplicaStatus, Role,
    Server, ServerConfig, ShardStats,
};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Apply-side acknowledgement cadence, in records. Acks also go out on
/// every heartbeat, so an idle feed still reports an exact position.
const ACK_EVERY: u64 = 32;

/// Read timeout on the feed socket — the granularity at which the tail
/// thread notices a stop request or heartbeat silence.
const FEED_POLL: Duration = Duration::from_millis(100);

/// How a replica joins and follows its primary.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Address the replica's own server binds; port 0 for ephemeral.
    pub listen_addr: String,
    /// The primary's address, `host:port`.
    pub primary: String,
    /// Bounded depth of each local shard queue, in jobs.
    pub queue_capacity: usize,
    /// Hint returned with local `BUSY` responses.
    pub retry_after_ms: u32,
    /// Anti-entropy merge-sweep interval in milliseconds; 0 disables
    /// periodic sweeps (a truncation-triggered repair merge still runs).
    pub anti_entropy_ms: u64,
    /// Declare the primary lost after this much feed silence. Must
    /// comfortably exceed the primary's heartbeat interval (500ms
    /// default).
    pub heartbeat_timeout_ms: u64,
    /// First reconnect delay, in milliseconds.
    pub reconnect_base_ms: u64,
    /// Reconnect delay ceiling, in milliseconds.
    pub reconnect_cap_ms: u64,
    /// Connection attempts for the *initial* bootstrap before
    /// [`Replica::start`] gives up and returns the error. Reconnects
    /// after a successful start retry forever.
    pub max_bootstrap_attempts: u32,
    /// Total deadline for each control-plane request to the primary
    /// (bootstrap fetch, anti-entropy snapshot), in milliseconds. Keeps
    /// a half-open primary from wedging a bootstrap or sweep forever.
    /// 0 disables the deadline.
    pub op_timeout_ms: u64,
    /// Depth of the embedded server's own op log, in records. The log
    /// stays empty while the replica follows (the injector bypasses it)
    /// and starts filling after [`Replica::promote`], so a promoted
    /// replica can bootstrap and feed replicas of its own. 0 keeps the
    /// pre-cluster behaviour: no log, promotion serves but cannot
    /// replicate onward.
    pub repl_log: usize,
    /// Cluster membership directory shared with the node's other
    /// servers, so the embedded server answers the
    /// `CLUSTER_JOIN`/`CLUSTER_MAP`/`CLUSTER_QUERY` ops too.
    pub cluster: Option<Arc<ClusterDirectory>>,
    /// Enable the `QUERY_FAST` read path on the embedded server. The
    /// replica's injector feeds the mirror synchronously alongside the
    /// shard queues, so fast reads track the applied position exactly;
    /// after a promotion the refresher takes over from the local log.
    pub readpath: Option<ReadPathConfig>,
    /// Follow this cluster partition's *current* primary instead of the
    /// static [`ReplicaConfig::primary`] address: every reconnect,
    /// resync, and sweep re-resolves the partition's primary from the
    /// [`ReplicaConfig::cluster`] directory, so the replica re-targets a
    /// promoted node without being restarted. Requires `cluster`.
    pub follow: Option<usize>,
    /// This replica's cluster node id, sent with `REPL_SUBSCRIBE` so the
    /// primary labels the peer `{node_id}@{addr}` in `CLUSTER_STATUS`.
    /// 0 subscribes anonymously.
    pub node_id: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            listen_addr: "127.0.0.1:0".to_string(),
            primary: String::new(),
            queue_capacity: 256,
            retry_after_ms: 2,
            anti_entropy_ms: 0,
            heartbeat_timeout_ms: 2_500,
            reconnect_base_ms: 50,
            reconnect_cap_ms: 2_000,
            max_bootstrap_attempts: 10,
            op_timeout_ms: 10_000,
            repl_log: 0,
            cluster: None,
            readpath: None,
            follow: None,
            node_id: 0,
        }
    }
}

/// Why one pass over the feed socket ended.
enum FeedEnd {
    /// Stop was requested; unwind without reconnecting.
    Stopped,
    /// Connection failed or went silent; back off and reconnect.
    Lost,
    /// Our position is unservable (log truncated, or a new primary with
    /// a shorter log); take a fresh bootstrap before resubscribing.
    /// `merge` says our state is still a *prefix* of the upstream's
    /// history (the log merely moved past us), so a commutative merge of
    /// the upstream's cut is bit-exact and cheaper than discarding local
    /// state — unless the upstream itself changed hands meanwhile.
    Resync { merge: bool },
}

/// A running replica: an embedded read-serving [`Server`] plus the
/// background threads that keep it converged with the primary.
#[derive(Debug)]
pub struct Replica {
    server: Server,
    status: Arc<ReplicaStatus>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Replica {
    /// Bootstrap from `cfg.primary` and start serving reads.
    ///
    /// Blocks until the initial snapshot is fetched, decoded, and loaded
    /// into freshly built shard engines (retrying up to
    /// [`ReplicaConfig::max_bootstrap_attempts`] times), then spawns the
    /// tail thread (which also runs the periodic anti-entropy merge
    /// sweeps, so sweeps never race feed applies) and returns.
    pub fn start(cfg: ReplicaConfig) -> io::Result<Replica> {
        let mut backoff = Backoff::from_clock(
            Duration::from_millis(cfg.reconnect_base_ms.max(1)),
            Duration::from_millis(cfg.reconnect_cap_ms.max(1)),
        );
        let (seq, ckpt) = loop {
            let upstream = upstream_addr(&cfg);
            match fetch_bootstrap(&upstream, cfg.op_timeout_ms) {
                Ok(pair) => break pair,
                Err(e) if backoff.attempts() + 1 >= cfg.max_bootstrap_attempts.max(1) => {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("bootstrap from {upstream} failed: {e}"),
                    ));
                }
                Err(_) => std::thread::sleep(backoff.next_delay()),
            }
        };
        let (engine, engines) = ckpt
            .build_engines(ckpt.cfg.shards)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;

        let status = Arc::new(ReplicaStatus::default());
        status.applied.store(seq, Ordering::SeqCst);
        status.boot_seq.store(seq, Ordering::SeqCst);

        let server = Server::start_with_engines(
            ServerConfig {
                addr: cfg.listen_addr.clone(),
                engine,
                queue_capacity: cfg.queue_capacity,
                retry_after_ms: cfg.retry_after_ms,
                role: Role::Replica { primary: cfg.primary.clone(), status: Arc::clone(&status) },
                repl_log: cfg.repl_log,
                cluster: cfg.cluster.clone(),
                readpath: cfg.readpath,
                ..Default::default()
            },
            engines,
        )?;

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        {
            let (cfg, injector) = (cfg.clone(), server.injector());
            let (status, stop) = (Arc::clone(&status), Arc::clone(&stop));
            // audit:allow(growth): fixed worker set — one tail thread per replica
            threads.push(
                std::thread::Builder::new()
                    .name("she-repl-tail".into())
                    .spawn(move || run_tail(&cfg, &injector, &status, &stop))?,
            );
        }
        Ok(Replica { server, status, stop, threads })
    }

    /// The replica server's bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The live link state (applied position, connectedness, boot cut).
    pub fn status(&self) -> &Arc<ReplicaStatus> {
        &self.status
    }

    /// Ask the replica to stop, as if a client sent `SHUTDOWN`.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }

    /// Promote this replica to a serving primary: stop following (the
    /// tail and anti-entropy threads are joined, so no stale record can
    /// arrive after the flip), then switch the embedded server to accept
    /// writes. Returns the address the promoted server serves on, for
    /// the new cluster map.
    ///
    /// The replica's state at the flip is exactly the records it
    /// acknowledged — deterministic failover needs callers to quiesce or
    /// accept the acknowledged cut as the new history.
    pub fn promote(&mut self) -> std::net::SocketAddr {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.server.promote();
        self.local_addr()
    }

    /// Block until something stops the replica (a wire `SHUTDOWN` or
    /// [`Replica::shutdown`]), then unwind: stop the replication
    /// threads, join them (releasing their [`Injector`]s so the shard
    /// queues can drain), and join the embedded server.
    pub fn wait(self) -> Vec<ShardStats> {
        while !self.server.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(25));
        }
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            let _ = t.join();
        }
        self.server.wait()
    }

    /// [`Replica::shutdown`] then [`Replica::wait`].
    pub fn join(self) -> Vec<ShardStats> {
        self.shutdown();
        self.wait()
    }
}

/// Fetch and decode one bootstrap package from the primary.
fn fetch_bootstrap(primary: &str, op_timeout_ms: u64) -> io::Result<(u64, Checkpoint)> {
    let mut client = Client::connect(primary)?;
    client.set_op_timeout(op_timeout(op_timeout_ms))?;
    client.hello()?;
    let (seq, bytes) = client.repl_bootstrap()?;
    let ckpt = Checkpoint::decode(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((seq, ckpt))
}

/// Re-bootstrap a *live* replica in place: restore every shard through
/// the injector, then move the applied position to the new cut.
fn resync(
    primary: &str,
    op_timeout_ms: u64,
    injector: &Injector,
    status: &ReplicaStatus,
) -> io::Result<()> {
    let (seq, ckpt) = fetch_bootstrap(primary, op_timeout_ms)?;
    if ckpt.cfg != *injector.config() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "primary engine config changed; restart the replica to re-shard",
        ));
    }
    for (shard, frame) in ckpt.shards.iter().enumerate() {
        injector.restore(shard, frame)?;
    }
    status.boot_seq.store(seq, Ordering::SeqCst);
    status.applied.store(seq, Ordering::SeqCst);
    Ok(())
}

/// Sleep `total`, checking `stop` every few tens of milliseconds.
fn sleep_unless_stopped(total: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::SeqCst) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
}

/// The tail thread: subscribe, apply, ack; reconnect with backoff on
/// loss; repair-merge or re-bootstrap on truncation. Runs until `stop`.
/// Every pass re-resolves the upstream, so a mapped failover re-targets
/// the feed at the promoted primary.
fn run_tail(cfg: &ReplicaConfig, injector: &Injector, status: &ReplicaStatus, stop: &AtomicBool) {
    let mut backoff = Backoff::from_clock(
        Duration::from_millis(cfg.reconnect_base_ms.max(1)),
        Duration::from_millis(cfg.reconnect_cap_ms.max(1)),
    );
    while !stop.load(Ordering::SeqCst) {
        let upstream = upstream_addr(cfg);
        let end = feed_once(cfg, &upstream, injector, status, stop, &mut backoff);
        status.connected.store(false, Ordering::SeqCst);
        match end {
            FeedEnd::Stopped => break,
            FeedEnd::Lost => sleep_unless_stopped(backoff.next_delay(), stop),
            FeedEnd::Resync { merge } => {
                // If the upstream changed hands while we were feeding, our
                // unacknowledged suffix may not be a prefix of the *new*
                // primary's history — a merge would preserve the divergent
                // suffix forever. Only merge when it is still the same
                // upstream; otherwise replace wholesale.
                let now = upstream_addr(cfg);
                let repaired = if merge && now == upstream {
                    merge_sweep(&now, cfg.op_timeout_ms, injector, status).map(|_| ())
                } else {
                    resync(&now, cfg.op_timeout_ms, injector, status)
                };
                if repaired.is_ok() {
                    backoff.reset();
                } else {
                    sleep_unless_stopped(backoff.next_delay(), stop);
                }
            }
        }
    }
    status.connected.store(false, Ordering::SeqCst);
}

/// Send one `REPL_ACK` up the feed socket.
fn send_ack(sock: &mut TcpStream, seq: u64) -> io::Result<()> {
    write_frame(sock, &Request::ReplAck { seq }.encode())
}

/// One connection's worth of tailing: connect to `upstream`, subscribe
/// from `applied + 1`, then apply records until the feed ends. Quiet
/// stretches run the periodic anti-entropy merge sweep and watch for the
/// cluster map re-targeting the partition elsewhere.
fn feed_once(
    cfg: &ReplicaConfig,
    upstream: &str,
    injector: &Injector,
    status: &ReplicaStatus,
    stop: &AtomicBool,
    backoff: &mut Backoff,
) -> FeedEnd {
    let Ok(mut client) = Client::connect(upstream) else {
        return FeedEnd::Lost;
    };
    if client.hello().is_err() {
        return FeedEnd::Lost;
    }
    let mut applied = status.applied.load(Ordering::SeqCst);
    let Ok(mut sock) = client.subscribe(applied + 1, cfg.node_id) else {
        return FeedEnd::Lost;
    };
    if sock.set_read_timeout(Some(FEED_POLL)).is_err() {
        return FeedEnd::Lost;
    }

    let timeout = Duration::from_millis(cfg.heartbeat_timeout_ms.max(1));
    let sweep_every = (cfg.anti_entropy_ms > 0).then(|| Duration::from_millis(cfg.anti_entropy_ms));
    let mut last_sweep = Instant::now();
    let mut last_heard = Instant::now();
    let mut unacked = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            return FeedEnd::Stopped;
        }
        match read_frame(&mut sock) {
            Ok(Some(payload)) => {
                last_heard = Instant::now();
                let Ok(resp) = Response::decode(&payload) else {
                    return FeedEnd::Lost;
                };
                match resp {
                    Response::ReplOp(data) => {
                        let Ok(rec) = Record::decode(&data) else {
                            return FeedEnd::Lost;
                        };
                        if rec.seq <= applied {
                            continue; // duplicate after a reconnect race
                        }
                        if rec.seq != applied + 1 {
                            // Gap: the log moved under us but the upstream is
                            // unchanged, so a repair merge is bit-exact.
                            return FeedEnd::Resync { merge: true };
                        }
                        if injector.apply(rec.stream, &rec.keys).is_err() {
                            return FeedEnd::Stopped; // local server unwinding
                        }
                        applied = rec.seq;
                        status.applied.store(applied, Ordering::SeqCst);
                        status.connected.store(true, Ordering::SeqCst);
                        backoff.reset();
                        unacked += 1;
                        if unacked >= ACK_EVERY {
                            if send_ack(&mut sock, applied).is_err() {
                                return FeedEnd::Lost;
                            }
                            unacked = 0;
                        }
                    }
                    Response::ReplHeartbeat { .. } => {
                        status.connected.store(true, Ordering::SeqCst);
                        backoff.reset();
                        if send_ack(&mut sock, applied).is_err() {
                            return FeedEnd::Lost;
                        }
                        unacked = 0;
                    }
                    // Truncation from the *same* primary means our state is
                    // still a prefix of its history — repair by merge.
                    Response::LogTruncated { .. } => return FeedEnd::Resync { merge: true },
                    // The primary refuses this position (e.g. a replacement
                    // primary whose fresh log is shorter than our history):
                    // a fresh snapshot is the only way back in sync.
                    Response::Err(_) => return FeedEnd::Resync { merge: false },
                    _ => return FeedEnd::Lost,
                }
            }
            Ok(None) => return FeedEnd::Lost, // primary hung up
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if last_heard.elapsed() >= timeout {
                    return FeedEnd::Lost; // heartbeat silence: primary is gone
                }
                // The cluster map moved the partition: chase the new
                // primary instead of idling on the old feed.
                if cfg.follow.is_some() && upstream_addr(cfg) != upstream {
                    return FeedEnd::Lost;
                }
                if let Some(every) = sweep_every {
                    if last_sweep.elapsed() >= every {
                        last_sweep = Instant::now();
                        if let Ok(cut) = merge_sweep(upstream, cfg.op_timeout_ms, injector, status)
                        {
                            applied = applied.max(cut);
                            last_heard = Instant::now(); // a sweep proves liveness
                        }
                    }
                }
            }
            Err(_) => return FeedEnd::Lost,
        }
    }
}

/// The per-request deadline as a `Duration`, if enabled.
fn op_timeout(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// The address this replica should follow *right now*: the current
/// primary of the followed partition when [`ReplicaConfig::follow`] and
/// a cluster directory are wired in, else the static configured primary.
fn upstream_addr(cfg: &ReplicaConfig) -> String {
    if let (Some(part), Some(dir)) = (cfg.follow, cfg.cluster.as_ref()) {
        if let Some(p) = dir.get().partitions.get(part) {
            return p.primary.addr.clone();
        }
    }
    cfg.primary.clone()
}

/// One cluster-aware anti-entropy pass: fetch an *atomically cut*
/// bootstrap package from the upstream and fold every shard frame into
/// the local engines with the commutative time-mark merge, then advance
/// the applied position to the cut.
///
/// Correctness leans on two facts. First, this runs only on the tail
/// thread, so no feed record is applied concurrently with the merge.
/// Second, the local state is a prefix of the same upstream's history,
/// and the time-mark reconcile of a prefix into the full state at the
/// cut yields exactly the state at the cut — so after the merge the
/// replica *is* the upstream at `seq`, and the feed's duplicate skip
/// (`rec.seq <= applied`) discards every in-flight record the merge
/// already covered. Nothing is counted twice. Returns the cut.
fn merge_sweep(
    upstream: &str,
    op_timeout_ms: u64,
    injector: &Injector,
    status: &ReplicaStatus,
) -> io::Result<u64> {
    let (seq, ckpt) = fetch_bootstrap(upstream, op_timeout_ms)?;
    if ckpt.cfg != *injector.config() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "upstream engine config changed; restart the replica to re-shard",
        ));
    }
    for (shard, frame) in ckpt.shards.iter().enumerate() {
        injector.merge(shard, frame)?;
    }
    status.applied.fetch_max(seq, Ordering::SeqCst);
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = ReplicaConfig::default();
        assert!(cfg.heartbeat_timeout_ms > 500, "timeout must exceed the heartbeat interval");
        assert!(cfg.reconnect_base_ms <= cfg.reconnect_cap_ms);
        assert!(cfg.max_bootstrap_attempts >= 1);
    }

    #[test]
    fn bootstrap_against_nothing_fails_fast() {
        // A refused connection must come back as an error, not a hang.
        let cfg = ReplicaConfig {
            primary: "127.0.0.1:1".to_string(),
            max_bootstrap_attempts: 2,
            reconnect_base_ms: 1,
            reconnect_cap_ms: 2,
            ..Default::default()
        };
        let err = match Replica::start(cfg) {
            Ok(_) => panic!("bootstrap against a closed port must fail"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("bootstrap from 127.0.0.1:1 failed"), "{err}");
    }
}
