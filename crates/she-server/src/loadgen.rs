//! Workload driver for a running she-server: batched Zipf inserts with
//! interleaved queries, per-op latency histograms, and an optional
//! in-process mirror engine that checks every server answer bit-for-bit.
//!
//! Two pacing modes:
//!
//! * **closed-loop** — send the next request the moment the previous
//!   response lands; measures the server's saturated throughput.
//! * **open-loop** — each batch has a scheduled departure at the target
//!   rate, and latency is measured *from the schedule*, so server-side
//!   queueing shows up in the tail instead of silently stretching the
//!   run (coordinated-omission-safe).
//!
//! Verification works because everything is deterministic: one
//! connection, FIFO shard queues, and a seeded workload mean the server
//! applies exactly the per-shard insert order the mirror sees, so
//! matching answers must be bit-identical, not merely close.

use crate::client::Client;
use crate::cluster::{cluster_op, ClusterMap};
use crate::protocol::{ReadpathStatus, Response, MAX_BATCH};
use she_core::convert::usize_of;
use she_core::sharded::{DirectEngine, EngineConfig};
use she_hash::{mix64, Xoshiro256};
use she_metrics::{LatencyHistogram, NetReport};
use she_readpath::op as fast_op;
use she_streams::{CaidaLike, KeyStream, Zipf};
use std::io;
use std::time::{Duration, Instant};

/// Pacing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Back-to-back requests.
    Closed,
    /// Scheduled departures at `items_per_sec` inserted items per second.
    Open { items_per_sec: f64 },
}

/// A loadgen run description.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Total items to insert (streams A and B combined).
    pub items: u64,
    /// Keys per `INSERT_BATCH` frame.
    pub batch: usize,
    /// Total queries to interleave (cycling member/freq/card/sim).
    pub queries: u64,
    /// Pacing policy.
    pub mode: Mode,
    /// Zipf key universe.
    pub universe: usize,
    /// Zipf skew.
    pub skew: f64,
    /// Workload seed.
    pub seed: u64,
    /// Every `sim_every`-th batch feeds stream B (0 = never).
    pub sim_every: u64,
    /// Mirror the stream through an in-process [`DirectEngine`] with this
    /// sizing (must match the server's) and compare every answer.
    pub verify: Option<EngineConfig>,
    /// Send queries to this address instead of `addr` — the read-scaling
    /// pattern: inserts go to the primary, reads to a replica.
    pub read_from: Option<String>,
    /// Concurrent connections. Above 1 the run fans out over threads,
    /// each driving its own slice of the workload on its own connection,
    /// and the summary merges their latency histograms.
    pub connections: usize,
    /// Cluster mode: fetch the partition map from this seed node, route
    /// each batch's keys to their owning partition primary, and issue
    /// queries as scatter-gather `CLUSTER_QUERY`s. On a leg failure the
    /// map is re-fetched and the op retried, so the run rides through a
    /// failover without restarting. `addr` is ignored.
    pub cluster: Option<String>,
    /// Issue point queries (member/freq) in batches of this many keys per
    /// round trip — `QUERY_BATCH` against one server,
    /// `CLUSTER_QUERY_BATCH` in cluster mode. 0 keeps them one-per-frame.
    /// Card/sim queries stay single either way.
    pub query_batch: usize,
    /// Fault-injection mode: `addr` is assumed to be a flaky path (a
    /// chaos proxy) to the server *really* listening here. On an insert
    /// transport error the run reconnects and uses this address's op-log
    /// head to decide, exactly-once, whether the batch landed before the
    /// fault or must be resent — so `--verify` stays bit-for-bit sound
    /// through injected resets. Requires a single connection and a server
    /// running with `--repl-log` (the head is the ledger).
    pub resync_addr: Option<String>,
    /// Fraction of operations issued as `QUERY_FAST` reads, by item
    /// count: after each insert batch the run owes
    /// `items * ratio / (1 - ratio)` fast reads, so `0.95` yields the
    /// canonical 95/5 read-heavy mix. 0 disables the profile. Fast-read
    /// keys come from a *separate* seeded Zipf([`read_skew`][s]) draw
    /// over the same universe and key permutation as the writes, so the
    /// whole profile is reproducible from `seed` alone. Incompatible
    /// with `--verify` (fast answers are cache-served and only
    /// *bounded*-stale mid-stream) and with cluster mode (`QUERY_FAST`
    /// is single-server).
    ///
    /// [s]: LoadgenConfig::read_skew
    pub read_ratio: f64,
    /// Zipf exponent of the fast-read key distribution. Hot-key
    /// repetition is what exercises the server's mark cache; higher skew
    /// means higher hit rates.
    pub read_skew: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7487".to_string(),
            items: 200_000,
            batch: 512,
            queries: 2_000,
            mode: Mode::Closed,
            universe: 100_000,
            skew: 1.05,
            seed: 1,
            sim_every: 8,
            verify: None,
            read_from: None,
            connections: 1,
            cluster: None,
            query_batch: 0,
            resync_addr: None,
            read_ratio: 0.0,
            read_skew: 1.1,
        }
    }
}

/// What a run did, with per-class latency.
#[derive(Debug)]
pub struct LoadSummary {
    /// Insert-side report (ops = batches, items = keys).
    pub insert: NetReport,
    /// Query-side report (ops = items = queries).
    pub query: NetReport,
    /// Fast-read report (ops = items = `QUERY_FAST`s; all zero unless
    /// the run used `read_ratio`).
    pub fast: NetReport,
    /// Server-side mark-cache hit rate over this run's window, from
    /// `CLUSTER_STATUS` counter deltas — `None` when the profile was off,
    /// the server's read path is disabled, or no fast read was counted.
    pub fast_hit_rate: Option<f64>,
    /// Queries whose answers were checked against the mirror.
    pub verified: u64,
    /// Checked answers that differed (must be 0 on a healthy run).
    pub mismatches: u64,
    /// `BUSY` backpressure rejections absorbed by the client.
    pub busy_retries: u64,
    /// Reconnects performed while riding through injected faults.
    pub reconnects: u64,
    /// Whole-run wall clock.
    pub wall: Duration,
}

impl LoadSummary {
    /// Render the ops/s + latency table.
    pub fn print(&self) {
        println!("{}", NetReport::header());
        println!("{}", self.insert.line());
        println!("{}", self.query.line());
        if self.fast.ops > 0 {
            println!("{}", self.fast.line());
        }
        let hit_rate = match self.fast_hit_rate {
            Some(r) => format!("  fast_hit_rate={r:.3}"),
            None => String::new(),
        };
        println!(
            "wall={:.2}s  busy_retries={}  reconnects={}  verified={}  mismatches={}{}",
            self.wall.as_secs_f64(),
            self.busy_retries,
            self.reconnects,
            self.verified,
            self.mismatches,
            hit_rate
        );
    }
}

/// Per-leg connect/op timeout in cluster mode: a dead primary must fail
/// the op quickly so the reroute loop can fetch a newer map.
const CLUSTER_LEG_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a cluster op keeps rerouting before giving up — generously
/// above the cluster's heartbeat timeout so a failover completes within
/// the window.
const CLUSTER_REROUTE_WINDOW: Duration = Duration::from_secs(30);

/// Cluster-mode connection set: the partition map plus one lazily-opened
/// connection per partition primary.
///
/// Inserts are routed per key (order preserved within each partition, so
/// the per-shard suborder matches what a single sharded engine would
/// see); queries go out as `CLUSTER_QUERY` through the partition-0
/// primary acting as coordinator. Any leg failure drops the connections,
/// re-fetches the map from every node still known, and retries until
/// [`CLUSTER_REROUTE_WINDOW`] expires — which is how the loadgen keeps
/// verifying straight through a primary kill. Insert retries are
/// at-least-once per *leg* (never the whole batch), so a retry after a
/// failed connect cannot double-apply keys on the legs that already took
/// theirs.
struct ClusterConns {
    seed: String,
    map: ClusterMap,
    legs: Vec<Option<Client>>,
    /// `busy_retries` harvested from legs already dropped by reroutes.
    retired_busy: u64,
}

impl ClusterConns {
    fn connect(seed: &str) -> io::Result<ClusterConns> {
        let mut c = Client::connect_timeout(seed, CLUSTER_LEG_TIMEOUT)?;
        let map = c.cluster_map()?;
        if map.partitions.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "cluster map is empty"));
        }
        let legs = (0..map.partitions.len()).map(|_| None).collect();
        Ok(ClusterConns { seed: seed.to_string(), map, legs, retired_busy: 0 })
    }

    fn leg(&mut self, p: usize) -> io::Result<&mut Client> {
        if self.legs[p].is_none() {
            let addr = &self.map.partitions[p].primary.addr;
            self.legs[p] = Some(Client::connect_timeout(addr, CLUSTER_LEG_TIMEOUT)?);
        }
        match self.legs[p].as_mut() {
            Some(c) => Ok(c),
            None => Err(io::Error::other("cluster leg vanished")),
        }
    }

    /// Drop every connection and adopt the newest map any reachable node
    /// will hand over (the seed stays in the candidate list even when it
    /// has fallen out of the map).
    fn refresh(&mut self) {
        for leg in &mut self.legs {
            if let Some(c) = leg.take() {
                self.retired_busy += c.busy_retries;
            }
        }
        let mut addrs: Vec<String> = vec![self.seed.clone()];
        // audit:allow(growth): one candidate address per cluster-map entry
        for part in &self.map.partitions {
            addrs.push(part.primary.addr.clone());
            for r in &part.replicas {
                addrs.push(r.addr.clone());
            }
        }
        for addr in addrs {
            if let Ok(mut c) = Client::connect_timeout(&addr, CLUSTER_LEG_TIMEOUT) {
                if let Ok(m) = c.cluster_map() {
                    if m.supersedes(&self.map) {
                        self.map = m;
                    }
                }
            }
        }
        self.legs = (0..self.map.partitions.len()).map(|_| None).collect();
    }

    /// Run `f` until it succeeds or the reroute window closes, refreshing
    /// the map between attempts.
    fn retrying<T>(&mut self, mut f: impl FnMut(&mut Self) -> io::Result<T>) -> io::Result<T> {
        let deadline = Instant::now() + CLUSTER_REROUTE_WINDOW;
        loop {
            match f(self) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(100));
                    self.refresh();
                }
            }
        }
    }

    fn insert_batch(&mut self, stream: u8, keys: &[u64]) -> io::Result<()> {
        let parts = self.map.partitions.len();
        let mut by_part: Vec<Vec<u64>> = vec![Vec::new(); parts];
        for &k in keys {
            // Bounded by the batch size: every key lands in exactly one
            // partition bucket.
            by_part[self.map.partition_of(k)].push(k); // audit:allow(growth): batch-bounded scatter buffer
        }
        for (p, sub) in by_part.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            self.retrying(|me| me.leg(p)?.insert_batch(stream, sub))?;
        }
        Ok(())
    }

    fn query(&mut self, op: u8, key: u64) -> io::Result<Response> {
        self.retrying(|me| me.leg(0)?.cluster_query(op, key))
    }

    fn query_batch(&mut self, op: u8, keys: &[u64]) -> io::Result<Vec<u64>> {
        self.retrying(|me| me.leg(0)?.cluster_query_batch(op, keys))
    }

    fn busy_retries(&self) -> u64 {
        self.retired_busy + self.legs.iter().flatten().map(|c| c.busy_retries).sum::<u64>()
    }
}

/// How many reconnect-and-resync laps a faulted op gets before the run
/// gives up. With [`FAULT_BACKOFF`] this tolerates a couple of seconds of
/// continuous chaos per op.
const FAULT_RETRIES: usize = 40;
/// Pause between fault-recovery laps — also the grace the server gets to
/// finish applying a frame that was delivered right before the fault, so
/// the head poll observes its final verdict.
const FAULT_BACKOFF: Duration = Duration::from_millis(50);
/// Connect + per-op bound on every connection of a fault-riding run, the
/// first one included: a request an injected fault swallowed must fail
/// the op (and start recovery) rather than wait out the server's
/// stalled-client eviction.
const FAULT_OP_TIMEOUT: Duration = Duration::from_secs(5);

/// Ask the server (over a *direct*, non-flaky connection) for its op-log
/// head. A fresh connection per poll: the whole point is that the usual
/// path is unreliable.
fn poll_head(status_addr: &str) -> io::Result<u64> {
    let mut c = Client::connect_timeout(status_addr, FAULT_OP_TIMEOUT)?;
    Ok(c.cluster_status()?.head)
}

/// Exactly-once insert recovery over a flaky transport.
///
/// The server's op log assigns one sequence number per applied
/// `INSERT_BATCH` frame, so `head - head0` is a ledger of how many of our
/// frames actually landed (the run must own the server exclusively and
/// the server must run with an op log). When an insert errors mid-flight
/// the response is lost but the outcome is not ambiguous: reconnect, poll
/// the head over the direct address, and either the frame applied (count
/// it, move on) or it did not (resend it). Calls larger than `MAX_BATCH`
/// split into several frames client-side; the head tells us how many
/// landed, so only the missing tail is resent.
struct Resilient {
    /// The flaky (proxied) address all real traffic uses.
    addr: String,
    /// The server's direct address, used only for head polls.
    status_addr: String,
    /// Op-log head before this run sent anything.
    head0: u64,
    /// Frames known applied by the server on our behalf.
    committed: u64,
    /// `busy_retries` harvested from connections dropped mid-run.
    retired_busy: u64,
    /// Reconnects performed so far.
    reconnects: u64,
}

impl Resilient {
    fn new(flaky_addr: &str, status_addr: &str) -> io::Result<Resilient> {
        let head0 = poll_head(status_addr)?;
        Ok(Resilient {
            addr: flaky_addr.to_string(),
            status_addr: status_addr.to_string(),
            head0,
            committed: 0,
            retired_busy: 0,
            reconnects: 0,
        })
    }

    /// Replace a dead flaky connection with a fresh one, keeping its
    /// busy-retry tally. Returns false when even the connect faulted.
    fn reconnect(&mut self, client: &mut Client) -> bool {
        match Client::connect_timeout(&self.addr, FAULT_OP_TIMEOUT) {
            Ok(fresh) => {
                let dead = std::mem::replace(client, fresh);
                self.retired_busy += dead.busy_retries;
                self.reconnects += 1;
                true
            }
            Err(_) => false,
        }
    }

    fn insert_batch(&mut self, client: &mut Client, stream: u8, keys: &[u64]) -> io::Result<()> {
        // Frames this call produces on the wire (the client splits
        // oversize key sets).
        let frames = keys.len().div_ceil(MAX_BATCH.max(1)).max(1) as u64;
        let first = match client.insert_batch(stream, keys) {
            Ok(_) => {
                self.committed += frames;
                return Ok(());
            }
            Err(e) => e,
        };
        for _ in 0..FAULT_RETRIES {
            std::thread::sleep(FAULT_BACKOFF);
            if !self.reconnect(client) {
                continue;
            }
            let head = match poll_head(&self.status_addr) {
                Ok(h) => h,
                Err(_) => continue,
            };
            let Some(applied) = head.checked_sub(self.head0 + self.committed) else {
                return Err(io::Error::other(format!(
                    "op-log head went backwards under faults: head {head}, committed {} ({first})",
                    self.head0 + self.committed
                )));
            };
            if applied > frames {
                return Err(io::Error::other(format!(
                    "op-log head diverged under faults: {applied} frames applied, \
                     at most {frames} in flight ({first})"
                )));
            }
            if applied == frames {
                // Every frame landed; only the response was lost.
                self.committed += frames;
                return Ok(());
            }
            // Resend the frames the ledger says are missing. Another
            // fault here just means the next lap re-reads the head.
            let resend = &keys[(usize_of(applied) * MAX_BATCH.max(1)).min(keys.len())..];
            if client.insert_batch(stream, resend).is_ok() {
                self.committed += frames;
                return Ok(());
            }
        }
        Err(io::Error::other(format!(
            "insert did not recover after {FAULT_RETRIES} reconnect attempts ({first})"
        )))
    }
}

/// Run a read-only op on the flaky connection, reconnect-retrying it when
/// fault recovery is armed (queries are idempotent, so plain resend is
/// sound — no ledger needed).
fn read_retry<T>(
    client: &mut Client,
    faulted: &mut Option<Resilient>,
    f: impl Fn(&mut Client) -> io::Result<T>,
) -> io::Result<T> {
    let first = match f(client) {
        Ok(v) => return Ok(v),
        Err(e) => e,
    };
    let Some(r) = faulted.as_mut() else { return Err(first) };
    for _ in 0..FAULT_RETRIES {
        std::thread::sleep(FAULT_BACKOFF);
        if !r.reconnect(client) {
            continue;
        }
        if let Ok(v) = f(client) {
            return Ok(v);
        }
    }
    Err(io::Error::other(format!(
        "query did not recover after {FAULT_RETRIES} reconnect attempts ({first})"
    )))
}

/// Where a run's requests go: one server (optionally with a separate
/// read connection, optionally with fault recovery) or a whole cluster.
enum Sink {
    Single { client: Client, reads: Option<Client>, faulted: Option<Resilient> },
    Cluster(ClusterConns),
}

impl Sink {
    fn insert_batch(&mut self, stream: u8, keys: &[u64]) -> io::Result<()> {
        match self {
            Sink::Single { client, faulted: Some(r), .. } => r.insert_batch(client, stream, keys),
            Sink::Single { client, .. } => client.insert_batch(stream, keys).map(|_| ()),
            Sink::Cluster(c) => c.insert_batch(stream, keys),
        }
    }

    fn query_member(&mut self, key: u64) -> io::Result<bool> {
        match self {
            Sink::Single { client, reads, faulted } => match reads.as_mut() {
                Some(r) => r.query_member(key),
                None => read_retry(client, faulted, |c| c.query_member(key)),
            },
            Sink::Cluster(c) => match c.query(cluster_op::MEMBER, key)? {
                Response::Bool(b) => Ok(b),
                other => Err(io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
            },
        }
    }

    fn query_freq(&mut self, key: u64) -> io::Result<u64> {
        match self {
            Sink::Single { client, reads, faulted } => match reads.as_mut() {
                Some(r) => r.query_freq(key),
                None => read_retry(client, faulted, |c| c.query_freq(key)),
            },
            Sink::Cluster(c) => match c.query(cluster_op::FREQ, key)? {
                Response::U64(v) => Ok(v),
                other => Err(io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
            },
        }
    }

    fn query_card(&mut self) -> io::Result<f64> {
        match self {
            Sink::Single { client, reads, faulted } => match reads.as_mut() {
                Some(r) => r.query_card(),
                None => read_retry(client, faulted, |c| c.query_card()),
            },
            Sink::Cluster(c) => match c.query(cluster_op::CARD, 0)? {
                Response::F64(v) => Ok(v),
                other => Err(io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
            },
        }
    }

    fn query_sim(&mut self) -> io::Result<f64> {
        match self {
            Sink::Single { client, reads, faulted } => match reads.as_mut() {
                Some(r) => r.query_sim(),
                None => read_retry(client, faulted, |c| c.query_sim()),
            },
            Sink::Cluster(c) => match c.query(cluster_op::SIM, 0)? {
                Response::F64(v) => Ok(v),
                other => Err(io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
            },
        }
    }

    /// Batched point queries: one round trip for N keys — `QUERY_BATCH`
    /// against one server, `CLUSTER_QUERY_BATCH` through the coordinator
    /// in cluster mode.
    fn query_batch(&mut self, op: u8, keys: &[u64]) -> io::Result<Vec<u64>> {
        match self {
            Sink::Single { client, reads, faulted } => match reads.as_mut() {
                Some(r) => r.query_batch(op, keys),
                None => read_retry(client, faulted, |c| c.query_batch(op, keys)),
            },
            Sink::Cluster(c) => c.query_batch(op, keys),
        }
    }

    /// One `QUERY_FAST`, on the read connection when one is open.
    /// The answer value is discarded — the read-heavy profile measures
    /// latency and server-side cache behaviour, not correctness (that is
    /// `readpath_e2e.rs`'s job, at quiescence where the bound is exact).
    fn query_fast(&mut self, op: u8, key: u64) -> io::Result<()> {
        match self {
            Sink::Single { client, reads, faulted } => match reads.as_mut() {
                Some(r) => r.query_fast(op, key).map(|_| ()),
                None => read_retry(client, faulted, |c| c.query_fast(op, key)).map(|_| ()),
            },
            Sink::Cluster(_) => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, "QUERY_FAST is single-server"))
            }
        }
    }

    fn busy_retries(&self) -> u64 {
        match self {
            Sink::Single { client, faulted, .. } => {
                client.busy_retries + faulted.as_ref().map_or(0, |r| r.retired_busy)
            }
            Sink::Cluster(c) => c.busy_retries(),
        }
    }

    fn reconnects(&self) -> u64 {
        match self {
            Sink::Single { faulted, .. } => faulted.as_ref().map_or(0, |r| r.reconnects),
            Sink::Cluster(_) => 0,
        }
    }
}

/// Book-keeping for the query side of a run.
struct QuerySide {
    lat: LatencyHistogram,
    sent: u64,
    verified: u64,
    mismatches: u64,
}

impl QuerySide {
    /// Issue one query (kind cycles member → freq → card → sim), check it
    /// against the mirror when one is present, and time it.
    fn issue(
        &mut self,
        sink: &mut Sink,
        mirror: &mut Option<DirectEngine>,
        key: u64,
    ) -> io::Result<()> {
        let t = Instant::now();
        let (got_bits, want_bits) = match self.sent % 4 {
            0 => {
                let got = sink.query_member(key)?;
                (got as u64, mirror.as_mut().map(|m| m.member(key) as u64))
            }
            1 => {
                let got = sink.query_freq(key)?;
                (got, mirror.as_mut().map(|m| m.frequency(key)))
            }
            2 => {
                let got = sink.query_card()?;
                (got.to_bits(), mirror.as_mut().map(|m| m.cardinality().to_bits()))
            }
            _ => {
                let got = sink.query_sim()?;
                (got.to_bits(), mirror.as_mut().map(|m| m.similarity().to_bits()))
            }
        };
        self.lat.record(t.elapsed());
        self.sent += 1;
        if let Some(want) = want_bits {
            self.verified += 1;
            self.mismatches += (got_bits != want) as u64;
        }
        Ok(())
    }

    /// Like [`QuerySide::issue`], but when `cfg.query_batch > 0` the two
    /// point-query slots of the member → freq → card → sim cycle go out
    /// as one batched round trip over `cfg.query_batch` derived keys.
    /// Card/sim have no batched form and keep their single frames.
    fn issue_any(
        &mut self,
        sink: &mut Sink,
        mirror: &mut Option<DirectEngine>,
        key: u64,
        cfg: &LoadgenConfig,
    ) -> io::Result<()> {
        if cfg.query_batch == 0 {
            return self.issue(sink, mirror, key);
        }
        match self.sent % 4 {
            0 => self.issue_batch(sink, mirror, key, cluster_op::MEMBER, cfg),
            1 => self.issue_batch(sink, mirror, key, cluster_op::FREQ, cfg),
            _ => self.issue(sink, mirror, key),
        }
    }

    /// One batched point query: `cfg.query_batch` keys derived
    /// deterministically from the anchor key and the query counter (so
    /// every connection and every rerun probes the same key set), each
    /// answer checked against the mirror when one is present.
    fn issue_batch(
        &mut self,
        sink: &mut Sink,
        mirror: &mut Option<DirectEngine>,
        key: u64,
        op: u8,
        cfg: &LoadgenConfig,
    ) -> io::Result<()> {
        let universe = cfg.universe.max(2) as u64;
        let keys: Vec<u64> = (0..cfg.query_batch as u64)
            .map(|j| mix64(key ^ (self.sent << 32) ^ j) % universe)
            .collect();
        let t = Instant::now();
        let got = sink.query_batch(op, &keys)?;
        self.lat.record(t.elapsed());
        self.sent += 1;
        if got.len() != keys.len() {
            return Err(io::Error::other(format!(
                "batched query returned {} values for {} keys",
                got.len(),
                keys.len()
            )));
        }
        if let Some(m) = mirror.as_mut() {
            for (&k, &g) in keys.iter().zip(&got) {
                let want =
                    if op == cluster_op::MEMBER { u64::from(m.member(k)) } else { m.frequency(k) };
                self.verified += 1;
                self.mismatches += (g != want) as u64;
            }
        }
        Ok(())
    }
}

/// Read the server's read-path counters, or `None` when the server
/// is unreachable or serves without `--readpath`.
fn poll_readpath(addr: &str) -> Option<ReadpathStatus> {
    let mut c = Client::connect_timeout(addr, Duration::from_secs(5)).ok()?;
    let info = c.cluster_status().ok()?;
    info.readpath.enabled.then_some(info.readpath)
}

/// Drive the workload against `cfg.addr` (queries against
/// `cfg.read_from` when set), fanning out over `cfg.connections`
/// threads. Returns an error on transport failure; verification
/// mismatches are *reported*, not fatal (callers check
/// [`LoadSummary::mismatches`]).
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadSummary> {
    if cfg.read_ratio != 0.0 {
        if !(0.0..1.0).contains(&cfg.read_ratio) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--read-ratio must be in [0, 1)",
            ));
        }
        if cfg.verify.is_some() {
            // Mid-stream fast answers are cache-served under a staleness
            // *bound*, not bit-for-bit; `readpath_e2e.rs` verifies them at
            // quiescence instead.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--verify checks authoritative answers; it cannot run with --read-ratio",
            ));
        }
        if cfg.cluster.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "--read-ratio drives single-server QUERY_FAST, not a cluster",
            ));
        }
    }
    // Hit rate is a server-side delta so it stays exact across fanned-out
    // connections (each thread's own before/after windows would overlap).
    let status_addr = cfg.read_from.as_deref().unwrap_or(&cfg.addr);
    let before = if cfg.read_ratio > 0.0 { poll_readpath(status_addr) } else { None };
    let mut summary = if cfg.connections <= 1 { run_single(cfg) } else { run_fanout(cfg) }?;
    if let (Some(b), Some(a)) = (&before, before.as_ref().and_then(|_| poll_readpath(status_addr)))
    {
        let hits = a.hits.saturating_sub(b.hits);
        let misses = a.misses.saturating_sub(b.misses);
        if hits + misses > 0 {
            summary.fast_hit_rate = Some(hits as f64 / (hits + misses) as f64);
        }
    }
    Ok(summary)
}

/// The `connections > 1` path of [`run`]: per-thread workload slices.
fn run_fanout(cfg: &LoadgenConfig) -> io::Result<LoadSummary> {
    if cfg.verify.is_some() {
        // Bit-for-bit verification needs one connection's FIFO order.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "--verify requires a single connection",
        ));
    }
    if cfg.resync_addr.is_some() {
        // Head-based recovery attributes every op-log advance to the one
        // connection it owns; concurrent writers would make the ledger
        // ambiguous.
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "fault injection requires a single connection",
        ));
    }
    let conns = cfg.connections as u64;
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            let mut sub = cfg.clone();
            sub.connections = 1;
            // Each connection drives its own slice of the item and query
            // budgets with a distinct workload seed and a fair share of
            // the open-loop rate.
            sub.items = cfg.items / conns + u64::from(i < cfg.items % conns);
            sub.queries = cfg.queries / conns + u64::from(i < cfg.queries % conns);
            sub.seed = cfg.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1);
            if let Mode::Open { items_per_sec } = cfg.mode {
                sub.mode = Mode::Open { items_per_sec: items_per_sec / conns as f64 };
            }
            std::thread::spawn(move || run_single(&sub))
        })
        .collect();

    let mut insert = NetReport::new("insert_batch", 0, 0, Duration::ZERO, LatencyHistogram::new());
    let mut query = NetReport::new("query", 0, 0, Duration::ZERO, LatencyHistogram::new());
    let mut fast = NetReport::new("query_fast", 0, 0, Duration::ZERO, LatencyHistogram::new());
    let (mut verified, mut mismatches, mut busy, mut reconnects, mut wall) =
        (0, 0, 0, 0, Duration::ZERO);
    for h in handles {
        let s = h.join().map_err(|_| io::Error::other("loadgen connection thread panicked"))??;
        insert.ops += s.insert.ops;
        insert.items += s.insert.items;
        insert.latency.merge(&s.insert.latency);
        query.ops += s.query.ops;
        query.items += s.query.items;
        query.latency.merge(&s.query.latency);
        fast.ops += s.fast.ops;
        fast.items += s.fast.items;
        fast.latency.merge(&s.fast.latency);
        verified += s.verified;
        mismatches += s.mismatches;
        busy += s.busy_retries;
        reconnects += s.reconnects;
        wall = wall.max(s.wall);
    }
    insert.wall = wall;
    query.wall = wall;
    fast.wall = wall;
    insert.retries = busy;
    Ok(LoadSummary {
        insert,
        query,
        fast,
        fast_hit_rate: None,
        verified,
        mismatches,
        busy_retries: busy,
        reconnects,
        wall,
    })
}

/// One connection's worth of [`run`].
fn run_single(cfg: &LoadgenConfig) -> io::Result<LoadSummary> {
    let batch = cfg.batch.max(1) as u64;
    let mut sink = match &cfg.cluster {
        Some(seed) => {
            if cfg.read_from.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--read-from does not apply in cluster mode (queries scatter-gather)",
                ));
            }
            if cfg.resync_addr.is_some() {
                // Cluster mode already rides through faults with its own
                // reroute loop; head-based recovery is single-server.
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "fault injection applies to a single server, not a cluster",
                ));
            }
            let conns = ClusterConns::connect(seed)?;
            if let Some(v) = &cfg.verify {
                // The scatter-gather merge runs in partition order; the
                // mirror's shard order must be the same order.
                if v.shards != conns.map.partitions.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "--verify in cluster mode needs --shards == partition count",
                    ));
                }
            }
            Sink::Cluster(conns)
        }
        None => {
            let client = match cfg.resync_addr {
                Some(_) => Client::connect_timeout(&cfg.addr, FAULT_OP_TIMEOUT)?,
                None => Client::connect(&cfg.addr)?,
            };
            // Reads may go to a different node (a replica); the mirror
            // cannot vouch for a lagging replica, so the combination is
            // refused.
            let reads = match &cfg.read_from {
                Some(addr) if cfg.verify.is_some() => {
                    let _ = addr;
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "--verify compares against the write connection; it cannot read from a replica",
                    ));
                }
                Some(addr) => Some(Client::connect(addr)?),
                None => None,
            };
            let faulted = match &cfg.resync_addr {
                Some(status_addr) => {
                    if reads.is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "fault injection keeps reads on the write connection (--read-from refused)",
                        ));
                    }
                    Some(Resilient::new(&cfg.addr, status_addr)?)
                }
                None => None,
            };
            Sink::Single { client, reads, faulted }
        }
    };
    let mut mirror = cfg.verify.map(DirectEngine::new);
    let mut keygen = CaidaLike::new(cfg.universe.max(2), cfg.skew, cfg.seed);

    let n_batches = cfg.items.div_ceil(batch);
    // Interleave queries evenly: one after roughly every `stride`-th batch.
    let stride = if cfg.queries == 0 { u64::MAX } else { n_batches.div_ceil(cfg.queries).max(1) };

    let mut insert_lat = LatencyHistogram::new();
    let mut queries =
        QuerySide { lat: LatencyHistogram::new(), sent: 0, verified: 0, mismatches: 0 };
    // The read-heavy profile: a separate, identically seeded Zipf draw
    // over the same universe + mix64 permutation the writes use, so the
    // fast reads probe real (mostly hot) keys deterministically.
    let read_zipf = (cfg.read_ratio > 0.0).then(|| Zipf::new(cfg.universe.max(2), cfg.read_skew));
    let mut read_rng = Xoshiro256::new(cfg.seed ^ 0xFA57_4EAD_5EED);
    let mut read_debt = 0.0f64;
    let mut fast_lat = LatencyHistogram::new();
    let mut fast_sent = 0u64;
    let mut sent_items = 0u64;
    let mut last_key = 0u64;
    let start = Instant::now();

    for b in 0..n_batches {
        let take = usize_of(batch.min(cfg.items - sent_items));
        let keys = keygen.take_vec(take);
        last_key = *keys.last().unwrap_or(&last_key);
        let stream =
            if cfg.sim_every > 0 && b % cfg.sim_every == cfg.sim_every - 1 { 1u8 } else { 0u8 };

        // Open-loop: wait for this batch's scheduled departure, then
        // charge latency from the schedule, not from the actual send.
        let op_start = match cfg.mode {
            Mode::Closed => Instant::now(),
            Mode::Open { items_per_sec } => {
                let due = start + Duration::from_secs_f64(sent_items as f64 / items_per_sec);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
        };
        sink.insert_batch(stream, &keys)?;
        insert_lat.record(op_start.elapsed());
        sent_items += take as u64;

        if let Some(m) = mirror.as_mut() {
            for &k in &keys {
                m.insert(stream, k);
            }
        }

        if let Some(z) = &read_zipf {
            // Keep reads/(reads + items) at the ratio: each inserted item
            // accrues ratio/(1-ratio) fast reads, fractional debt carried.
            read_debt += take as f64 * cfg.read_ratio / (1.0 - cfg.read_ratio);
            while read_debt >= 1.0 {
                read_debt -= 1.0;
                let key = mix64(z.sample(&mut read_rng) as u64);
                let op = if fast_sent.is_multiple_of(2) { fast_op::MEMBER } else { fast_op::FREQ };
                let t = Instant::now();
                sink.query_fast(op, key)?;
                fast_lat.record(t.elapsed());
                fast_sent += 1;
            }
        }

        if b % stride == stride - 1 && queries.sent < cfg.queries {
            queries.issue_any(&mut sink, &mut mirror, last_key, cfg)?;
        }
    }

    // Any remaining query budget runs back-to-back at the end (small
    // `items` with large `queries` would otherwise under-deliver).
    while queries.sent < cfg.queries {
        queries.issue_any(&mut sink, &mut mirror, last_key, cfg)?;
    }

    let wall = start.elapsed();
    let busy_retries = sink.busy_retries();
    Ok(LoadSummary {
        insert: NetReport::new("insert_batch", n_batches, sent_items, wall, insert_lat)
            .with_retries(busy_retries),
        query: NetReport::new("query", queries.sent, queries.sent, wall, queries.lat),
        fast: NetReport::new("query_fast", fast_sent, fast_sent, wall, fast_lat),
        fast_hit_rate: None,
        verified: queries.verified,
        mismatches: queries.mismatches,
        busy_retries,
        reconnects: sink.reconnects(),
        wall,
    })
}
