//! The verified feeder: drives a running she-server (or a whole cluster)
//! with batched Zipf inserts and interleaved probes, and — given the
//! server's sizing — mirrors the stream through an in-process
//! [`DirectEngine`] twin and checks every answer bit for bit.
//!
//! Verification works because everything is deterministic: one
//! connection, FIFO shard queues, and a seeded workload mean the server
//! applies exactly the per-shard insert order the twin sees, so matching
//! answers must be bit-identical, not merely close. Throughput and
//! latency are the benchmark's job (`ladder/`), not this module's.

use crate::client::Client;
use crate::cluster::{cluster_op, ClusterMap};
use crate::protocol::{Response, MAX_BATCH};
use she_core::convert::usize_of;
use she_core::sharded::{DirectEngine, EngineConfig};
use she_hash::mix64;
use she_streams::{CaidaLike, KeyStream};
use std::io;
use std::time::{Duration, Instant};

/// A feeder run description.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address; in cluster mode, the seed node the map is fetched
    /// from.
    pub addr: String,
    /// Total items to insert (streams A and B combined).
    pub items: u64,
    /// Keys per `INSERT_BATCH` frame.
    pub batch: usize,
    /// Total probes to interleave, in a fixed cycle: single-key member,
    /// freq, card, sim, then one 16-key `MEMBER` and one 16-key `FREQ`
    /// batch.
    pub queries: u64,
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
    /// Cluster mode: treat `addr` as a seed node, route each batch's keys
    /// to their owning partition primary, and issue probes as
    /// scatter-gather `CLUSTER_QUERY` / `CLUSTER_QUERY_BATCH`. On a leg
    /// failure the map is re-fetched and the op retried, so the run rides
    /// through a failover without restarting.
    pub cluster: bool,
    /// Fault-injection mode: `addr` is assumed to be a flaky path (a
    /// chaos proxy) to the server *really* listening here. On an insert
    /// transport error the run reconnects and uses this address's op-log
    /// head to decide, exactly-once, whether the batch landed before the
    /// fault or must be resent — so `verify` stays bit-for-bit sound
    /// through injected resets. Requires a server running with
    /// `--repl-log` (the head is the ledger).
    pub resync_addr: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7487".to_string(),
            items: 200_000,
            batch: 512,
            queries: 2_000,
            universe: 100_000,
            skew: 1.05,
            seed: 1,
            sim_every: 8,
            verify: None,
            cluster: false,
            resync_addr: None,
        }
    }
}

/// What a run did.
#[derive(Debug)]
pub struct LoadSummary {
    /// `INSERT_BATCH` calls made.
    pub batches: u64,
    /// Keys inserted.
    pub items: u64,
    /// Probes issued (a batched probe counts once).
    pub queries: u64,
    /// Answers checked against the twin (a batched probe checks each key).
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
    /// Print the counts and the `wall= … mismatches=` line scripts grep.
    pub fn print(&self) {
        println!("batches={}  items={}  queries={}", self.batches, self.items, self.queries);
        println!(
            "wall={:.2}s  busy_retries={}  reconnects={}  verified={}  mismatches={}",
            self.wall.as_secs_f64(),
            self.busy_retries,
            self.reconnects,
            self.verified,
            self.mismatches
        );
    }
}

/// Keys per batched probe.
const PROBE_BATCH: usize = 16;

/// The probe cycle, one entry per probe: `(op, batched)`. Four single-key
/// probes, then one [`PROBE_BATCH`]-key `MEMBER` and one `FREQ` batch, so
/// every run checks both the single-key and the batched answer paths.
const PROBE_CYCLE: [(u8, bool); 6] = [
    (cluster_op::MEMBER, false),
    (cluster_op::FREQ, false),
    (cluster_op::CARD, false),
    (cluster_op::SIM, false),
    (cluster_op::MEMBER, true),
    (cluster_op::FREQ, true),
];

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
/// [`CLUSTER_REROUTE_WINDOW`] expires — which is how the feeder keeps
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

/// Where a run's requests go: one server (optionally with fault
/// recovery) or a whole cluster.
enum Sink {
    Single { client: Client, faulted: Option<Resilient> },
    Cluster(ClusterConns),
}

impl Sink {
    fn insert_batch(&mut self, stream: u8, keys: &[u64]) -> io::Result<()> {
        match self {
            Sink::Single { client, faulted: Some(r) } => r.insert_batch(client, stream, keys),
            Sink::Single { client, .. } => client.insert_batch(stream, keys).map(|_| ()),
            Sink::Cluster(c) => c.insert_batch(stream, keys),
        }
    }

    /// One single-key probe (`cluster_op` numbering), answered as bits:
    /// booleans as 0/1, estimates as their `f64` bit pattern.
    fn query(&mut self, op: u8, key: u64) -> io::Result<u64> {
        match self {
            Sink::Single { client, faulted } => read_retry(client, faulted, |c| match op {
                cluster_op::MEMBER => c.query_member(key).map(u64::from),
                cluster_op::FREQ => c.query_freq(key),
                cluster_op::CARD => c.query_card().map(f64::to_bits),
                _ => c.query_sim().map(f64::to_bits),
            }),
            Sink::Cluster(c) => match c.retrying(|me| me.leg(0)?.cluster_query(op, key))? {
                Response::Bool(b) => Ok(u64::from(b)),
                Response::U64(v) => Ok(v),
                Response::F64(v) => Ok(v.to_bits()),
                other => Err(io::Error::other(format!("unexpected CLUSTER_QUERY reply {other:?}"))),
            },
        }
    }

    /// One batched probe: `QUERY_BATCH` against one server,
    /// `CLUSTER_QUERY_BATCH` through the coordinator in cluster mode.
    fn query_batch(&mut self, op: u8, keys: &[u64]) -> io::Result<Vec<u64>> {
        match self {
            Sink::Single { client, faulted } => {
                read_retry(client, faulted, |c| c.query_batch(op, keys))
            }
            Sink::Cluster(c) => c.retrying(|me| me.leg(0)?.cluster_query_batch(op, keys)),
        }
    }

    fn busy_retries(&self) -> u64 {
        match self {
            Sink::Single { client, faulted } => {
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

/// The twin's answer to one probe, as bits (see [`Sink::query`]).
fn twin_answer(twin: &mut DirectEngine, op: u8, key: u64) -> u64 {
    match op {
        cluster_op::MEMBER => u64::from(twin.member(key)),
        cluster_op::FREQ => twin.frequency(key),
        cluster_op::CARD => twin.cardinality().to_bits(),
        _ => twin.similarity().to_bits(),
    }
}

/// The keys of batched probe number `sent`, derived from the anchor key
/// so every rerun probes the same set. Each is a rank below `universe`
/// sent through the same `mix64` permutation `CaidaLike` writes with, so
/// the batch probes keys the run actually inserted.
fn probe_keys(anchor: u64, sent: u64, universe: usize) -> [u64; PROBE_BATCH] {
    let universe = universe.max(2) as u64;
    std::array::from_fn(|j| mix64(mix64(anchor ^ (sent << 32) ^ j as u64) % universe))
}

/// Book-keeping for the probe side of a run.
#[derive(Default)]
struct QuerySide {
    sent: u64,
    verified: u64,
    mismatches: u64,
}

impl QuerySide {
    /// Issue the next probe of [`PROBE_CYCLE`] and check every answer it
    /// returns against the twin when one is present.
    fn issue(
        &mut self,
        sink: &mut Sink,
        twin: &mut Option<DirectEngine>,
        anchor: u64,
        universe: usize,
    ) -> io::Result<()> {
        let (op, batched) = PROBE_CYCLE[usize_of(self.sent % PROBE_CYCLE.len() as u64)];
        if batched {
            let keys = probe_keys(anchor, self.sent, universe);
            let got = sink.query_batch(op, &keys)?;
            if got.len() != keys.len() {
                return Err(io::Error::other(format!(
                    "batched query returned {} values for {} keys",
                    got.len(),
                    keys.len()
                )));
            }
            for (&k, &g) in keys.iter().zip(&got) {
                self.check(twin, op, k, g);
            }
        } else {
            let got = sink.query(op, anchor)?;
            self.check(twin, op, anchor, got);
        }
        self.sent += 1;
        Ok(())
    }

    fn check(&mut self, twin: &mut Option<DirectEngine>, op: u8, key: u64, got: u64) {
        if let Some(t) = twin.as_mut() {
            self.verified += 1;
            self.mismatches += u64::from(got != twin_answer(t, op, key));
        }
    }
}

/// Drive the workload against `cfg.addr`. Returns an error on transport
/// failure; verification mismatches are *reported*, not fatal (callers
/// check [`LoadSummary::mismatches`]).
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadSummary> {
    let mut sink = if cfg.cluster {
        if cfg.resync_addr.is_some() {
            // Cluster mode already rides through faults with its own
            // reroute loop; head-based recovery is single-server.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fault injection applies to a single server, not a cluster",
            ));
        }
        let conns = ClusterConns::connect(&cfg.addr)?;
        if let Some(v) = &cfg.verify {
            // The scatter-gather merge runs in partition order; the
            // twin's shard order must be the same order.
            if v.shards != conns.map.partitions.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "--verify in cluster mode needs --shards == partition count",
                ));
            }
        }
        Sink::Cluster(conns)
    } else {
        let client = match cfg.resync_addr {
            Some(_) => Client::connect_timeout(&cfg.addr, FAULT_OP_TIMEOUT)?,
            None => Client::connect(&cfg.addr)?,
        };
        let faulted = match &cfg.resync_addr {
            Some(status_addr) => Some(Resilient::new(&cfg.addr, status_addr)?),
            None => None,
        };
        Sink::Single { client, faulted }
    };
    let mut twin = cfg.verify.map(DirectEngine::new);
    let mut keygen = CaidaLike::new(cfg.universe.max(2), cfg.skew, cfg.seed);

    let batch = cfg.batch.max(1) as u64;
    let n_batches = cfg.items.div_ceil(batch);
    // Interleave probes evenly: one after roughly every `stride`-th batch.
    let stride = if cfg.queries == 0 { u64::MAX } else { n_batches.div_ceil(cfg.queries).max(1) };

    let mut queries = QuerySide::default();
    let mut sent_items = 0u64;
    let mut last_key = 0u64;
    let start = Instant::now();

    for b in 0..n_batches {
        let take = usize_of(batch.min(cfg.items - sent_items));
        let keys = keygen.take_vec(take);
        last_key = *keys.last().unwrap_or(&last_key);
        let stream =
            if cfg.sim_every > 0 && b % cfg.sim_every == cfg.sim_every - 1 { 1u8 } else { 0u8 };
        sink.insert_batch(stream, &keys)?;
        sent_items += take as u64;

        if let Some(t) = twin.as_mut() {
            for &k in &keys {
                t.insert(stream, k);
            }
        }

        if b % stride == stride - 1 && queries.sent < cfg.queries {
            queries.issue(&mut sink, &mut twin, last_key, cfg.universe)?;
        }
    }

    // Any remaining probe budget runs back-to-back at the end (small
    // `items` with large `queries` would otherwise under-deliver).
    while queries.sent < cfg.queries {
        queries.issue(&mut sink, &mut twin, last_key, cfg.universe)?;
    }

    Ok(LoadSummary {
        batches: n_batches,
        items: sent_items,
        queries: queries.sent,
        verified: queries.verified,
        mismatches: queries.mismatches,
        busy_retries: sink.busy_retries(),
        reconnects: sink.reconnects(),
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Batched probes draw from the written key set: every probe key is a
    /// `CaidaLike` key `mix64(rank)` with `rank < universe`, so a twin fed
    /// a seeded run answers `true` for a real share of a batched `MEMBER`,
    /// not only for its false positives.
    #[test]
    fn batched_probes_touch_the_written_keys() {
        let universe = 1_000;
        let written: std::collections::HashSet<u64> = (0..universe as u64).map(mix64).collect();
        let engine = EngineConfig { window: 1 << 14, shards: 2, memory_bytes: 64 << 10, seed: 1 };
        let mut twin = DirectEngine::new(engine);
        let mut keygen = CaidaLike::new(universe, 1.05, 7);
        let mut anchor = 0;
        for _ in 0..20_000 {
            anchor = keygen.next_key();
            twin.insert(0, anchor);
        }
        let (mut probed, mut present) = (0u64, 0u64);
        for sent in 0..64 {
            for key in probe_keys(anchor, sent, universe) {
                assert!(written.contains(&key), "probe {key:#x} is no mix64(rank < {universe})");
                probed += 1;
                present += u64::from(twin.member(key));
            }
        }
        assert!(present * 4 >= probed, "only {present} of {probed} batched probes were present");
    }
}
