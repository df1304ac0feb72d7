//! The systems under test behind one interface: the in-process
//! `DirectEngine`, a loopback `she-server` (plain, or with op log and
//! read path), and a three-process RF=2 cluster — plus the in-process
//! twin every served answer is compared with bit for bit.
//!
//! Everything here goes through public APIs only: `DirectEngine`,
//! `Server::start`, `Client`, and raw frames written with
//! `codec::write_frame` + `Request::encode` where requests are pipelined.

use crate::node::Children;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use she_server::codec::{read_frame, write_frame};
use she_server::protocol::{Request, Response};
use she_server::{
    cluster_op, Client, ClusterMap, DirectEngine, EngineConfig, ReadPath, ReadPathConfig, Server,
    ServerConfig, ShardEngine,
};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read connections, all driven by the one generator thread. The server
/// dispatches one request per connection at a time, so reads on a single
/// connection form a serial chain of thread wake-ups and measure the
/// hypervisor (the same run flips between 22 K and 40 K reads/s); spread
/// over several connections they keep the reactor and the workers busy
/// and measure the server.
const READ_CONNECTIONS: usize = 8;
/// Single-key requests kept in flight per read connection.
const POINT_WINDOW: usize = 4;
/// Batch or aggregate reads kept in flight per read connection.
const WIDE_WINDOW: usize = 1;
/// A reply slower than this is a hung server, not a slow one.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause between `CLUSTER_STATUS` polls while a barrier waits.
const POLL_PAUSE: Duration = Duration::from_micros(200);
/// How long a cluster may take to come up, and how often to try.
const CLUSTER_START_TIMEOUT: Duration = Duration::from_secs(10);
const CLUSTER_START_ATTEMPTS: usize = 3;
/// Holders per partition in the cluster workload.
pub const CLUSTER_RF: u16 = 2;
/// Node processes (= partitions) in the cluster workload.
pub const CLUSTER_NODES: usize = 3;

/// One single-key operation of a pipelined stream.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    Member(u64),
    Freq(u64),
    /// A write riding the read connection (the 95/5 mix).
    Insert(u8, &'a [u64]),
}

/// What the benchmark observes from its side of the API: operation
/// counts, failures, and — on a traced run — spans and raw latencies.
#[derive(Debug, Default)]
pub struct Probe {
    pub tracer: Option<Tracer>,
    /// The phase span new request spans hang under.
    pub phase: SpanId,
    pub attempted: u64,
    pub failed: u64,
    pub insert_lat: Samples,
    pub read_lat: Samples,
    /// Cluster only: client batches routed, and the legs they split into.
    pub routed_batches: u64,
    pub routed_legs: u64,
    /// Time a barrier spent waiting for the mirror / the replicas, ns.
    pub mirror_lag: Samples,
    pub replica_catchup: Samples,
    pub replica_lag_seq_max: u64,
}

impl Probe {
    fn start(&self) -> Option<u64> {
        self.tracer.as_ref().map(Tracer::now_ns)
    }

    /// Close a request span opened with [`Probe::start`].
    fn finish(&mut self, name: &'static str, start: Option<u64>, parent: SpanId) -> SpanId {
        let (Some(start), Some(t)) = (start, self.tracer.as_mut()) else { return 0 };
        let end = t.now_ns();
        let id = t.record_closed(name, start, end, parent);
        let ns = end.saturating_sub(start);
        match name {
            "client.insert" | "client.insert_leg" => self.insert_lat.push(ns),
            "client.read" => self.read_lat.push(ns),
            _ => {}
        }
        id
    }

    /// Count a failed operation: a wrong reply or a verify mismatch.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("ladder: failed op: {what}");
        }
    }
}

/// A system under test.
pub trait Target {
    /// The sizing an in-process twin needs to mirror this target.
    fn engine_config(&self) -> EngineConfig;
    /// One insert request from the single deterministic writer.
    fn insert(&mut self, stream: u8, keys: &[u64], probe: &mut Probe) -> io::Result<()>;
    /// A round of inserts from every writer this target has.
    fn ingest(&mut self, runs: &[(u8, &[u64])], probe: &mut Probe) -> io::Result<()> {
        runs.iter().try_for_each(|&(stream, keys)| self.insert(stream, keys, probe))
    }
    /// Return once everything acknowledged so far is applied on every
    /// holder (inserts are acknowledged at admission, not application).
    fn barrier(&mut self, probe: &mut Probe) -> io::Result<()>;
    /// Pipelined single-key operations; one answer per op, in order.
    fn points(&mut self, ops: &[Op<'_>], probe: &mut Probe) -> io::Result<Vec<u64>>;
    /// `keys` answered in 256-key batch reads, in order.
    fn batches(&mut self, op: u8, keys: &[u64], probe: &mut Probe) -> io::Result<Vec<u64>>;
    /// Aggregate reads, pipelined: cardinality for `false`, similarity
    /// for `true`; one answer per ask, in order.
    fn aggs(&mut self, sims: &[bool], probe: &mut Probe) -> io::Result<Vec<f64>>;
    /// Sketch memory held for the engine state, over every holder.
    fn state_bytes(&mut self) -> io::Result<u64>;
    /// Make the next single read of every key exact, and say whether
    /// single reads are served from the frozen mirror (the twin is then
    /// asked the non-mutating way).
    fn exact_point_reads(&mut self) -> io::Result<bool> {
        Ok(false)
    }
    /// `BUSY` and `OVERLOADED` retries the clients made so far.
    fn retries(&self) -> (u64, u64) {
        (0, 0)
    }
    /// Read-path counters `(hits, misses, fills, invalidations)`.
    fn readpath_counters(&mut self) -> io::Result<Option<[u64; 4]>> {
        Ok(None)
    }
}

fn stats_bytes(stats: &[she_server::ShardStats]) -> u64 {
    stats.iter().map(|s| s.memory_bits).sum::<u64>() / 8
}

/// `DirectEngine`, driven serially in this thread.
#[derive(Debug)]
pub struct Direct(DirectEngine);

impl Direct {
    pub fn start() -> Direct {
        Direct(DirectEngine::new(EngineConfig::default()))
    }
}

impl Target for Direct {
    fn engine_config(&self) -> EngineConfig {
        *self.0.config()
    }

    fn insert(&mut self, stream: u8, keys: &[u64], probe: &mut Probe) -> io::Result<()> {
        let t = probe.start();
        probe.attempted += 1;
        for &k in keys {
            self.0.insert(stream, k);
        }
        probe.finish("engine.insert_run", t, probe.phase);
        Ok(())
    }

    fn barrier(&mut self, _probe: &mut Probe) -> io::Result<()> {
        Ok(())
    }

    fn points(&mut self, ops: &[Op<'_>], probe: &mut Probe) -> io::Result<Vec<u64>> {
        let t = probe.start();
        probe.attempted += ops.len() as u64;
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            out.push(match *op {
                Op::Member(k) => u64::from(self.0.member(k)),
                Op::Freq(k) => self.0.frequency(k),
                Op::Insert(stream, keys) => {
                    keys.iter().for_each(|&k| self.0.insert(stream, k));
                    keys.len() as u64
                }
            });
        }
        probe.finish("engine.point_run", t, probe.phase);
        Ok(out)
    }

    fn batches(&mut self, op: u8, keys: &[u64], probe: &mut Probe) -> io::Result<Vec<u64>> {
        // In process there is no batching to win: a batch is a loop.
        let t = probe.start();
        probe.attempted += keys.len().div_ceil(crate::gen::BATCH) as u64;
        let out = keys
            .iter()
            .map(|&k| {
                if op == cluster_op::MEMBER {
                    u64::from(self.0.member(k))
                } else {
                    self.0.frequency(k)
                }
            })
            .collect();
        probe.finish("engine.batch_run", t, probe.phase);
        Ok(out)
    }

    fn aggs(&mut self, sims: &[bool], probe: &mut Probe) -> io::Result<Vec<f64>> {
        let t = probe.start();
        probe.attempted += sims.len() as u64;
        let out =
            sims.iter().map(|&sim| if sim { self.0.similarity() } else { self.0.cardinality() });
        let out = out.collect();
        probe.finish("engine.agg_run", t, probe.phase);
        Ok(out)
    }

    fn state_bytes(&mut self) -> io::Result<u64> {
        Ok(stats_bytes(&self.0.stats()))
    }
}

/// One TCP connection carrying hand-framed, pipelined requests.
#[derive(Debug)]
struct Pipe {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
}

impl Pipe {
    fn connect(addr: &str) -> io::Result<Pipe> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Pipe { r: BufReader::new(stream.try_clone()?), w: BufWriter::new(stream) })
    }

    fn connect_all(addr: &str) -> io::Result<Vec<Pipe>> {
        (0..READ_CONNECTIONS).map(|_| Pipe::connect(addr)).collect()
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        // `write_frame` flushes, so each request leaves as one segment.
        write_frame(&mut self.w, &req.encode())
    }

    fn recv(&mut self) -> io::Result<Response> {
        let payload = read_frame(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Response::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Send `reqs` round-robin over `pipes`, keeping `window` in flight on
/// each; `on_reply` sees every reply with its request index, in request
/// order (each connection answers in order, and requests are dealt to
/// the connections in turn, so the oldest outstanding request overall is
/// also the oldest on its connection).
fn pipeline(
    pipes: &mut [Pipe],
    reqs: impl Iterator<Item = Request>,
    window: usize,
    span: &'static str,
    probe: &mut Probe,
    mut on_reply: impl FnMut(usize, Response, &mut Probe),
) -> io::Result<()> {
    let depth = window * pipes.len();
    let mut reqs = reqs.enumerate();
    let mut in_flight: VecDeque<(usize, Option<u64>)> = VecDeque::with_capacity(depth);
    loop {
        while in_flight.len() < depth {
            let Some((i, req)) = reqs.next() else { break };
            in_flight.push_back((i, probe.start()));
            probe.attempted += 1;
            pipes[i % pipes.len()].send(&req)?;
        }
        let Some((i, started)) = in_flight.pop_front() else { return Ok(()) };
        let resp = pipes[i % pipes.len()].recv()?;
        probe.finish(span, started, probe.phase);
        on_reply(i, resp, probe);
    }
}

/// Which served system a [`Wire`] target talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Default `ServerConfig`: no op log, no read path.
    Plain,
    /// `repl_log: 8192` + `ReadPathConfig::default()`; single reads are
    /// `QUERY_FAST`.
    Fast,
    /// Three node processes at RF=2; reads go through a coordinator.
    Cluster,
}

/// What keeps the served system alive, and stops it on drop.
#[derive(Debug)]
enum Host {
    Server(Option<Server>),
    Nodes(#[allow(dead_code)] Children),
}

impl Drop for Host {
    fn drop(&mut self) {
        if let Host::Server(server) = self {
            if let Some(server) = server.take() {
                server.join();
            }
        }
    }
}

/// What one writer thread brings back from a round: how many inserts
/// were accepted short, and each request's `(start, end)` on the
/// tracer's clock.
type WriterRound = io::Result<(u64, Vec<(u64, u64)>)>;

/// A served system reached over loopback TCP.
#[derive(Debug)]
pub struct Wire {
    flavor: Flavor,
    engine: EngineConfig,
    /// Closed-loop insert connections. Plain/Fast: one per writer thread.
    /// Cluster: one per partition primary, used by the one routed writer.
    writers: Vec<Client>,
    /// The pipelined read connections (cluster: to the coordinator).
    readers: Vec<Pipe>,
    map: Option<ClusterMap>,
    readpath: Option<Arc<ReadPath>>,
    // Declared last: connections close before the system stops.
    _host: Host,
}

impl Wire {
    /// Start an in-process server and connect `writers` insert clients.
    pub fn serve(flavor: Flavor, writers: usize) -> io::Result<Wire> {
        let cfg = match flavor {
            Flavor::Fast => ServerConfig {
                repl_log: 8192,
                readpath: Some(ReadPathConfig::default()),
                ..ServerConfig::default()
            },
            _ => ServerConfig::default(),
        };
        let engine = cfg.engine;
        let server = Server::start(cfg)?;
        let addr = server.local_addr().to_string();
        let readpath = server.readpath();
        let host = Host::Server(Some(server));
        let writers =
            (0..writers.max(1)).map(|_| Client::connect(&addr)).collect::<Result<_, _>>()?;
        Ok(Wire {
            flavor,
            engine,
            writers,
            readers: Pipe::connect_all(&addr)?,
            map: None,
            readpath,
            _host: host,
        })
    }

    /// Start the cluster. The ports are probed, not reserved, so a node
    /// can lose its port to another socket; a failed start is retried.
    pub fn cluster() -> io::Result<Wire> {
        let mut attempt = Wire::cluster_once();
        for _ in 1..CLUSTER_START_ATTEMPTS {
            if attempt.is_ok() {
                break;
            }
            attempt = Wire::cluster_once();
        }
        attempt
    }

    /// Spawn the node processes, wait until every partition has its
    /// replica subscribed, and fetch the map once.
    fn cluster_once() -> io::Result<Wire> {
        let (children, addrs) = Children::spawn_cluster(CLUSTER_NODES, CLUSTER_RF)?;
        let host = Host::Nodes(children);
        let deadline = Instant::now() + CLUSTER_START_TIMEOUT;
        let mut writers = Vec::with_capacity(addrs.len());
        for addr in &addrs {
            let mut client = loop {
                match Client::connect(addr) {
                    Ok(c) => break c,
                    Err(e) if Instant::now() >= deadline => return Err(e),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            while client.cluster_status()?.peers.len() + 1 < usize::from(CLUSTER_RF) {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("node {addr}: replica never subscribed"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            writers.push(client);
        }
        let map = writers[0].cluster_map()?;
        let defaults = she_cluster::NodeConfig::default();
        let engine = EngineConfig {
            window: defaults.window,
            shards: addrs.len(),
            memory_bytes: defaults.memory_bytes,
            seed: defaults.seed,
        };
        Ok(Wire {
            flavor: Flavor::Cluster,
            engine,
            writers,
            readers: Pipe::connect_all(&addrs[0])?,
            map: Some(map),
            readpath: None,
            _host: host,
        })
    }

    /// The server's read path, for in-process rungs.
    pub fn readpath(&self) -> Option<Arc<ReadPath>> {
        self.readpath.clone()
    }

    /// The routed writer's split: one leg per partition, `None` when
    /// there is a single server and nothing to route.
    fn route(&self, keys: &[u64]) -> Option<Vec<Vec<u64>>> {
        let map = self.map.as_ref()?;
        let mut legs: Vec<Vec<u64>> = vec![Vec::new(); map.partitions.len()];
        for &k in keys {
            legs[map.partition_of(k)].push(k);
        }
        Some(legs)
    }

    fn insert_on(&mut self, writer: usize, stream: u8, keys: &[u64]) -> io::Result<bool> {
        Ok(self.writers[writer].insert_batch(stream, keys)? == keys.len() as u64)
    }

    fn point_request(&self, op: &Op<'_>) -> io::Result<Request> {
        let (code, key) = match *op {
            Op::Member(k) => (cluster_op::MEMBER, k),
            Op::Freq(k) => (cluster_op::FREQ, k),
            Op::Insert(stream, keys) if self.flavor != Flavor::Cluster => {
                return Ok(Request::InsertBatch { stream, keys: keys.to_vec() })
            }
            Op::Insert(..) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cluster inserts are routed per partition, not sent to the coordinator",
                ))
            }
        };
        // `cluster_op` and `she_readpath::op` share the MEMBER/FREQ codes.
        Ok(match self.flavor {
            Flavor::Plain if code == cluster_op::MEMBER => Request::QueryMember { key },
            Flavor::Plain => Request::QueryFreq { key },
            Flavor::Fast => Request::QueryFast { op: code, key },
            Flavor::Cluster => Request::ClusterQuery { op: code, key },
        })
    }
}

impl Target for Wire {
    fn engine_config(&self) -> EngineConfig {
        self.engine
    }

    fn insert(&mut self, stream: u8, keys: &[u64], probe: &mut Probe) -> io::Result<()> {
        let Some(legs) = self.route(keys) else {
            let t = probe.start();
            probe.attempted += 1;
            if !self.insert_on(0, stream, keys)? {
                probe.fail("insert accepted fewer keys than sent");
            }
            probe.finish("client.insert", t, probe.phase);
            return Ok(());
        };
        let batch = probe.tracer.as_mut().map_or(0, |t| t.begin("cluster.insert", probe.phase));
        probe.routed_batches += 1;
        for (p, leg) in legs.iter().enumerate().filter(|(_, leg)| !leg.is_empty()) {
            let t = probe.start();
            probe.attempted += 1;
            probe.routed_legs += 1;
            if !self.insert_on(p, stream, leg)? {
                probe.fail("insert leg accepted fewer keys than sent");
            }
            probe.finish("client.insert_leg", t, batch);
        }
        if let Some(t) = probe.tracer.as_mut() {
            t.end(batch);
        }
        Ok(())
    }

    fn ingest(&mut self, runs: &[(u8, &[u64])], probe: &mut Probe) -> io::Result<()> {
        if self.map.is_some() || self.writers.len() == 1 {
            return runs.iter().try_for_each(|&(stream, keys)| self.insert(stream, keys, probe));
        }
        // Closed loop on every connection: each writer thread sends its
        // share of the round one acknowledged request at a time.
        let origin = probe.tracer.as_ref().map(|t| (Instant::now(), t.now_ns()));
        let n = self.writers.len();
        let results: Vec<WriterRound> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .writers
                .iter_mut()
                .enumerate()
                .map(|(w, client)| {
                    scope.spawn(move || {
                        let mut short = 0u64;
                        let mut spans = Vec::new();
                        for &(stream, keys) in runs.iter().skip(w).step_by(n) {
                            let t = origin.map(|(at, ns)| ns + at.elapsed().as_nanos() as u64);
                            short +=
                                u64::from(client.insert_batch(stream, keys)? != keys.len() as u64);
                            if let (Some(start), Some((at, ns))) = (t, origin) {
                                spans.push((start, ns + at.elapsed().as_nanos() as u64));
                            }
                        }
                        Ok((short, spans))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
        });
        probe.attempted += runs.len() as u64;
        for result in results {
            let (short, spans) = result?;
            (0..short).for_each(|_| probe.fail("insert accepted fewer keys than sent"));
            for (start, end) in spans {
                probe.insert_lat.push(end - start);
                if let Some(t) = probe.tracer.as_mut() {
                    t.record_closed("client.insert", start, end, probe.phase);
                }
            }
        }
        Ok(())
    }

    fn barrier(&mut self, probe: &mut Probe) -> io::Result<()> {
        match self.flavor {
            // STATS rides every shard FIFO behind the acknowledged inserts.
            Flavor::Plain => self.writers[0].stats().map(drop),
            Flavor::Fast => {
                self.writers[0].stats()?;
                let drained = Instant::now();
                loop {
                    let status = self.writers[0].cluster_status()?;
                    if status.readpath.seq >= status.head {
                        break;
                    }
                    std::thread::sleep(POLL_PAUSE);
                }
                probe.mirror_lag.push(drained.elapsed().as_nanos() as u64);
                Ok(())
            }
            Flavor::Cluster => {
                let acked = Instant::now();
                for (i, primary) in self.writers.iter_mut().enumerate() {
                    primary.stats()?;
                    let mut first = true;
                    loop {
                        let status = primary.cluster_status()?;
                        let behind = status
                            .peers
                            .iter()
                            .map(|p| status.head.saturating_sub(p.acked))
                            .max()
                            .unwrap_or(u64::MAX);
                        if first && behind != u64::MAX {
                            probe.replica_lag_seq_max = probe.replica_lag_seq_max.max(behind);
                        }
                        first = false;
                        if behind == 0 && status.peers.len() + 1 >= usize::from(CLUSTER_RF) {
                            break;
                        }
                        if acked.elapsed() > REPLY_TIMEOUT {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("partition {i}: replicas never caught up"),
                            ));
                        }
                        std::thread::sleep(POLL_PAUSE);
                    }
                }
                probe.replica_catchup.push(acked.elapsed().as_nanos() as u64);
                Ok(())
            }
        }
    }

    fn points(&mut self, ops: &[Op<'_>], probe: &mut Probe) -> io::Result<Vec<u64>> {
        let reqs = ops.iter().map(|op| self.point_request(op)).collect::<io::Result<Vec<_>>>()?;
        let mut out = vec![0u64; ops.len()];
        let readers = &mut self.readers;
        pipeline(
            readers,
            reqs.into_iter(),
            POINT_WINDOW,
            "client.read",
            probe,
            |i, resp, probe| {
                out[i] = match (&ops[i], resp) {
                    (Op::Member(_), Response::Bool(b)) => u64::from(b),
                    (Op::Freq(_), Response::U64(v)) => v,
                    (Op::Insert(_, keys), Response::Ok { accepted })
                        if accepted == keys.len() as u64 =>
                    {
                        accepted
                    }
                    (op, other) => {
                        probe.fail(&format!("{op:?} answered {other:?}"));
                        0
                    }
                };
            },
        )?;
        Ok(out)
    }

    fn batches(&mut self, op: u8, keys: &[u64], probe: &mut Probe) -> io::Result<Vec<u64>> {
        let cluster = self.flavor == Flavor::Cluster;
        let chunks: Vec<&[u64]> = keys.chunks(crate::gen::BATCH).collect();
        let reqs = chunks.iter().map(|chunk| {
            if cluster {
                Request::ClusterQueryBatch { op, keys: chunk.to_vec() }
            } else {
                Request::QueryBatch { op, keys: chunk.to_vec() }
            }
        });
        let span = if cluster { "cluster.scatter_batch" } else { "client.batch_read" };
        let mut out = Vec::with_capacity(keys.len());
        pipeline(&mut self.readers, reqs, WIDE_WINDOW, span, probe, |i, resp, probe| match resp {
            Response::U64s(values) if values.len() == chunks[i].len() => out.extend(values),
            other => {
                probe.fail(&format!("batch read answered {other:?}"));
                out.extend(std::iter::repeat_n(0, chunks[i].len()));
            }
        })?;
        Ok(out)
    }

    fn aggs(&mut self, sims: &[bool], probe: &mut Probe) -> io::Result<Vec<f64>> {
        let cluster = self.flavor == Flavor::Cluster;
        let reqs = sims.iter().map(|&sim| match (cluster, sim) {
            (true, true) => Request::ClusterQuery { op: cluster_op::SIM, key: 0 },
            (true, false) => Request::ClusterQuery { op: cluster_op::CARD, key: 0 },
            (false, true) => Request::QuerySim,
            (false, false) => Request::QueryCard,
        });
        let span = if cluster { "cluster.scatter_agg" } else { "client.agg" };
        let mut out = Vec::with_capacity(sims.len());
        pipeline(&mut self.readers, reqs, WIDE_WINDOW, span, probe, |_, resp, probe| match resp {
            Response::F64(v) => out.push(v),
            other => {
                probe.fail(&format!("aggregate read answered {other:?}"));
                out.push(f64::NAN);
            }
        })?;
        Ok(out)
    }

    fn state_bytes(&mut self) -> io::Result<u64> {
        if self.map.is_none() {
            return Ok(stats_bytes(&self.writers[0].stats()?));
        }
        // STATS reaches primaries only; every holder of a partition runs
        // the identically sized engine, so the replicas count the same.
        let mut primaries = 0;
        for primary in &mut self.writers {
            primaries += stats_bytes(&primary.stats()?);
        }
        Ok(primaries * u64::from(CLUSTER_RF))
    }

    fn exact_point_reads(&mut self) -> io::Result<bool> {
        // Drop every cached fast answer, so the next read of each key is
        // refilled bit for bit from the caught-up mirror.
        if self.flavor == Flavor::Fast {
            self.writers[0].fast_flush()?;
        }
        Ok(self.flavor == Flavor::Fast)
    }

    fn retries(&self) -> (u64, u64) {
        self.writers.iter().fold((0, 0), |(b, s), c| (b + c.busy_retries, s + c.shed_retries))
    }

    fn readpath_counters(&mut self) -> io::Result<Option<[u64; 4]>> {
        if self.flavor != Flavor::Fast {
            return Ok(None);
        }
        let rp = self.writers[0].cluster_status()?.readpath;
        Ok(Some([rp.hits, rp.misses, rp.fills, rp.invalidations]))
    }
}

/// The in-process reference: the same shards the target runs, fed the
/// same inserts and asked the same questions in the same order.
#[derive(Debug)]
pub struct Twin {
    cfg: EngineConfig,
    shards: Vec<ShardEngine>,
}

impl Twin {
    pub fn new(cfg: EngineConfig) -> Twin {
        let (cfg, shards) = DirectEngine::new(cfg).into_shards();
        Twin { cfg, shards }
    }

    pub fn insert(&mut self, stream: u8, keys: &[u64]) {
        for &k in keys {
            self.shards[self.cfg.shard_of(k)].insert(stream, k);
        }
    }

    /// A point answer; `frozen` asks the non-mutating way the read-path
    /// mirror does.
    pub fn point(&mut self, op: &Op<'_>, frozen: bool) -> u64 {
        match *op {
            Op::Member(k) => {
                let shard = &mut self.shards[self.cfg.shard_of(k)];
                u64::from(if frozen { shard.member_frozen(k) } else { shard.member(k) })
            }
            Op::Freq(k) => {
                let shard = &mut self.shards[self.cfg.shard_of(k)];
                if frozen {
                    shard.frequency_frozen(k)
                } else {
                    shard.frequency(k)
                }
            }
            Op::Insert(stream, keys) => {
                self.insert(stream, keys);
                keys.len() as u64
            }
        }
    }

    /// Summed in shard order from 0.0, as the server and coordinator sum.
    pub fn agg(&mut self, sim: bool) -> f64 {
        let mut sum = 0.0f64;
        for shard in &mut self.shards {
            sum += if sim { shard.similarity() } else { shard.cardinality() };
        }
        if sim {
            sum / self.shards.len() as f64
        } else {
            sum
        }
    }
}
