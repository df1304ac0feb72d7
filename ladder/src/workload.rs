//! One run of one workload: set-up, the deterministic verify pass that
//! checks outputs, the timed phases, and — on a traced run — the same
//! phases again under spans plus the offline rungs.

use crate::gen::{Inputs, Sizes, Truth, BATCH};
use crate::rungs::{self, Rungs};
use crate::stats::{median, Samples};
use crate::target::{Direct, Flavor, Op, Probe, Target, Twin, Wire};
use crate::trace::Tracer;
use she_server::cluster_op;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// 256-key runs per ingest round. A multiple of the replica's 32-record
/// ack cadence, so a cluster round's last record is acknowledged at once
/// instead of at the next heartbeat.
const INGEST_ROUND_RUNS: usize = 128;
/// Reads between two inserts of the 95/5 mix (95 % of items are reads).
const READS_PER_WRITE: usize = 4864;
/// `card` + `sim` pairs per aggregate round.
const AGG_ROUND_PAIRS: usize = 8;
/// The verify pass asks for cardinality and similarity this often.
const CHECKPOINT_RUNS: usize = 16;
/// Times the verify pass probes the key sets (absent keys, in-window keys).
const DEEP_CHECKS: usize = 4;
/// A similarity estimate further than this from the exact Jaccard is a
/// wrong answer, not a noisy one (128 rows x 4 shards put the noise near
/// 0.02).
const SIM_SANITY: f64 = 0.2;
/// Spans a traced run has room for.
const SPAN_CAPACITY: usize = 1 << 20;

/// How a workload spends `--seconds`, and at what grain it measures.
#[derive(Debug, Clone, Copy)]
struct Plan {
    system: System,
    /// Closed-loop insert connections (threads) during timed ingest.
    writers: usize,
    /// Shares of the measured time: ingest, single reads, batch reads,
    /// aggregate reads.
    shares: [f64; 4],
    /// Single reads per round.
    read_round: usize,
    /// Batch reads per round.
    batch_round: usize,
    /// Interleave one 256-key insert per [`READS_PER_WRITE`] reads.
    mixed: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum System {
    Direct,
    Served(Flavor),
}

fn plan(workload: &str) -> Option<Plan> {
    let served = |flavor| System::Served(flavor);
    Some(match workload {
        "engine_direct" => Plan {
            system: System::Direct,
            writers: 1,
            shares: [0.4, 0.25, 0.1, 0.25],
            read_round: 1 << 17,
            batch_round: 512,
            mixed: false,
        },
        "ingest_sat" => Plan {
            system: served(Flavor::Plain),
            writers: 2,
            shares: [0.55, 0.15, 0.15, 0.15],
            read_round: 1024,
            batch_round: 64,
            mixed: false,
        },
        "point_reads" => Plan {
            system: served(Flavor::Plain),
            writers: 1,
            shares: [0.15, 0.35, 0.3, 0.2],
            read_round: 1024,
            batch_round: 64,
            mixed: false,
        },
        "fast_95_5" => Plan {
            system: served(Flavor::Fast),
            writers: 1,
            shares: [0.15, 0.55, 0.15, 0.15],
            read_round: READS_PER_WRITE,
            batch_round: 64,
            mixed: true,
        },
        "cluster_rf2" => Plan {
            system: served(Flavor::Cluster),
            writers: 1,
            shares: [0.4, 0.15, 0.25, 0.2],
            read_round: 256,
            batch_round: 32,
            mixed: false,
        },
        _ => return None,
    })
}

/// What one run reports.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics on an untraced run, per-layer on a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Answers scored against exact truth during the verify pass.
#[derive(Debug, Clone, Copy)]
struct Accuracy {
    member_fpr: f64,
    freq_are: f64,
    card_re: f64,
    sim_abs_err: f64,
}

/// Throughput of the four timed phases.
#[derive(Debug, Clone, Copy)]
struct Rates {
    ingest: f64,
    read: f64,
    batch: f64,
    agg: f64,
}

fn start(plan: &Plan) -> io::Result<Box<dyn Target>> {
    Ok(match plan.system {
        System::Direct => Box::new(Direct::start()),
        System::Served(Flavor::Cluster) => Box::new(Wire::cluster()?),
        System::Served(flavor) => Box::new(Wire::serve(flavor, plan.writers)?),
    })
}

/// Everything up to the first timed operation: generate the inputs,
/// start the system, preload it, and wait until every holder (and the
/// read-path mirror) has caught up.
fn set_up(
    plan: &Plan,
    seed: u64,
    sizes: &Sizes,
    probe: &mut Probe,
) -> io::Result<(Inputs, Box<dyn Target>, f64)> {
    let t = Instant::now();
    let inputs = Inputs::generate(seed, sizes);
    let mut target = start(plan)?;
    for (stream, run) in inputs.runs(0).take(sizes.preload / BATCH) {
        target.insert(stream, run, probe)?;
    }
    target.barrier(probe)?;
    Ok((inputs, target, t.elapsed().as_secs_f64()))
}

/// The in-process reference and the exact truth, fed in step with the
/// target, plus the running sums the accuracy metrics come from.
struct Checker {
    twin: Twin,
    truth: Truth,
    checkpoints: u32,
    card_re: f64,
    sim_err: f64,
    absent_probed: usize,
    false_positives: u64,
    window_keys: usize,
    freq_re: f64,
}

impl Checker {
    fn new(cfg: she_server::EngineConfig) -> Checker {
        Checker {
            twin: Twin::new(cfg),
            truth: Truth::new(cfg),
            checkpoints: 0,
            card_re: 0.0,
            sim_err: 0.0,
            absent_probed: 0,
            false_positives: 0,
            window_keys: 0,
            freq_re: 0.0,
        }
    }

    fn insert(&mut self, stream: u8, run: &[u64]) {
        self.twin.insert(stream, run);
        self.truth.insert(stream, run);
    }

    /// Cardinality and similarity: equal to the twin's, scored against
    /// truth.
    fn aggregates(&mut self, target: &mut dyn Target, probe: &mut Probe) -> io::Result<()> {
        let served = target.aggs(&[false, true], probe)?;
        let want = [self.twin.agg(false), self.twin.agg(true)];
        if served != want {
            probe.fail(&format!("aggregates: served {served:?}, twin {want:?}"));
        }
        let (card, sim) = (served[0], served[1]);
        self.card_re += (card - self.truth.cardinality()).abs() / self.truth.cardinality();
        let err = (sim - self.truth.jaccard()).abs();
        if err.is_nan() || err > SIM_SANITY {
            probe.fail(&format!("similarity {sim} vs exact Jaccard {}", self.truth.jaccard()));
        }
        self.sim_err += err;
        self.checkpoints += 1;
        Ok(())
    }

    /// One batch read, every answer equal to the twin's.
    fn batch(
        &mut self,
        target: &mut dyn Target,
        op: u8,
        keys: &[u64],
        probe: &mut Probe,
    ) -> io::Result<Vec<u64>> {
        let got = target.batches(op, keys, probe)?;
        for (&key, &answer) in keys.iter().zip(&got) {
            let ask = if op == cluster_op::MEMBER { Op::Member(key) } else { Op::Freq(key) };
            let want = self.twin.point(&ask, false);
            if answer != want {
                probe.fail(&format!(
                    "batch read op {op} key {key:#x}: served {answer}, twin {want}"
                ));
            }
        }
        Ok(got)
    }

    /// Membership of never-inserted keys (false positives), then
    /// membership and frequency of every key inside its shard's window
    /// (no false negative allowed; relative frequency error).
    fn point_sets(
        &mut self,
        target: &mut dyn Target,
        absent: &[u64],
        probe: &mut Probe,
    ) -> io::Result<()> {
        // No barrier: a read is queued behind every insert acknowledged
        // before it was sent, on whichever connection it travels.
        let answers = self.batch(target, cluster_op::MEMBER, absent, probe)?;
        self.absent_probed += absent.len();
        self.false_positives += answers.iter().sum::<u64>();

        let in_window = self.truth.in_window();
        let keys: Vec<u64> = in_window.iter().map(|&(k, _)| k).collect();
        let present = self.batch(target, cluster_op::MEMBER, &keys, probe)?;
        for (&key, _) in keys.iter().zip(&present).filter(|(_, &m)| m == 0) {
            probe.fail(&format!("false negative inside the window: key {key:#x}"));
        }
        let freqs = self.batch(target, cluster_op::FREQ, &keys, probe)?;
        self.window_keys += keys.len();
        self.freq_re += in_window
            .iter()
            .zip(&freqs)
            .map(|(&(_, exact), &est)| (est as f64 - f64::from(exact)).abs() / f64::from(exact))
            .sum::<f64>();
        Ok(())
    }
}

/// The deterministic single-writer pass. *Server = engine*: every answer
/// is compared bit for bit with an in-process twin fed the same inserts
/// and asked the same questions. *Engine = paper*: the same answers are
/// scored against exact sliding-window truth, and membership must have
/// no false negative inside the window.
fn verify(
    target: &mut dyn Target,
    inputs: &Inputs,
    sizes: &Sizes,
    probe: &mut Probe,
) -> io::Result<Accuracy> {
    let mut check = Checker::new(target.engine_config());
    for (stream, run) in inputs.runs(0).take(sizes.preload / BATCH) {
        check.insert(stream, run);
    }

    // Aggregates often; the key sets, which are bigger, a few times, a
    // window apart — several states sampled steady the accuracy metrics.
    let verify_runs = sizes.verify / BATCH;
    let deep_every = verify_runs / DEEP_CHECKS;
    let mut absent = inputs.absent.chunks(inputs.absent.len() / DEEP_CHECKS);
    for (i, (stream, run)) in inputs.runs(sizes.preload).take(verify_runs).enumerate() {
        target.insert(stream, run, probe)?;
        check.insert(stream, run);
        if (i + 1) % CHECKPOINT_RUNS == 0 {
            check.aggregates(target, probe)?;
        }
        if (i + 1) % deep_every == 0 {
            if let Some(absent) = absent.next() {
                check.point_sets(target, absent, probe)?;
            }
        }
    }

    // Single reads. Fast reads come from the frozen mirror: with the
    // cache flushed and the mirror caught up, each is refilled exactly.
    target.barrier(probe)?;
    let frozen = target.exact_point_reads()?;
    let ops: Vec<Op<'_>> = inputs.reads[..sizes.point_checks]
        .iter()
        .enumerate()
        .map(|(i, &k)| if i % 2 == 0 { Op::Member(k) } else { Op::Freq(k) })
        .collect();
    let got = target.points(&ops, probe)?;
    for (op, &answer) in ops.iter().zip(&got) {
        let want = check.twin.point(op, frozen);
        if answer != want {
            probe.fail(&format!("single read {op:?}: served {answer}, twin {want}"));
        }
    }

    let checkpoints = f64::from(check.checkpoints.max(1));
    Ok(Accuracy {
        member_fpr: check.false_positives as f64 / check.absent_probed.max(1) as f64,
        freq_are: check.freq_re / check.window_keys.max(1) as f64,
        card_re: check.card_re / checkpoints,
        sim_abs_err: check.sim_err / checkpoints,
    })
}

/// Position in the write and read streams, carried across phases.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    write_key: usize,
    read: usize,
}

/// Run `round` until `budget` is spent (at least once), collecting each
/// round's rate. A round builds its requests first and clocks only the
/// calls.
fn rounds(
    budget: Duration,
    probe: &mut Probe,
    span: &'static str,
    rates: &mut Vec<f64>,
    mut round: impl FnMut(&mut Probe) -> io::Result<f64>,
) -> io::Result<()> {
    let until = Instant::now() + budget;
    loop {
        probe.phase = probe.tracer.as_mut().map_or(0, |t| t.begin(span, 0));
        rates.push(round(probe)?);
        if let Some(t) = probe.tracer.as_mut() {
            t.end(probe.phase);
        }
        probe.phase = 0;
        if Instant::now() >= until {
            return Ok(());
        }
    }
}

/// The four timed phases, each to its own clock: throughput is items of
/// one class over the wall time of that class's rounds, never over the
/// run. The phases take turns in one-second cycles, so each metric
/// samples the whole run and a slow second on a shared box costs every
/// metric a few rounds instead of one metric its whole phase; a metric is
/// the median of its rounds' rates.
fn timed_phases(
    plan: &Plan,
    target: &mut dyn Target,
    inputs: &Inputs,
    cursor: &mut Cursor,
    seconds: f64,
    probe: &mut Probe,
) -> io::Result<Rates> {
    let cycles = (seconds.round() as usize).max(1);
    let slice = |share: f64| Duration::from_secs_f64(seconds * share / cycles as f64);
    let batch_keys = plan.batch_round * BATCH;
    let mut rates: [Vec<f64>; 4] = Default::default();
    for _ in 0..cycles {
        // Inserts are acknowledged at admission, so every round ends at
        // a drain barrier and the barrier is on the clock.
        rounds(slice(plan.shares[0]), probe, "phase.ingest", &mut rates[0], |probe| {
            let runs: Vec<(u8, &[u64])> =
                inputs.runs(cursor.write_key).take(INGEST_ROUND_RUNS).collect();
            cursor.write_key += INGEST_ROUND_RUNS * BATCH;
            let t = Instant::now();
            target.ingest(&runs, probe)?;
            target.barrier(probe)?;
            Ok(per_second(INGEST_ROUND_RUNS * BATCH, t))
        })?;

        rounds(slice(plan.shares[1]), probe, "phase.read", &mut rates[1], |probe| {
            let mut ops: Vec<Op<'_>> = (0..plan.read_round)
                .map(|i| {
                    let k = inputs.reads[(cursor.read + i) % inputs.reads.len()];
                    if i % 2 == 0 {
                        Op::Member(k)
                    } else {
                        Op::Freq(k)
                    }
                })
                .collect();
            cursor.read += plan.read_round;
            if plan.mixed {
                let (stream, run) = inputs.runs(cursor.write_key).next().expect("endless");
                cursor.write_key += BATCH;
                ops.push(Op::Insert(stream, run));
            }
            let t = Instant::now();
            target.points(&ops, probe)?;
            Ok(per_second(plan.read_round, t))
        })?;

        rounds(slice(plan.shares[2]), probe, "phase.batch_read", &mut rates[2], |probe| {
            let from = cursor.read % (inputs.reads.len() - batch_keys);
            cursor.read += batch_keys;
            // Both ops in every round: member and frequency differ in
            // cost, and rounds of one op each would make two modes.
            let (members, freqs) = inputs.reads[from..from + batch_keys].split_at(batch_keys / 2);
            let t = Instant::now();
            target.batches(cluster_op::MEMBER, members, probe)?;
            target.batches(cluster_op::FREQ, freqs, probe)?;
            Ok(per_second(batch_keys, t))
        })?;

        rounds(slice(plan.shares[3]), probe, "phase.agg", &mut rates[3], |probe| {
            let asks: Vec<bool> = (0..2 * AGG_ROUND_PAIRS).map(|i| i % 2 == 1).collect();
            let t = Instant::now();
            target.aggs(&asks, probe)?;
            Ok(per_second(asks.len(), t))
        })?;
    }
    let [ingest, read, batch, agg] = rates.map(|r| median(&r));
    Ok(Rates { ingest, read, batch, agg })
}

fn per_second(units: usize, since: Instant) -> f64 {
    units as f64 / since.elapsed().as_secs_f64()
}

/// Where a traced run writes its spans unless `--trace-out` says
/// otherwise: beside the build, which `.gitignore` already covers.
pub fn default_trace_path() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
        PathBuf::from,
    );
    dir.join("ladder-trace.jsonl")
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_ms(samples: &Samples) -> f64 {
    samples.summary().map_or(0.0, |s| s.p50 as f64 / 1e6)
}

/// Run one workload once. Untraced, the report carries the end-to-end
/// metrics; traced, the per-layer ones.
pub fn run(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    scale: usize,
    trace_out: Option<PathBuf>,
) -> io::Result<Report> {
    let plan = plan(workload).expect("workload names come from the spec table");
    let sizes = Sizes::scaled(scale);
    let traced = trace_out.is_some();
    let mut probe = Probe::default();

    // Set up several times and keep the last: the median steadies
    // `setup_s`, and work a later change moves into set-up shows in it.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(ready.take());
        let (inputs, target, secs) = set_up(&plan, seed, &sizes, &mut probe)?;
        setup_times.push(secs);
        ready = Some((inputs, target));
    }
    let (inputs, mut target) = ready.expect("at least one set-up");
    let accuracy = verify(&mut *target, &inputs, &sizes, &mut probe)?;
    let mut cursor = Cursor { write_key: sizes.preload + sizes.verify, read: 0 };

    let mut metrics = BTreeMap::new();
    if !traced {
        let rates = timed_phases(&plan, &mut *target, &inputs, &mut cursor, seconds, &mut probe)?;
        metrics.insert("setup_s", median(&setup_times));
        metrics.insert("ingest_keys_per_s", rates.ingest);
        metrics.insert("read_keys_per_s", rates.read);
        metrics.insert("batch_read_keys_per_s", rates.batch);
        metrics.insert("agg_reads_per_s", rates.agg);
        metrics.insert("member_fpr", accuracy.member_fpr);
        metrics.insert("freq_are", accuracy.freq_are);
        metrics.insert("card_re", accuracy.card_re);
        metrics.insert("state_bytes", target.state_bytes()? as f64);
        return Ok(Report { attempted: probe.attempted, failed: probe.failed, metrics });
    }

    // Traced: the phases once without spans and once with them — the
    // ratio of the two is the tracing overhead — then the offline rungs.
    let share = 0.4 * seconds;
    let plain = timed_phases(&plan, &mut *target, &inputs, &mut cursor, share, &mut probe)?;
    let counters_before = target.readpath_counters()?;
    probe.tracer = Some(Tracer::new(workload, SPAN_CAPACITY));
    let spanned = timed_phases(&plan, &mut *target, &inputs, &mut cursor, share, &mut probe)?;
    let counters_after = target.readpath_counters()?;
    let (busy, shed) = target.retries();
    // The rungs run with the served system gone, so nothing else competes.
    drop(target);
    let mut tracer = probe.tracer.take().expect("installed above");
    let rungs = rungs::run(&inputs, seed, Duration::from_secs_f64(0.2 * seconds), &mut tracer)?;

    layer_metrics(&mut metrics, &rungs, &probe, &tracer, &plain, &spanned, accuracy);
    if let (Some(before), Some(after)) = (counters_before, counters_after) {
        let [hits, misses, fills, invalidations] =
            [0, 1, 2, 3].map(|i| (after[i] - before[i]) as f64);
        metrics.insert("she-readpath.hit_ratio", hits / (hits + misses).max(1.0));
        metrics.insert("she-readpath.fills", fills);
        metrics.insert("she-readpath.invalidations", invalidations);
    }
    metrics.insert("client.busy_retries", busy as f64);
    metrics.insert("client.shed_retries", shed as f64);

    let path = trace_out.expect("traced run");
    tracer.write_jsonl(&path)?;
    eprintln!("ladder: {} spans written to {}", tracer.len(), path.display());
    for (name, t) in tracer.totals() {
        eprintln!(
            "ladder:   {name:40} n={:<8} total={:>10.3} ms self={:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(Report { attempted: probe.attempted, failed: probe.failed, metrics })
}

/// Everything a traced run reports: the offline rungs as measured, what
/// the client side observed, and the ratios between rungs.
fn layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    rungs: &Rungs,
    probe: &Probe,
    tracer: &Tracer,
    plain: &Rates,
    spanned: &Rates,
    accuracy: Accuracy,
) {
    // A layer this workload never enters reports 0 for its counts.
    for metric in &crate::spec::PER_LAYER {
        m.insert(metric.name, 0.0);
    }
    m.extend(rungs.iter().map(|(&k, &v)| (k, v)));

    let mut latency = |names: [&'static str; 4], samples: &Samples| {
        if let Some(s) = samples.summary() {
            let values = [us(s.p50), us(s.tail), s.tail_pct, s.n as f64];
            m.extend(names.into_iter().zip(values));
        }
    };
    latency(
        [
            "client.insert_ack_p50_us",
            "client.insert_ack_tail_us",
            "client.insert_ack_tail_pct",
            "client.insert_ack_n",
        ],
        &probe.insert_lat,
    );
    latency(
        ["client.read_p50_us", "client.read_tail_us", "client.read_tail_pct", "client.read_n"],
        &probe.read_lat,
    );

    let totals = tracer.totals();
    let mean_us = |name: &str| {
        totals.get(name).map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1e3)
    };
    m.insert("she-cluster.scatter_batch_us", mean_us("cluster.scatter_batch"));
    m.insert("she-cluster.scatter_agg_us", mean_us("cluster.scatter_agg"));
    if probe.routed_batches > 0 {
        let legs = probe.routed_legs as f64 / probe.routed_batches as f64;
        m.insert("she-cluster.insert_legs_per_batch", legs);
    }
    m.insert("she-replica.catchup_ms", median_ms(&probe.replica_catchup));
    m.insert("she-replica.apply_lag_seq_max", probe.replica_lag_seq_max as f64);
    m.insert("she-readpath.mirror_lag_ms", median_ms(&probe.mirror_lag));
    m.insert("accuracy.sim_abs_err", accuracy.sim_abs_err);

    let per_s = |ns_per_key: f64| 1e9 / ns_per_key;
    let engine_insert = per_s(rungs["she-server.engine.insert_a_ns_per_key"]);
    let engine_read = per_s(
        (rungs["she-server.engine.member_ns_per_key"] + rungs["she-server.engine.freq_ns_per_key"])
            / 2.0,
    );
    m.insert("ladder.ingest_over_engine", plain.ingest / engine_insert);
    m.insert("ladder.read_over_engine", plain.read / engine_read);
    m.insert("ladder.batch_over_single_read", plain.batch / plain.read);
    m.insert("trace.overhead_ratio", plain.read / spanned.read);
    m.insert("trace.spans", tracer.len() as f64);
    m.insert("trace.spans_dropped", tracer.dropped() as f64);
}
