//! The one table every name comes from: workloads, end-to-end metrics
//! and per-layer metrics, with units, directions and regress bounds.
//! `BENCHMARK.json`, `ladder --list`, the result emitter and the README
//! all read this table, so a later issue can cite a name mechanically.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its normative name and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// One metric. `bound` is the share of the parent's median by which an
/// end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// How long one contract run measures (`--seconds` from the driver).
pub const RUN_SECONDS: u32 = 10;

/// The benchmark's own directory, relative to the repository root.
pub const BENCH_DIR: &str = "ladder";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "engine_direct",
        why: "in-process DirectEngine on one thread, no sockets: she-core does all the work, \
              so this is the single-threaded baseline and the paper anchor",
    },
    Workload {
        name: "ingest_sat",
        why: "plain loopback server, 2 closed-loop INSERT_BATCH connections for most of the \
              run: engine-bound ingest as a service user sees it, the control for serving-tier \
              changes",
    },
    Workload {
        name: "point_reads",
        why: "plain loopback server, one connection, read-dominated: reactor, shard queue, \
              worker and completion path do the work, so engine insert changes must not move it",
    },
    Workload {
        name: "fast_95_5",
        why: "server with op log and read path: pipelined QUERY_FAST with one 256-key insert \
              per 4864 reads, so the mark cache is used and writes pay the log and the mirror",
    },
    Workload {
        name: "cluster_rf2",
        why: "three node processes at RF=2 behind one routed writer and a coordinator: the op \
              log, replica apply and scatter-gather do work no other workload exercises",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_keys_per_s", "keys/s", Higher, 0.25),
    e2e("read_keys_per_s", "keys/s", Higher, 0.25),
    e2e("batch_read_keys_per_s", "keys/s", Higher, 0.25),
    e2e("agg_reads_per_s", "1/s", Higher, 0.25),
    e2e("member_fpr", "ratio", Lower, 0.15),
    e2e("freq_are", "ratio", Lower, 0.20),
    e2e("card_re", "ratio", Lower, 0.25),
    e2e("state_bytes", "B", Lower, 0.01),
];

pub const PER_LAYER: [Metric; 59] = [
    layer("she-streams.trace_gen_ns_per_key", "ns/key", Lower),
    layer("she-hash.mix64_ns_per_key", "ns/key", Lower),
    layer("she-hash.bob_ns_per_key", "ns/key", Lower),
    layer("she-core.bf_insert_ns_per_key", "ns/key", Lower),
    layer("she-core.bm_insert_ns_per_key", "ns/key", Lower),
    layer("she-core.cm_insert_ns_per_key", "ns/key", Lower),
    layer("she-core.hll_insert_ns_per_key", "ns/key", Lower),
    layer("she-core.mh_insert_ns_per_key", "ns/key", Lower),
    layer("she-core.bf_contains_ns_per_key", "ns/key", Lower),
    layer("she-core.cm_query_ns_per_key", "ns/key", Lower),
    layer("she-core.bm_estimate_us", "us", Lower),
    layer("she-core.mh_similarity_us", "us", Lower),
    layer("she-server.engine.insert_a_ns_per_key", "ns/key", Lower),
    layer("she-server.engine.insert_b_ns_per_key", "ns/key", Lower),
    layer("she-server.engine.member_ns_per_key", "ns/key", Lower),
    layer("she-server.engine.freq_ns_per_key", "ns/key", Lower),
    layer("she-server.engine.card_us", "us", Lower),
    layer("she-server.engine.sim_us", "us", Lower),
    layer("she-server.engine.partition_ns_per_key", "ns/key", Lower),
    layer("she-server.engine.snapshot_us", "us", Lower),
    layer("she-server.engine.restore_us", "us", Lower),
    layer("she-server.engine.snapshot_bytes", "B", Lower),
    layer("she-server.worker.batch_hop_ns_per_key", "ns/key", Lower),
    layer("she-server.worker.query_hop_us", "us", Lower),
    layer("she-server.worker.queue_depth_max", "count", Lower),
    layer("she-server.conn.decode_ns_per_key", "ns/key", Lower),
    layer("she-server.conn.encode_ns_per_resp", "ns", Lower),
    layer("she-server.protocol.encode_ns_per_key", "ns/key", Lower),
    layer("she-server.repl.ingest_ns_per_key", "ns/key", Lower),
    layer("she-server.repl.tail_ns_per_record", "ns", Lower),
    layer("she-readpath.query_hit_ns", "ns", Lower),
    layer("she-readpath.query_miss_ns", "ns", Lower),
    layer("she-readpath.apply_ns_per_key", "ns/key", Lower),
    layer("she-readpath.hit_ratio", "ratio", Higher),
    layer("she-readpath.fills", "count", Lower),
    layer("she-readpath.invalidations", "count", Lower),
    layer("she-readpath.mirror_lag_ms", "ms", Lower),
    layer("she-replica.catchup_ms", "ms", Lower),
    layer("she-replica.apply_lag_seq_max", "count", Lower),
    layer("she-cluster.insert_legs_per_batch", "count", Lower),
    layer("she-cluster.scatter_batch_us", "us", Lower),
    layer("she-cluster.scatter_agg_us", "us", Lower),
    layer("client.insert_ack_p50_us", "us", Lower),
    layer("client.insert_ack_tail_us", "us", Lower),
    layer("client.insert_ack_tail_pct", "%", Higher),
    layer("client.insert_ack_n", "count", Higher),
    layer("client.read_p50_us", "us", Lower),
    layer("client.read_tail_us", "us", Lower),
    layer("client.read_tail_pct", "%", Higher),
    layer("client.read_n", "count", Higher),
    layer("client.busy_retries", "count", Lower),
    layer("client.shed_retries", "count", Lower),
    layer("accuracy.sim_abs_err", "ratio", Lower),
    layer("ladder.ingest_over_engine", "ratio", Higher),
    layer("ladder.read_over_engine", "ratio", Higher),
    layer("ladder.batch_over_single_read", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.spans_dropped", "count", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, byte for byte (a unit test holds the file to it).
pub fn benchmark_json() -> String {
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    let command =
        ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", &manifest, "--"]
            .map(json_str)
            .join(", ");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(&why))
        })
        .collect();
    let metric = |m: &Metric| {
        let mut s = format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        );
        if let Some(b) = m.bound {
            s.push_str(&format!(", \"bound\": {b}"));
        }
        s.push('}');
        s
    };
    let e2e: Vec<String> = END_TO_END.iter().map(metric).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        json_str(BENCH_DIR),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

/// `ladder --list`: every name with its unit, direction and bound.
pub fn list() -> String {
    let mut out = String::new();
    out.push_str("workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {}\n", w.name));
    }
    out.push_str("end_to_end (name unit better bound)\n");
    for m in &END_TO_END {
        let bound = m.bound.map_or(String::new(), |b| format!("{b}"));
        out.push_str(&format!("  {} {} {} {bound}\n", m.name, m.unit, m.better.as_str()));
    }
    out.push_str("per_layer (name unit better)\n");
    for m in &PER_LAYER {
        out.push_str(&format!("  {} {} {}\n", m.name, m.unit, m.better.as_str()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {}", w.name);
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "why of {} has {} chars", w.name, why.len());
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "metric name {}", m.name);
            assert!(unit_ok(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "bound {b} of {}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    fn benchmark_json_on_disk_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `ladder --emit-benchmark-json`");
    }

    #[test]
    fn list_names_every_metric() {
        let listing = list();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(listing.contains(m.name), "{} missing from --list", m.name);
        }
    }
}
