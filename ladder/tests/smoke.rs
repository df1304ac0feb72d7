//! Every workload through the real binary at 1/200 scale: the same code
//! path the driver runs, cluster included, in well under a second each.

use std::process::Command;

const WORKLOADS: [&str; 5] =
    ["engine_direct", "ingest_sat", "point_reads", "fast_95_5", "cluster_rf2"];

/// Run one contract-form invocation and return its result line.
fn result_line(workload: &str, trace: &str) -> String {
    let trace_out = std::env::temp_dir().join(format!("ladder-smoke-{workload}-{trace}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_ladder"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace])
        .args(["--scale", "200", "--trace-out"])
        .arg(&trace_out)
        .output()
        .expect("ladder runs");
    let _ = std::fs::remove_file(&trace_out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The number after `"name": {"value": ` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing from {line}")) + key.len();
    let end = line[at..].find(',').expect("a unit follows the value");
    line[at..at + end].parse().unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn check_untraced(workload: &str) {
    let line = result_line(workload, "0");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for name in [
        "setup_s",
        "ingest_keys_per_s",
        "read_keys_per_s",
        "batch_read_keys_per_s",
        "agg_reads_per_s",
        "member_fpr",
        "freq_are",
        "card_re",
        "state_bytes",
    ] {
        let v = value(&line, name);
        assert!(v.is_finite() && v > 0.0, "{workload}.{name} = {v}");
    }
}

/// `ladder node` processes of this build still alive.
fn leaked_nodes() -> Vec<String> {
    let exe = env!("CARGO_BIN_EXE_ladder");
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("procfs").flatten() {
        let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else { continue };
        let args: Vec<&[u8]> = raw.split(|&b| b == 0).collect();
        if args.first() == Some(&exe.as_bytes()) && args.get(1) == Some(&&b"node"[..]) {
            found.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    found
}

#[test]
fn engine_direct_smoke() {
    check_untraced("engine_direct");
}

#[test]
fn ingest_sat_smoke() {
    check_untraced("ingest_sat");
}

#[test]
fn point_reads_smoke() {
    check_untraced("point_reads");
}

#[test]
fn fast_95_5_smoke_untraced_and_traced() {
    check_untraced("fast_95_5");
    let line = result_line("fast_95_5", "1");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    assert!(value(&line, "she-readpath.hit_ratio") > 0.0, "the mark cache is used: {line}");
    assert!(value(&line, "client.read_n") > 0.0, "reads were sampled: {line}");
    assert!(value(&line, "she-core.mh_insert_ns_per_key") > 0.0, "rungs ran: {line}");
    assert!(value(&line, "trace.overhead_ratio") > 0.0, "{line}");
}

/// The only test that spawns node processes, so whatever `ladder node`
/// is alive afterwards was leaked by it.
#[test]
fn cluster_rf2_smoke_reaps_its_nodes() {
    check_untraced("cluster_rf2");
    let line = result_line("cluster_rf2", "1");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    assert!(value(&line, "she-cluster.insert_legs_per_batch") > 1.0, "batches split: {line}");
    assert!(value(&line, "she-cluster.scatter_batch_us") > 0.0, "{line}");
    assert_eq!(leaked_nodes(), Vec::<String>::new(), "node processes outlived their run");
}

#[test]
fn every_workload_is_smoked() {
    let listing = Command::new(env!("CARGO_BIN_EXE_ladder")).arg("--list").output().expect("runs");
    let listing = String::from_utf8(listing.stdout).expect("utf-8");
    for w in WORKLOADS {
        assert!(listing.contains(&format!("  {w}\n")), "{w} missing from --list");
    }
}
