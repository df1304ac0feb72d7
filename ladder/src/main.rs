//! `ladder`: the repo's benchmark. Five workloads, nine end-to-end
//! metrics, and a per-layer ladder from one `mix64` call up to an RF=2
//! cluster insert. See `README.md` beside this package for the names,
//! why each workload exists, and which layer should move which metric.
//!
//! ```text
//! ladder --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! ladder [--seed N] [--seconds S] [--runs R]            a set: R passes over all workloads
//! ladder --self-check [--seed N] [--seconds S] [--runs R]
//! ladder --list | --emit-benchmark-json
//! ```

mod gen;
mod node;
mod rungs;
mod spec;
mod stats;
mod target;
mod trace;
mod workload;

use spec::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Report;

/// The README's two seeds: develop on the first, confirm on the second.
const SEED: u64 = 20_220_829;
/// Passes per set unless `--runs` says otherwise.
const RUNS: usize = 3;
/// Metrics that must repeat exactly for one seed on one build.
const EXACT_REPEAT: [&str; 4] = ["member_fpr", "freq_are", "card_re", "state_bytes"];

#[derive(Debug)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    scale: usize,
    runs: usize,
    self_check: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        trace_out: None,
        scale: 1,
        runs: RUNS,
        self_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            out.self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                let w =
                    spec::workload(value).ok_or_else(|| bad(&"no such workload (see --list)"))?;
                out.workload = Some(w.name);
            }
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
            "--scale" => out.scale = value.parse().map_err(|e| bad(&e))?,
            "--runs" => out.runs = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", out.seconds));
    }
    if out.trace && out.workload.is_none() {
        return Err("--trace 1 needs --workload: sets and --self-check run untraced".to_string());
    }
    if out.scale == 0 || out.runs == 0 {
        return Err("--scale and --runs must be at least 1".to_string());
    }
    Ok(out)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
fn result_json(report: &Report, table: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for m in table {
        let value =
            *report.metrics.get(m.name).ok_or_else(|| format!("{} not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} measured {value}", m.name));
        }
        fields.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn run_once(args: &Args, workload: &'static str) -> Result<Report, String> {
    let trace_out =
        args.trace.then(|| args.trace_out.clone().unwrap_or_else(workload::default_trace_path));
    workload::run(workload, args.seed, args.seconds, args.scale, trace_out)
        .map_err(|e| format!("{workload}: {e}"))
}

/// The driver's form: one workload, one run, the result as the last line.
fn contract_run(args: &Args, workload: &'static str) -> Result<(), String> {
    let report = run_once(args, workload)?;
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = result_json(&report, table)?;
    for m in table {
        println!("{workload}.{} {} {}", m.name, report.metrics[m.name], m.unit);
    }
    println!("{workload}.ops_attempted {} count", report.attempted);
    println!("{workload}.ops_failed {} count", report.failed);
    println!("{line}");
    Ok(())
}

/// Every pass's value of one metric on one workload, keyed by both names.
type Set = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// A set: `runs` passes over all five workloads, tracing off.
fn run_set(args: &Args) -> Result<Set, String> {
    let mut set = Set::new();
    for pass in 1..=args.runs {
        for w in &WORKLOADS {
            let report = run_once(args, w.name)?;
            if report.failed > 0 {
                return Err(format!(
                    "{}: {} of {} ops failed",
                    w.name, report.failed, report.attempted
                ));
            }
            eprintln!("ladder: pass {pass}/{} {} ok ({} ops)", args.runs, w.name, report.attempted);
            for m in &END_TO_END {
                set.entry((w.name, m.name)).or_default().push(report.metrics[m.name]);
            }
        }
    }
    Ok(set)
}

/// Rung-to-rung ratios of a set's medians, each with its base.
fn ladder_ratios(set: &Set) -> [(&'static str, f64); 3] {
    let m = |w: &'static str, metric: &'static str| stats::median(&set[&(w, metric)]);
    [
        // Two cores serve; one thread runs the direct engine.
        (
            "ladder.serve_over_engine",
            m("ingest_sat", "ingest_keys_per_s") / (2.0 * m("engine_direct", "ingest_keys_per_s")),
        ),
        (
            "ladder.cluster_over_serve",
            m("cluster_rf2", "ingest_keys_per_s") / m("ingest_sat", "ingest_keys_per_s"),
        ),
        (
            "ladder.batch_over_single_read",
            m("point_reads", "batch_read_keys_per_s") / m("point_reads", "read_keys_per_s"),
        ),
    ]
}

fn print_set(set: &Set) {
    let min_max = |v: &[f64]| {
        v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    };
    let mut cells = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = &set[&(w.name, m.name)];
            let (median, (min, max)) = (stats::median(values), min_max(values));
            println!("{}.{} {median} {} (min {min} max {max})", w.name, m.name, m.unit);
            cells.push(format!(
                "\"{}.{}\": {{\"median\": {median}, \"min\": {min}, \"max\": {max}}}",
                w.name, m.name
            ));
        }
    }
    for (name, value) in ladder_ratios(set) {
        println!("{name} {value} ratio");
        cells.push(format!("\"{name}\": {value}"));
    }
    println!("{{{}}}", cells.join(", "));
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(m: &Metric, first: f64, second: f64) -> f64 {
    let delta = match m.better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    delta / first.abs()
}

/// Two sets of the same build, back to back: every end-to-end median
/// must agree within its own bound, the exact-repeat ones exactly. The
/// observed difference is printed beside each bound, so a bound can be
/// tightened from evidence.
fn self_check(args: &Args) -> Result<(), String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut broken = Vec::new();
    println!("workload.metric first second |change| bound spread");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = (&first[&(w.name, m.name)], &second[&(w.name, m.name)]);
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let change = worsening(m, med_a, med_b).abs();
            // Spread as the driver takes it, over both sets' runs.
            let pooled: Vec<f64> = a.iter().chain(b).copied().collect();
            let spread = stats::quartile_spread(&pooled);
            let exact = EXACT_REPEAT.contains(&m.name);
            let ok = if exact { pooled.iter().all(|&v| v == med_a) } else { change <= bound };
            println!(
                "{}.{} {med_a} {med_b} {change:.4} {bound}{} {spread:.4}{}",
                w.name,
                m.name,
                if exact { " (exact repeat)" } else { "" },
                if ok { "" } else { "  <-- outside" }
            );
            if !ok {
                broken.push(format!("{}.{}", w.name, m.name));
            }
        }
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("medians of two sets disagree beyond their bounds: {}", broken.join(", ")))
    }
}

fn dispatch(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("node") => return node::run_node(&argv[1..]),
        Some("--list") => {
            print!("{}", spec::list());
            return Ok(());
        }
        Some("--emit-benchmark-json") => {
            print!("{}", spec::benchmark_json());
            return Ok(());
        }
        _ => {}
    }
    let args = parse(argv)?;
    if args.self_check {
        self_check(&args)
    } else if let Some(workload) = args.workload {
        contract_run(&args, workload)
    } else {
        run_set(&args).map(|set| print_set(&set))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ladder: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&strings(&[
            "--workload",
            "fast_95_5",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("the contract's flags");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Some("fast_95_5"), 7, 10.0, true));
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--trace", "2"])).is_err());
        assert!(parse(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contracts_keys() {
        let metrics = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let report = Report { attempted: 10, failed: 0, metrics };
        let line = result_json(&report, &END_TO_END).expect("all metrics present");
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));

        let mut report = report;
        report.failed = 1;
        assert!(result_json(&report, &END_TO_END)
            .expect("still emits")
            .contains("\"correct\": false"));
        report.metrics.insert("setup_s", f64::NAN);
        assert!(result_json(&report, &END_TO_END).is_err(), "a non-number is refused");
        report.metrics.remove("setup_s");
        assert!(result_json(&report, &END_TO_END).is_err(), "a missing metric is refused");
    }

    #[test]
    fn ratio_math_uses_the_named_bases() {
        let mut set = Set::new();
        let mut put = |w, m, v| {
            set.insert((w, m), vec![v]);
        };
        put("engine_direct", "ingest_keys_per_s", 500.0);
        put("ingest_sat", "ingest_keys_per_s", 900.0);
        put("cluster_rf2", "ingest_keys_per_s", 225.0);
        put("point_reads", "batch_read_keys_per_s", 1300.0);
        put("point_reads", "read_keys_per_s", 20.0);
        let ratios: BTreeMap<_, _> = ladder_ratios(&set).into_iter().collect();
        assert_eq!(ratios["ladder.serve_over_engine"], 0.9);
        assert_eq!(ratios["ladder.cluster_over_serve"], 0.25);
        assert_eq!(ratios["ladder.batch_over_single_read"], 65.0);
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let higher = END_TO_END.iter().find(|m| m.name == "ingest_keys_per_s").expect("in table");
        let lower = END_TO_END.iter().find(|m| m.name == "setup_s").expect("in table");
        assert_eq!(worsening(higher, 100.0, 90.0), 0.1);
        assert_eq!(worsening(higher, 100.0, 110.0), -0.1);
        assert_eq!(worsening(lower, 2.0, 2.5), 0.25);
        assert!(EXACT_REPEAT.iter().all(|n| END_TO_END.iter().any(|m| m.name == *n)));
    }
}
