//! # she-audit — the workspace's static-analysis gate
//!
//! A dependency-free auditor that lexes every Rust source file in the
//! workspace, parses items into a conservative whole-workspace call
//! graph ([`parse`], [`graph`]), and enforces the repo invariants that
//! need that whole-program view: blocking calls reachable from the
//! reactor, wire lengths that size memory unclamped, and unbounded
//! growth. Each rule is one [`Rule`] pass, registered once in
//! [`RULES`]; `docs/ANALYSIS.md` catalogues them and the lints that
//! hold what the compiler can see. Every finding fails the gate.
//!
//! The entry point is [`audit`] (or [`audit_with`] for `--rule`
//! support); `she audit` (in `she-cli`) is a thin wrapper.

mod config;
mod lexer;
mod walk;

pub mod graph;
pub mod parse;
pub mod rules;

pub use config::RuleConfig;
pub use graph::{CallGraph, GraphStats, Reach};
pub use lexer::{lex, Lexed, TokKind, Token};
pub use rules::{Finding, Rule, RULES};
pub use walk::{discover, SourceFile};

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::time::Instant;

use rules::{Ctx, Roots};

/// Options for one audit run beyond the committed config.
#[derive(Debug, Default)]
pub struct AuditOptions {
    /// Run (and gate) only the named rule, a name in [`RULES`]. `None`
    /// runs everything.
    pub rule: Option<String>,
}

/// Wall time and yield of one rule pass.
#[derive(Debug, Clone)]
pub struct RuleTiming {
    pub name: &'static str,
    pub micros: u128,
    pub findings: usize,
}

/// The result of one audit run.
#[derive(Debug)]
pub struct Audit {
    /// Every finding, in deterministic (path, line) order; each one
    /// fails the gate.
    pub findings: Vec<Finding>,
    /// One line per pass with findings, as `she audit` prints it; empty
    /// means the gate passes.
    pub gate_failures: Vec<String>,
    /// Number of source files lexed.
    pub files_scanned: usize,
    /// Call-graph headline numbers (nodes, edges, roots, unresolved).
    pub graph_stats: GraphStats,
    /// Per-rule wall time, in rule execution order.
    pub timings: Vec<RuleTiming>,
}

impl Audit {
    /// Does the tree pass the gate?
    pub fn ok(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// Machine-readable report (the `--json` schema; see
    /// `docs/ANALYSIS.md`).
    pub fn to_json(&self) -> String {
        let g = &self.graph_stats;
        let rules: Vec<String> = self
            .timings
            .iter()
            .map(|t| {
                format!(
                    "{{\"name\":{},\"micros\":{},\"findings\":{}}}",
                    json_str(t.name),
                    t.micros,
                    t.findings
                )
            })
            .collect();
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"rule\":{},\"crate\":{},\"file\":{},\"line\":{},\"msg\":{}}}",
                    json_str(f.rule),
                    json_str(&f.crate_name),
                    json_str(&f.file),
                    f.line,
                    json_str(&f.msg)
                )
            })
            .collect();
        let gates: Vec<String> = self.gate_failures.iter().map(|g| json_str(g)).collect();
        format!(
            "{{\"ok\":{},\"files_scanned\":{},\"graph\":{{\"nodes\":{},\"edges\":{},\"roots\":{},\"unresolved_calls\":{}}},\"rules\":[{}],\"findings\":[{}],\"gate_failures\":[{}]}}",
            self.ok(),
            self.files_scanned,
            g.nodes,
            g.edges,
            g.roots,
            g.unresolved_calls,
            rules.join(","),
            findings.join(","),
            gates.join(",")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run every rule over the workspace rooted at `root`.
pub fn audit(root: &Path, cfg: &RuleConfig) -> io::Result<Audit> {
    audit_with(root, cfg, &AuditOptions::default())
}

/// Run the audit with options (`--rule` filter for local iteration).
/// A `--rule` no registered rule answers to is an `InvalidInput` error
/// naming the registered rules.
pub fn audit_with(root: &Path, cfg: &RuleConfig, opts: &AuditOptions) -> io::Result<Audit> {
    let selected = |rule: &dyn Rule| opts.rule.as_deref().is_none_or(|s| s == rule.name());
    if !RULES.iter().any(|r| selected(*r)) {
        let names: Vec<&str> = RULES.iter().map(|r| r.name()).collect();
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown rule `{}` — registered rules: {}",
                opts.rule.as_deref().unwrap_or_default(),
                names.join(", ")
            ),
        ));
    }
    // Lex every non-test file once; the graph wants the whole workspace
    // even where no rule polices the crate (cross-crate call edges).
    let files = discover(root)?;
    let scanned: Vec<&SourceFile> = files.iter().filter(|f| !f.test_only).collect();
    let lexed = lex_files(&scanned)?;

    // ---- call graph + reactor roots (timed as a pseudo-rule) ----
    let t0 = Instant::now();
    let parsed: Vec<parse::FileItems> = scanned
        .iter()
        .map(|f| parse::parse_file(&f.crate_name, &f.rel_path, &lexed[&f.rel_path]))
        .collect();
    let graph = CallGraph::build(parsed);
    let (reactor_ids, reactor_missing) = graph.find_roots(&cfg.blocking_roots);
    let graph_stats = graph.stats(reactor_ids.len());
    let cx = Ctx {
        cfg,
        files: scanned
            .iter()
            .map(|f| (f.crate_name.as_str(), f.rel_path.as_str(), &lexed[&f.rel_path]))
            .collect(),
        lexed: &lexed,
        graph: &graph,
        reactor: Roots { reach: graph.reach(&reactor_ids), missing: reactor_missing },
    };
    let mut timings =
        vec![RuleTiming { name: "graph", micros: t0.elapsed().as_micros(), findings: 0 }];

    let mut findings: Vec<Finding> = Vec::new();
    let mut gate_failures = Vec::new();
    for rule in RULES.iter().filter(|r| selected(**r)) {
        let t0 = Instant::now();
        let found = rule.check(&cx)?;
        timings.push(RuleTiming {
            name: rule.name(),
            micros: t0.elapsed().as_micros(),
            findings: found.len(),
        });
        gate_failures.extend(gate_line(*rule, &found));
        findings.extend(found);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let files_scanned = scanned.len();
    Ok(Audit { findings, gate_failures, files_scanned, graph_stats, timings })
}

/// Read and lex `files`, keyed by workspace-relative path.
fn lex_files(files: &[&SourceFile]) -> io::Result<BTreeMap<String, Lexed>> {
    let mut lexed = BTreeMap::new();
    for file in files {
        let src = std::fs::read_to_string(&file.abs_path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", file.rel_path)))?;
        lexed.insert(file.rel_path.clone(), lexer::lex(&src));
    }
    Ok(lexed)
}

/// A pass's gate line, when it found anything: the count, the label
/// and the crates the findings are in.
fn gate_line(rule: &dyn Rule, found: &[Finding]) -> Option<String> {
    if found.is_empty() {
        return None;
    }
    let crates: BTreeSet<&str> =
        found.iter().map(|f| f.crate_name.as_str()).filter(|c| !c.is_empty()).collect();
    let along = if crates.is_empty() {
        String::new()
    } else {
        format!(" in {}", crates.into_iter().collect::<Vec<_>>().join(", "))
    };
    Some(format!("{}: {} {} finding(s){along}", rule.name(), found.len(), rule.label()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let tmp = std::env::temp_dir().join(format!("she-audit-{name}-{}", std::process::id()));
        for (p, body) in files {
            let f = tmp.join(p);
            std::fs::create_dir_all(f.parent().expect("parent")).expect("mkdir");
            std::fs::write(&f, body).expect("write");
        }
        tmp
    }

    const HOARD: &str = "pub fn f(log: &mut Vec<u8>) {\n    log.push(1);\n}\n";

    #[test]
    fn any_finding_fails_the_gate_with_one_line_per_pass() {
        let tmp = tree("gate", &[("crates/demo/src/lib.rs", HOARD)]);
        let a = audit(&tmp, &RuleConfig::policing("demo")).expect("audit");
        assert_eq!(a.gate_failures, ["growth: 1 unbounded-growth finding(s) in demo"]);
        assert_eq!(a.findings.len(), 1);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn unpoliced_crates_and_test_files_are_skipped() {
        let tmp =
            tree("skip", &[("crates/other/src/lib.rs", HOARD), ("crates/demo/tests/it.rs", HOARD)]);
        let a = audit(&tmp, &RuleConfig::policing("demo")).expect("audit");
        assert!(a.ok(), "{:?}", a.gate_failures);
        assert!(a.findings.is_empty());
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn rule_filter_runs_and_gates_only_that_rule() {
        let tmp = tree("filter", &[("crates/demo/src/lib.rs", HOARD)]);
        let cfg = RuleConfig::policing("demo");
        let a =
            audit_with(&tmp, &cfg, &AuditOptions { rule: Some("wiresize".into()) }).expect("audit");
        assert!(
            a.ok(),
            "growth finding must not gate a --rule wiresize run: {:?}",
            a.gate_failures
        );
        assert!(a.findings.is_empty());
        assert!(a.timings.iter().any(|t| t.name == "wiresize"));
        assert!(!a.timings.iter().any(|t| t.name == "growth"));

        let a =
            audit_with(&tmp, &cfg, &AuditOptions { rule: Some("growth".into()) }).expect("audit");
        assert!(!a.ok());
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn unknown_rule_is_rejected_with_the_registered_names() {
        let tmp = tree("badrule", &[("crates/demo/src/lib.rs", "pub fn f() {}\n")]);
        let cfg = RuleConfig::policing("demo");
        let err = audit_with(&tmp, &cfg, &AuditOptions { rule: Some("bogus".into()) })
            .expect_err("a typo must not pass after running nothing");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        for rule in RULES {
            assert!(err.to_string().contains(rule.name()), "{err}");
        }
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// An annotation naming no registered pass suppresses nothing, so it
    /// must not pass silently — a typo, or a rule the compiler now holds.
    #[test]
    fn allow_naming_no_registered_rule_is_a_finding() {
        for name in ["panik", "panic", "cast", "unsafe"] {
            let src =
                format!("pub fn f() {{}}\n// audit:allow({name}): reviewed\npub fn g() {{}}\n");
            let tmp = tree(&format!("allow-{name}"), &[("crates/demo/src/lib.rs", &src)]);
            let a = audit(&tmp, &RuleConfig::policing("demo")).expect("audit");
            std::fs::remove_dir_all(&tmp).ok();
            assert!(!a.ok(), "audit:allow({name}) passed the gate");
            assert!(
                a.findings.iter().any(|f| f.rule == "allow" && f.line == 2 && f.msg.contains(name)),
                "{:?}",
                a.findings
            );
        }
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let tmp = tree("json", &[("crates/demo/src/lib.rs", "pub fn f() {}\n")]);
        let a = audit(&tmp, &RuleConfig::policing("demo")).expect("audit");
        let j = a.to_json();
        assert!(j.starts_with("{\"ok\":true"), "{j}");
        assert!(j.contains("\"graph\":{\"nodes\":1"), "{j}");
        assert!(j.contains("\"rules\":["), "{j}");
        assert!(j.ends_with("\"gate_failures\":[]}"), "{j}");
        std::fs::remove_dir_all(&tmp).ok();
    }
}
