//! # she-audit — the workspace's static-analysis gate
//!
//! A dependency-free auditor that lexes every Rust source file in the
//! workspace, parses items into a conservative whole-workspace call
//! graph ([`parse`], [`graph`]), and enforces repo-specific invariants
//! `cargo clippy` cannot express. Each rule is one [`Rule`] pass,
//! registered once in [`RULES`]; `docs/ANALYSIS.md` catalogues them.
//!
//! A rule's [`Gate`] decides how its findings fail the build: **hard**
//! findings fail it outright; **ratcheted** counts (`panic`, `cast`,
//! `growth` findings and annotated `unsafe` blocks) must equal the
//! per-crate number `audit-ratchet.toml` commits — growth is a
//! regression, shrinkage must be banked.
//!
//! The entry point is [`audit`] (or [`audit_with`] for `--rule`
//! support); `she audit` (in `she-cli`) is a thin wrapper. See
//! `docs/ANALYSIS.md` for the rule catalogue, graph construction and
//! its known approximations, the annotation syntax, and the ratchet
//! workflow.

mod config;
mod lexer;
mod walk;

pub mod graph;
pub mod parse;
pub mod rules;

pub use config::{parse_toml, parse_toml_file, RuleConfig, TomlEntry, Value};
pub use graph::{CallGraph, GraphStats, Reach};
pub use lexer::{lex, Lexed, TokKind, Token};
pub use rules::{Finding, Gate, Rule, RULES};
pub use walk::{discover, SourceFile};

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::time::Instant;

use rules::{Ctx, Roots};

/// Options for one audit run beyond the committed config.
#[derive(Debug, Default)]
pub struct AuditOptions {
    /// Run (and gate) only the named rule — a name in [`RULES`], or
    /// `panic-reachable` for the hard half of `panic`. `None` runs
    /// everything.
    pub rule: Option<String>,
}

/// Wall time and yield of one rule pass.
#[derive(Debug, Clone)]
pub struct RuleTiming {
    pub name: &'static str,
    pub micros: u128,
    pub findings: usize,
}

/// One reason the gate fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateFailure {
    /// The finding key the line gates.
    pub rule: &'static str,
    /// The crates it names; empty when it names none.
    pub crates: Vec<String>,
    /// The line `she audit` prints.
    pub line: String,
}

/// The result of one audit run.
#[derive(Debug)]
pub struct Audit {
    /// Every finding, in deterministic (path, line) order — including
    /// ratcheted findings that are at (not above) their baseline.
    pub findings: Vec<Finding>,
    /// Every gate violation; empty means the gate passes.
    pub gate_failures: Vec<GateFailure>,
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

    /// The findings in rules that are currently failing the gate — the
    /// list worth printing when the gate trips (at-baseline ratcheted
    /// findings are noise on an unrelated failure).
    pub fn failing_findings(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| {
                self.gate_failures.iter().any(|g| {
                    g.rule == f.rule
                        && (f.crate_name.is_empty() || g.crates.contains(&f.crate_name))
                })
            })
            .collect()
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
        let gates: Vec<String> = self.gate_failures.iter().map(|g| json_str(&g.line)).collect();
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

/// Does `rule` run for the `--rule` selection `sel`?
fn selected(rule: &dyn Rule, sel: Option<&str>) -> bool {
    sel.is_none_or(|s| s == rule.name() || rule.gate().hard.is_some_and(|(key, _)| key == s))
}

/// Run the audit with options (`--rule` filter for local iteration).
/// A `--rule` no registered rule answers to is an `InvalidInput` error
/// naming the registered rules.
pub fn audit_with(root: &Path, cfg: &RuleConfig, opts: &AuditOptions) -> io::Result<Audit> {
    let sel = opts.rule.as_deref();
    if !RULES.iter().any(|r| selected(*r, sel)) {
        let names: Vec<&str> = RULES.iter().map(|r| r.name()).collect();
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown rule `{}` — registered rules: {} (`panic-reachable` selects panic's \
                 reachable half)",
                sel.unwrap_or_default(),
                names.join(", ")
            ),
        ));
    }
    // Lex every non-test file once; the graph wants the whole workspace
    // even where no rule polices the crate (cross-crate call edges).
    let files = discover(root)?;
    let scanned: Vec<&SourceFile> = files.iter().filter(|f| !f.test_only).collect();
    let lexed = lex_files(&scanned)?;

    // ---- call graph + root sets (timed as a pseudo-rule) ----
    let t0 = Instant::now();
    let parsed: Vec<parse::FileItems> = scanned
        .iter()
        .map(|f| parse::parse_file(&f.crate_name, &f.rel_path, &lexed[&f.rel_path]))
        .collect();
    let graph = CallGraph::build(parsed);
    let (reactor_ids, reactor_missing) = graph.find_roots(&cfg.blocking_roots);
    let mut serving_specs = cfg.blocking_roots.clone();
    serving_specs.extend(cfg.serving_roots.iter().cloned());
    let (mut serving_ids, serving_missing) = graph.find_roots(&serving_specs);
    serving_ids.extend(graph.spawn_nodes(&cfg.panic_pinned_crates));
    serving_ids.sort_unstable();
    serving_ids.dedup();
    // The serving roots include the reactor roots: they count once.
    let graph_stats = graph.stats(serving_ids.len());
    let cx = Ctx {
        cfg,
        files: scanned
            .iter()
            .map(|f| (f.crate_name.as_str(), f.rel_path.as_str(), &lexed[&f.rel_path]))
            .collect(),
        lexed: &lexed,
        graph: &graph,
        reactor: Roots { reach: graph.reach(&reactor_ids, false), missing: reactor_missing },
        serving: Roots { reach: graph.reach(&serving_ids, false), missing: serving_missing },
    };
    let mut timings =
        vec![RuleTiming { name: "graph", micros: t0.elapsed().as_micros(), findings: 0 }];

    let mut findings: Vec<Finding> = Vec::new();
    let mut gate_failures = Vec::new();
    for rule in RULES.iter().filter(|r| selected(**r, sel)) {
        let t0 = Instant::now();
        let found = rule.check(&cx)?;
        timings.push(RuleTiming {
            name: rule.name(),
            micros: t0.elapsed().as_micros(),
            findings: found.len(),
        });
        let ratcheted = sel.is_none_or(|s| s == rule.name());
        gate_failures.extend(gate(*rule, &found, &cx, ratcheted));
        findings.extend(found);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let files_scanned = scanned.len();
    Ok(Audit { findings, gate_failures, files_scanned, graph_stats, timings })
}

/// Every `.lock()` call site in the files the `lock` rule polices, as
/// `file:line — crate` (`she audit --list-locks`).
pub fn lock_sites(root: &Path, cfg: &RuleConfig) -> io::Result<Vec<String>> {
    let files = discover(root)?;
    let policed: Vec<&SourceFile> = files
        .iter()
        .filter(|f| !f.test_only && cfg.polices("lock", &f.crate_name, &f.rel_path))
        .collect();
    let lexed = lex_files(&policed)?;
    let srcs =
        policed.iter().map(|f| (f.crate_name.as_str(), f.rel_path.as_str(), &lexed[&f.rel_path]));
    Ok(rules::lock_order::lock_sites(srcs))
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

/// One pass's gate lines: its hard findings, then — unless `--rule`
/// picked only the hard half — every crate whose tallied count differs
/// from `audit-ratchet.toml`.
fn gate(rule: &dyn Rule, found: &[Finding], cx: &Ctx, ratcheted: bool) -> Vec<GateFailure> {
    let mut out = Vec::new();
    let name = rule.name();
    let Gate { hard, ratchet } = rule.gate();
    if let Some((key, label)) = hard {
        let hits: Vec<&Finding> = found.iter().filter(|f| f.rule == key).collect();
        if !hits.is_empty() {
            let crates: BTreeSet<&String> =
                hits.iter().map(|f| &f.crate_name).filter(|c| !c.is_empty()).collect();
            let crates: Vec<String> = crates.into_iter().cloned().collect();
            let along = if crates.is_empty() {
                String::new()
            } else {
                format!(" in {}", crates.join(", "))
            };
            let line = format!("{key}: {} {label} finding(s){along}", hits.len());
            out.push(GateFailure { rule: key, crates, line });
        }
    }
    let Some((unit, advice)) = ratchet.filter(|_| ratcheted) else { return out };
    let tally = rule.tally(cx, found);
    let mut fail = |krate: &str, line: String| {
        out.push(GateFailure { rule: name, crates: vec![krate.to_string()], line })
    };
    // A ratchet entry for a crate the rule doesn't police is a config
    // bug — surface it instead of silently ignoring it.
    for key in cx.cfg.ratchet.keys() {
        match key.strip_prefix(name).and_then(|k| k.strip_prefix('/')) {
            Some(krate) if !tally.contains_key(krate) => fail(
                krate,
                format!("{name}: ratchet entry for unknown crate `{krate}` in audit-ratchet.toml"),
            ),
            _ => {}
        }
    }
    for (krate, &count) in &tally {
        let baseline = cx.cfg.ratchet.get(&format!("{name}/{krate}")).copied().unwrap_or(0);
        if count > baseline {
            fail(
                krate,
                format!("{name}: {krate} has {count} {unit}, baseline {baseline} — {advice}"),
            );
        } else if count < baseline {
            fail(
                krate,
                format!(
                    "{name}: {krate} improved to {count} {unit}, baseline {baseline} — tighten \
                     audit-ratchet.toml so the gains can't regress"
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_for(ratchet: &[(&str, u64)]) -> RuleConfig {
        RuleConfig {
            ratchet: ratchet.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..RuleConfig::policing("demo")
        }
    }

    fn tree(name: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let tmp = std::env::temp_dir().join(format!("she-audit-{name}-{}", std::process::id()));
        for (p, body) in files {
            let f = tmp.join(p);
            std::fs::create_dir_all(f.parent().expect("parent")).expect("mkdir");
            std::fs::write(&f, body).expect("write");
        }
        tmp
    }

    #[test]
    fn ratchet_fails_on_growth_and_on_unbanked_shrinkage() {
        let tmp = tree(
            "ratchet",
            &[("crates/demo/src/lib.rs", "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n")],
        );
        // Baseline 0: one finding over → gate fails with "fix them".
        let cfg = cfg_for(&[]);
        let a = audit(&tmp, &cfg).expect("audit");
        assert!(!a.ok());
        assert!(a
            .gate_failures
            .iter()
            .any(|g| g.line.contains("baseline 0") && g.line.contains("fix")));

        // Baseline 1: at baseline → gate passes, finding still listed.
        let cfg = cfg_for(&[("panic/demo", 1)]);
        let a = audit(&tmp, &cfg).expect("audit");
        assert!(a.ok(), "{:?}", a.gate_failures);
        assert_eq!(a.findings.len(), 1);

        // Baseline 2: below baseline → gate demands tightening.
        let cfg = cfg_for(&[("panic/demo", 2)]);
        let a = audit(&tmp, &cfg).expect("audit");
        assert!(a.gate_failures.iter().any(|g| g.line.contains("tighten")));
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn ratchet_entry_for_unknown_crate_is_flagged() {
        let tmp = tree("unknown", &[("crates/demo/src/lib.rs", "pub fn f() {}\n")]);
        let cfg = cfg_for(&[("panic/ghost", 3)]);
        let a = audit(&tmp, &cfg).expect("audit");
        assert!(a.gate_failures.iter().any(|g| g.line.contains("unknown crate `ghost`")));
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn unpoliced_crates_and_test_files_are_skipped() {
        let tmp = tree(
            "skip",
            &[
                ("crates/other/src/lib.rs", "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n"),
                ("crates/demo/tests/it.rs", "fn t(x: Option<u8>) -> u8 { x.unwrap() }\n"),
            ],
        );
        let cfg = cfg_for(&[]);
        let a = audit(&tmp, &cfg).expect("audit");
        assert!(a.ok(), "{:?}", a.gate_failures);
        assert!(a.findings.is_empty());
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn rule_filter_runs_and_gates_only_that_rule() {
        let tmp = tree(
            "filter",
            &[("crates/demo/src/lib.rs", "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n")],
        );
        let cfg = cfg_for(&[]);
        let a = audit_with(&tmp, &cfg, &AuditOptions { rule: Some("cast".into()) }).expect("audit");
        assert!(a.ok(), "panic finding must not gate a --rule cast run: {:?}", a.gate_failures);
        assert!(a.findings.is_empty());
        assert!(a.timings.iter().any(|t| t.name == "cast"));
        assert!(!a.timings.iter().any(|t| t.name == "panic"));

        let a =
            audit_with(&tmp, &cfg, &AuditOptions { rule: Some("panic".into()) }).expect("audit");
        assert!(!a.ok());
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn unknown_rule_is_rejected_with_the_registered_names() {
        let tmp = tree("badrule", &[("crates/demo/src/lib.rs", "pub fn f() {}\n")]);
        let cfg = cfg_for(&[]);
        let err = audit_with(&tmp, &cfg, &AuditOptions { rule: Some("bogus".into()) })
            .expect_err("a typo must not pass after running nothing");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        for rule in RULES {
            assert!(err.to_string().contains(rule.name()), "{err}");
        }
        let a = audit_with(&tmp, &cfg, &AuditOptions { rule: Some("panic-reachable".into()) })
            .expect("the reachable half of panic is selectable");
        assert!(a.timings.iter().any(|t| t.name == "panic"));
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn unsafe_ratchet_counts_annotated_blocks() {
        let src = "pub fn f() {\n    // audit:allow(unsafe): fd open by construction\n    \
                   unsafe { go() };\n}\n";
        let tmp = tree("unsafecount", &[("crates/demo/src/sys.rs", src)]);
        let mut cfg = cfg_for(&[]);
        cfg.scope.insert("unsafe", vec!["demo/src/sys.rs".into()]);
        // No baseline → annotated count of 1 is growth.
        let a = audit(&tmp, &cfg).expect("audit");
        assert!(
            a.gate_failures.iter().any(|g| g.line.contains("annotated unsafe block(s)")),
            "{:?}",
            a.gate_failures
        );
        // Committed baseline of 1 → passes.
        cfg.ratchet.insert("unsafe/demo".into(), 1);
        let a = audit(&tmp, &cfg).expect("audit");
        assert!(a.ok(), "{:?}", a.gate_failures);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let tmp = tree("json", &[("crates/demo/src/lib.rs", "pub fn f() {}\n")]);
        let cfg = cfg_for(&[]);
        let a = audit(&tmp, &cfg).expect("audit");
        let j = a.to_json();
        assert!(j.starts_with("{\"ok\":true"), "{j}");
        assert!(j.contains("\"graph\":{\"nodes\":1"), "{j}");
        assert!(j.contains("\"rules\":["), "{j}");
        assert!(j.ends_with("\"gate_failures\":[]}"), "{j}");
        std::fs::remove_dir_all(&tmp).ok();
    }
}
