//! Self-tests for the audit gate: known-bad fixtures must fire every
//! rule, known-good fixtures must be silent, and — the gate behind the
//! gate — the real workspace must pass, with the crate-root lints that
//! hold what the compiler can see still in place.

use std::fs;
use std::path::{Path, PathBuf};

use she_audit::{audit, lex, Finding, RuleConfig, TokKind};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

/// A config policing the fixture's `demo` crate with one reactor root.
fn demo_cfg() -> RuleConfig {
    let mut cfg = RuleConfig {
        blocking_roots: vec![("demo".into(), "reactor_loop".into())],
        ..RuleConfig::policing("demo")
    };
    cfg.scope.insert("blocking", vec!["demo/src/lib.rs".into()]);
    cfg
}

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn known_bad_fixture_fires_every_rule() {
    let report = audit(&fixture("known-bad"), &demo_cfg()).expect("audit runs");
    assert!(!report.ok(), "known-bad fixture must fail the gate");
    assert_eq!(rules_fired(&report.findings), ["allow", "blocking", "growth", "wiresize"]);

    let msgs: Vec<&str> = report.findings.iter().map(|f| f.msg.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("grows a collection")), "growth finding: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("malformed audit:allow")), "malformed allow: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("`panik`, which is no")), "unknown allow: {msgs:?}");
    // Reachability findings carry the root → … → sink chain.
    assert!(
        msgs.iter().any(|m| m.contains("blocks the reactor thread")
            && m.contains("reactor_loop → stall_the_reactor")),
        "blocking chain: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("unclamped wire-decoded length")),
        "wiresize finding: {msgs:?}"
    );

    // One gate line per registered rule.
    for rule in she_audit::RULES {
        let key = format!("{}:", rule.name());
        assert!(
            report.gate_failures.iter().any(|g| g.starts_with(&key)),
            "missing {key} gate failure in {:?}",
            report.gate_failures
        );
    }
}

#[test]
fn known_good_fixture_is_quiet() {
    let report = audit(&fixture("known-good"), &demo_cfg()).expect("audit runs");
    assert!(report.ok(), "gate failures on known-good: {:?}", report.gate_failures);
    assert!(report.findings.is_empty(), "findings on known-good: {:?}", report.findings);
    assert_eq!(report.files_scanned, 1);
}

/// The gate behind the gate: `cargo test` fails if the tree this test
/// compiled from does not pass its own audit.
#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    let report = audit(&root, &RuleConfig::for_workspace()).expect("audit runs");
    let found: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(found.is_empty(), "the workspace fails its own audit:\n{}", found.join("\n"));
    assert!(report.ok(), "{:?}", report.gate_failures);
    // The reachability rules are only as good as their root set: if a
    // rename ever empties it, this is the assertion that notices (a
    // missing individual root is already a finding).
    assert!(report.graph_stats.roots > 0, "reactor root set must be non-empty");
    assert!(
        report.graph_stats.nodes > 100 && report.graph_stats.edges > 100,
        "implausibly small workspace graph: {:?}",
        report.graph_stats
    );
}

const PANIC_LINTS: &[&str] = &["unwrap_used", "expect_used", "panic", "unreachable"];
const CAST_LINTS: &[&str] = &["cast_possible_truncation"];

/// The lint floor: each crate root the panic and truncation lints police,
/// with the clippy lints its `deny` attributes must name.
const LINT_FLOOR: &[(&str, &[&[&str]])] = &[
    ("crates/she-server/src/lib.rs", &[PANIC_LINTS, CAST_LINTS]),
    ("crates/she-replica/src/lib.rs", &[PANIC_LINTS, CAST_LINTS]),
    ("crates/she-cluster/src/lib.rs", &[PANIC_LINTS, CAST_LINTS]),
    ("crates/she-readpath/src/lib.rs", &[PANIC_LINTS, CAST_LINTS]),
    ("crates/she-core/src/lib.rs", &[PANIC_LINTS, CAST_LINTS]),
    ("crates/she-chaos/src/lib.rs", &[PANIC_LINTS]),
    ("crates/she-cli/src/main.rs", &[PANIC_LINTS]),
    ("crates/she-sketch/src/lib.rs", &[CAST_LINTS]),
];

/// The identifiers inside the crate-level (`#![…]`) attributes of `src`
/// that mention `deny`.
fn denied_idents(src: &str) -> Vec<String> {
    let lx = lex(src);
    let t = &lx.tokens;
    let mut out = Vec::new();
    for i in 0..t.len().saturating_sub(2) {
        if t[i].is_punct('#') && t[i + 1].is_punct('!') && t[i + 2].is_punct('[') {
            let body = &t[i + 3..lx.partner[i + 2]];
            if body.iter().any(|tok| tok.is_ident("deny")) {
                out.extend(
                    body.iter()
                        .filter(|tok| tok.kind == TokKind::Ident)
                        .map(|tok| tok.text.clone()),
                );
            }
        }
    }
    out
}

/// The panic, truncation, `unsafe` and raw-`Mutex` rules live in the
/// compiler now; dropping one of their crate-root attributes or the
/// `clippy.toml` ban must fail `cargo test`, not pass silently.
#[test]
fn crate_roots_keep_the_lint_floor() {
    let root = workspace_root();
    for &(path, groups) in LINT_FLOOR {
        let src = fs::read_to_string(root.join(path)).expect("crate root reads");
        let denied = denied_idents(&src);
        for lint in groups.iter().copied().flatten() {
            assert!(denied.iter().any(|d| d == lint), "{path} no longer denies clippy::{lint}");
        }
    }
    // she-server denies `unsafe_code`; only the epoll boundary lifts it.
    let src_dir = root.join("crates/she-server/src");
    let mut lifts = Vec::new();
    for entry in fs::read_dir(&src_dir).expect("she-server/src lists") {
        let path = entry.expect("dir entry").path();
        let lx = lex(&fs::read_to_string(&path).expect("source reads"));
        let allows_unsafe = lx
            .tokens
            .windows(3)
            .any(|w| w[0].is_ident("allow") && w[1].is_punct('(') && w[2].is_ident("unsafe_code"));
        if allows_unsafe {
            lifts.push(path.file_name().expect("file name").to_string_lossy().into_owned());
        }
    }
    assert_eq!(lifts, ["sys.rs"], "allow(unsafe_code) outside she-server's sys.rs");
    // A raw `std::sync::Mutex` is clippy's `disallowed_types`; only
    // she-core's `LeafMutex` wrapper names it.
    let clippy_toml = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml reads");
    assert!(clippy_toml.contains("\"std::sync::Mutex\""), "clippy.toml no longer bans Mutex");
}
