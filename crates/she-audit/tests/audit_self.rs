//! Self-tests for the audit gate: known-bad fixtures must fire every
//! rule, known-good fixtures must be silent, mutated protocol copies
//! must trip the drift rule, and — the gate behind the gate — the real
//! workspace must pass with a zero serving-path baseline.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use she_audit::{audit, Finding, RuleConfig};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

/// A config policing the fixture's `demo` crate with an empty ratchet
/// and a one-entry lock manifest.
fn demo_cfg() -> RuleConfig {
    RuleConfig {
        panic_crates: vec!["demo".into()],
        cast_crates: vec!["demo".into()],
        growth_crates: vec!["demo".into()],
        lock_crates: vec!["demo".into()],
        blocking_files: vec!["demo/src/lib.rs".into()],
        blocking_roots: vec![("demo".into(), "reactor_loop".into())],
        serving_roots: vec![("demo".into(), "serve_loop".into())],
        panic_pinned_crates: vec!["demo".into()],
        wiresize_crates: vec!["demo".into()],
        unsafe_files: vec![],
        locks: [("listed".to_string(), 10u16)].into_iter().collect(),
        ratchet: BTreeMap::new(),
        protocol: None,
    }
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
    assert_eq!(
        rules_fired(&report.findings),
        [
            "allow",
            "blocking",
            "cast",
            "growth",
            "lock",
            "panic",
            "panic-reachable",
            "unsafe",
            "wiresize"
        ]
    );

    let msgs: Vec<&str> = report.findings.iter().map(|f| f.msg.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("unwrap")), "unwrap finding: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("narrowing `as u32`")), "cast finding: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("grows a collection")), "growth finding: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("raw Mutex::new")), "raw mutex finding: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("\"ghost\" has no rank")), "unknown name: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("stale manifest entry")), "stale entry: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("malformed audit:allow")), "malformed allow: {msgs:?}");
    // Reachability findings carry the root → … → sink chain.
    assert!(
        msgs.iter().any(|m| m.contains("blocks the reactor thread")
            && m.contains("reactor_loop → stall_the_reactor")),
        "blocking chain: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("reachable from serving roots") && m.contains("serve_loop")),
        "reachable-panic chain: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("unclamped wire-decoded length")),
        "wiresize finding: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("outside the audited boundary")),
        "unsafe finding: {msgs:?}"
    );

    // The gate lines must cover the hard rules and the ratcheted rules.
    for rule in [
        "panic:",
        "cast:",
        "growth:",
        "lock:",
        "allow:",
        "blocking:",
        "panic-reachable:",
        "wiresize:",
        "unsafe:",
    ] {
        assert!(
            report.gate_failures.iter().any(|g| g.starts_with(rule)),
            "missing {rule} gate failure in {:?}",
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

/// A ratchet baseline above the live count must also fail: improvements
/// have to be banked by lowering the committed number.
#[test]
fn unbanked_improvement_fails_the_gate() {
    let mut cfg = demo_cfg();
    cfg.ratchet.insert("cast/demo".to_string(), 5);
    let report = audit(&fixture("known-good"), &cfg).expect("audit runs");
    assert!(!report.ok());
    assert!(
        report.gate_failures.iter().any(|g| g.contains("tighten audit-ratchet.toml")),
        "expected shrink failure, got {:?}",
        report.gate_failures
    );
}

/// Copy the real protocol source + doc into a scratch dir, optionally
/// mutate them, and run an audit policing nothing but protocol drift.
fn protocol_audit(label: &str, mutate: impl Fn(String, String) -> (String, String)) -> Vec<String> {
    let root = workspace_root();
    let rs = fs::read_to_string(root.join("crates/she-server/src/protocol.rs")).expect("read rs");
    let md = fs::read_to_string(root.join("docs/PROTOCOL.md")).expect("read md");
    let (rs, md) = mutate(rs, md);

    let dir = std::env::temp_dir().join(format!("she-audit-proto-{label}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(dir.join("protocol.rs"), rs).expect("write rs");
    fs::write(dir.join("PROTOCOL.md"), md).expect("write md");

    let cfg = RuleConfig {
        panic_crates: vec![],
        cast_crates: vec![],
        growth_crates: vec![],
        lock_crates: vec![],
        blocking_files: vec![],
        blocking_roots: vec![],
        serving_roots: vec![],
        panic_pinned_crates: vec![],
        wiresize_crates: vec![],
        unsafe_files: vec![],
        locks: BTreeMap::new(),
        ratchet: BTreeMap::new(),
        protocol: Some((dir.join("protocol.rs"), dir.join("PROTOCOL.md"))),
    };
    let report = audit(&dir, &cfg).expect("audit runs");
    fs::remove_dir_all(&dir).ok();
    report.gate_failures
}

#[test]
fn pristine_protocol_copies_pass() {
    let failures = protocol_audit("pristine", |rs, md| (rs, md));
    assert!(failures.is_empty(), "pristine copies must pass: {failures:?}");
}

#[test]
fn renumbered_opcode_fails_the_gate() {
    // Move CLUSTER_STATUS off the documented value: the doc row now
    // points at a constant that no longer exists at 0x33.
    let failures = protocol_audit("renumber", |rs, md| {
        assert!(rs.contains("pub const CLUSTER_STATUS: u8 = 0x33;"), "fixture drifted");
        (
            rs.replace(
                "pub const CLUSTER_STATUS: u8 = 0x33;",
                "pub const CLUSTER_STATUS: u8 = 0x34;",
            ),
            md,
        )
    });
    assert!(
        failures.iter().any(|g| g.starts_with("protocol:")),
        "renumbering must trip protocol drift: {failures:?}"
    );
}

#[test]
fn duplicate_opcode_fails_the_gate() {
    let failures = protocol_audit("duplicate", |rs, md| {
        assert!(rs.contains("pub const INSERT_BATCH: u8 = 0x02;"), "fixture drifted");
        (rs.replace("pub const INSERT_BATCH: u8 = 0x02;", "pub const INSERT_BATCH: u8 = 0x01;"), md)
    });
    assert!(
        failures.iter().any(|g| g.starts_with("protocol:")),
        "duplicate opcode must trip protocol drift: {failures:?}"
    );
}

#[test]
fn undocumented_opcode_fails_the_gate() {
    // Drop the INSERT row from the doc: the constant becomes stale.
    let failures = protocol_audit("undocumented", |rs, md| {
        let row_start = md.find("| `0x01` |").expect("INSERT doc row present");
        let row_end = md[row_start..].find('\n').map(|n| row_start + n + 1).expect("row newline");
        (rs, format!("{}{}", &md[..row_start], &md[row_end..]))
    });
    assert!(
        failures.iter().any(|g| g.starts_with("protocol:")),
        "undocumented opcode must trip protocol drift: {failures:?}"
    );
}

#[test]
fn version_constant_and_doc_line_disagreeing_fails_the_gate() {
    // The doc states the one protocol version on a `Protocol version: N`
    // line; moving either side without the other is drift.
    let bumped_const = protocol_audit("verconst", |rs, md| {
        let bumped = rs.replacen(
            "pub const PROTOCOL_VERSION: u16 = 6;",
            "pub const PROTOCOL_VERSION: u16 = 7;",
            1,
        );
        assert_ne!(bumped, rs, "version constant moved off 6; update this fixture");
        (bumped, md)
    });
    let bumped_doc = protocol_audit("verdoc", |rs, md| {
        let bumped = md.replacen("Protocol version: 6", "Protocol version: 7", 1);
        assert_ne!(bumped, md, "doc version line moved off 6; update this fixture");
        (rs, bumped)
    });
    for failures in [bumped_const, bumped_doc] {
        assert!(
            failures.iter().any(|g| g.starts_with("protocol:")),
            "a one-sided version change must trip protocol drift: {failures:?}"
        );
    }
}

/// The gate behind the gate: `cargo test` fails if the tree this test
/// compiled from does not pass its own audit with the committed
/// manifests — including the zero baseline for the serving path.
#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    let cfg = RuleConfig::for_workspace(&root).expect("manifests parse");
    let report = audit(&root, &cfg).expect("audit runs");
    assert!(report.ok(), "the workspace fails its own audit: {:?}", report.gate_failures);
    for crate_name in ["she-server", "she-replica"] {
        let n = report.findings.iter().filter(|f| f.crate_name == crate_name).count();
        assert_eq!(n, 0, "{crate_name} must stay at a zero finding baseline");
    }
    // The reachability rules are only as good as their root set: if a
    // rename ever empties it, this is the assertion that notices (a
    // missing individual root is already a hard finding).
    assert!(report.graph_stats.roots > 0, "reactor/serving root set must be non-empty");
    assert!(
        report.graph_stats.nodes > 100 && report.graph_stats.edges > 100,
        "implausibly small workspace graph: {:?}",
        report.graph_stats
    );
    // Reachable-panic and reactor-blocking stay pinned at zero across
    // the whole serving tier.
    for rule in ["panic-reachable", "blocking", "wiresize", "unsafe"] {
        let n = report.findings.iter().filter(|f| f.rule == rule).count();
        assert_eq!(n, 0, "{rule} findings must be zero on the real workspace");
    }
}
