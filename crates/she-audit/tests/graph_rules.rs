//! Integration tests for the v2 call graph and the graph-driven rules,
//! over the fixture trees in `tests/fixtures/graph` and
//! `tests/fixtures/lock-order`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use she_audit::{discover, lex, parse, CallGraph, Lexed};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Lex + parse a fixture tree the same way the audit engine does.
fn load(name: &str) -> (CallGraph, BTreeMap<String, Lexed>) {
    let files = discover(&fixture(name)).expect("fixture discovers");
    let mut lexed = BTreeMap::new();
    let mut parsed = Vec::new();
    for f in &files {
        if f.test_only {
            continue;
        }
        let src = std::fs::read_to_string(&f.abs_path).expect("fixture reads");
        let lx = lex(&src);
        parsed.push(parse::parse_file(&f.crate_name, &f.rel_path, &lx));
        lexed.insert(f.rel_path.clone(), lx);
    }
    (CallGraph::build(parsed), lexed)
}

fn idx(g: &CallGraph, qual: &str) -> usize {
    g.fns.iter().position(|f| f.qual == qual).unwrap_or_else(|| panic!("no fn {qual}"))
}

fn callees<'g>(g: &'g CallGraph, qual: &str) -> Vec<&'g str> {
    g.edges[idx(g, qual)].iter().map(|e| g.fns[e.callee].qual.as_str()).collect()
}

#[test]
fn trait_object_call_fans_out_to_every_implementor() {
    let (g, _) = load("graph");
    let c = callees(&g, "drive");
    assert!(c.contains(&"A::emit") && c.contains(&"B::emit"), "{c:?}");
}

#[test]
fn trait_default_body_calls_the_required_method() {
    let (g, _) = load("graph");
    let c = callees(&g, "Sink::twice");
    assert!(c.contains(&"A::emit") && c.contains(&"B::emit"), "{c:?}");
}

#[test]
fn closure_calls_belong_to_the_enclosing_fn() {
    let (g, _) = load("graph");
    assert!(callees(&g, "closures").contains(&"helper"));
}

#[test]
fn spawn_closure_is_a_detached_synthetic_node() {
    let (g, _) = load("graph");
    let r = g.reach(&[idx(&g, "spawner")], false);
    assert!(r.reachable[idx(&g, "foreground")], "inline work stays attributed");
    assert!(!r.reachable[idx(&g, "background")], "spawned work must not taint the spawner");

    let spawns: Vec<usize> = (0..g.fns.len()).filter(|&i| g.fns[i].is_spawn).collect();
    assert_eq!(spawns.len(), 1, "one synthetic spawn node");
    let r2 = g.reach(&spawns, false);
    assert!(r2.reachable[idx(&g, "background")], "the spawn node roots its closure");
}

#[test]
fn cross_crate_param_type_resolves_the_method() {
    let (g, _) = load("graph");
    assert!(callees(&g, "cross").contains(&"Wire::pull"), "{:?}", callees(&g, "cross"));
    let pull = idx(&g, "Wire::pull");
    assert_eq!(g.fns[pull].crate_name, "beta");
}

#[test]
fn unresolved_externs_are_counted_not_dropped() {
    let (g, _) = load("graph");
    assert!(g.edges[idx(&g, "external")].is_empty());
    assert!(g.unresolved_calls > 0);
    let stats = g.stats(0);
    assert_eq!(stats.unresolved_calls, g.unresolved_calls);
    assert_eq!(stats.nodes, g.fns.len());
}

#[test]
fn lock_order_inversion_is_mined_within_and_across_fns() {
    let (g, lexed) = load("lock-order");
    let manifest: BTreeMap<String, u16> =
        [("outer".to_string(), 10u16), ("inner".to_string(), 20u16)].into_iter().collect();
    let findings =
        she_audit::rules::lock_order::check_order(&g, &lexed, &["demo".to_string()], &manifest);
    // `forwards` is rank-increasing: no finding may name it.
    assert!(
        findings.iter().all(|f| !f.msg.contains("in forwards")),
        "forwards flagged: {findings:?}"
    );
    // `backwards` inverts in one fn; `caller` inverts through `tail`.
    assert!(
        findings.iter().any(|f| f.msg.contains("in backwards")),
        "intra-fn inversion missed: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.msg.contains("via tail")),
        "cross-fn inversion missed: {findings:?}"
    );
}

/// A callee inside a recursion cycle acquires everything the cycle
/// acquires: `pong` only calls `ping`, which locks `outer`, so holding
/// `inner` across `pong` inverts the ranks just as holding it across
/// `ping` does — whichever holder the miner meets first.
#[test]
fn lock_order_sees_locks_from_either_side_of_a_recursion_cycle() {
    let (g, lexed) = load("lock-order");
    let manifest: BTreeMap<String, u16> =
        [("outer".to_string(), 10u16), ("inner".to_string(), 20u16)].into_iter().collect();
    let findings =
        she_audit::rules::lock_order::check_order(&g, &lexed, &["demo".to_string()], &manifest);
    for holder in ["in holds_then_pings via ping", "in holds_then_pongs via pong"] {
        assert!(findings.iter().any(|f| f.msg.contains(holder)), "{holder} missed: {findings:?}");
    }
}
