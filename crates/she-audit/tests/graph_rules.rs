//! Integration tests for the v2 call graph, over the fixture tree in
//! `tests/fixtures/graph`.

use std::path::{Path, PathBuf};

use she_audit::{discover, lex, parse, CallGraph};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Lex + parse a fixture tree the same way the audit engine does.
fn load(name: &str) -> CallGraph {
    let files = discover(&fixture(name)).expect("fixture discovers");
    let parsed = files
        .iter()
        .filter(|f| !f.test_only)
        .map(|f| {
            let src = std::fs::read_to_string(&f.abs_path).expect("fixture reads");
            parse::parse_file(&f.crate_name, &f.rel_path, &lex(&src))
        })
        .collect();
    CallGraph::build(parsed)
}

fn idx(g: &CallGraph, qual: &str) -> usize {
    g.fns.iter().position(|f| f.qual == qual).unwrap_or_else(|| panic!("no fn {qual}"))
}

fn callees<'g>(g: &'g CallGraph, qual: &str) -> Vec<&'g str> {
    g.edges[idx(g, qual)].iter().map(|&e| g.fns[e].qual.as_str()).collect()
}

#[test]
fn trait_object_call_fans_out_to_every_implementor() {
    let g = load("graph");
    let c = callees(&g, "drive");
    assert!(c.contains(&"A::emit") && c.contains(&"B::emit"), "{c:?}");
}

#[test]
fn trait_default_body_calls_the_required_method() {
    let g = load("graph");
    let c = callees(&g, "Sink::twice");
    assert!(c.contains(&"A::emit") && c.contains(&"B::emit"), "{c:?}");
}

#[test]
fn closure_calls_belong_to_the_enclosing_fn() {
    let g = load("graph");
    assert!(callees(&g, "closures").contains(&"helper"));
}

#[test]
fn spawn_closure_is_a_detached_synthetic_node() {
    let g = load("graph");
    let r = g.reach(&[idx(&g, "spawner")]);
    assert!(r.reachable[idx(&g, "foreground")], "inline work stays attributed");
    assert!(!r.reachable[idx(&g, "background")], "spawned work must not taint the spawner");

    let spawns: Vec<usize> = (0..g.fns.len()).filter(|&i| g.fns[i].is_spawn).collect();
    assert_eq!(spawns.len(), 1, "one synthetic spawn node");
    let r2 = g.reach(&spawns);
    assert!(r2.reachable[idx(&g, "background")], "the spawn node roots its closure");
}

#[test]
fn cross_crate_param_type_resolves_the_method() {
    let g = load("graph");
    assert!(callees(&g, "cross").contains(&"Wire::pull"), "{:?}", callees(&g, "cross"));
    let pull = idx(&g, "Wire::pull");
    assert_eq!(g.fns[pull].crate_name, "beta");
}

#[test]
fn unresolved_externs_are_counted_not_dropped() {
    let g = load("graph");
    assert!(g.edges[idx(&g, "external")].is_empty());
    assert!(g.unresolved_calls > 0);
    let stats = g.stats(0);
    assert_eq!(stats.unresolved_calls, g.unresolved_calls);
    assert_eq!(stats.nodes, g.fns.len());
}
