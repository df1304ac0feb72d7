//! **lock-order** — every mutex in the policed crates must be a named
//! [`OrderedMutex`](../../../she-core/src/ordered.rs) whose name has a
//! rank in the committed `audit-locks.toml` manifest. The wrapper panics
//! (debug/test builds) when a lock is acquired while holding one of equal
//! or higher rank, turning a potential deadlock into a deterministic test
//! failure; this rule keeps the manifest and the source in lock-step:
//!
//! * raw `Mutex::new(...)` in non-test code is a finding (annotate
//!   `// audit:allow(lock): <reason>` for the wrapper's own internals);
//! * an `OrderedMutex::new("name", ...)` whose name is missing from the
//!   manifest is a finding;
//! * a manifest entry no source file uses is a stale finding;
//! * two manifest entries sharing a rank is a finding (ranks are a total
//!   order).
//!
//! v2 mines acquisition-order edges statically (see [`check_order`]).
//! `.lock()` call sites are also collected, for `she audit --list-locks`.

use std::collections::{BTreeMap, BTreeSet};
use std::io;

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::{Ctx, Finding, Rule, Src};

pub(crate) struct Lock;

impl Rule for Lock {
    fn name(&self) -> &'static str {
        "lock"
    }
    fn description(&self) -> &'static str {
        "unranked mutexes, manifest drift, and acquisition-order inversions"
    }
    fn label(&self) -> &'static str {
        "lock-order"
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        let mut out = check_manifest(cx.policed("lock"), &cx.cfg.locks);
        out.extend(check_order(cx.graph, cx.lexed, cx.cfg.scope_of("lock"), &cx.cfg.locks));
        Ok(out)
    }
}

/// Is token `i` the `Name` of a `Name::new` path?
fn path_new(toks: &[Token], i: usize, name: &str) -> bool {
    toks[i].is_ident(name)
        && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
        && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
        && toks.get(i + 3).is_some_and(|a| a.is_ident("new"))
}

/// **v1**: the manifest and the policed `(crate, file, tokens)` agree —
/// no raw `Mutex::new`, every `OrderedMutex::new` names a ranked lock
/// with a string literal, every manifest entry is used, and no two
/// entries share a rank.
pub fn check_manifest<'a>(
    files: impl IntoIterator<Item = Src<'a>>,
    manifest: &BTreeMap<String, u16>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut used_names = BTreeSet::new();
    for (crate_name, file, lx) in files {
        let toks = &lx.tokens;
        for (i, t) in toks.iter().enumerate() {
            let finding = |msg: String| Finding::new("lock", crate_name, file, t.line, msg);
            if path_new(toks, i, "Mutex") && !lx.in_test(t.line) && !lx.allowed("lock", t.line) {
                out.push(finding("raw Mutex::new in a lock-order-policed crate (use she_core::OrderedMutex with a rank in audit-locks.toml)".to_string()));
            }
            // Tests may construct OrderedMutexes with any manifest name
            // (e.g. to prove out-of-rank acquisition panics); only
            // non-test constructions bind the manifest.
            if !path_new(toks, i, "OrderedMutex") || lx.in_test(t.line) {
                continue;
            }
            match toks.get(i + 5) {
                Some(arg)
                    if arg.kind == TokKind::Str
                        && toks.get(i + 4).is_some_and(|a| a.is_punct('(')) =>
                {
                    used_names.insert(arg.text.clone());
                    if !manifest.contains_key(&arg.text) {
                        out.push(finding(format!(
                            "OrderedMutex name \"{}\" has no rank in audit-locks.toml",
                            arg.text
                        )));
                    }
                }
                _ => out.push(finding("OrderedMutex::new without a string-literal name (the audit must be able to read the name statically)".to_string())),
            }
        }
    }
    let manifest_finding = |msg: String| Finding::new("lock", "", "audit-locks.toml", 0, msg);
    for name in manifest.keys().filter(|name| !used_names.contains(*name)) {
        out.push(manifest_finding(format!(
            "stale manifest entry: no OrderedMutex named \"{name}\" in the source tree"
        )));
    }
    let mut by_rank: BTreeMap<u16, Vec<&String>> = BTreeMap::new();
    for (name, rank) in manifest {
        by_rank.entry(*rank).or_default().push(name);
    }
    for (rank, names) in by_rank.into_iter().filter(|(_, names)| names.len() > 1) {
        out.push(manifest_finding(format!(
            "duplicate rank {rank} for locks {names:?} (ranks must be a total order)"
        )));
    }
    out
}

/// `file:line — crate` for every `.lock()` call site in the given files
/// (tests included; the listing is for humans mapping the lock graph).
pub fn lock_sites<'a>(files: impl IntoIterator<Item = Src<'a>>) -> Vec<String> {
    let mut out = Vec::new();
    for (crate_name, file, lx) in files {
        let t = &lx.tokens;
        let sites = (1..t.len()).filter(|&i| {
            t[i].is_ident("lock")
                && t[i - 1].is_punct('.')
                && t.get(i + 1).is_some_and(|n| n.is_punct('('))
        });
        out.extend(sites.map(|i| format!("{file}:{} — {crate_name}", t[i].line)));
    }
    out
}

/// One mined acquisition-order edge: lock `from` is held while `to` is
/// acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct OrderEdge {
    from: String,
    to: String,
    fn_qual: String,
    file: String,
    line: u32,
    /// Qualified name of the callee the nested acquisition sits in, when
    /// the edge crosses a fn boundary.
    via: Option<String>,
}

/// **v2**: mine acquisition-order edges from nested `.lock()` sites —
/// within one fn and across fn boundaries via *confident* call-graph
/// edges — and check them against the manifest ranks statically, plus
/// cycle detection over the mined edge set. The `OrderedMutex` runtime
/// panic still backstops in debug builds; this reports the same class
/// of bug without waiting for a test to drive the exact interleaving.
pub fn check_order(
    graph: &crate::graph::CallGraph,
    lexed: &BTreeMap<String, Lexed>,
    lock_crates: &[String],
    manifest: &BTreeMap<String, u16>,
) -> Vec<Finding> {
    // 1. Bind receiver idents to lock names: `field: OrderedMutex::new("n", ..)`
    //    and `let x = OrderedMutex::new("n", ..)`. Per-file bindings win;
    //    a workspace-global binding is used only when unambiguous.
    let mut per_file: BTreeMap<&str, BTreeMap<String, BTreeSet<String>>> = BTreeMap::new();
    let mut global: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (file, lx) in lexed {
        let toks = &lx.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !path_new(toks, i, "OrderedMutex")
                || !toks.get(i + 4).is_some_and(|a| a.is_punct('('))
                || lx.in_test(t.line)
            {
                continue;
            }
            let Some(name) = toks.get(i + 5).filter(|n| n.kind == TokKind::Str) else { continue };
            // `field: OrderedMutex::new(..)` (struct literal) or
            // `let x = OrderedMutex::new(..)`.
            let struct_field = i >= 2
                && toks[i - 1].is_punct(':')
                && toks[i - 2].kind == TokKind::Ident
                && !(i >= 3 && toks[i - 3].is_punct(':'));
            let let_bind =
                i >= 2 && toks[i - 1].is_punct('=') && toks[i - 2].kind == TokKind::Ident;
            if struct_field || let_bind {
                let ident = &toks[i - 2].text;
                let in_file = per_file.entry(file.as_str()).or_default();
                in_file.entry(ident.clone()).or_default().insert(name.text.clone());
                global.entry(ident.clone()).or_default().insert(name.text.clone());
            }
        }
    }
    let names_for = |file: &str, ident: &str| -> BTreeSet<String> {
        if let Some(m) = per_file.get(file).and_then(|m| m.get(ident)) {
            return m.clone();
        }
        match global.get(ident) {
            Some(s) if s.len() == 1 => s.clone(),
            _ => BTreeSet::new(),
        }
    };

    // 2. Per-fn acquisitions with hold ranges.
    struct Acq {
        tok: usize,
        line: u32,
        end: usize,
        names: BTreeSet<String>,
    }
    let mut acqs: BTreeMap<usize, Vec<Acq>> = BTreeMap::new();
    for (id, f) in graph.fns.iter().enumerate() {
        let Some((_, body_hi)) = f.body.filter(|_| lock_crates.contains(&f.crate_name)) else {
            continue;
        };
        let Some(lx) = lexed.get(&f.file) else { continue };
        let mut list = Vec::new();
        for call in &f.calls {
            if call.name != "lock"
                || call.kind != crate::parse::CallKind::Method
                || lx.in_test(call.line)
            {
                continue;
            }
            let names = call.qual.as_ref().map(|q| names_for(&f.file, q)).unwrap_or_default();
            if !names.is_empty() {
                let end = hold_end(lx, call, body_hi);
                list.push(Acq { tok: call.tok, line: call.line, end, names });
            }
        }
        if !list.is_empty() {
            acqs.insert(id, list);
        }
    }

    // 3. The locks a callee acquires, itself or down any chain of
    //    confident calls — recursion cycles included.
    let mut under: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut locks_under = |callee: usize| -> BTreeSet<String> {
        under
            .entry(callee)
            .or_insert_with(|| {
                let reach = graph.reach(&[callee], true);
                acqs.iter()
                    .filter(|(id, _)| reach.reachable[**id])
                    .flat_map(|(_, list)| list.iter().flat_map(|a| a.names.iter().cloned()))
                    .collect()
            })
            .clone()
    };

    // 4. Mine edges: nested acquisitions in the same fn, plus locks
    //    acquired by callees invoked while a lock is held.
    let mut edges: BTreeSet<OrderEdge> = BTreeSet::new();
    for (&id, list) in &acqs {
        let f = &graph.fns[id];
        for a in list {
            // What is acquired while `a` is held: (names, line, callee).
            let mut inner: Vec<(BTreeSet<String>, u32, Option<String>)> = list
                .iter()
                .filter(|b| a.tok < b.tok && b.tok <= a.end)
                .map(|b| (b.names.clone(), b.line, None))
                .collect();
            for rc in graph.resolved[id].iter().filter(|rc| rc.confident) {
                let call = &f.calls[rc.call];
                if call.name != "lock" && a.tok < call.tok && call.tok <= a.end {
                    inner.extend(rc.callees.iter().map(|&callee| {
                        (locks_under(callee), call.line, Some(graph.fns[callee].qual.clone()))
                    }));
                }
            }
            for (names, line, via) in inner {
                for (na, nb) in a.names.iter().flat_map(|na| names.iter().map(move |nb| (na, nb))) {
                    edges.insert(OrderEdge {
                        from: na.clone(),
                        to: nb.clone(),
                        fn_qual: f.qual.clone(),
                        file: f.file.clone(),
                        line,
                        via: via.clone(),
                    });
                }
            }
        }
    }

    // 5. Rank check + cycle detection.
    let mut out = Vec::new();
    for e in &edges {
        let (Some(&ra), Some(&rb)) = (manifest.get(&e.from), manifest.get(&e.to)) else {
            continue; // unknown names are already v1 findings
        };
        if ra >= rb {
            let via = e.via.as_deref().map(|v| format!(" via {v}")).unwrap_or_default();
            out.push(Finding::new(
                "lock",
                "",
                &e.file,
                e.line,
                format!(
                    "acquisition-order edge \"{}\" (rank {ra}) → \"{}\" (rank {rb}) in \
                     {}{via} — ranks must strictly increase along every chain \
                     (reorder the acquisitions or re-rank audit-locks.toml)",
                    e.from, e.to, e.fn_qual
                ),
            ));
        }
    }
    if let Some(cycle) = find_cycle(&edges) {
        out.push(Finding::new(
            "lock",
            "",
            "audit-locks.toml",
            0,
            format!("lock acquisition cycle: {}", cycle.join(" → ")),
        ));
    }
    out
}

/// End of the hold range for a `.lock()` call: a `let`-bound guard lives
/// to its `drop(guard)` call or enclosing-block close; a temporary lives
/// to the end of its statement.
fn hold_end(lx: &Lexed, call: &crate::parse::Call, body_hi: usize) -> usize {
    let t = &lx.tokens;
    // Statement start: scan back to the nearest `;`, `{`, or `}`.
    let mut s = call.tok;
    while s > 0 && !(t[s - 1].is_punct(';') || t[s - 1].is_punct('{') || t[s - 1].is_punct('}')) {
        s -= 1;
    }
    let guard = (s..call.tok)
        .find(|&j| t[j].is_ident("let"))
        .and_then(|j| t.get(j + 1))
        .filter(|g| g.kind == TokKind::Ident)
        .map(|g| g.text.clone());
    // The enclosing block's close — or, for a temporary, the statement's
    // end — stepping over nested blocks.
    let mut end = call.close;
    while end < body_hi && !(t[end].is_punct('}') || guard.is_none() && t[end].is_punct(';')) {
        end = if t[end].is_punct('{') { lx.partner[end] + 1 } else { end + 1 };
    }
    let end = end.min(body_hi);
    match guard {
        // A guard dropped early (`drop(g)`, in any nested block) ends there.
        Some(g) => (call.close..end)
            .find(|&j| {
                t[j].is_ident("drop")
                    && t.get(j + 1).is_some_and(|n| n.is_punct('('))
                    && t.get(j + 2).is_some_and(|n| n.is_ident(&g))
            })
            .unwrap_or(end),
        None => end,
    }
}

/// DFS cycle search over the mined name graph; returns one cycle's node
/// sequence if any.
fn find_cycle(edges: &BTreeSet<OrderEdge>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges.iter().filter(|e| e.from != e.to) {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    fn dfs<'a>(
        n: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        path: &mut Vec<&'a str>,
        done: &mut BTreeSet<&'a str>,
    ) -> Option<Vec<String>> {
        path.push(n);
        for &next in adj.get(n).into_iter().flatten().rev() {
            if let Some(pos) = path.iter().position(|&p| p == next) {
                return Some(path[pos..].iter().chain([&next]).map(|s| s.to_string()).collect());
            }
            if !done.contains(next) {
                if let Some(cycle) = dfs(next, adj, path, done) {
                    return Some(cycle);
                }
            }
        }
        path.pop();
        done.insert(n);
        None
    }
    let mut done = BTreeSet::new();
    adj.keys().find_map(|&start| {
        if done.contains(start) {
            return None;
        }
        dfs(start, &adj, &mut Vec::new(), &mut done)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(srcs: &[&str], manifest: &[(&str, u16)]) -> Vec<String> {
        let files: Vec<(String, Lexed)> =
            srcs.iter().enumerate().map(|(i, src)| (format!("f{i}.rs"), lex(src))).collect();
        let m: BTreeMap<String, u16> = manifest.iter().map(|(n, r)| (n.to_string(), *r)).collect();
        check_manifest(files.iter().map(|(f, lx)| ("c", f.as_str(), lx)), &m)
            .into_iter()
            .map(|f| f.msg)
            .collect()
    }

    #[test]
    fn raw_mutex_is_flagged_ordered_is_not() {
        let msgs = run(
            &["fn f() { let m = Mutex::new(0); let o = OrderedMutex::new(\"a\", 0); }"],
            &[("a", 10)],
        );
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("raw Mutex::new"));
    }

    #[test]
    fn allow_suppresses_raw_mutex() {
        let msgs = run(
            &["// audit:allow(lock): this IS the wrapper\nfn f() { let m = Mutex::new(0); }"],
            &[],
        );
        assert!(msgs.is_empty());
    }

    #[test]
    fn unknown_name_and_stale_entry_are_findings() {
        let msgs =
            run(&["fn f() { let o = OrderedMutex::new(\"mystery\", 0); }"], &[("listed", 10)]);
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().any(|m| m.contains("\"mystery\" has no rank")));
        assert!(msgs.iter().any(|m| m.contains("stale manifest entry") && m.contains("listed")));
    }

    #[test]
    fn duplicate_rank_is_a_finding() {
        let msgs = run(
            &["fn f() { OrderedMutex::new(\"a\", 0); OrderedMutex::new(\"b\", 0); }"],
            &[("a", 7), ("b", 7)],
        );
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("duplicate rank 7"));
    }

    #[test]
    fn non_literal_name_is_flagged() {
        let msgs = run(&["fn f(n: &str) { OrderedMutex::new(n, 0); }"], &[]);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("without a string-literal name"));
    }

    #[test]
    fn lock_sites_are_collected() {
        let lx = lex("fn f() { m.lock(); g.lock.poisoned; }");
        assert_eq!(lock_sites([("c", "f.rs", &lx)]), ["f.rs:1 — c"]);
    }

    fn run_order(src: &str, manifest: &[(&str, u16)]) -> Vec<String> {
        let lx = lex(src);
        let items = crate::parse::parse_file("demo", "demo/src/lib.rs", &lx);
        let graph = crate::graph::CallGraph::build(vec![items]);
        let lexed = [("demo/src/lib.rs".to_string(), lx)].into_iter().collect();
        let m: BTreeMap<String, u16> = manifest.iter().map(|(n, r)| (n.to_string(), *r)).collect();
        check_order(&graph, &lexed, &["demo".to_string()], &m).into_iter().map(|f| f.msg).collect()
    }

    #[test]
    fn increasing_rank_nesting_is_fine() {
        let src = "struct S { a: X, b: X }\nfn mk() -> S { S { a: OrderedMutex::new(\"lo\", 0), b: OrderedMutex::new(\"hi\", 0) } }\nimpl S { fn f(&self) { let g = self.a.lock(); self.b.lock(); } }\n";
        assert!(run_order(src, &[("lo", 10), ("hi", 20)]).is_empty());
    }

    #[test]
    fn out_of_rank_nesting_is_flagged_with_the_edge() {
        let src = "struct S { a: X, b: X }\nfn mk() -> S { S { a: OrderedMutex::new(\"lo\", 0), b: OrderedMutex::new(\"hi\", 0) } }\nimpl S { fn f(&self) { let g = self.b.lock(); self.a.lock(); } }\n";
        let msgs = run_order(src, &[("lo", 10), ("hi", 20)]);
        assert!(
            msgs.iter()
                .any(|m| m.contains("\"hi\" (rank 20) → \"lo\" (rank 10)") && m.contains("S::f")),
            "{msgs:?}"
        );
    }

    #[test]
    fn cross_fn_nesting_goes_through_the_graph() {
        let src = "struct S { a: X, b: X }\n\
                   fn mk() -> S { S { a: OrderedMutex::new(\"lo\", 0), b: OrderedMutex::new(\"hi\", 0) } }\n\
                   impl S { fn outer(&self) { let g = self.b.lock(); self.helper(); }\n\
                   fn helper(&self) { self.a.lock(); } }\n";
        let msgs = run_order(src, &[("lo", 10), ("hi", 20)]);
        assert!(
            msgs.iter().any(|m| m.contains("via S::helper")),
            "cross-fn edge must name the callee: {msgs:?}"
        );
    }

    #[test]
    fn dropped_guard_ends_the_hold() {
        let src = "struct S { a: X, b: X }\nfn mk() -> S { S { a: OrderedMutex::new(\"lo\", 0), b: OrderedMutex::new(\"hi\", 0) } }\nimpl S { fn f(&self) { let g = self.b.lock(); drop(g); self.a.lock(); } }\n";
        assert!(run_order(src, &[("lo", 10), ("hi", 20)]).is_empty());
    }

    #[test]
    fn statement_temporary_does_not_overlap_the_next_statement() {
        let src = "struct S { a: X, b: X }\nfn mk() -> S { S { a: OrderedMutex::new(\"lo\", 0), b: OrderedMutex::new(\"hi\", 0) } }\nimpl S { fn f(&self) { self.b.lock().poke(); self.a.lock().poke(); } }\n";
        assert!(run_order(src, &[("lo", 10), ("hi", 20)]).is_empty());
    }

    #[test]
    fn rank_respecting_cycle_is_impossible_but_detected() {
        // Manifest ranks that *permit* each edge individually can still
        // form a cycle when edges are mined from different fns against a
        // drifted manifest; the cycle check reports it directly.
        let src = "struct S { a: X, b: X }\nfn mk() -> S { S { a: OrderedMutex::new(\"lo\", 0), b: OrderedMutex::new(\"hi\", 0) } }\nimpl S { fn f(&self) { let g = self.a.lock(); self.b.lock(); }\n fn g(&self) { let h = self.b.lock(); self.a.lock(); } }\n";
        let msgs = run_order(src, &[("lo", 10), ("hi", 20)]);
        assert!(msgs.iter().any(|m| m.contains("lock acquisition cycle")), "{msgs:?}");
    }
}
