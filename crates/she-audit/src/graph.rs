//! Conservative workspace call graph over the parsed items.
//!
//! Resolution is name + receiver-heuristic based:
//!
//! * `recv.m(..)` — the receiver's nominal type is guessed from `self`,
//!   struct-field / `let` / parameter type hints, or (for chains) the
//!   return type of the receiver call; candidates are the matching
//!   inherent methods plus trait-method fan-out (every implementor of a
//!   trait the type implements, and trait default bodies). Such edges
//!   are *confident*. A hinted type with no such workspace method is an
//!   external call (`AtomicBool::load`), not a fan-out. Only when no
//!   type hint lands at all does the call fan out — to every same-named
//!   method in the *caller's own crate* (*unconfident* edges); bare-name
//!   matching across crates invents edges between unrelated subsystems.
//! * `Type::m(..)` — resolved against the qualifier (type or trait);
//!   lowercase qualifiers (module paths) fall back to free functions.
//! * `m(..)` — free functions, same-crate definitions preferred.
//!
//! Calls that resolve to nothing (std, externs) are counted as
//! unresolved — the over/under-approximation budget is part of the
//! graph's observable surface (`GraphStats`), not silent.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{Call, CallKind, FileItems, FnDef};

/// One resolved call: indexes into `CallGraph::fns`.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// Index into the owning fn's `calls`.
    pub call: usize,
    pub callees: Vec<usize>,
    /// True when resolution went through a type hint (receiver type,
    /// path qualifier, or free-fn name match) rather than a blind
    /// same-name fan-out.
    pub confident: bool,
}

/// Headline numbers for `--json` and the CLI banner.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    pub nodes: usize,
    pub edges: usize,
    pub roots: usize,
    pub unresolved_calls: usize,
}

#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnDef>,
    /// Adjacency: `edges[caller]` → deduped callee indices.
    pub edges: Vec<Vec<usize>>,
    /// Per-fn resolution results, parallel to `fns[i].calls` subsets.
    pub resolved: Vec<Vec<ResolvedCall>>,
    pub unresolved_calls: usize,
}

/// BFS reachability with parent links for chain printing.
#[derive(Debug)]
pub struct Reach {
    pub reachable: Vec<bool>,
    parent: Vec<Option<usize>>,
}

impl CallGraph {
    /// Build the graph from every parsed file in the workspace.
    pub fn build(files: Vec<FileItems>) -> CallGraph {
        let mut fns = Vec::new();
        let mut trait_impls: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut ident_tys: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for items in files {
            for (tr, ty) in items.trait_impls {
                let e = trait_impls.entry(tr).or_default();
                if !e.contains(&ty) {
                    e.push(ty);
                }
            }
            for (id, ty) in items.ident_tys {
                ident_tys.entry(id).or_default().insert(ty);
            }
            fns.extend(items.fns);
        }

        // Symbol tables.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut trait_decl: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_spawn {
                continue;
            }
            if f.is_trait_decl {
                if let Some(tr) = &f.trait_name {
                    trait_decl.entry((tr, &f.name)).or_default().push(i);
                }
            } else if let Some(ty) = &f.self_ty {
                typed.entry((ty, &f.name)).or_default().push(i);
            } else {
                free.entry(&f.name).or_default().push(i);
            }
            if f.has_self {
                methods.entry(&f.name).or_default().push(i);
            }
        }
        // Traits implemented by each type, for default-body fan-in.
        let mut tys_traits: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (tr, tys) in &trait_impls {
            for ty in tys {
                tys_traits.entry(ty).or_default().push(tr);
            }
        }

        let candidates_for_ty = |ty: &str, name: &str| -> Vec<usize> {
            let on = |ty: &str| typed.get(&(ty, name)).cloned().unwrap_or_default();
            let default_bodies = |tr: &str| -> Vec<usize> {
                let decls = trait_decl.get(&(tr, name)).into_iter().flatten().copied();
                decls.filter(|&i| fns[i].body.is_some()).collect()
            };
            let mut out = on(ty);
            // `ty` is a trait: fan out to every implementor + defaults.
            if let Some(impls) = trait_impls.get(ty) {
                out.extend(impls.iter().flat_map(|imp| on(imp)));
                out.extend(default_bodies(ty));
            }
            // `ty` is a type whose trait provides a default body.
            out.extend(tys_traits.get(ty).into_iter().flatten().flat_map(|tr| default_bodies(tr)));
            out.sort_unstable();
            out.dedup();
            out
        };

        let resolve_free = |name: &str, caller_crate: &str| -> Vec<usize> {
            let Some(ids) = free.get(name) else { return Vec::new() };
            let same: Vec<usize> =
                ids.iter().copied().filter(|&i| fns[i].crate_name == caller_crate).collect();
            if same.is_empty() {
                ids.clone()
            } else {
                same
            }
        };

        let mut resolved: Vec<Vec<ResolvedCall>> = Vec::with_capacity(fns.len());
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        let mut unresolved = 0usize;
        for f in &fns {
            let mut rets: BTreeMap<usize, BTreeSet<&str>> = BTreeMap::new();
            let mut rcs = Vec::new();
            let mut adj: BTreeSet<usize> = BTreeSet::new();
            for (ci, call) in f.calls.iter().enumerate() {
                let (callees, confident) = resolve_call(
                    &fns,
                    f,
                    call,
                    &rets,
                    &ident_tys,
                    &candidates_for_ty,
                    &resolve_free,
                    &methods,
                );
                if callees.is_empty() {
                    unresolved += 1;
                } else {
                    let tys: BTreeSet<&str> = callees
                        .iter()
                        .flat_map(|&i| fns[i].ret_tys.iter().map(String::as_str))
                        .collect();
                    rets.insert(call.close, tys);
                    adj.extend(&callees);
                }
                rcs.push(ResolvedCall { call: ci, callees, confident });
            }
            resolved.push(rcs);
            edges.push(adj.into_iter().collect());
        }

        CallGraph { fns, edges, resolved, unresolved_calls: unresolved }
    }

    pub fn stats(&self, roots: usize) -> GraphStats {
        GraphStats {
            nodes: self.fns.len(),
            edges: self.edges.iter().map(Vec::len).sum(),
            roots,
            unresolved_calls: self.unresolved_calls,
        }
    }

    /// Resolve `(crate, qualified-name)` root specs to fn indices.
    /// Returns the indices plus any specs that matched nothing.
    pub fn find_roots(&self, specs: &[(String, String)]) -> (Vec<usize>, Vec<String>) {
        let mut ids = Vec::new();
        let mut missing = Vec::new();
        for (krate, qual) in specs {
            let found = ids.len();
            ids.extend(self.fns.iter().enumerate().filter_map(|(i, f)| {
                (&f.crate_name == krate && &f.qual == qual && f.body.is_some()).then_some(i)
            }));
            if ids.len() == found {
                missing.push(format!("{krate}::{qual}"));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        (ids, missing)
    }

    /// BFS from `roots` over every edge, confident or not.
    pub fn reach(&self, roots: &[usize]) -> Reach {
        let mut reachable = vec![false; self.fns.len()];
        let mut parent = vec![None; self.fns.len()];
        let mut q = VecDeque::new();
        for &r in roots {
            if !reachable[r] {
                reachable[r] = true;
                q.push_back(r);
            }
        }
        while let Some(n) = q.pop_front() {
            for &callee in &self.edges[n] {
                // Spawn nodes run on their own thread: never reachable
                // *through* the graph, only as explicit roots.
                if self.fns[callee].is_spawn {
                    continue;
                }
                if !reachable[callee] {
                    reachable[callee] = true;
                    parent[callee] = Some(n);
                    q.push_back(callee);
                }
            }
        }
        Reach { reachable, parent }
    }

    /// Human-readable root→fn chain, e.g. `Reactor::run → Shared::handle → ask`.
    pub fn chain_str(&self, reach: &Reach, mut id: usize) -> String {
        let mut chain = vec![self.fns[id].qual.as_str()];
        while let Some(p) = reach.parent[id] {
            chain.push(&self.fns[p].qual);
            id = p;
        }
        chain.reverse();
        chain.join(" → ")
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "the symbol tables `build` assembles, passed once to the one resolver"
)]
fn resolve_call(
    fns: &[FnDef],
    caller: &FnDef,
    call: &Call,
    rets: &BTreeMap<usize, BTreeSet<&str>>,
    ident_tys: &BTreeMap<String, BTreeSet<String>>,
    candidates_for_ty: &dyn Fn(&str, &str) -> Vec<usize>,
    resolve_free: &dyn Fn(&str, &str) -> Vec<usize>,
    methods: &BTreeMap<&str, Vec<usize>>,
) -> (Vec<usize>, bool) {
    match call.kind {
        CallKind::Method => {
            let tys: BTreeSet<String> = match (&call.qual, call.recv_close) {
                (Some(q), _) if q == "self" => caller.self_ty.iter().cloned().collect(),
                (Some(q), _) => ident_tys.get(q).cloned().unwrap_or_default(),
                (None, Some(close)) => {
                    rets.get(&close).into_iter().flatten().map(|s| s.to_string()).collect()
                }
                (None, None) => BTreeSet::new(),
            };
            let mut out: Vec<usize> =
                tys.iter().flat_map(|ty| candidates_for_ty(ty, &call.name)).collect();
            out.sort_unstable();
            out.dedup();
            if !out.is_empty() {
                return (out, true);
            }
            // The receiver's type is known but owns no such workspace
            // method: the call targets external code (`AtomicBool::load`,
            // `TcpStream::write`). Fanning out by bare name here would
            // invent edges between unrelated subsystems.
            if !tys.is_empty() {
                return (Vec::new(), true);
            }
            // Blind fan-out, same crate only: a method on an unhinted
            // receiver is plausibly defined nearby; matching bare names
            // like `write`/`load`/`run` across crates is noise.
            let fan: Vec<usize> = methods
                .get(call.name.as_str())
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|&i| fns[i].crate_name == caller.crate_name)
                        .collect()
                })
                .unwrap_or_default();
            (fan, false)
        }
        CallKind::Path => {
            let out = if let Some(q) = &call.qual {
                let ty = if q == "Self" { caller.self_ty.as_deref().unwrap_or(q) } else { q };
                let by_ty = candidates_for_ty(ty, &call.name);
                if by_ty.is_empty() && ty.chars().next().is_some_and(|c| c.is_ascii_lowercase()) {
                    // Module path (`crate::readpath::run_refresher`).
                    resolve_free(&call.name, &caller.crate_name)
                } else {
                    by_ty
                }
            } else {
                resolve_free(&call.name, &caller.crate_name)
            };
            (out, true)
        }
        CallKind::Free => (resolve_free(&call.name, &caller.crate_name), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn graph(srcs: &[(&str, &str, &str)]) -> CallGraph {
        let files =
            srcs.iter().map(|(krate, file, src)| parse_file(krate, file, &lex(src))).collect();
        CallGraph::build(files)
    }

    fn idx(g: &CallGraph, qual: &str) -> usize {
        g.fns.iter().position(|f| f.qual == qual).unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn free_call_resolves_same_crate_first() {
        let g = graph(&[
            ("a", "a/src/lib.rs", "fn go() { helper(); }\nfn helper() {}\n"),
            ("b", "b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let go = idx(&g, "go");
        let tgt = g.edges[go][0];
        assert_eq!(g.fns[tgt].crate_name, "a");
        assert!(g.resolved[go][0].confident);
    }

    #[test]
    fn trait_method_fans_out_to_implementors() {
        let src = "trait T { fn m(&self); }\nstruct A; struct B;\nimpl T for A { fn m(&self) {} }\nimpl T for B { fn m(&self) {} }\nfn go(x: &dyn T) { x.m(); }\n";
        let g = graph(&[("a", "a/src/lib.rs", src)]);
        let go = idx(&g, "go");
        let callees: Vec<&str> = g.edges[go].iter().map(|&e| g.fns[e].qual.as_str()).collect();
        assert!(callees.contains(&"A::m") && callees.contains(&"B::m"), "{callees:?}");
        assert!(g.resolved[go].iter().all(|rc| rc.confident));
    }

    #[test]
    fn chained_call_threads_return_type() {
        let src = "struct W; impl W { fn sink(&self) {} }\nfn make() -> W { W }\nfn go() { make().sink(); }\n";
        let g = graph(&[("a", "a/src/lib.rs", src)]);
        let go = idx(&g, "go");
        let callees: Vec<&str> = g.edges[go].iter().map(|&e| g.fns[e].qual.as_str()).collect();
        assert!(callees.contains(&"W::sink"), "{callees:?}");
    }

    #[test]
    fn cross_crate_method_resolution() {
        let g = graph(&[
            ("core", "core/src/lib.rs", "pub struct Rp; impl Rp { pub fn query(&self) {} }\n"),
            ("srv", "srv/src/lib.rs", "fn go(rp: &Rp) { rp.query(); }\n"),
        ]);
        let go = idx(&g, "go");
        assert_eq!(g.fns[g.edges[go][0]].qual, "Rp::query");
    }

    #[test]
    fn hinted_type_without_the_method_is_extern_not_fanout() {
        // `flag.load(..)` on a hinted AtomicBool must not fan out to an
        // unrelated workspace `load` method.
        let g = graph(&[
            ("a", "a/src/lib.rs", "struct R { flag: AtomicBool }\nimpl R { fn go(&self) { self.flag.load(); } }\nstruct Eng; impl Eng { fn load(&self) {} }\n"),
        ]);
        let go = idx(&g, "R::go");
        assert!(g.edges[go].is_empty(), "{:?}", g.edges[go]);
        assert!(g.unresolved_calls >= 1);
    }

    #[test]
    fn blind_fanout_stays_within_the_callers_crate() {
        let g = graph(&[
            (
                "a",
                "a/src/lib.rs",
                "fn go() { (mystery()).run(); }\nstruct L; impl L { fn run(&self) {} }\n",
            ),
            ("b", "b/src/lib.rs", "struct M; impl M { fn run(&self) {} }\n"),
        ]);
        let go = idx(&g, "go");
        let callees: Vec<&str> = g.edges[go].iter().map(|&e| g.fns[e].qual.as_str()).collect();
        assert!(callees.contains(&"L::run"), "{callees:?}");
        assert!(!callees.contains(&"M::run"), "{callees:?}");
    }

    #[test]
    fn unresolved_extern_counted() {
        let g = graph(&[("a", "a/src/lib.rs", "fn go() { std_thing(); }\n")]);
        assert_eq!(g.unresolved_calls, 1);
        assert!(g.edges[idx(&g, "go")].is_empty());
    }

    #[test]
    fn spawn_nodes_are_detached_but_rootable() {
        let src =
            "fn serve() { spawn(move || { worker(); }); }\nfn worker() { sink(); }\nfn sink() {}\n";
        let g = graph(&[("a", "a/src/lib.rs", src)]);
        let serve = idx(&g, "serve");
        let r = g.reach(&[serve]);
        assert!(!r.reachable[idx(&g, "worker")], "spawned work not reachable from spawner");
        let spawn = idx(&g, "serve::<spawn@1>");
        assert!(g.fns[spawn].is_spawn);
        let r2 = g.reach(&[spawn]);
        assert!(r2.reachable[idx(&g, "sink")], "spawn roots reach their closure's callees");
        assert_eq!(g.chain_str(&r2, idx(&g, "sink")), "serve::<spawn@1> → worker → sink");
    }

    #[test]
    fn reach_chain_prints_root_to_sink() {
        let src = "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n";
        let g = graph(&[("a", "a/src/lib.rs", src)]);
        let r = g.reach(&[idx(&g, "root")]);
        assert_eq!(g.chain_str(&r, idx(&g, "leaf")), "root → mid → leaf");
    }

    #[test]
    fn find_roots_reports_missing() {
        let g = graph(&[("a", "a/src/lib.rs", "fn root() {}\n")]);
        let (ids, missing) = g.find_roots(&[
            ("a".to_string(), "root".to_string()),
            ("a".to_string(), "ghost".to_string()),
        ]);
        assert_eq!(ids.len(), 1);
        assert_eq!(missing, ["a::ghost"]);
    }
}
