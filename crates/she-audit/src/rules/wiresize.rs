//! **wiresize** — allocations sized by a decoded wire length must be
//! clamped before they allocate. `Vec::with_capacity(n)`,
//! `HashMap::with_capacity(n)`, `.reserve(n)`, `.resize(n, ..)`, and
//! `vec![x; n]` all commit memory *before* any bytes backing `n` are
//! read, so a corrupt or hostile frame that claims `n = 2^60` entries is
//! an OOM the checksum never gets a chance to catch.
//!
//! The rule taints every value produced by a numeric wire decode
//! (`.u32()`, `.u64()`, `u32::from_le_bytes`, `u64::from_le_bytes` —
//! `u16` reads are inherently bounded and exempt), propagates the taint
//! through `let` bindings inside a fn and through *confident* call edges
//! into callee parameters (so "clamp in the same fn **or a caller**"
//! really means the caller: a clamped argument does not propagate), and
//! flags any allocation sink whose size expression is tainted with no
//! dominating clamp. A clamp is any of:
//!
//! * an early-return guard mentioning the value (`if n != expected {
//!   return .. }`, `if len > MAX_FRAME { return .. }`);
//! * rebinding through `.min(..)` / `clamp(..)` / a `MAX_*` / `*_CAP` /
//!   `*_LIMIT` constant;
//! * a narrowing `as u16` / `as u8` cast (the type bounds the value);
//! * clamping applied inline in the sink's size expression.
//!
//! Findings print the taint provenance chain (decode site → callers).
//! Deliberately unclampable sites carry
//! `// audit:allow(wiresize): <reason>`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;

use crate::graph::CallGraph;
use crate::lexer::{Lexed, TokKind, Token};
use crate::parse::scan_level;
use crate::rules::{Ctx, Finding, Rule};

const SINKS: [&str; 4] = ["with_capacity", "reserve", "resize", "resize_with"];

pub(crate) struct WireSize;

impl Rule for WireSize {
    fn name(&self) -> &'static str {
        "wiresize"
    }
    fn description(&self) -> &'static str {
        "allocations sized by an unclamped wire-decoded length"
    }
    fn label(&self) -> &'static str {
        "wire-size"
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        let crates = cx.cfg.scope_of("wiresize");
        Ok(check(cx.graph, cx.lexed, crates))
    }
}

/// Per-ident taint state inside one fn.
#[derive(Debug, Clone, Default)]
struct FnTaint {
    /// ident → provenance description of the decode that tainted it.
    tainted: BTreeMap<String, String>,
    /// ident → token index from which the value is considered clamped.
    clamped: BTreeMap<String, usize>,
}

/// Run the rule over every fn in the policed crates.
pub fn check(
    graph: &CallGraph,
    lexed: &BTreeMap<String, Lexed>,
    crates: &[String],
) -> Vec<Finding> {
    let policed: BTreeSet<usize> = (0..graph.fns.len())
        .filter(|&i| graph.fns[i].body.is_some() && crates.contains(&graph.fns[i].crate_name))
        .collect();

    // Interprocedural fixpoint: parameter taint injected by callers.
    let mut pre: BTreeMap<usize, BTreeMap<String, String>> = BTreeMap::new();
    let mut state: BTreeMap<usize, FnTaint> = BTreeMap::new();
    for &id in &policed {
        if let Some(lx) = lexed.get(&graph.fns[id].file) {
            state.insert(id, analyze_fn(graph, id, lx, &BTreeMap::new()));
        }
    }
    let mut work: VecDeque<usize> = policed.iter().copied().collect();
    let mut steps = 0usize;
    let budget = policed.len().saturating_mul(8).max(64);
    while let Some(id) = work.pop_front() {
        steps += 1;
        if steps > budget {
            break; // fixpoint safety valve; taint is an under-approx past here
        }
        let Some(st) = state.get(&id) else { continue };
        let st = st.clone();
        let f = &graph.fns[id];
        for rc in &graph.resolved[id] {
            if !rc.confident || rc.callees.is_empty() {
                continue;
            }
            let call = &f.calls[rc.call];
            for (argi, &(alo, ahi)) in call.args.iter().enumerate() {
                let Some(lx) = lexed.get(&f.file) else { continue };
                let hot = hot_expr(&lx.tokens, alo, ahi, &st, call.tok);
                let Some(origin) = hot else { continue };
                for &callee in &rc.callees {
                    if !policed.contains(&callee) {
                        continue;
                    }
                    let params = &graph.fns[callee].params;
                    let Some(param) = params.get(argi) else { continue };
                    let chain = format!("{origin} via {} ({}:{})", f.qual, f.file, call.line);
                    let entry = pre.entry(callee).or_default();
                    if entry.contains_key(param) {
                        continue;
                    }
                    entry.insert(param.clone(), chain);
                    if let Some(lx2) = lexed.get(&graph.fns[callee].file) {
                        let seeded = pre.get(&callee).cloned().unwrap_or_default();
                        state.insert(callee, analyze_fn(graph, callee, lx2, &seeded));
                        work.push_back(callee);
                    }
                }
            }
        }
    }

    // Sink evaluation with the settled taint.
    let mut out = Vec::new();
    for &id in &policed {
        let f = &graph.fns[id];
        let (Some(st), Some(lx)) = (state.get(&id), lexed.get(&f.file)) else { continue };
        let Some((lo, hi)) = f.body else { continue };
        collect_sink_findings(graph, id, lx, lo, hi, st, &mut out);
    }
    out
}

/// If the expression range is "hot" — contains a direct decode or a
/// tainted ident with no clamp dominating `at` — return its provenance.
fn hot_expr(t: &[Token], lo: usize, hi: usize, st: &FnTaint, at: usize) -> Option<String> {
    if expr_has_clamp(t, lo, hi) {
        return None;
    }
    if let Some(i) = find_decode(t, lo, hi) {
        return Some(format!("wire length decoded at line {}", t[i].line));
    }
    t[lo..hi.min(t.len())].iter().filter(|x| x.kind == TokKind::Ident).find_map(|x| {
        let clamped = st.clamped.get(&x.text).is_some_and(|&c| c < at);
        st.tainted.get(&x.text).filter(|_| !clamped).cloned()
    })
}

/// First numeric wire-decode call in the range: `.u32(` / `.u64(` /
/// `u32::from_le_bytes(` / `u64::from_le_bytes(`.
fn find_decode(t: &[Token], lo: usize, hi: usize) -> Option<usize> {
    (lo..hi.min(t.len())).find(|&i| {
        let called = t[i].kind == TokKind::Ident && t.get(i + 1).is_some_and(|n| n.is_punct('('));
        called
            && match t[i].text.as_str() {
                "u32" | "u64" => i > lo && t[i - 1].is_punct('.'),
                "from_le_bytes" => {
                    i >= 3
                        && t[i - 1].is_punct(':')
                        && t[i - 2].is_punct(':')
                        && (t[i - 3].is_ident("u32") || t[i - 3].is_ident("u64"))
                }
                _ => false,
            }
    })
}

/// Does the range apply a clamp inline? (`.min(`, `clamp`, `MAX_*`,
/// `*_CAP`, `*_LIMIT` idents, or a narrowing `as u16`/`as u8` cast.)
fn expr_has_clamp(t: &[Token], lo: usize, hi: usize) -> bool {
    (lo..hi.min(t.len())).filter(|&i| t[i].kind == TokKind::Ident).any(|i| {
        let s = t[i].text.as_str();
        (s == "min" && i > lo && t[i - 1].is_punct('.'))
            || s == "clamp"
            || s.starts_with("MAX_")
            || s.ends_with("_CAP")
            || s.ends_with("_LIMIT")
            || ((s == "u16" || s == "u8") && i > lo && t[i - 1].is_ident("as"))
    })
}

/// One pass of local taint analysis: `let` bindings propagate taint,
/// guards and clamped rebindings record clamp positions.
fn analyze_fn(
    graph: &CallGraph,
    id: usize,
    lx: &Lexed,
    pre_tainted: &BTreeMap<String, String>,
) -> FnTaint {
    let f = &graph.fns[id];
    let t = &lx.tokens;
    let Some((lo, hi)) = f.body else { return FnTaint::default() };
    let mut st = FnTaint { tainted: pre_tainted.clone(), clamped: BTreeMap::new() };
    // Two passes reach a fixpoint for straight-line chains plus the
    // occasional use-before-redefinition; deeper cycles are rare enough
    // to ignore (the graph layer's conservatism budget covers it).
    for _ in 0..2 {
        let mut i = lo + 1;
        while i < hi {
            let tok = &t[i];
            // `let x [: T] = RHS ;`
            if tok.is_ident("let") {
                if let Some((name, rlo, rhi, next)) = let_binding(lx, i, hi) {
                    let has_decode = find_decode(t, rlo, rhi).is_some();
                    let tainted_ident = (rlo..rhi.min(t.len())).find_map(|j| {
                        (t[j].kind == TokKind::Ident)
                            .then(|| st.tainted.get(&t[j].text).cloned())
                            .flatten()
                    });
                    if has_decode || tainted_ident.is_some() {
                        let origin = if has_decode {
                            format!("wire length decoded in {} ({}:{})", f.qual, f.file, tok.line)
                        } else {
                            tainted_ident.unwrap_or_default()
                        };
                        st.tainted.insert(name.clone(), origin);
                        if expr_has_clamp(t, rlo, rhi) {
                            st.clamped.insert(name, i);
                        } else {
                            // Rebinding un-clamps a previously clamped name.
                            st.clamped.remove(&name);
                        }
                    }
                    i = next;
                    continue;
                }
            }
            // Guard: `if <cond mentioning x with a comparator> { .. return .. }`
            if tok.is_ident("if") {
                if let Some((clo, blo, bhi)) = if_shape(lx, i, hi) {
                    let exits = t[blo..bhi].iter().any(|x| x.is_ident("return"));
                    if exits && cond_has_comparator(t, clo, blo) {
                        for ctok in &t[clo..blo] {
                            if ctok.kind == TokKind::Ident && st.tainted.contains_key(&ctok.text) {
                                st.clamped.entry(ctok.text.clone()).or_insert(i);
                            }
                        }
                    }
                }
            }
            i += 1;
        }
    }
    st
}

/// Parse `let [mut] name [: T] = RHS ;` at `i`. Returns
/// `(name, rhs_lo, rhs_hi, resume_index)`.
fn let_binding(lx: &Lexed, i: usize, hi: usize) -> Option<(String, usize, usize, usize)> {
    let t = &lx.tokens;
    let mut j = i + 1;
    if j < hi && t[j].is_ident("mut") {
        j += 1;
    }
    if j >= hi || t[j].kind != TokKind::Ident {
        return None;
    }
    let name = t[j].text.clone();
    j += 1;
    // Skip a `: Type` annotation; a `;` anywhere in it means this is no
    // plain binding.
    if j < hi && t[j].is_punct(':') && !(j + 1 < hi && t[j + 1].is_punct(':')) {
        let ty = j + 1;
        j = scan_level(lx, ty, hi, true, |x| x.is_punct('=') || x.is_punct(';'));
        if t[ty..j].iter().any(|x| x.is_punct(';')) {
            return None;
        }
    }
    if j >= hi || !t[j].is_punct('=') {
        return None;
    }
    let k = scan_level(lx, j + 1, hi, false, |x| x.is_punct(';'));
    Some((name, j + 1, k, k + 1))
}

/// Shape of an `if`: where its condition starts, and its block's open
/// and close. A `;` before the block means the `if` sits in a shape
/// this walk does not follow.
fn if_shape(lx: &Lexed, i: usize, hi: usize) -> Option<(usize, usize, usize)> {
    let t = &lx.tokens;
    let clo = i + 1;
    let j = scan_level(lx, clo, hi, false, |x| x.is_punct('{') || x.is_punct(';'));
    if j >= hi || !t[j].is_punct('{') || t[clo..j].iter().any(|x| x.is_punct(';')) {
        return None;
    }
    let bhi = lx.partner[j];
    (bhi < hi).then_some((clo, j, bhi))
}

/// Does the condition compare (`<`, `>`, `==`, `!=`, `<=`, `>=`)?
fn cond_has_comparator(t: &[Token], clo: usize, chi: usize) -> bool {
    (clo..chi.min(t.len())).any(|j| {
        t[j].is_punct('<')
            || t[j].is_punct('>')
            || (t[j].is_punct('!') || t[j].is_punct('='))
                && t.get(j + 1).is_some_and(|n| n.is_punct('='))
    })
}

/// Emit findings for tainted, unclamped allocation sinks in one fn.
fn collect_sink_findings(
    graph: &CallGraph,
    id: usize,
    lx: &Lexed,
    lo: usize,
    hi: usize,
    st: &FnTaint,
    out: &mut Vec<Finding>,
) {
    let f = &graph.fns[id];
    let t = &lx.tokens;
    let mut sinks: Vec<(usize, usize, usize, u32, String)> = Vec::new(); // (tok, alo, ahi, line, label)
    for call in &f.calls {
        if !SINKS.contains(&call.name.as_str()) {
            continue;
        }
        let Some(&(alo, ahi)) = call.args.first() else { continue };
        sinks.push((call.tok, alo, ahi, call.line, format!("{}(", call.name)));
    }
    // `vec![x; n]` — the size expression after the `;`.
    let mut i = lo;
    while i < hi {
        if t[i].is_ident("vec")
            && t.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && t.get(i + 2).is_some_and(|n| n.is_punct('['))
        {
            let close = lx.partner[i + 2];
            if close >= hi {
                i += 3;
                continue;
            }
            let semi = scan_level(lx, i + 3, close, false, |x| x.is_punct(';'));
            if semi < close {
                sinks.push((i, semi + 1, close, t[i].line, "vec![_; n]".to_string()));
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    for (tok, alo, ahi, line, label) in sinks {
        if lx.in_test(line) || lx.allowed("wiresize", line) {
            continue;
        }
        if let Some(origin) = hot_expr(t, alo, ahi, st, tok) {
            out.push(Finding::new(
                "wiresize",
                &f.crate_name,
                &f.file,
                line,
                format!(
                    "`{label}` sized by an unclamped wire-decoded length in {} — {origin}; \
                     clamp it against MAX_FRAME/geometry before allocating (or annotate \
                     `// audit:allow(wiresize): <reason>`)",
                    f.qual
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn run(src: &str) -> Vec<Finding> {
        let lx = lex(src);
        let items = parse_file("demo", "demo/src/lib.rs", &lx);
        let graph = CallGraph::build(vec![items]);
        let lexed = [("demo/src/lib.rs".to_string(), lx)].into_iter().collect();
        check(&graph, &lexed, &["demo".to_string()])
    }

    #[test]
    fn unclamped_decode_into_with_capacity_fires() {
        let src = "fn load(r: &mut Reader) {\n    let n = r.u64()? as usize;\n    \
                   let mut m = HashMap::with_capacity(n);\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("wire-decoded length"), "{}", f[0].msg);
    }

    #[test]
    fn guard_before_the_sink_clamps() {
        let src =
            "fn load(r: &mut Reader) -> Result<(), E> {\n    let n = r.u32()? as usize;\n    \
                   if n != self.groups() { return Err(E::Geometry); }\n    \
                   let v = Vec::with_capacity(n);\n    Ok(())\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn min_clamp_at_birth_is_fine() {
        let src = "fn load(r: &mut Reader) {\n    let n = (r.u64()? as usize).min(CAP);\n    \
                   let v = Vec::with_capacity(n);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn inline_sink_clamp_is_fine() {
        let src = "fn load(r: &mut Reader) {\n    let n = r.u64()? as usize;\n    \
                   let v = Vec::with_capacity(n.min(MAX_ROWS));\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn u16_reads_are_exempt() {
        let src = "fn load(r: &mut Reader) {\n    let n = r.u16()? as usize;\n    \
                   let v = Vec::with_capacity(n);\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn vec_macro_size_is_a_sink() {
        let src = "fn load(r: &mut Reader) {\n    let n = r.u64()? as usize;\n    \
                   let v = vec![0u8; n];\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("vec![_; n]"), "{}", f[0].msg);
    }

    #[test]
    fn taint_crosses_into_callee_params() {
        let src = "fn parse(r: &mut Reader) {\n    let n = r.u64()? as usize;\n    build(n);\n}\n\
                   fn build(count: usize) {\n    let v = Vec::with_capacity(count);\n}\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert!(f[0].msg.contains("via parse"), "{}", f[0].msg);
    }

    #[test]
    fn caller_side_clamp_does_not_propagate() {
        let src = "fn parse(r: &mut Reader) {\n    let n = r.u64()? as usize;\n    \
                   if n > MAX_N { return; }\n    build(n);\n}\n\
                   fn build(count: usize) {\n    let v = Vec::with_capacity(count);\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn allow_suppresses() {
        let src = "fn load(r: &mut Reader) {\n    let n = r.u64()? as usize;\n    \
                   // audit:allow(wiresize): n is bounded by the section length check above\n    \
                   let v = Vec::with_capacity(n);\n}\n";
        assert!(run(src).is_empty());
    }
}
