//! Item parser on top of the token stream: extracts `fn`/`impl`/`trait`
//! items, call sites, and lightweight type hints (struct fields, `let`
//! annotations, parameter types) from one file.
//!
//! This is deliberately not a Rust parser. It walks the lexer's token
//! stream with a handful of structural heuristics — matched delimiters,
//! `impl`/`trait` headers, `fn` signatures — and records just enough
//! shape for the call graph: who defines what, who calls what, and which
//! identifiers carry which nominal types. Generics are skipped, macros
//! are opaque, and anything the walk cannot classify is simply dropped
//! (the graph layer counts unresolved calls so the loss is visible).

use crate::lexer::{Lexed, TokKind, Token};

/// How a call site is spelled, which determines how the graph resolves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` — a free function call.
    Free,
    /// `Type::foo(..)` or `path::foo(..)` — qualified path call.
    Path,
    /// `recv.foo(..)` — method call; `qual` holds the receiver hint.
    Method,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment / method name).
    pub name: String,
    pub kind: CallKind,
    /// Resolution hint: the path qualifier for `Path` calls, the
    /// receiver identifier (or `self`) for `Method` calls.
    pub qual: Option<String>,
    /// For chained method calls (`a.b().c()`): token index of the `)`
    /// closing the receiver call, so return types can be threaded.
    pub recv_close: Option<usize>,
    /// Token index of the callee name.
    pub tok: usize,
    /// Token index of the `)` closing the argument list.
    pub close: usize,
    pub line: u32,
    /// Token ranges `[start, end)` of each comma-separated argument.
    pub args: Vec<(usize, usize)>,
}

/// One `fn` item: free function, inherent/trait-impl method, trait
/// declaration, nested fn, or a synthetic `<spawn@LINE>` closure node.
#[derive(Debug, Clone, Default)]
pub struct FnDef {
    pub crate_name: String,
    pub file: String,
    pub line: u32,
    pub name: String,
    /// Display-qualified name: `Type::name`, `Trait::name`, bare
    /// `name`, or `parent::<spawn@LINE>` for spawn closures.
    pub qual: String,
    /// `impl` self type, for methods.
    pub self_ty: Option<String>,
    /// Trait being implemented (for `impl Trait for Type`) or declared
    /// (for methods inside `trait` blocks).
    pub trait_name: Option<String>,
    /// True for methods declared inside a `trait { .. }` block.
    pub is_trait_decl: bool,
    /// True for synthetic nodes carved out of `spawn(..)` arguments.
    pub is_spawn: bool,
    pub has_self: bool,
    /// Parameter names in order (excluding `self`).
    pub params: Vec<String>,
    /// Identifiers appearing in the return type (for chained-call
    /// receiver resolution). Empty for `()` / no return.
    pub ret_tys: Vec<String>,
    /// Token range `(open_brace, close_brace)` of the body, if any.
    pub body: Option<(usize, usize)>,
    pub calls: Vec<Call>,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnDef>,
    /// `impl Trait for Type` relationships seen in this file.
    pub trait_impls: Vec<(String, String)>,
    /// `(ident, type)` hints from struct fields, `let` annotations and
    /// fn parameters; consumed by the graph's receiver resolution.
    pub ident_tys: Vec<(String, String)>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "break", "continue", "in", "as",
    "move", "let", "mut", "ref", "pub", "use", "mod", "where", "dyn", "impl", "fn", "struct",
    "enum", "trait", "const", "static", "type", "unsafe", "extern", "crate", "super", "Self",
    "self", "true", "false", "async", "await",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Skip a `<...>` generics group starting at an opening `<`. Returns
/// the index after the matching `>`, or `start` if it does not look
/// like a balanced group (shifts, comparisons).
pub(crate) fn skip_angles(t: &[Token], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    let limit = (start + 256).min(t.len());
    while i < limit {
        if t[i].is_punct('<') {
            depth += 1;
        } else if t[i].is_punct('>') {
            // `->` arrows inside generic bounds (fn pointers) keep depth.
            if i > 0 && t[i - 1].is_punct('-') {
                i += 1;
                continue;
            }
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        } else if t[i].is_punct(';') || t[i].is_punct('{') {
            return start; // ran into a statement: not generics
        }
        i += 1;
    }
    start
}

/// Walk `from..to` at one nesting level: step over every `(..)`, `[..]`
/// and `{..}` group whole — and, with `generics`, every `<..>` group —
/// and return the first index whose token satisfies `stop`, or that
/// closes the enclosing group; `to` if there is none.
pub(crate) fn scan_level(
    lx: &Lexed,
    from: usize,
    to: usize,
    generics: bool,
    stop: impl Fn(&Token) -> bool,
) -> usize {
    let (t, partner) = (&lx.tokens, &lx.partner);
    let mut k = from;
    while k < to && !stop(&t[k]) && partner[k] >= k {
        k = if partner[k] > k {
            partner[k] + 1
        } else if generics && t[k].is_punct('<') {
            skip_angles(t, k).max(k + 1)
        } else {
            k + 1
        };
    }
    k.min(to)
}

/// Uppercase-initial identifiers in `lo..hi`: the nominal types a
/// field, parameter or `let` annotation mentions.
fn type_idents(t: &[Token], lo: usize, hi: usize) -> impl Iterator<Item = &str> {
    t[lo..hi]
        .iter()
        .filter(|x| {
            x.kind == TokKind::Ident
                && x.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        })
        .map(|x| x.text.as_str())
}

#[derive(Clone, Copy, Default)]
struct ImplCtx<'a> {
    self_ty: Option<&'a str>,
    trait_name: Option<&'a str>,
    in_trait_decl: bool,
}

/// Parse one lexed file into items.
pub fn parse_file(crate_name: &str, file: &str, lx: &Lexed) -> FileItems {
    let t = &lx.tokens;
    let mut p = Parser { lx, crate_name, file, items: FileItems::default() };
    p.collect_items(0, t.len(), ImplCtx::default());
    let mut items = p.items;
    carve_spawns(lx, &mut items);

    // Each fn's calls exclude the bodies of fns nested strictly inside
    // it (including carved-out spawn closures), so every call is
    // attributed to exactly one node.
    let ranges: Vec<Option<(usize, usize)>> = items.fns.iter().map(|f| f.body).collect();
    for (idx, f) in items.fns.iter_mut().enumerate() {
        let Some((lo, hi)) = f.body else { continue };
        let excluded: Vec<(usize, usize)> = ranges
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != idx)
            .filter_map(|(_, r)| *r)
            .filter(|(o, c)| lo < *o && *c < hi)
            .collect();
        extract_calls(lx, lo + 1, hi, &excluded, &mut f.calls, &mut items.ident_tys);
    }
    items
}

/// The item walk over one file.
struct Parser<'a> {
    lx: &'a Lexed,
    crate_name: &'a str,
    file: &'a str,
    items: FileItems,
}

impl Parser<'_> {
    fn collect_items(&mut self, lo: usize, hi: usize, ctx: ImplCtx<'_>) {
        let t = &self.lx.tokens;
        let mut i = lo;
        while i < hi {
            let tok = &t[i];
            if tok.is_ident("impl") {
                if let Some((self_ty, trait_name, open)) = parse_impl_header(t, i, hi) {
                    let close = self.lx.partner[open];
                    if let Some(tr) = &trait_name {
                        self.items.trait_impls.push((tr.clone(), self_ty.clone()));
                    }
                    let inner = ImplCtx {
                        self_ty: Some(&self_ty),
                        trait_name: trait_name.as_deref(),
                        in_trait_decl: false,
                    };
                    self.collect_items(open + 1, close, inner);
                    i = close + 1;
                    continue;
                }
            } else if tok.is_ident("trait") && i + 1 < hi && t[i + 1].kind == TokKind::Ident {
                let name = &t[i + 1].text;
                let j =
                    (i + 2..hi).find(|&j| t[j].is_punct('{') || t[j].is_punct(';')).unwrap_or(hi);
                if j < hi && t[j].is_punct('{') {
                    let close = self.lx.partner[j];
                    let inner =
                        ImplCtx { self_ty: None, trait_name: Some(name), in_trait_decl: true };
                    self.collect_items(j + 1, close, inner);
                    i = close + 1;
                    continue;
                }
                i = j + 1;
                continue;
            } else if tok.is_ident("struct") && i + 1 < hi && t[i + 1].kind == TokKind::Ident {
                i = parse_struct_fields(self.lx, i, hi, &mut self.items.ident_tys);
                continue;
            } else if tok.is_ident("fn") && i + 1 < hi && t[i + 1].kind == TokKind::Ident {
                if let Some((def, next)) = self.parse_fn(i, hi, ctx) {
                    if let Some((open, close)) = def.body {
                        // Nested fns (and items in nested mods) still parse.
                        self.collect_items(open + 1, close, ImplCtx::default());
                    }
                    if !self.lx.in_test(def.line) {
                        self.items.fns.push(def);
                    }
                    i = next;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Parse a `fn` item starting at the `fn` token. Returns the def and
    /// the index to resume scanning at.
    fn parse_fn(&mut self, at: usize, hi: usize, ctx: ImplCtx<'_>) -> Option<(FnDef, usize)> {
        let t = &self.lx.tokens;
        let name = t[at + 1].text.clone();
        let mut i = at + 2;
        if i < hi && t[i].is_punct('<') {
            i = skip_angles(t, i);
        }
        if i >= hi || !t[i].is_punct('(') {
            return None;
        }
        let partner = &self.lx.partner;
        let pclose = partner[i];
        let mut params = Vec::new();
        let mut has_self = false;
        let mut j = i + 1;
        while j < pclose {
            if partner[j] > j {
                j = partner[j] + 1;
                continue;
            }
            if t[j].is_ident("self") {
                has_self = true;
            } else if t[j].kind == TokKind::Ident
                && t[j + 1].is_punct(':')
                && (j + 2 > pclose || !t[j + 2].is_punct(':'))
                && !is_keyword(&t[j].text)
            {
                // Record the parameter's nominal type idents so the graph can
                // resolve method calls on parameters.
                let end = scan_level(self.lx, j + 2, pclose, false, |x| x.is_punct(','));
                self.items.ident_tys.extend(
                    type_idents(t, j + 2, end).map(|ty| (t[j].text.clone(), ty.to_string())),
                );
                params.push(t[j].text.clone());
            }
            j += 1;
        }
        // Return type idents, up to `{`, `;`, or `where`.
        let mut ret_tys = Vec::new();
        let mut k = pclose + 1;
        if k + 1 < hi && t[k].is_punct('-') && t[k + 1].is_punct('>') {
            k += 2;
            while k < hi && !t[k].is_punct('{') && !t[k].is_punct(';') && !t[k].is_ident("where") {
                if t[k].kind == TokKind::Ident && !is_keyword(&t[k].text) {
                    ret_tys.push(t[k].text.clone());
                }
                k += 1;
            }
        }
        while k < hi && !t[k].is_punct('{') && !t[k].is_punct(';') {
            k += 1;
        }
        let (body, next) = if k < hi && t[k].is_punct('{') {
            (Some((k, partner[k])), partner[k] + 1)
        } else {
            (None, k + 1)
        };
        let qual = match (ctx.self_ty, ctx.trait_name) {
            (Some(ty), _) => format!("{ty}::{name}"),
            (None, Some(tr)) => format!("{tr}::{name}"),
            _ => name.clone(),
        };
        let def = FnDef {
            crate_name: self.crate_name.to_string(),
            file: self.file.to_string(),
            line: t[at].line,
            name,
            qual,
            self_ty: ctx.self_ty.map(str::to_string),
            trait_name: ctx.trait_name.map(str::to_string),
            is_trait_decl: ctx.in_trait_decl,
            has_self,
            params,
            ret_tys,
            body,
            ..FnDef::default()
        };
        Some((def, next))
    }
}

/// `impl [<..>] [Trait for] Type [<..>] {` → (type, trait, open-brace).
fn parse_impl_header(t: &[Token], at: usize, hi: usize) -> Option<(String, Option<String>, usize)> {
    let mut i = at + 1;
    if i < hi && t[i].is_punct('<') {
        i = skip_angles(t, i);
    }
    // Collect path segments until `for`, `{`, or `where`.
    let mut first_path = last_segment(t, &mut i, hi)?;
    let mut trait_name = None;
    if i < hi && t[i].is_ident("for") {
        trait_name = Some(first_path);
        i += 1;
        first_path = last_segment(t, &mut i, hi)?;
    }
    let open = (i..hi).find(|&k| t[k].is_punct('{') || t[k].is_punct(';'))?;
    t[open].is_punct('{').then_some((first_path, trait_name, open))
}

/// Read a (possibly `::`-qualified, possibly generic) path starting at
/// `*i`; advance past it and return the last identifier segment.
fn last_segment(t: &[Token], i: &mut usize, hi: usize) -> Option<String> {
    let mut last = None;
    // Leading `&`/`mut`/`dyn` on impl types.
    while *i < hi && (t[*i].is_punct('&') || t[*i].is_ident("mut") || t[*i].is_ident("dyn")) {
        *i += 1;
    }
    while *i < hi
        && t[*i].kind == TokKind::Ident
        && !t[*i].is_ident("for")
        && !t[*i].is_ident("where")
    {
        last = Some(t[*i].text.clone());
        *i += 1;
        if *i < hi && t[*i].is_punct('<') {
            *i = skip_angles(t, *i);
        }
        if !(*i + 1 < hi && t[*i].is_punct(':') && t[*i + 1].is_punct(':')) {
            break;
        }
        *i += 2;
    }
    last
}

/// Struct fields: `name: Type` at brace depth 1. Returns the index
/// after the item.
fn parse_struct_fields(lx: &Lexed, at: usize, hi: usize, out: &mut Vec<(String, String)>) -> usize {
    let (t, partner) = (&lx.tokens, &lx.partner);
    let mut i = at + 2;
    if i < hi && t[i].is_punct('<') {
        i = skip_angles(t, i);
    }
    let i = (i..hi).find(|&k| t[k].is_punct('{') || t[k].is_punct(';') || t[k].is_punct('('));
    let Some(i) = i.filter(|&i| t[i].is_punct('{')) else {
        // Tuple/unit struct: skip to the terminating `;`.
        return (i.unwrap_or(hi)..hi).find(|&k| t[k].is_punct(';')).unwrap_or(hi) + 1;
    };
    let close = partner[i];
    let mut j = i + 1;
    while j < close {
        if partner[j] > j {
            j = partner[j] + 1;
            continue;
        }
        if t[j].kind == TokKind::Ident
            && !is_keyword(&t[j].text)
            && j + 1 < close
            && t[j + 1].is_punct(':')
            && (j + 2 >= close || !t[j + 2].is_punct(':'))
        {
            // Field type: every uppercase-initial ident up to the next field.
            let end = scan_level(lx, j + 2, close, true, |x| x.is_punct(','));
            out.extend(type_idents(t, j + 2, end).map(|ty| (t[j].text.clone(), ty.to_string())));
            j = end;
            continue;
        }
        j += 1;
    }
    close + 1
}

/// Carve `spawn(..)` argument ranges out of each fn into detached
/// synthetic nodes (`parent::<spawn@LINE>`): the closure body runs on
/// its own thread, so its calls must not count as reachable from the
/// spawning function.
fn carve_spawns(lx: &Lexed, items: &mut FileItems) {
    let t = &lx.tokens;
    let mut spawned = Vec::new();
    for f in &items.fns {
        let Some((lo, hi)) = f.body else { continue };
        let mut i = lo + 1;
        while i < hi {
            if t[i].is_ident("spawn") && i + 1 < hi && t[i + 1].is_punct('(') {
                let close = lx.partner[i + 1];
                spawned.push(FnDef {
                    crate_name: f.crate_name.clone(),
                    file: f.file.clone(),
                    line: t[i].line,
                    name: format!("<spawn@{}>", t[i].line),
                    qual: format!("{}::<spawn@{}>", f.qual, t[i].line),
                    is_spawn: true,
                    body: Some((i + 1, close)),
                    ..FnDef::default()
                });
                i = close + 1;
                continue;
            }
            i += 1;
        }
    }
    items.fns.extend(spawned);
}

/// Walk a body range collecting call sites and `let x: Type` hints,
/// skipping nested-fn ranges and attributes.
fn extract_calls(
    lx: &Lexed,
    lo: usize,
    hi: usize,
    excluded: &[(usize, usize)],
    out: &mut Vec<Call>,
    ident_tys: &mut Vec<(String, String)>,
) {
    let t = &lx.tokens;
    let mut i = lo;
    'outer: while i < hi {
        for (o, c) in excluded {
            if i >= *o && i <= *c {
                i = c + 1;
                continue 'outer;
            }
        }
        let tok = &t[i];
        // Skip attribute groups: `#[ .. ]`.
        if tok.is_punct('#') && i + 1 < hi && t[i + 1].is_punct('[') {
            i = lx.partner[i + 1] + 1;
            continue;
        }
        // `let x: Type = ..` / `let x = ..` type hints.
        if tok.is_ident("let")
            && i + 2 < hi
            && t[i + 1].kind == TokKind::Ident
            && !is_keyword(&t[i + 1].text)
            && t[i + 2].is_punct(':')
            && (i + 3 >= hi || !t[i + 3].is_punct(':'))
        {
            let end = (i + 3..hi).find(|&k| t[k].is_punct('=') || t[k].is_punct(';')).unwrap_or(hi);
            ident_tys.extend(
                type_idents(t, i + 3, end).map(|ty| (t[i + 1].text.clone(), ty.to_string())),
            );
            i = end;
            continue;
        }
        if tok.kind == TokKind::Ident && i + 1 < hi && t[i + 1].is_punct('(') {
            let name = &tok.text;
            if is_keyword(name) {
                i += 1;
                continue;
            }
            if i > lo && t[i - 1].is_ident("fn") {
                i += 1;
                continue;
            }
            let close = lx.partner[i + 1];
            let (kind, qual, recv_close) = classify_call(t, lo, i);
            if kind == CallKind::Free && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            {
                // Tuple-struct / enum-variant constructor, not a call.
                i += 1;
                continue;
            }
            let args = split_args(lx, i + 1, close);
            out.push(Call {
                name: name.clone(),
                kind,
                qual,
                recv_close,
                tok: i,
                close,
                line: tok.line,
                args,
            });
            i += 1; // keep scanning inside the argument list
            continue;
        }
        i += 1;
    }
}

/// Classify the call at token `i` by its preceding tokens.
fn classify_call(t: &[Token], lo: usize, i: usize) -> (CallKind, Option<String>, Option<usize>) {
    if i == lo {
        return (CallKind::Free, None, None);
    }
    let p = &t[i - 1];
    if p.is_punct('.') {
        // Method call: look one further back for the receiver hint,
        // skipping `?` (`recv()?.m(..)`) to find a chained call's `)`.
        if let Some(ri) = (0..i - 1).rev().find(|&r| !t[r].is_punct('?')) {
            if t[ri].kind == TokKind::Ident {
                return (CallKind::Method, Some(t[ri].text.clone()), None);
            }
            if t[ri].is_punct(')') {
                return (CallKind::Method, None, Some(ri));
            }
        }
        return (CallKind::Method, None, None);
    }
    if p.is_punct(':') && i >= 2 && t[i - 2].is_punct(':') {
        let qual = (i >= 3 && t[i - 3].kind == TokKind::Ident).then(|| t[i - 3].text.clone());
        return (CallKind::Path, qual, None);
    }
    (CallKind::Free, None, None)
}

/// Split an argument list `( .. )` into per-argument token ranges.
/// Closure parameter lists (`|a, b|`) do not split arguments.
fn split_args(lx: &Lexed, open: usize, close: usize) -> Vec<(usize, usize)> {
    let t = &lx.tokens;
    let mut args = Vec::new();
    if close <= open + 1 {
        return args;
    }
    let mut start = open + 1;
    let mut j = open + 1;
    while j < close {
        let tok = &t[j];
        if lx.partner[j] > j {
            j = lx.partner[j] + 1;
            continue;
        }
        if tok.is_punct('|') && (j == start || t[j - 1].is_ident("move")) {
            // Closure parameter list at the head of an argument: scan to
            // the closing `|` without splitting on its commas.
            j = (j + 1..close).find(|&k| t[k].is_punct('|')).unwrap_or(close) + 1;
            continue;
        }
        if tok.is_punct(',') {
            args.push((start, j));
            start = j + 1;
        }
        j += 1;
    }
    if start < close {
        args.push((start, close));
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileItems {
        parse_file("demo", "demo/src/lib.rs", &lex(src))
    }

    #[test]
    fn free_fn_and_calls() {
        let items = parse("fn a() { b(); c.d(); E::f(); }\nfn b() {}\n");
        assert_eq!(items.fns.len(), 2);
        let a = &items.fns[0];
        assert_eq!(a.qual, "a");
        let names: Vec<&str> = a.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["b", "d", "f"]);
        assert_eq!(a.calls[0].kind, CallKind::Free);
        assert_eq!(a.calls[1].kind, CallKind::Method);
        assert_eq!(a.calls[1].qual.as_deref(), Some("c"));
        assert_eq!(a.calls[2].kind, CallKind::Path);
        assert_eq!(a.calls[2].qual.as_deref(), Some("E"));
    }

    #[test]
    fn impl_methods_and_trait_impl() {
        let src = "struct S { inner: Inner }\nimpl Frob for S { fn frob(&self) -> Out { self.go() } }\nimpl S { fn go(&self) {} }\n";
        let items = parse(src);
        let quals: Vec<&str> = items.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["S::frob", "S::go"]);
        assert_eq!(items.trait_impls, [("Frob".to_string(), "S".to_string())]);
        assert!(items.ident_tys.contains(&("inner".to_string(), "Inner".to_string())));
        let frob = &items.fns[0];
        assert!(frob.has_self);
        assert_eq!(frob.ret_tys, ["Out"]);
        assert_eq!(frob.calls[0].qual.as_deref(), Some("self"));
    }

    #[test]
    fn trait_decl_methods() {
        let items = parse("trait T { fn req(&self); fn prov(&self) { self.req() } }\n");
        let quals: Vec<&str> = items.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["T::req", "T::prov"]);
        assert!(items.fns[0].is_trait_decl && items.fns[0].body.is_none());
        assert!(items.fns[1].body.is_some());
    }

    #[test]
    fn spawn_carved_out() {
        let items = parse("fn a() { spawn(move || { danger(); }); after(); }\n");
        assert_eq!(items.fns.len(), 2);
        let a = &items.fns[0];
        let names: Vec<&str> = a.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["spawn", "after"], "closure body excluded from parent");
        let sp = &items.fns[1];
        assert!(sp.is_spawn);
        assert_eq!(sp.qual, "a::<spawn@1>");
        assert_eq!(sp.calls.len(), 1);
        assert_eq!(sp.calls[0].name, "danger");
    }

    #[test]
    fn nested_fn_excluded_from_parent() {
        let items = parse("fn outer() { fn inner() { hidden(); } inner(); }\n");
        let outer = items.fns.iter().find(|f| f.name == "outer").unwrap();
        let names: Vec<&str> = outer.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["inner"]);
    }

    #[test]
    fn chained_receiver_records_close() {
        let items = parse("fn a() { b().c(); }\n");
        let calls = &items.fns[0].calls;
        assert_eq!(calls[0].name, "b");
        assert_eq!(calls[1].name, "c");
        assert_eq!(calls[1].recv_close, Some(calls[0].close));
    }

    #[test]
    fn params_and_let_types() {
        let items = parse("fn a(x: usize, y: &Wire) { let z: Frame = decode(x); z.go(); }\n");
        let a = &items.fns[0];
        assert_eq!(a.params, ["x", "y"]);
        assert!(items.ident_tys.contains(&("y".to_string(), "Wire".to_string())));
        assert!(items.ident_tys.contains(&("z".to_string(), "Frame".to_string())));
    }

    #[test]
    fn test_fns_skipped() {
        let items =
            parse("#[cfg(test)]\nmod tests {\n #[test]\n fn t() { boom(); }\n}\nfn live() {}\n");
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["live"]);
    }

    #[test]
    fn closure_args_do_not_split() {
        let items = parse("fn a() { fold(0, |acc, x| acc + x); }\n");
        let call = &items.fns[0].calls[0];
        assert_eq!(call.args.len(), 2, "closure comma must not split args");
    }
}
