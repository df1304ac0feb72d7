//! **unbounded-growth** — non-test code in the policed crates must not
//! grow a `Vec`/`VecDeque` without a visible cap. A `push`/`extend` on
//! the serving path with no nearby length check or eviction is how a
//! slow consumer turns into an OOM kill; bounded buffers must either
//! check `len()`/`capacity()` (or evict with `truncate`/`drain`/`pop_*`)
//! within a few lines of the growth site, or carry
//! `// audit:allow(growth): <reason>` stating the bound.
//!
//! The rule is a heuristic: a site whose bound lives further away than
//! the scan window is annotated with that bound.

use std::io;

use crate::lexer::{Lexed, TokKind, Token};
use crate::rules::{Ctx, Finding, Rule};

/// Method names that grow a collection.
const GROWERS: [&str; 6] =
    ["push", "push_back", "push_front", "extend", "extend_from_slice", "append"];

/// Identifiers that signal a bound near the growth site: a length or
/// capacity check, an eviction, or an explicit pre-sized allocation.
const BOUNDERS: [&str; 12] = [
    "len",
    "capacity",
    "with_capacity",
    "truncate",
    "drain",
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "retain",
    "clear",
    "split_off",
];

/// How many lines on either side of a growth call the rule scans for a
/// bound signal.
const BOUND_WINDOW: u32 = 8;

pub(crate) struct Growth;

impl Rule for Growth {
    fn name(&self) -> &'static str {
        "growth"
    }
    fn description(&self) -> &'static str {
        "unbounded collection growth on the serving path"
    }
    fn label(&self) -> &'static str {
        "unbounded-growth"
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        let mut out = Vec::new();
        for (krate, path, lx) in cx.policed("growth") {
            for (line, msg) in sites(lx) {
                out.push(Finding::new("growth", krate, path, line, msg));
            }
        }
        Ok(out)
    }
}

/// Every growth site outside test code and `audit:allow(growth)`
/// annotations, as `(line, message)`.
fn sites(lx: &Lexed) -> Vec<(u32, String)> {
    let toks = &lx.tokens;
    (0..toks.len())
        .filter(|&i| site(toks, i))
        .filter(|&i| !lx.in_test(toks[i].line) && !lx.allowed("growth", toks[i].line))
        .map(|i| (toks[i].line, msg(toks, i)))
        .collect()
}

/// A growth call — `.push(` and friends; a fn named `push` or a bare path
/// does not grow a collection here, and neither does an `.append(` of a
/// bool literal (the `OpenOptions` setter) — with no bound signal within
/// [`BOUND_WINDOW`] lines.
fn site(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    let is_call = t.kind == TokKind::Ident
        && GROWERS.contains(&t.text.as_str())
        && i > 0
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
    if !is_call || (t.text == "append" && bool_literal_arg(toks, i + 2)) {
        return false;
    }
    let (lo, hi) = (t.line.saturating_sub(BOUND_WINDOW), t.line + BOUND_WINDOW);
    // Tokens are in line order: start at the window's first line.
    let first = toks.partition_point(|b| b.line < lo);
    !toks[first..]
        .iter()
        .take_while(|b| b.line <= hi)
        .any(|b| b.kind == TokKind::Ident && BOUNDERS.contains(&b.text.as_str()))
}

/// Whether the tokens from `i` on are a lone `true` or `false` and the
/// closing parenthesis.
fn bool_literal_arg(toks: &[Token], i: usize) -> bool {
    let is_bool =
        |t: &Token| t.kind == TokKind::Ident && matches!(t.text.as_str(), "true" | "false");
    toks.get(i).is_some_and(is_bool) && toks.get(i + 1).is_some_and(|t| t.is_punct(')'))
}

fn msg(toks: &[Token], i: usize) -> String {
    format!(
        "`.{}(` grows a collection with no cap check in sight (bound it nearby, or annotate `// audit:allow(growth): <reason>`)",
        toks[i].text
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lines(src: &str) -> Vec<u32> {
        sites(&lex(src)).into_iter().map(|(line, _)| line).collect()
    }

    #[test]
    fn flags_uncapped_growth() {
        let src = "fn f(log: &mut Vec<u32>, x: u32) {\n    log.push(x);\n}";
        assert_eq!(lines(src), [2]);
    }

    #[test]
    fn nearby_cap_check_suppresses() {
        let src = "fn f(log: &mut Vec<u32>, x: u32, cap: usize) {\n    if log.len() >= cap {\n        log.remove(0);\n    }\n    log.push(x);\n}";
        assert!(lines(src).is_empty());
    }

    #[test]
    fn eviction_after_push_suppresses() {
        let src = "fn f(q: &mut std::collections::VecDeque<u32>, x: u32) {\n    q.push_back(x);\n    while q.len() > 16 {\n        q.pop_front();\n    }\n}";
        assert!(lines(src).is_empty());
    }

    #[test]
    fn open_options_append_is_not_growth() {
        let src = "fn open(p: &str) -> std::io::Result<std::fs::File> {\n    std::fs::OpenOptions::new().create(true).append(true).open(p)\n}";
        assert!(lines(src).is_empty());
        assert!(lines("fn f(o: &mut std::fs::OpenOptions) {\n    o.append(false);\n}").is_empty());
        // A real `Vec::append` is still growth.
        let src = "fn f(a: &mut Vec<u32>, b: &mut Vec<u32>) {\n    a.append(b);\n}";
        assert_eq!(lines(src), [2]);
        let src = "fn f(a: &mut Vec<bool>, b: &mut Vec<bool>, on: bool) {\n    a.append(&mut vec![on]);\n    b.push(true);\n}";
        assert_eq!(lines(src), [2, 3]);
    }

    #[test]
    fn non_method_push_is_ignored() {
        assert!(lines("fn push(x: u32) {}\nfn f() { push(1); }").is_empty());
    }

    #[test]
    fn allow_and_tests_suppress() {
        let src = "fn f(v: &mut Vec<u32>) {\n    v.push(1); // audit:allow(growth): bounded by caller\n}\n#[cfg(test)]\nmod t {\n    fn g(v: &mut Vec<u32>) { v.push(2); }\n}";
        assert!(lines(src).is_empty());
    }

    #[test]
    fn block_allow_covers_a_loop_of_pushes() {
        let src = "fn f(v: &mut Vec<u32>, batch: &[u32]) {\n    // audit:allow(growth): one element per batch entry\n    for &x in batch {\n        v.push(x);\n        v.push(x + 1);\n    }\n}";
        assert!(lines(src).is_empty());
    }
}
