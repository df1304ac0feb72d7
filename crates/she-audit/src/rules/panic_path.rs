//! **panic-path** — non-test code in the policed crates must not contain
//! `.unwrap()`, `.expect(...)`, `panic!(...)`, or `unreachable!(...)`.
//! A panic on the serving path kills a shard worker or a connection
//! handler; the chaos soak proved that is a real availability bug, not a
//! style nit. Sites that are provably safe carry
//! `// audit:allow(panic): <reason>` and are skipped (the reason is
//! mandatory — a malformed annotation is itself a finding).
//!
//! Sites are split by reachability: one in a pinned crate whose
//! enclosing fn a serving root reaches is filed as `panic-reachable`
//! (hard, with the call chain); the rest stay `panic` (ratcheted).

use std::io;

use crate::lexer::{TokKind, Token};
use crate::rules::{scan_sites, Ctx, Finding, Gate, Rule, FINDINGS};

pub(crate) struct Panic;

impl Rule for Panic {
    fn name(&self) -> &'static str {
        "panic"
    }
    fn description(&self) -> &'static str {
        "panic sites in policed crates; those a serving root can reach (`panic-reachable`) are pinned at zero"
    }
    fn gate(&self) -> Gate {
        Gate { hard: Some(("panic-reachable", "reachable-panic")), ratchet: Some(FINDINGS) }
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        let mut out: Vec<Finding> = cx
            .serving
            .missing
            .iter()
            .map(|spec| {
                Finding::new(
                    "panic-reachable",
                    "",
                    "RuleConfig::serving_roots",
                    0,
                    format!(
                        "configured serving root `{spec}` matches no fn in the workspace — the \
                         reachable-panic split silently under-approximates without it"
                    ),
                )
            })
            .collect();
        let (sites, _) = scan_sites(cx.policed("panic"), "panic", true, site, msg);
        for site in sites {
            let reached = cx
                .graph
                .fn_at(&site.file, site.line)
                .filter(|&id| cx.serving.reach.reachable[id])
                .filter(|_| cx.cfg.panic_pinned_crates.contains(&site.crate_name));
            out.push(match reached {
                Some(id) => Finding {
                    rule: "panic-reachable",
                    msg: format!(
                        "{} — reachable from serving roots: {}",
                        site.msg,
                        cx.graph.chain_str(&cx.serving.reach, id)
                    ),
                    ..site
                },
                None => site,
            });
        }
        Ok(out)
    }
}

/// A panic site: `.unwrap()` / `.expect(` — a leading `.` so definitions
/// and mentions (`Option::unwrap` in a doc path) don't fire, a trailing
/// `(` so field names don't — or a `panic!` / `unreachable!` macro.
fn site(toks: &[Token], i: usize) -> bool {
    let t = &toks[i];
    t.kind == TokKind::Ident
        && match t.text.as_str() {
            "unwrap" | "expect" => {
                i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            }
            "panic" | "unreachable" => toks.get(i + 1).is_some_and(|n| n.is_punct('!')),
            _ => false,
        }
}

fn msg(toks: &[Token], i: usize) -> String {
    let t = &toks[i].text;
    let what = if t == "unwrap" || t == "expect" { format!(".{t}()") } else { format!("{t}!") };
    format!("{what} in non-test code (annotate `// audit:allow(panic): <reason>` if provably safe)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::sites_in;

    fn findings(src: &str) -> Vec<(u32, String)> {
        sites_in(src, "panic", site, msg).into_iter().map(|f| (f.line, f.msg)).collect()
    }

    #[test]
    fn flags_the_four_forms() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"boom\");\n    unreachable!();\n}";
        let got = findings(src);
        assert_eq!(got.len(), 4);
        assert!(got[0].1.contains(".unwrap()"));
        assert!(got[1].1.contains(".expect()"));
        assert!(got[2].1.contains("panic!"));
        assert!(got[3].1.contains("unreachable!"));
    }

    #[test]
    fn skips_tests_allows_and_lookalikes() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0) // not unwrap()\n}\nfn g() {\n    q.unwrap(); // audit:allow(panic): queue is non-empty by the check above\n}\n#[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); }\n}";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let src = "fn g() {\n    q.unwrap(); // audit:allow(cast): wrong key\n}";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn unwrap_in_string_or_comment_is_invisible() {
        let src = "fn f() {\n    let s = \"x.unwrap()\";\n    // y.unwrap()\n    let r = r#\"panic!()\"#;\n}";
        assert!(findings(src).is_empty());
    }
}
