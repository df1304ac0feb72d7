//! **truncating-cast** — non-test code in the policed crates must not use
//! narrowing `as` casts (`as u8/u16/u32/i8/i16/i32`). On the serving path
//! a silently truncated cell index or frame length corrupts data without
//! an error; use `try_from` or the checked helpers in `she-core::convert`
//! instead. Sites with a proven bound carry
//! `// audit:allow(cast): <reason>`.

use std::io;

use crate::lexer::{TokKind, Token};
use crate::rules::{scan_sites, Ctx, Finding, Gate, Rule, FINDINGS};

const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

pub(crate) struct Cast;

impl Rule for Cast {
    fn name(&self) -> &'static str {
        "cast"
    }
    fn description(&self) -> &'static str {
        "narrowing `as` casts in the cast crates"
    }
    fn gate(&self) -> Gate {
        Gate { hard: None, ratchet: Some(FINDINGS) }
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        Ok(scan_sites(cx.policed("cast"), "cast", true, site, msg).0)
    }
}

/// A narrowing cast: `as <narrow>`. (`use path as u8` can't happen —
/// keywords — so any such `as` is a cast expression.) Casts of numeric
/// literals like `0xFF as u8` are skipped: the value is constant and
/// visible, the cast cannot truncate at runtime.
fn site(toks: &[Token], i: usize) -> bool {
    toks[i].is_ident("as")
        && toks.get(i + 1).is_some_and(|target| {
            target.kind == TokKind::Ident && NARROW.contains(&target.text.as_str())
        })
        && !(i > 0 && toks[i - 1].kind == TokKind::Num)
}

fn msg(toks: &[Token], i: usize) -> String {
    format!(
        "narrowing `as {}` cast (use try_from/checked helpers, or annotate `// audit:allow(cast): <reason>`)",
        toks[i + 1].text
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::sites_in;

    fn lines(src: &str) -> Vec<u32> {
        sites_in(src, "cast", site, msg).into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn flags_narrowing_casts_only() {
        let src = "fn f(n: usize) {\n    let a = n as u32;\n    let b = n as u64;\n    let c = n as u16;\n    let d = n as usize;\n    let e = n as f64;\n}";
        assert_eq!(lines(src), [2, 4]);
    }

    #[test]
    fn constant_literal_casts_are_fine() {
        assert!(lines("const M: u8 = 0xFF as u8; fn f() { let x = 300 as u16; }").is_empty());
    }

    #[test]
    fn allow_and_tests_suppress() {
        let src = "fn f(n: usize) {\n    let a = n as u32; // audit:allow(cast): n < SHARDS <= 256\n}\n#[cfg(test)]\nmod t {\n    fn g(n: usize) -> u8 { n as u8 }\n}";
        assert!(lines(src).is_empty());
    }
}
