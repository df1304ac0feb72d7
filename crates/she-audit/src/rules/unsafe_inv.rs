//! **unsafe-inventory** — every `unsafe` block in the workspace is
//! accounted for. The repo's deliberate unsafe surface is the epoll FFI
//! in `she-server/src/sys.rs` and nothing else:
//!
//! * `unsafe` outside the configured boundary files is a hard finding —
//!   new unsafe goes behind the sys layer or not at all, and no
//!   annotation excuses it;
//! * `unsafe` inside a boundary file must carry
//!   `// audit:allow(unsafe): <reason>`; annotated blocks are counted
//!   and the count is ratcheted (`[unsafe]` in `audit-ratchet.toml`),
//!   so the inventory can shrink but never silently grow.
//!
//! Test code is exempt (a test exercising an unsafe helper is not new
//! unsafe surface).

use std::collections::BTreeMap;
use std::io;

use crate::config::RuleConfig;
use crate::lexer::Token;
use crate::rules::{scan_sites, Ctx, Finding, Gate, Rule, Src};

pub(crate) struct Unsafe;

impl Rule for Unsafe {
    fn name(&self) -> &'static str {
        "unsafe"
    }
    fn description(&self) -> &'static str {
        "`unsafe` outside the boundary file is hard; inside it, annotated and ratcheted"
    }
    fn gate(&self) -> Gate {
        Gate {
            hard: Some(("unsafe", "unsafe-inventory")),
            ratchet: Some((
                "annotated unsafe block(s)",
                "shrink the unsafe surface or bank the growth deliberately in audit-ratchet.toml",
            )),
        }
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        Ok(inventory(&cx.files, cx.cfg).0)
    }
    /// The annotated blocks, which live in the boundary files only.
    fn tally(&self, cx: &Ctx, _: &[Finding]) -> BTreeMap<String, u64> {
        inventory(&cx.policed("unsafe").collect::<Vec<_>>(), cx.cfg).1
    }
}

/// The hard findings, and per crate the annotated blocks inside the
/// boundary — every boundary crate and every banked crate pinned, at zero
/// when it has none left.
fn inventory(files: &[Src], cfg: &RuleConfig) -> (Vec<Finding>, BTreeMap<String, u64>) {
    let boundary = cfg.scope_of("unsafe");
    let inside = |&(krate, path, _): &Src| cfg.polices("unsafe", krate, path);
    let is_unsafe = |t: &[Token], i: usize| t[i].is_ident("unsafe");
    let (mut findings, mut tally) =
        scan_sites(files.iter().copied().filter(inside), "unsafe", true, is_unsafe, |_, _| {
            "unannotated `unsafe` in a boundary file (annotate \
             `// audit:allow(unsafe): <reason>` stating the safety argument)"
                .to_string()
        });
    let outside = format!(
        "`unsafe` outside the audited boundary ({}) — put the raw-syscall \
         surface behind the sys layer instead",
        boundary.join(", ")
    );
    let rest = files.iter().copied().filter(|f| !inside(f));
    findings.extend(scan_sites(rest, "unsafe", false, is_unsafe, |_, _| outside.clone()).0);
    let banked = cfg.ratchet.keys().filter_map(|k| k.strip_prefix("unsafe/"));
    for krate in boundary.iter().filter_map(|p| p.split('/').next()).chain(banked) {
        tally.entry(krate.to_string()).or_insert(0);
    }
    (findings, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Run the rule over one file with `sys.rs` as the boundary; returns
    /// the findings and the file's annotated-block count.
    fn check(file: &str, src: &str) -> (Vec<Finding>, u64) {
        let mut cfg = RuleConfig::default();
        cfg.scope.insert("unsafe", vec!["sys.rs".to_string()]);
        let (findings, tally) = inventory(&[("c", file, &lex(src))], &cfg);
        (findings, tally.get("c").copied().unwrap_or(0))
    }

    #[test]
    fn unsafe_outside_boundary_is_hard() {
        let (f, n) = check("lib.rs", "fn f() { unsafe { go() } }");
        assert_eq!(f.len(), 1);
        assert_eq!(n, 0);
        assert!(f[0].msg.contains("outside the audited boundary"));
    }

    #[test]
    fn annotated_boundary_blocks_are_counted_not_flagged() {
        let src =
            "fn f() {\n    // audit:allow(unsafe): fd is owned and open by construction\n    \
                   unsafe { close(fd) };\n    unsafe { close(fd2) };\n}";
        let (f, n) = check("src/sys.rs", src);
        assert_eq!(f.len(), 1, "second block lacks an annotation: {f:?}");
        assert_eq!(n, 1);
        assert!(f[0].msg.contains("unannotated"));
    }

    #[test]
    fn tests_and_lookalikes_are_exempt() {
        let src = "#![allow(unsafe_code)]\n#[cfg(test)]\nmod t {\n    fn g() { unsafe { x() } }\n}";
        let (f, n) = check("lib.rs", src);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(n, 0);
    }
}
