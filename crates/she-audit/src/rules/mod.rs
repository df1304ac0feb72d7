//! The audit rules: one [`Rule`] impl each, listed once in [`RULES`].
//! Every rule reads the same [`Ctx`] — the lexed workspace, its call
//! graph and the root sets — and returns its findings; the engine in
//! `lib.rs` runs the registered passes in order and gates each one by
//! its [`Gate`].

pub mod blocking_io;
pub mod cast;
pub mod growth;
pub mod lock_order;
pub mod panic_path;
pub mod protocol_drift;
pub mod unsafe_inv;
pub mod wiresize;

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use crate::config::RuleConfig;
use crate::graph::{CallGraph, Reach};
use crate::lexer::{Lexed, Token};

/// Every rule, in execution (and report) order.
pub static RULES: &[&dyn Rule] = &[
    &Allow,
    &panic_path::Panic,
    &cast::Cast,
    &growth::Growth,
    &blocking_io::Blocking,
    &lock_order::Lock,
    &wiresize::WireSize,
    &unsafe_inv::Unsafe,
    &protocol_drift::Protocol,
];

/// One named audit pass.
pub trait Rule: Sync {
    /// The key findings are filed under, `--rule` selects, and allow
    /// annotations name.
    fn name(&self) -> &'static str;
    /// What the rule proves, as `docs/ANALYSIS.md`'s catalogue states it.
    fn description(&self) -> &'static str;
    /// How the pass's output fails the gate.
    fn gate(&self) -> Gate;
    /// Run the pass over the workspace.
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>>;
    /// The per-crate counts a ratchet pins: the findings filed under the
    /// rule's name, in every crate its scope names.
    fn tally(&self, cx: &Ctx, findings: &[Finding]) -> BTreeMap<String, u64> {
        let mine = |c: &String| {
            findings.iter().filter(|f| f.rule == self.name() && &f.crate_name == c).count()
        };
        cx.cfg.scope_of(self.name()).iter().map(|c| (c.clone(), mine(c) as u64)).collect()
    }
}

/// How a pass gates the build.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// `(finding key, label)`: any finding filed under the key fails the
    /// gate. The key is the rule's name, except for `panic`, whose
    /// reachable half `panic-reachable` is the hard part.
    pub hard: Option<(&'static str, &'static str)>,
    /// `(unit, advice)`: every count in [`Rule::tally`] must equal the
    /// rule's `audit-ratchet.toml` section — the advice is the gate
    /// line's remedy when a count grows.
    pub ratchet: Option<(&'static str, &'static str)>,
}

/// The ratchet of the rules that count their own findings per crate.
pub(crate) const FINDINGS: (&str, &str) = ("finding(s)", "fix them or annotate with a reason");

/// Everything a pass may read: the configuration, the lexed non-test
/// files, the call graph, and reachability from both root sets.
#[derive(Debug)]
pub struct Ctx<'a> {
    pub cfg: &'a RuleConfig,
    /// The lexed non-test files, in path order.
    pub files: Vec<Src<'a>>,
    /// The same files by workspace-relative path.
    pub lexed: &'a BTreeMap<String, Lexed>,
    pub graph: &'a CallGraph,
    /// Reachability from `RuleConfig::blocking_roots`.
    pub reactor: Roots,
    /// Reachability from the reactor roots, `RuleConfig::serving_roots`
    /// and every spawn closure in a pinned crate.
    pub serving: Roots,
}

/// One lexed file: `(crate, workspace-relative path, tokens)`.
pub type Src<'a> = (&'a str, &'a str, &'a Lexed);

/// A resolved root set.
#[derive(Debug)]
pub struct Roots {
    pub reach: Reach,
    /// Configured roots that match no fn in the workspace.
    pub missing: Vec<String>,
}

impl Ctx<'_> {
    /// The files `rule`'s scope names.
    pub fn policed(&self, rule: &'static str) -> impl Iterator<Item = Src<'_>> + '_ {
        self.files
            .iter()
            .copied()
            .filter(move |&(krate, path, _)| self.cfg.polices(rule, krate, path))
    }
}

/// The token-site scan behind `panic`, `cast`, `growth` and `unsafe`:
/// ask `site` about every token of `files`, and file a finding (`msg`)
/// for each site outside test code — unless `excusable` and an allow
/// annotation for `rule` covers its line, which counts the site for its
/// crate instead. Returns the findings and those per-crate counts.
pub(crate) fn scan_sites<'a>(
    files: impl Iterator<Item = Src<'a>>,
    rule: &'static str,
    excusable: bool,
    site: impl Fn(&[Token], usize) -> bool,
    msg: impl Fn(&[Token], usize) -> String,
) -> (Vec<Finding>, BTreeMap<String, u64>) {
    let mut out = Vec::new();
    let mut excused = BTreeMap::new();
    for (krate, path, lx) in files {
        for i in (0..lx.tokens.len()).filter(|&i| site(&lx.tokens, i)) {
            let line = lx.tokens[i].line;
            if lx.in_test(line) {
                continue;
            }
            if excusable && lx.allowed(rule, line) {
                *excused.entry(krate.to_string()).or_insert(0) += 1;
                continue;
            }
            out.push(Finding::new(rule, krate, path, line, msg(&lx.tokens, i)));
        }
    }
    (out, excused)
}

/// The findings a token-site rule files in the one-file crate `c`.
#[cfg(test)]
pub(crate) fn sites_in(
    src: &str,
    rule: &'static str,
    site: impl Fn(&[Token], usize) -> bool,
    msg: impl Fn(&[Token], usize) -> String,
) -> Vec<Finding> {
    let lx = crate::lexer::lex(src);
    scan_sites([("c", "f.rs", &lx)].into_iter(), rule, true, site, msg).0
}

/// **allow** — an `audit:allow` annotation without its reason, in any
/// file some rule polices.
struct Allow;

const MALFORMED: &str = "malformed audit:allow annotation (syntax: `// audit:allow(<rule>): <reason>`, reason required)";

impl Rule for Allow {
    fn name(&self) -> &'static str {
        "allow"
    }
    fn description(&self) -> &'static str {
        "malformed `// audit:allow` annotations"
    }
    fn gate(&self) -> Gate {
        Gate { hard: Some(("allow", "allow-syntax")), ratchet: None }
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        let mut out = Vec::new();
        for &(krate, path, lx) in &cx.files {
            if cx.cfg.scope.keys().any(|rule| cx.cfg.polices(rule, krate, path)) {
                for &line in &lx.malformed_allows {
                    out.push(Finding::new("allow", krate, path, line, MALFORMED.to_string()));
                }
            }
        }
        Ok(out)
    }
}

/// One audit finding: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule key: a registered rule's name, or `panic-reachable`.
    pub rule: &'static str,
    /// Crate the finding is in (empty for cross-file protocol findings).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding has no single line, e.g. a
    /// manifest entry with no source counterpart).
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl Finding {
    /// A finding under `rule` at `file:line` of `crate_name`.
    pub fn new(rule: &'static str, crate_name: &str, file: &str, line: u32, msg: String) -> Self {
        Finding { rule, crate_name: crate_name.to_string(), file: file.to_string(), line, msg }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.msg)
        } else {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
        }
    }
}
