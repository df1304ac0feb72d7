//! The audit rules: one [`Rule`] impl each, listed once in [`RULES`].
//! Every rule reads the same [`Ctx`] — the lexed workspace, its call
//! graph and the reactor root set — and returns its findings; the engine
//! in `lib.rs` runs the registered passes in order, and any finding
//! fails the gate.

pub mod blocking_io;
pub mod growth;
pub mod wiresize;

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use crate::config::RuleConfig;
use crate::graph::{CallGraph, Reach};
use crate::lexer::Lexed;

/// Every rule, in execution (and report) order.
pub static RULES: &[&dyn Rule] =
    &[&Allow, &growth::Growth, &blocking_io::Blocking, &wiresize::WireSize];

/// One named audit pass.
pub trait Rule: Sync {
    /// The key findings are filed under, `--rule` selects, and allow
    /// annotations name.
    fn name(&self) -> &'static str;
    /// What the rule proves, as `docs/ANALYSIS.md`'s catalogue states it.
    fn description(&self) -> &'static str;
    /// The gate line's label: `<name>: N <label> finding(s)`.
    fn label(&self) -> &'static str;
    /// Run the pass over the workspace.
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>>;
}

/// Everything a pass may read: the configuration, the lexed non-test
/// files, the call graph, and reachability from the reactor roots.
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

/// **allow** — an `audit:allow` annotation without its reason, or one
/// naming no registered rule, in any file some rule polices.
struct Allow;

const MALFORMED: &str = "malformed audit:allow annotation (syntax: `// audit:allow(<rule>): <reason>`, reason required)";

impl Rule for Allow {
    fn name(&self) -> &'static str {
        "allow"
    }
    fn description(&self) -> &'static str {
        "malformed `// audit:allow` annotations, or ones naming no registered rule"
    }
    fn label(&self) -> &'static str {
        "allow-syntax"
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        let names: Vec<&str> = RULES.iter().map(|r| r.name()).collect();
        let mut out = Vec::new();
        for &(krate, path, lx) in &cx.files {
            if !cx.cfg.scope.keys().any(|rule| cx.cfg.polices(rule, krate, path)) {
                continue;
            }
            for &line in &lx.malformed_allows {
                out.push(Finding::new("allow", krate, path, line, MALFORMED.to_string()));
            }
            for (rule, spans) in
                lx.allows.iter().filter(|(rule, _)| !names.contains(&rule.as_str()))
            {
                for &(line, _) in spans {
                    let msg = format!(
                        "audit:allow names `{rule}`, which is no registered rule ({})",
                        names.join(", ")
                    );
                    out.push(Finding::new("allow", krate, path, line, msg));
                }
            }
        }
        Ok(out)
    }
}

/// One audit finding: a rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The registered rule's name.
    pub rule: &'static str,
    /// Crate the finding is in (empty for one with no source file, e.g.
    /// a configured root that matches nothing).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line (0 when the finding has no single line, e.g. a
    /// configured root that matches nothing).
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
