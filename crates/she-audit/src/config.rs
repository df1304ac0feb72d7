//! Audit configuration: which crates each rule polices and the reactor
//! roots the `blocking` rule walks from.

use std::collections::BTreeMap;

/// Everything the rule engine needs to know beyond the source tree.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// What each rule polices, keyed by its registered name. An entry is
    /// a crate name or a workspace-relative path suffix naming one file:
    /// `blocking`'s files are the legacy reactor-path files its root set
    /// must keep covering.
    pub scope: BTreeMap<&'static str, Vec<String>>,
    /// `(crate, qualified-fn)` roots of the reactor path: the poll loop,
    /// the inline dispatch arm, and the `QUERY_FAST` handlers. Blocking
    /// sinks reachable from these are hard findings with the chain.
    pub blocking_roots: Vec<(String, String)>,
}

impl RuleConfig {
    /// The repo's production configuration.
    pub fn for_workspace() -> Self {
        // Every rule polices the serving crates; some reach further.
        let serving = ["she-server", "she-replica", "she-cluster", "she-readpath"];
        let and = |more: &[&str]| serving.iter().chain(more).map(|c| c.to_string()).collect();
        let paths = |files: &[&str]| files.iter().map(|f| format!("she-server/src/{f}")).collect();
        let spec = |krate: &str, qual: &str| (krate.to_string(), qual.to_string());
        RuleConfig {
            scope: BTreeMap::from([
                ("growth", and(&["she-core"])),
                ("blocking", paths(&["reactor.rs", "conn.rs", "sys.rs"])),
                ("wiresize", and(&["she-core"])),
            ]),
            blocking_roots: vec![
                spec("she-server", "Reactor::run"),
                spec("she-server", "Reactor::dispatch"),
                spec("she-server", "Shared::handle_inline"),
                spec("she-readpath", "ReadPath::query"),
            ],
        }
    }

    /// Every crate-scoped rule policing `krate` alone, with no roots —
    /// the starting point of a fixture's configuration.
    pub fn policing(krate: &str) -> Self {
        let scope = ["growth", "wiresize"];
        RuleConfig {
            scope: scope.into_iter().map(|rule| (rule, vec![krate.to_string()])).collect(),
            ..RuleConfig::default()
        }
    }

    /// The entries `rule` polices.
    pub fn scope_of(&self, rule: &str) -> &[String] {
        self.scope.get(rule).map_or(&[], Vec::as_slice)
    }

    /// Does `rule` police the file at `path` in `crate_name`?
    pub fn polices(&self, rule: &str, crate_name: &str, path: &str) -> bool {
        self.scope_of(rule).iter().any(|e| e == crate_name || path.ends_with(e.as_str()))
    }
}
