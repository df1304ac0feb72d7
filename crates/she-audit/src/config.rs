//! Audit configuration: which crates each rule polices, the reactor
//! roots and the lock-rank manifest — plus the tiny TOML-subset parser
//! that reads the committed manifest.
//!
//! The subset is deliberately small: `[section]` headers, `key = value`
//! lines (values: bare integers or quoted strings), `#` comments, blank
//! lines. Anything else is a hard error — manifests are committed files,
//! so strictness beats leniency.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

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
    /// Named lock ranks from `audit-locks.toml` (name → rank).
    pub locks: BTreeMap<String, u16>,
}

impl RuleConfig {
    /// The repo's production configuration, anchored at the workspace
    /// root. A missing `audit-locks.toml` is an error — the lock rule
    /// must not silently run without its manifest.
    pub fn for_workspace(root: &Path) -> io::Result<Self> {
        let locks_doc = parse_toml_file(&root.join("audit-locks.toml"))?;

        let mut locks = BTreeMap::new();
        for ((section, key), value) in &locks_doc {
            if section != "locks" {
                return Err(bad(format!("audit-locks.toml: unknown section [{section}]")));
            }
            let Value::Int(rank) = value else {
                return Err(bad(format!("audit-locks.toml: rank for {key} must be an integer")));
            };
            let rank = u16::try_from(*rank)
                .map_err(|_| bad(format!("audit-locks.toml: rank for {key} out of u16 range")))?;
            locks.insert(key.clone(), rank);
        }

        // Every rule polices the serving crates; some reach further.
        let serving = ["she-server", "she-replica", "she-cluster", "she-readpath"];
        let and = |more: &[&str]| serving.iter().chain(more).map(|c| c.to_string()).collect();
        let paths = |files: &[&str]| files.iter().map(|f| format!("she-server/src/{f}")).collect();
        let spec = |krate: &str, qual: &str| (krate.to_string(), qual.to_string());
        Ok(RuleConfig {
            scope: BTreeMap::from([
                ("growth", and(&["she-core"])),
                ("lock", and(&["she-core", "she-chaos"])),
                ("blocking", paths(&["reactor.rs", "conn.rs", "sys.rs"])),
                ("wiresize", and(&["she-core"])),
            ]),
            blocking_roots: vec![
                spec("she-server", "Reactor::run"),
                spec("she-server", "Reactor::dispatch"),
                spec("she-server", "Shared::handle_inline"),
                spec("she-readpath", "ReadPath::query"),
            ],
            locks,
        })
    }

    /// Every crate-scoped rule policing `krate` alone, with no roots or
    /// locks — the starting point of a fixture's configuration.
    pub fn policing(krate: &str) -> Self {
        let scope = ["growth", "lock", "wiresize"];
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

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A bare integer.
    Int(i64),
    /// A double-quoted string (no escape processing).
    Str(String),
}

/// A parsed manifest entry: `(section, key)` mapped to its value, in
/// file order.
pub type TomlEntry = ((String, String), Value);

/// Parse a manifest file into ((section, key) → value), preserving order.
pub fn parse_toml_file(path: &Path) -> io::Result<Vec<TomlEntry>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    parse_toml(&text).map_err(|msg| bad(format!("{}: {msg}", path.display())))
}

/// Parse TOML-subset text. Returns `Err(message)` on anything outside the
/// subset; `message` includes the 1-based line number.
pub fn parse_toml(text: &str) -> Result<Vec<TomlEntry>, String> {
    let mut out = Vec::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.find('#') {
            // A '#' inside a quoted value is part of the value, not a
            // comment; only strip when it isn't inside quotes.
            Some(h) if raw[..h].matches('"').count() % 2 == 0 => &raw[..h],
            _ => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let name = name.trim();
            if name.is_empty() {
                return Err(format!("line {lineno}: empty section header"));
            }
            section = name.to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = key.trim();
        let value = value.trim();
        if key.is_empty() {
            return Err(format!("line {lineno}: empty key"));
        }
        let parsed = if let Some(s) = value.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
            Value::Str(s.to_string())
        } else if let Ok(n) = value.parse::<i64>() {
            Value::Int(n)
        } else {
            return Err(format!(
                "line {lineno}: value `{value}` is neither an integer nor a quoted string"
            ));
        };
        out.push(((section.clone(), key.to_string()), parsed));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_comments() {
        let doc =
            parse_toml("# ranks\n[locks]\nrepl-log = 10 # the log\n\n[other]\nname = \"x # y\"\n")
                .expect("parses");
        assert_eq!(
            doc,
            vec![
                (("locks".into(), "repl-log".into()), Value::Int(10)),
                (("other".into(), "name".into()), Value::Str("x # y".into())),
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_toml("just words\n").is_err());
        assert!(parse_toml("[locks]\nk = [1, 2]\n").is_err());
        assert!(parse_toml("[]\n").is_err());
        assert!(parse_toml(" = 3\n").is_err());
    }
}
