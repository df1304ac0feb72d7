//! **protocol-drift** — the opcode constants in
//! `she-server/src/protocol.rs` and the tables in `docs/PROTOCOL.md` are
//! two hand-maintained copies of the same facts. This rule parses both
//! and fails when they disagree:
//!
//! * a value used by two constants, or by two doc rows;
//! * a constant with no doc row, or a doc row with no constant (stale);
//! * a name mismatch at the same value (doc names drop the `_REPLY`
//!   suffix — `STATS_REPLY` documents as `STATS` in the response table);
//! * a value outside its table's documented range (requests
//!   `0x01..=0x7F`, responses `0x80..=0xFF`);
//! * version drift: the doc states the version once, on a
//!   `Protocol version: N` line, and `N` must equal
//!   `PROTOCOL_VERSION: u16 = N` in the source.
//!
//! The inputs are paths (not hardwired file contents) so the self-test
//! can mutate fixture copies and assert the gate fails.

use std::io;
use std::path::Path;

use crate::lexer::{lex, TokKind};
use crate::rules::{Ctx, Finding, Gate, Rule};

pub(crate) struct Protocol;

impl Rule for Protocol {
    fn name(&self) -> &'static str {
        "protocol"
    }
    fn description(&self) -> &'static str {
        "opcode constants vs `docs/PROTOCOL.md` drift"
    }
    fn gate(&self) -> Gate {
        Gate { hard: Some(("protocol", "protocol-drift")), ratchet: None }
    }
    fn check(&self, cx: &Ctx) -> io::Result<Vec<Finding>> {
        cx.cfg.protocol.as_ref().map_or(Ok(Vec::new()), |(rs, md)| check(rs, md))
    }
}

/// One opcode constant from `protocol.rs`.
#[derive(Debug, Clone)]
struct Op {
    name: String,
    value: u8,
    line: u32,
}

/// Run the rule. `rs` is the protocol source, `md` the normative doc.
pub fn check(rs: &Path, md: &Path) -> io::Result<Vec<Finding>> {
    let rs_text = std::fs::read_to_string(rs)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", rs.display())))?;
    let md_text = std::fs::read_to_string(md)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", md.display())))?;
    let rs_name = rs.display().to_string();
    let md_name = md.display().to_string();

    let mut out = Vec::new();
    let consts = parse_consts(&rs_text);
    let rows = parse_doc_rows(&md_text, &md_name, &mut out);

    let finding = |file: &str, line: u32, msg: String| {
        Finding::new("protocol", "she-server", file, line, msg)
    };

    // Duplicate values on either side.
    for (i, a) in consts.iter().enumerate() {
        if let Some(b) = consts[..i].iter().find(|b| b.value == a.value) {
            out.push(finding(
                &rs_name,
                a.line,
                format!("opcode 0x{:02X} assigned to both {} and {}", a.value, b.name, a.name),
            ));
        }
    }
    for (i, a) in rows.iter().enumerate() {
        if let Some(b) = rows[..i].iter().find(|b| b.value == a.value) {
            out.push(finding(
                &md_name,
                a.line,
                format!("doc lists 0x{:02X} twice ({} and {})", a.value, b.name, a.name),
            ));
        }
    }

    // Range checks. Constants classify by value; doc rows by table.
    for c in &consts {
        if c.value == 0x00 {
            out.push(finding(&rs_name, c.line, format!("{}: 0x00 is reserved", c.name)));
        }
    }
    for r in &rows {
        let ok =
            if r.in_response_table { r.value >= 0x80 } else { (0x01..=0x7F).contains(&r.value) };
        if !ok {
            let table = if r.in_response_table {
                "response (0x80..=0xFF)"
            } else {
                "request (0x01..=0x7F)"
            };
            out.push(finding(
                &md_name,
                r.line,
                format!("{} (0x{:02X}) is outside the {table} table's range", r.name, r.value),
            ));
        }
    }

    // Cross-matching by value.
    for c in &consts {
        match rows.iter().find(|r| r.value == c.value) {
            None => out.push(finding(
                &rs_name,
                c.line,
                format!("{} (0x{:02X}) is not documented in PROTOCOL.md", c.name, c.value),
            )),
            Some(r) if r.name != c.name && c.name != format!("{}_REPLY", r.name) => {
                out.push(finding(
                    &md_name,
                    r.line,
                    format!(
                        "0x{:02X} is `{}` in the doc but `{}` in protocol.rs",
                        c.value, r.name, c.name
                    ),
                ));
            }
            Some(_) => {}
        }
    }
    for r in &rows {
        if !consts.iter().any(|c| c.value == r.value) {
            out.push(finding(
                &md_name,
                r.line,
                format!(
                    "stale doc row: {} (0x{:02X}) has no constant in protocol.rs",
                    r.name, r.value
                ),
            ));
        }
    }

    // One protocol version, stated once on each side, and equal.
    let code = parse_version(&rs_text);
    let doc = parse_doc_version(&md_text);
    if code.is_none() || code != doc.map(|(v, _)| v) {
        out.push(finding(
            &md_name,
            doc.map_or(1, |(_, line)| line),
            format!(
                "`PROTOCOL_VERSION: u16` is {code:?} but PROTOCOL.md's one \
                 `Protocol version: N` line says {:?}",
                doc.map(|(v, _)| v)
            ),
        ));
    }
    Ok(out)
}

/// Extract `const PROTOCOL_VERSION: u16 = N;` → `N`.
fn parse_version(src: &str) -> Option<u16> {
    let lx = lex(src);
    let toks = &lx.tokens;
    toks.windows(7).find_map(|w| {
        let seq_ok = w[0].is_ident("const")
            && w[1].is_ident("PROTOCOL_VERSION")
            && w[2].is_punct(':')
            && w[3].is_ident("u16")
            && w[4].is_punct('=')
            && w[5].kind == TokKind::Num
            && w[6].is_punct(';');
        seq_ok.then(|| w[5].text.parse().ok()).flatten()
    })
}

/// Extract the doc's single `Protocol version: N` line → `(N, line)`;
/// `None` when the line is missing, malformed, or stated more than once.
fn parse_doc_version(md: &str) -> Option<(u16, u32)> {
    let mut lines = md.lines().enumerate().filter_map(|(idx, raw)| {
        let rest = raw.trim().strip_prefix("Protocol version:")?;
        Some((rest.trim().parse().ok(), idx))
    });
    let (version, idx) = lines.next()?;
    if lines.next().is_some() {
        return None;
    }
    Some((version?, u32::try_from(idx + 1).unwrap_or(u32::MAX)))
}

/// Extract `pub const NAME: u8 = 0xNN;` items via the lexer (comments,
/// strings, and cfg'd-out lookalikes in literals can't confuse it).
fn parse_consts(src: &str) -> Vec<Op> {
    let lx = lex(src);
    lx.tokens
        .windows(7)
        .filter(|w| {
            w[0].is_ident("const")
                && w[1].kind == TokKind::Ident
                && w[2].is_punct(':')
                && w[3].is_ident("u8")
                && w[4].is_punct('=')
                && w[5].kind == TokKind::Num
                && w[6].is_punct(';')
        })
        .filter_map(|w| {
            Some(Op { name: w[1].text.clone(), value: parse_u8(&w[5].text)?, line: w[1].line })
        })
        .collect()
}

fn parse_u8(num: &str) -> Option<u8> {
    let clean: String = num.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = clean.strip_prefix("0x").or_else(|| clean.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        clean.parse().ok()
    }
}

#[derive(Debug)]
struct DocRow {
    name: String,
    value: u8,
    line: u32,
    in_response_table: bool,
}

/// Extract `` | `0xNN` | `NAME` | … `` rows, tracking which table a row
/// belongs to via the `## Request opcodes` / `## Response opcodes`
/// headings. A row whose first cell looks like an opcode but doesn't
/// parse is reported as malformed rather than silently skipped.
fn parse_doc_rows(md: &str, md_name: &str, out: &mut Vec<Finding>) -> Vec<DocRow> {
    let mut rows = Vec::new();
    let mut in_response_table = false;
    let mut in_opcode_section = false;
    for (idx, raw) in md.lines().enumerate() {
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = raw.trim();
        if let Some(h) = line.strip_prefix("## ") {
            in_opcode_section = h.contains("opcodes");
            in_response_table = h.starts_with("Response");
            continue;
        }
        if !in_opcode_section || !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let code = cells[0].trim_matches('`');
        if !code.starts_with("0x") && !code.starts_with("0X") {
            continue; // header or separator row
        }
        let Some(value) = parse_u8(code) else {
            out.push(Finding::new(
                "protocol",
                "she-server",
                md_name,
                lineno,
                format!("malformed opcode cell `{code}`"),
            ));
            continue;
        };
        rows.push(DocRow {
            name: cells[1].trim_matches('`').to_string(),
            value,
            line: lineno,
            in_response_table,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_consts_ignoring_noise() {
        let ops = parse_consts(
            "pub mod opcode {\n    // const FAKE: u8 = 0x99;\n    pub const INSERT: u8 = 0x01;\n    pub const OK: u8 = 0x80;\n    const NOT_U8: u16 = 0x0102;\n}",
        );
        let got: Vec<(&str, u8)> = ops.iter().map(|o| (o.name.as_str(), o.value)).collect();
        assert_eq!(got, [("INSERT", 1), ("OK", 0x80)]);
    }

    #[test]
    fn parses_the_version_constant() {
        let src = "// const PROTOCOL_VERSION: u16 = 9;\npub const PROTOCOL_VERSION: u16 = 5;\n";
        assert_eq!(parse_version(src), Some(5));
        assert_eq!(parse_version("pub const PROTOCOL_VERSION: u8 = 5;"), None);
    }

    #[test]
    fn parses_the_doc_version_line_once() {
        assert_eq!(parse_doc_version("# t\n\nProtocol version: 6\n"), Some((6, 3)));
        assert_eq!(parse_doc_version("The protocol version: 6\n"), None);
        assert_eq!(parse_doc_version("Protocol version: six\n"), None);
        assert_eq!(parse_doc_version("Protocol version: 6\nProtocol version: 6\n"), None);
    }

    #[test]
    fn parses_doc_rows_with_table_context() {
        let md = "## Request opcodes\n\n| opcode | name |\n|---|---|\n| `0x01` | `INSERT` |\n\n## Response opcodes\n\n| opcode | name |\n|---|---|\n| `0x80` | `OK` |\n\n## Sharding\n\n| `0xFF` | `NOT_AN_OPCODE_TABLE` |\n";
        let mut findings = Vec::new();
        let rows = parse_doc_rows(md, "d.md", &mut findings);
        assert!(findings.is_empty());
        let got: Vec<(&str, u8, bool)> =
            rows.iter().map(|r| (r.name.as_str(), r.value, r.in_response_table)).collect();
        assert_eq!(got, [("INSERT", 1, false), ("OK", 0x80, true)]);
    }
}
