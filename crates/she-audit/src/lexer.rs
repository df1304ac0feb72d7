//! A small, dependency-free Rust lexer — just enough syntax awareness for
//! the audit rules to be sound: comments (line, nested block), string and
//! byte-string literals (escaped and raw, any `#` depth), `'a'` char
//! literals vs `'a` lifetimes, raw identifiers, and numeric literals kept
//! verbatim (`0xE4`, `16_384`).
//!
//! Beyond tokens, lexing extracts the file-level structure the rules
//! need:
//!
//! * **delimiter partners** — the index of every `(`, `[` and `{`
//!   token's matching close (and every close's open), so no caller
//!   counts nesting depth again.
//! * **allow annotations** — `// audit:allow(<rule>): <reason>` comments.
//!   A finding on the annotation's line or the line directly below it is
//!   suppressed; when either of those lines opens a brace block, the
//!   annotation is span-aware and covers through the matching close
//!   brace, so one annotation above a loop or match arm covers the whole
//!   block. An annotation without a reason is itself reported: the
//!   reason is the point.
//! * **test regions** — line ranges covered by `#[cfg(test)]` /
//!   `#[test]` / `#[should_panic]` items. Rules only police non-test
//!   code; tests may `unwrap()` freely.

use std::collections::BTreeMap;

/// Token classes the rules discriminate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`, stored unprefixed).
    Ident,
    /// Single punctuation character.
    Punct,
    /// String / byte-string literal (escaped or raw), text excluded.
    Str,
    /// Character literal.
    Char,
    /// Lifetime (`'a`, `'static`, `'_`), stored without the quote.
    Lifetime,
    /// Numeric literal, verbatim (e.g. `0xE4`, `16`, `0b1010`).
    Num,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token class.
    pub kind: TokKind,
    /// Verbatim text for `Ident`/`Punct`/`Num`/`Lifetime`; the literal's
    /// inner text for `Str` (quotes and hashes stripped, escapes kept
    /// verbatim); empty for `Char`.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this a punctuation token with exactly this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order (comments and whitespace dropped).
    pub tokens: Vec<Token>,
    /// Per token: for `(`, `[` and `{`, the index of the matching close
    /// (the last token's when the group is unterminated); for a matched
    /// close, its open's; for every other token, its own.
    pub partner: Vec<usize>,
    /// `audit:allow(<rule>)` annotations: rule key → inclusive line
    /// ranges each one covers (see [`Lexed::allowed`]).
    pub allows: BTreeMap<String, Vec<(u32, u32)>>,
    /// Lines with an `audit:allow` annotation missing its `: reason`.
    pub malformed_allows: Vec<u32>,
    /// Line ranges (inclusive) covered by test-only items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl Lexed {
    /// Is a finding at `line` suppressed by an allow for `rule`?
    /// Annotations cover their own line (trailing comment) and the line
    /// directly below (comment-above style); when either line opens a
    /// brace block, coverage extends to the matching close brace.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.get(rule).is_some_and(|ls| ls.iter().any(|&(lo, hi)| (lo..=hi).contains(&line)))
    }

    /// Is `line` inside a test-only region?
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// Lex `src`. Never fails: unterminated constructs consume to EOF, which
/// is the most useful behaviour for an auditor (the compiler owns syntax
/// errors; the auditor must not die on them).
pub fn lex(src: &str) -> Lexed {
    let chars = src.chars().collect();
    let mut lx = Lexer { chars, pos: 0, line: 1, out: Lexed::default(), delims: Vec::new() };
    lx.run();
    let mut out = lx.out;
    out.partner = pair_delimiters(out.tokens.len(), &lx.delims);
    out.test_ranges = test_regions(&out.tokens, &out.partner);
    extend_allow_spans(&out.tokens, &out.partner, &mut out.allows);
    out
}

/// Compute [`Lexed::partner`] for `len` tokens from the delimiters
/// among them, `(token index, char)` in order. A close pairs with the
/// nearest open of its own kind; opens skipped over that way, and opens
/// never closed, run to the last token — the compiler owns syntax errors,
/// the auditor only must not die on them.
fn pair_delimiters(len: usize, delims: &[(usize, char)]) -> Vec<usize> {
    let last = len.saturating_sub(1);
    let mut partner: Vec<usize> = (0..len).collect();
    let mut open: Vec<(usize, char)> = Vec::new();
    for &(i, c) in delims {
        let opener = match c {
            ')' => '(',
            ']' => '[',
            '}' => '{',
            _ => {
                partner[i] = last;
                open.push((i, c));
                continue;
            }
        };
        if let Some(at) = open.iter().rposition(|&(_, o)| o == opener) {
            let o = open[at].0;
            open.truncate(at);
            partner[o] = i;
            partner[i] = o;
        }
    }
    partner
}

/// Make annotations span-aware: if the annotation's own line or the line
/// directly below opens a brace block, extend its coverage to the line of
/// the matching close brace. An unterminated block extends to EOF, which
/// errs on the suppressing side only inside code the compiler would
/// reject anyway.
fn extend_allow_spans(
    tokens: &[Token],
    partner: &[usize],
    allows: &mut BTreeMap<String, Vec<(u32, u32)>>,
) {
    for ranges in allows.values_mut() {
        for range in ranges.iter_mut() {
            let (lo, hi) = *range;
            if let Some(open) =
                tokens.iter().position(|t| t.is_punct('{') && (t.line == lo || t.line == lo + 1))
            {
                range.1 = hi.max(tokens[partner[open]].line);
            }
        }
    }
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
    /// `(token index, char)` of every `(`, `[`, `{`, `)`, `]` and `}`.
    delims: Vec<(usize, char)>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(0),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' => self.maybe_prefixed_literal(),
                c if c.is_alphabetic() || c == '_' => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_whitespace() => {
                    self.bump();
                }
                _ => {
                    let line = self.line;
                    self.bump();
                    if "([{)]}".contains(c) {
                        self.delims.push((self.out.tokens.len(), c));
                    }
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.record_allow(&text, line);
    }

    fn block_comment(&mut self) {
        let start = self.line;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        let mut text = String::new();
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(c), _) => {
                    text.push(c);
                    self.bump();
                }
                (None, _) => break, // unterminated: consume to EOF
            }
        }
        // The annotation covers the line the comment *ends* on, so a
        // trailing `/* audit:allow(x): y */` behaves like `// ...`.
        let end = self.line;
        self.record_allow(&text, end.max(start));
    }

    fn record_allow(&mut self, comment: &str, line: u32) {
        let Some(at) = comment.find("audit:allow(") else { return };
        let rest = &comment[at + "audit:allow(".len()..];
        let Some(close) = rest.find(')') else {
            self.out.malformed_allows.push(line);
            return;
        };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason_ok = after.strip_prefix(':').is_some_and(|r| !r.trim().is_empty());
        if rule.is_empty() || !reason_ok {
            self.out.malformed_allows.push(line);
            return;
        }
        self.out.allows.entry(rule).or_default().push((line, line + 1));
    }

    /// `"` strings with escapes; `hashes` > 0 means raw (no escapes, ends
    /// at `"` followed by that many `#`). The inner text is kept verbatim
    /// (escape sequences unprocessed) — rules match plain names like
    /// `"repl-log"`, which never contain escapes.
    fn string(&mut self, hashes: usize) {
        let line = self.line;
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            match self.peek(0) {
                None => break,
                Some('\\') if hashes == 0 => {
                    text.push('\\');
                    self.bump();
                    if let Some(c) = self.bump() {
                        text.push(c); // the escaped char (covers \" and \\)
                    }
                }
                Some('"') => {
                    if (1..=hashes).all(|i| self.peek(i) == Some('#')) {
                        self.bump();
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    text.push('"');
                    self.bump();
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// `'` starts either a char literal or a lifetime. A lifetime is `'`
    /// followed by an identifier *not* closed by another `'`.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let c1 = self.peek(1);
        let is_lifetime = match c1 {
            Some(c) if c.is_alphabetic() || c == '_' => self.peek(2) != Some('\''),
            _ => false,
        };
        if is_lifetime {
            self.bump(); // '
            let mut name = String::new();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    name.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, name, line);
            return;
        }
        // Char literal: consume to the closing quote, honouring escapes
        // ('\'', '\\', '\u{1F600}', '\x41').
        self.bump(); // opening '
        loop {
            match self.peek(0) {
                None => break,
                Some('\\') => {
                    self.bump();
                    self.bump();
                }
                Some('\'') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
        self.push(TokKind::Char, String::new(), line);
    }

    /// `r`/`b` may start a raw string (`r"…"`, `r#"…"#`), a byte string
    /// (`b"…"`, `br#"…"#`), a byte char (`b'x'`), a raw identifier
    /// (`r#match`) — or just an ordinary identifier.
    fn maybe_prefixed_literal(&mut self) {
        let c0 = self.peek(0); // 'r' or 'b'
        let mut i = 1;
        if c0 == Some('b') && self.peek(1) == Some('r') {
            i = 2;
        }
        let mut hashes = 0usize;
        while self.peek(i + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(i + hashes) {
            Some('"') => {
                for _ in 0..i + hashes {
                    self.bump();
                }
                self.string(hashes);
            }
            Some('\'') if i == 1 && hashes == 0 && c0 == Some('b') => {
                self.bump(); // b
                self.char_or_lifetime();
            }
            Some(c)
                if c0 == Some('r') && i == 1 && hashes == 1 && (c.is_alphabetic() || c == '_') =>
            {
                // Raw identifier r#ident: skip the prefix, lex the ident.
                self.bump();
                self.bump();
                self.ident();
            }
            _ => self.ident(),
        }
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    /// Numbers are an alphanumeric/underscore run starting with a digit —
    /// coarse but verbatim (`0xE4`, `16_384`, `1e9`). A float's `.`
    /// splits into separate tokens, which no rule cares about.
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }
}

/// Find line ranges covered by test-only items: any item whose attribute
/// list contains `#[test]`, `#[should_panic]`, or a `cfg(...)` mentioning
/// `test` outside a `not(...)` (so `#[cfg(not(test))]` stays non-test).
fn test_regions(tokens: &[Token], partner: &[usize]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // One attribute: the tokens up to the matching ']'.
        let close = partner[i + 1];
        let j = close + 1;
        if !attr_is_test(tokens, partner, i + 2, close) {
            i = j;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = j;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            k = partner[k + 1] + 1;
        }
        // Find the item body `{ … }` (or give up at `;` — e.g. an
        // out-of-line `mod tests;`).
        let body = (k..tokens.len()).find(|&m| tokens[m].is_punct('{') || tokens[m].is_punct(';'));
        let Some(open) = body.filter(|&m| tokens[m].is_punct('{')) else {
            i = j;
            continue;
        };
        let close = partner[open];
        ranges.push((tokens[i].line, tokens[close].line));
        i = close + 1;
    }
    ranges
}

/// Do the attribute tokens `lo..hi` mark a test item?
fn attr_is_test(tokens: &[Token], partner: &[usize], lo: usize, hi: usize) -> bool {
    let Some(head) = tokens[..hi].get(lo) else { return false };
    if head.is_ident("test") || head.is_ident("should_panic") {
        return true;
    }
    if !head.is_ident("cfg") {
        return false;
    }
    // `test` counts unless it only appears under `not(...)`.
    let mut i = lo + 1;
    while i < hi {
        if tokens[i].is_ident("not") && tokens[i + 1].is_punct('(') {
            i = partner[i + 1];
        } else if tokens[i].is_ident("test") {
            return true;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_hide_tokens() {
        let src = "a // unwrap() in a comment\n/* panic! */ b /* nested /* deep */ still */ c";
        assert_eq!(idents(src), ["a", "b", "c"]);
    }

    #[test]
    fn strings_hide_tokens_and_track_lines() {
        let src = "a \"unwrap() \\\" quoted\" b\n\"multi\nline\" c";
        let lx = lex(src);
        assert_eq!(idents(src), ["a", "b", "c"]);
        let c = lx.tokens.iter().find(|t| t.is_ident("c")).expect("c");
        assert_eq!(c.line, 3);
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let src = r####"a r"no # end" b r#"has " quote"# c br##"bytes "# deep"## d"####;
        assert_eq!(idents(src), ["a", "b", "c", "d"]);
    }

    #[test]
    fn raw_string_with_unwrap_inside_is_not_code() {
        let src = "let s = r#\"x.unwrap()\"#; done";
        let lx = lex(src);
        assert!(!lx.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(lx.tokens.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "let c = 'a'; fn f<'a>(x: &'a str) -> &'static str { x } let q = '\\''; 'b'";
        let lx = lex(src);
        let lifetimes: Vec<_> =
            lx.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| &t.text).collect();
        assert_eq!(lifetimes, ["a", "a", "static"]);
        assert_eq!(lx.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        assert_eq!(idents("r#match r#type plain"), ["match", "type", "plain"]);
    }

    #[test]
    fn numbers_are_verbatim() {
        let lx = lex("const X: u8 = 0xE4; let n = 16_384;");
        let nums: Vec<_> =
            lx.tokens.iter().filter(|t| t.kind == TokKind::Num).map(|t| &t.text).collect();
        assert_eq!(nums, ["0xE4", "16_384"]);
    }

    #[test]
    fn allow_annotation_with_reason_is_recorded() {
        let src = "x.unwrap(); // audit:allow(panic): provably non-empty\ny";
        let lx = lex(src);
        assert!(lx.allowed("panic", 1));
        assert!(lx.allowed("panic", 2)); // covers the next line too
        assert!(!lx.allowed("panic", 3));
        assert!(!lx.allowed("cast", 1)); // rule-keyed
        assert!(lx.malformed_allows.is_empty());
    }

    #[test]
    fn allow_above_a_block_covers_the_whole_block() {
        let src = "// audit:allow(growth): bounded by batch len\nfor x in batch {\n    buf.push(x);\n    more(x);\n}\nafter();";
        let lx = lex(src);
        assert!(lx.allowed("growth", 2)); // the opener line
        assert!(lx.allowed("growth", 3)); // inside the block
        assert!(lx.allowed("growth", 5)); // the close-brace line
        assert!(!lx.allowed("growth", 6)); // past the block
    }

    #[test]
    fn trailing_allow_on_an_opener_covers_the_block() {
        let src = "fn f() { // audit:allow(panic): fixture\n    x.unwrap();\n    y.unwrap();\n}\nz.unwrap();";
        let lx = lex(src);
        assert!(lx.allowed("panic", 3));
        assert!(!lx.allowed("panic", 5));
    }

    #[test]
    fn allow_without_a_block_still_covers_two_lines() {
        let src = "// audit:allow(cast): reviewed\nlet a = n as u32;\nlet b = n as u32;";
        let lx = lex(src);
        assert!(lx.allowed("cast", 2));
        assert!(!lx.allowed("cast", 3));
    }

    #[test]
    fn allow_annotation_without_reason_is_malformed() {
        assert_eq!(lex("// audit:allow(panic)\nx").malformed_allows, [1]);
        assert_eq!(lex("// audit:allow(panic):   \nx").malformed_allows, [1]);
        assert_eq!(lex("// audit:allow(panic) missing colon\nx").malformed_allows, [1]);
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}";
        let lx = lex(src);
        assert!(!lx.in_test(1));
        assert!(lx.in_test(4));
        assert!(!lx.in_test(6));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_a_test_region() {
        let src = "#[test]\n#[ignore]\nfn t() {\n    boom();\n}\nfn real() {}";
        let lx = lex(src);
        assert!(lx.in_test(4));
        assert!(!lx.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let lx = lex("#[cfg(not(test))]\nfn real() {\n    x();\n}");
        assert!(!lx.in_test(3));
    }

    #[test]
    fn cfg_any_test_counts() {
        let lx = lex("#[cfg(any(test, feature = \"x\"))]\nmod helpers {\n    fn h() {}\n}");
        assert!(lx.in_test(3));
    }

    #[test]
    fn braces_inside_literals_do_not_confuse_regions() {
        let src =
            "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn t() {}\n}\nfn real() {}";
        let lx = lex(src);
        assert!(lx.in_test(4));
        assert!(!lx.in_test(6));
    }
}
