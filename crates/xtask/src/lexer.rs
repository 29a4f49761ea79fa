//! A minimal Rust lexer for the analysis passes.
//!
//! This is not a full Rust grammar — it only needs to be good enough to
//! (a) never mistake comment or string contents for code, (b) attach
//! line/column positions to tokens so diagnostics carry precise spans,
//! and (c) surface `// lint:allow(rule)` waiver comments. It handles
//! line/block comments (nested), string literals (including `\"` escapes
//! and `\`-newline continuations), byte strings with escapes, raw and
//! raw-byte strings with arbitrary `#` fencing, raw identifiers
//! (`r#match`), char and byte-char literals vs. lifetimes, and numeric
//! literals with separators, exponents and suffixes.
//!
//! Positions are computed from a line-start table built once per file,
//! so multi-line constructs can never drift the line counter — the bug
//! class that previously mis-attributed diagnostics after strings with
//! `\`-newline continuations.

/// One significant token with its 1-based source line and column.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub line: u32,
    pub col: u32,
    pub kind: TokenKind,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (raw identifiers arrive without the `r#`).
    Ident(String),
    /// Integer literal (value, raw spelling). Value is `None` when the
    /// literal overflows u64, looks like a float (`1.5`, `1e6`) or uses
    /// a base we do not fold.
    Int(Option<u64>, String),
    /// Any single punctuation character (`.`), `::` is two `:` tokens.
    Punct(char),
    /// A string/char/byte literal (contents dropped — only position
    /// matters).
    Literal,
}

/// A `// lint:allow(rule-a, rule-b)` waiver found in a comment.
///
/// A waiver suppresses matching diagnostics on its own line and on the
/// next source line, so it works both as a trailing comment and as a
/// stand-alone comment above the offending line.
#[derive(Debug, Clone, PartialEq)]
pub struct Waiver {
    pub line: u32,
    pub rules: Vec<String>,
}

/// Lexer output: the token stream plus any waivers seen in comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub waivers: Vec<Waiver>,
}

/// Maps char offsets to 1-based (line, column) positions.
struct PosTable {
    /// Char offset of the start of each line (line_starts[0] == 0).
    line_starts: Vec<usize>,
}

impl PosTable {
    fn build(chars: &[char]) -> Self {
        let mut line_starts = vec![0usize];
        for (i, &c) in chars.iter().enumerate() {
            if c == '\n' {
                line_starts.push(i + 1);
            }
        }
        PosTable { line_starts }
    }

    fn pos(&self, offset: usize) -> (u32, u32) {
        // partition_point: number of line starts <= offset.
        let line_idx = self.line_starts.partition_point(|&s| s <= offset) - 1;
        let start = self.line_starts.get(line_idx).copied().unwrap_or(0);
        (line_idx as u32 + 1, (offset - start) as u32 + 1)
    }

    fn line(&self, offset: usize) -> u32 {
        self.pos(offset).0
    }
}

/// Scans `source` into tokens and waivers.
pub fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let chars: Vec<char> = source.chars().collect();
    let table = PosTable::build(&chars);
    let mut i = 0usize;

    while i < chars.len() {
        let start = i;
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let text_start = i + 2;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let comment: String = chars[text_start..i].iter().collect();
                scan_waiver(&comment, table.line(start), &mut out.waivers);
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                let text_start = i + 2;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(text_start);
                let comment: String = chars[text_start..end].iter().collect();
                scan_waiver(&comment, table.line(start), &mut out.waivers);
            }
            '"' => {
                i = skip_string(&chars, i);
                push(&mut out.tokens, &table, start, TokenKind::Literal);
            }
            'r' | 'b' => match classify_rb(&chars, i) {
                RbForm::RawString { hashes } => {
                    i = skip_raw_string(&chars, i, hashes);
                    push(&mut out.tokens, &table, start, TokenKind::Literal);
                }
                RbForm::ByteString => {
                    // `b"..."` supports the same escapes as a plain string.
                    i = skip_string(&chars, i + 1);
                    push(&mut out.tokens, &table, start, TokenKind::Literal);
                }
                RbForm::ByteChar => {
                    i = skip_char_literal(&chars, i + 1);
                    push(&mut out.tokens, &table, start, TokenKind::Literal);
                }
                RbForm::RawIdent => {
                    // `r#match`: skip the `r#`, lex the ident bare.
                    i += 2;
                    let ident_start = i;
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                    let ident: String = chars[ident_start..i].iter().collect();
                    push(&mut out.tokens, &table, start, TokenKind::Ident(ident));
                }
                RbForm::Plain => {
                    i = lex_ident(&chars, i, &table, &mut out.tokens);
                }
            },
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let next = chars.get(i + 1).copied();
                let after = chars.get(i + 2).copied();
                let is_lifetime =
                    matches!(next, Some(n) if n == '_' || n.is_alphabetic()) && after != Some('\'');
                if is_lifetime {
                    i += 1; // consume the quote; the ident lexes next round
                } else {
                    i = skip_char_literal(&chars, i);
                    push(&mut out.tokens, &table, start, TokenKind::Literal);
                }
            }
            c if c.is_ascii_digit() => {
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    // Stop a range expression `0..10` from being eaten.
                    if chars[i] == '.' && chars.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
                let raw: String = chars[start..i].iter().collect();
                push(
                    &mut out.tokens,
                    &table,
                    start,
                    TokenKind::Int(parse_int(&raw), raw),
                );
            }
            c if c == '_' || c.is_alphabetic() => {
                i = lex_ident(&chars, i, &table, &mut out.tokens);
            }
            p => {
                push(&mut out.tokens, &table, start, TokenKind::Punct(p));
                i += 1;
            }
        }
    }
    out
}

fn push(tokens: &mut Vec<Token>, table: &PosTable, offset: usize, kind: TokenKind) {
    let (line, col) = table.pos(offset);
    tokens.push(Token { line, col, kind });
}

fn lex_ident(chars: &[char], mut i: usize, table: &PosTable, tokens: &mut Vec<Token>) -> usize {
    let start = i;
    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
        i += 1;
    }
    let ident: String = chars[start..i].iter().collect();
    push(tokens, table, start, TokenKind::Ident(ident));
    i
}

/// What an `r`/`b` at position `i` introduces.
enum RbForm {
    /// `r"`, `r#"`, `br"`, `br#"` — raw (no escapes), `hashes` fences.
    RawString { hashes: usize },
    /// `b"` — escaped byte string.
    ByteString,
    /// `b'` — byte char literal.
    ByteChar,
    /// `r#ident` — raw identifier.
    RawIdent,
    /// Just an identifier starting with `r`/`b`.
    Plain,
}

fn classify_rb(chars: &[char], i: usize) -> RbForm {
    let is_raw = chars.get(i) == Some(&'r')
        || (chars.get(i) == Some(&'b') && chars.get(i + 1) == Some(&'r'));
    let mut j = i + 1;
    if chars.get(i) == Some(&'b') {
        match chars.get(i + 1) {
            Some('"') => return RbForm::ByteString,
            Some('\'') => return RbForm::ByteChar,
            Some('r') => j = i + 2,
            _ => return RbForm::Plain,
        }
    }
    if !is_raw {
        return RbForm::Plain;
    }
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    match chars.get(j) {
        Some('"') => RbForm::RawString { hashes },
        // `r#ident` — exactly one hash then an ident start.
        Some(&c)
            if hashes == 1 && chars.get(i) == Some(&'r') && (c == '_' || c.is_alphabetic()) =>
        {
            RbForm::RawIdent
        }
        _ => RbForm::Plain,
    }
}

fn skip_raw_string(chars: &[char], mut i: usize, hashes: usize) -> usize {
    // Consume the prefix letters and fencing.
    while i < chars.len() && (chars[i] == 'r' || chars[i] == 'b' || chars[i] == '#') {
        i += 1;
    }
    if chars.get(i) != Some(&'"') {
        return i; // not actually a string; resynchronize
    }
    i += 1;
    'outer: while i < chars.len() {
        if chars[i] == '"' {
            let mut j = i + 1;
            for _ in 0..hashes {
                if chars.get(j) != Some(&'#') {
                    i += 1;
                    continue 'outer;
                }
                j += 1;
            }
            return j;
        }
        i += 1;
    }
    i
}

fn skip_string(chars: &[char], mut i: usize) -> usize {
    i += 1; // opening quote
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn skip_char_literal(chars: &[char], mut i: usize) -> usize {
    i += 1; // opening quote
    let mut steps = 0;
    while i < chars.len() && steps < 16 {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            _ => i += 1,
        }
        steps += 1;
    }
    i
}

/// Records a waiver if `comment` contains `lint:allow(...)`.
fn scan_waiver(comment: &str, line: u32, waivers: &mut Vec<Waiver>) {
    let Some(pos) = comment.find("lint:allow(") else {
        return;
    };
    let rest = &comment[pos + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if !rules.is_empty() {
        waivers.push(Waiver { line, rules });
    }
}

/// Folds a decimal/hex/octal/binary literal, tolerating `_` separators and
/// type suffixes. Float-looking literals (`1.5`, `1e6`) fold to `None`.
fn parse_int(raw: &str) -> Option<u64> {
    if raw.contains('.') {
        return None;
    }
    let cleaned: String = raw.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(hex) = cleaned.strip_prefix("0x") {
        (hex, 16)
    } else if let Some(oct) = cleaned.strip_prefix("0o") {
        (oct, 8)
    } else if let Some(bin) = cleaned.strip_prefix("0b") {
        (bin, 2)
    } else {
        // `1e6` is a float exponent, not the integer 1.
        if cleaned.contains(['e', 'E']) {
            return None;
        }
        (cleaned.as_str(), 10)
    };
    // Strip a trailing type suffix (u8, i64, usize, f64, ...).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    u64::from_str_radix(digits.get(..end)?, radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in a block /* nested */ comment */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw string"#;
            let real = BTreeMap::new();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"BTreeMap".to_string()));
    }

    #[test]
    fn byte_string_escapes_do_not_leak_code() {
        // The escaped quote must not terminate the byte string early —
        // otherwise `HashMap` would leak into the token stream as code.
        let ids = idents(r#"let b = b"say \"HashMap\" twice"; let real = after;"#);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn raw_byte_strings_are_skipped() {
        let ids = idents(r###"let b = br#"HashMap "quoted" inside"#; next"###);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"next".to_string()));
    }

    #[test]
    fn raw_strings_with_multi_hash_fencing() {
        let src = "let r = r##\"contains \"# inner HashMap\"##; tail";
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"tail".to_string()));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ids = idents("let r#type = r#match; other");
        assert_eq!(ids, vec!["let", "type", "match", "other"]);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let ids = idents("/* a /* b /* c */ d */ e */ real");
        assert_eq!(ids, vec!["real"]);
        // Depth-2 close sequence directly adjacent.
        let ids = idents("/*/**/*/ real2");
        assert_eq!(ids, vec!["real2"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }");
        assert!(ids.contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literals_are_skipped() {
        let ids = idents("let c = 'x'; let q = '\\''; let n = '\\n'; after");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn byte_char_literals_are_skipped() {
        let ids = idents("let c = b'x'; let q = b'\\''; after");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn waivers_are_collected() {
        let lexed = lex("let x = m.unwrap(); // lint:allow(panic-safety, determinism)\n");
        assert_eq!(lexed.waivers.len(), 1);
        assert_eq!(lexed.waivers[0].line, 1);
        assert_eq!(lexed.waivers[0].rules, vec!["panic-safety", "determinism"]);
    }

    #[test]
    fn int_literals_fold() {
        let lexed = lex("f(200); g(0x3c_u64); h(1_000); e(1e6);");
        let ints: Vec<Option<u64>> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Int(v, _) => Some(*v),
                _ => None,
            })
            .collect();
        // `1e6` is a float, not the integer 1.
        assert_eq!(ints, vec![Some(200), Some(0x3c), Some(1000), None]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn columns_are_one_based_chars() {
        let lexed = lex("ab cd\n  ef");
        let pos: Vec<(u32, u32)> = lexed.tokens.iter().map(|t| (t.line, t.col)).collect();
        assert_eq!(pos, vec![(1, 1), (1, 4), (2, 3)]);
    }

    #[test]
    fn multiline_strings_do_not_drift_lines() {
        // `\`-newline continuation inside a string previously skipped the
        // newline without counting it; the position table makes this
        // impossible by construction.
        let lexed = lex("let s = \"a \\\n b\";\nafter");
        let after = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, TokenKind::Ident(s) if s == "after"))
            .expect("after token");
        assert_eq!(after.line, 3);
        // The literal token is attributed to its *start* line.
        let lit = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Literal)
            .expect("literal token");
        assert_eq!(lit.line, 1);
    }
}
