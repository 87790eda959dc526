//! A small hand-rolled Rust lexer — string-, comment- and attribute-aware,
//! with no external parser dependencies (the workspace's offline stand-in
//! policy applies to tooling too).
//!
//! The lexer produces a flat token stream with source positions plus a
//! side list of comments (rules need comments for suppression directives
//! and `// SAFETY:` audits). It does **not** build a syntax tree: the
//! rules in [`crate::rules`] are token-pattern matchers, which is exactly
//! enough for the properties the gate enforces and keeps the analysis
//! trivially robust to unparsable-but-lexable code.
//!
//! Handled lexical forms: line & (nested) block comments, doc comments,
//! string literals (plain / raw `r#"…"#` / byte / raw-byte), char
//! literals vs. lifetimes, raw identifiers (`r#type`), numeric literals,
//! and multi-char punctuation relevant to the rules (`::`).

/// Kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `unsafe`, `let`, …). Raw
    /// identifiers are stored without the `r#` prefix.
    Ident(String),
    /// Any literal: string, char, byte string or number. Only numeric
    /// literals carry their source text (the loop-progress rule needs to
    /// tell `+= 0` from `+= 1`); strings and chars are opaque and carry
    /// an empty payload.
    Literal(String),
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
    /// One punctuation character (`.`, `(`, `{`, `!`, …). `::` is lexed
    /// as [`TokenKind::PathSep`].
    Punct(char),
    /// The `::` path separator.
    PathSep,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if the token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// True if the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// The literal's source text, if this token is a literal that keeps
    /// one (numbers do; strings and chars are opaque).
    pub fn literal_text(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Literal(s) if !s.is_empty() => Some(s.as_str()),
            _ => None,
        }
    }
}

/// One comment (line or block) with its position. Line comments cover
/// `//`, `///` and `//!`; block comments cover `/* … */` (nested) and
/// their doc forms.
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// Comment text without the delimiters.
    pub text: String,
    /// 1-based line where the comment starts.
    pub line: u32,
    /// 1-based line where the comment ends (same as `line` for line
    /// comments).
    pub end_line: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
    /// For each token index, whether the token lies inside test-only code
    /// (an item annotated `#[cfg(test)]` or `#[test]`).
    pub in_test: Vec<bool>,
}

impl LexedFile {
    /// Whether token `i` is inside test-only code.
    pub fn is_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }
}

/// Lex `source` into tokens and comments, then mark test-only regions.
pub fn lex(source: &str) -> LexedFile {
    let mut lx = Lexer::new(source);
    lx.run();
    let in_test = mark_test_regions(&lx.tokens);
    LexedFile { tokens: lx.tokens, comments: lx.comments, in_test }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Lexer<'a> {
        Lexer { src: source.as_bytes(), pos: 0, line: 1, col: 1, tokens: Vec::new(), comments: Vec::new() }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    /// Advance one byte, maintaining line/column. Multi-byte UTF-8
    /// continuation bytes do not advance the column (close enough for
    /// diagnostics; all rule-relevant tokens are ASCII).
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if (b & 0xC0) != 0x80 {
            self.col += 1;
        }
        Some(b)
    }

    fn push(&mut self, kind: TokenKind, line: u32, col: u32) {
        self.tokens.push(Token { kind, line, col });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek() {
            let (line, col) = (self.line, self.col);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(line),
                b'"' => {
                    self.string_literal();
                    self.push(TokenKind::Literal(String::new()), line, col);
                }
                b'r' | b'b' => {
                    if self.raw_or_byte_literal() {
                        self.push(TokenKind::Literal(String::new()), line, col);
                    } else {
                        self.ident();
                        // `ident()` pushed the token already.
                    }
                }
                b'\'' => self.char_or_lifetime(line, col),
                b'0'..=b'9' => {
                    let start = self.pos;
                    self.number();
                    let text =
                        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                    self.push(TokenKind::Literal(text), line, col);
                }
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident(),
                b':' if self.peek_at(1) == Some(b':') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::PathSep, line, col);
                }
                _ => {
                    self.bump();
                    if b.is_ascii() {
                        self.push(TokenKind::Punct(b as char), line, col);
                    }
                    // Non-ASCII bytes outside strings/comments/idents can
                    // only appear in exotic identifiers; ignore them.
                }
            }
        }
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump(); // the two slashes
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.comments.push(Comment { text, line, end_line: line });
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump(); // `/*`
        let start = self.pos;
        let mut depth = 1u32;
        let mut end = self.pos;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    end = self.pos;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => {
                    end = self.pos;
                    break; // unterminated; tolerate
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.comments.push(Comment { text, line, end_line: self.line });
    }

    /// Plain string literal starting at `"` (escapes honoured).
    fn string_literal(&mut self) {
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
    }

    /// Raw / byte / raw-byte string or byte-char literal starting at the
    /// current `r` or `b`. Returns false (consuming nothing) when the
    /// lookahead is an ordinary identifier (including raw identifiers,
    /// which are handled by `ident`).
    fn raw_or_byte_literal(&mut self) -> bool {
        let b0 = self.peek();
        let rest = &self.src[self.pos..];
        let after_prefix = |s: &[u8], skip: usize| -> Option<(usize, u8)> {
            s.get(skip).map(|&c| (skip, c))
        };
        match b0 {
            Some(b'r') => {
                // r"…" or r#…#"…"#…# — but r#ident is a raw identifier.
                let mut hashes = 0usize;
                while rest.get(1 + hashes) == Some(&b'#') {
                    hashes += 1;
                }
                if rest.get(1 + hashes) == Some(&b'"') {
                    self.raw_string(1, hashes);
                    true
                } else {
                    false
                }
            }
            Some(b'b') => match after_prefix(rest, 1) {
                Some((_, b'"')) => {
                    self.bump(); // b
                    self.string_literal();
                    true
                }
                Some((_, b'\'')) => {
                    self.bump(); // b
                    self.bump(); // '
                    while let Some(c) = self.bump() {
                        match c {
                            b'\\' => {
                                self.bump();
                            }
                            b'\'' => break,
                            _ => {}
                        }
                    }
                    true
                }
                Some((_, b'r')) => {
                    let mut hashes = 0usize;
                    while rest.get(2 + hashes) == Some(&b'#') {
                        hashes += 1;
                    }
                    if rest.get(2 + hashes) == Some(&b'"') {
                        self.raw_string(2, hashes);
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Consume a raw string: `prefix_len` bytes of prefix (`r` or `br`),
    /// `hashes` hash marks, the quote, the body, the closing quote and
    /// hashes.
    fn raw_string(&mut self, prefix_len: usize, hashes: usize) {
        for _ in 0..prefix_len + hashes + 1 {
            self.bump();
        }
        loop {
            match self.bump() {
                None => break,
                Some(b'"') => {
                    let mut n = 0usize;
                    while n < hashes && self.peek() == Some(b'#') {
                        self.bump();
                        n += 1;
                    }
                    if n == hashes {
                        break;
                    }
                }
                Some(_) => {}
            }
        }
    }

    /// Char literal or lifetime, starting at `'`.
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        // Lifetime: 'ident not followed by a closing quote.
        let rest = &self.src[self.pos..];
        let is_ident_start =
            |b: u8| b == b'_' || b.is_ascii_alphabetic();
        if rest.get(1).copied().is_some_and(is_ident_start) {
            // Find the end of the identifier run; a lifetime has no
            // trailing quote ('a, 'static), a char literal does ('a').
            let mut j = 2;
            while rest.get(j).copied().is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric()) {
                j += 1;
            }
            if rest.get(j) != Some(&b'\'') {
                for _ in 0..j {
                    self.bump();
                }
                self.push(TokenKind::Lifetime, line, col);
                return;
            }
        }
        // Char literal.
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Literal(String::new()), line, col);
    }

    fn number(&mut self) {
        while let Some(b) = self.peek() {
            // Numeric literals (including 0x…, 1_000u64, 1.5e-3): consume
            // the alphanumeric run plus underscores and dots; `1.0e-3`
            // needs the sign after an exponent marker.
            match b {
                // A dot continues the literal only before a digit, so that
                // `0..10` (range) and `x.0.unwrap()` (tuple field then
                // method call) keep their dots as punctuation.
                b'.' => {
                    if self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let at_exp_sign = (b == b'e' || b == b'E')
                        && matches!(self.peek_at(1), Some(b'+') | Some(b'-'));
                    self.bump();
                    if at_exp_sign {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn ident(&mut self) {
        let (line, col) = (self.line, self.col);
        // Raw identifier prefix.
        if self.peek() == Some(b'r') && self.peek_at(1) == Some(b'#') {
            self.bump();
            self.bump();
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80 {
                self.bump();
            } else {
                break;
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident(text), line, col);
    }
}

/// Mark which tokens belong to test-only code: any item annotated with
/// `#[cfg(test)]` or `#[test]` (attributes may stack). The marker scans
/// for the attribute, skips any further attributes, then covers the item
/// up to the end of its brace block (or to the terminating `;` for
/// block-less items).
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut flags = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = test_attribute_end(tokens, i) {
            // Cover from the attribute itself to the end of the item.
            let item_end = item_end(tokens, after_attr);
            for f in flags.iter_mut().take(item_end).skip(i) {
                *f = true;
            }
            i = item_end;
        } else {
            i += 1;
        }
    }
    flags
}

/// If tokens starting at `i` form `#[cfg(test)]` or `#[test]` (or
/// `#[cfg(any(test, …))]`-style forms mentioning `test`), return the index
/// one past the closing `]`.
fn test_attribute_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct('#') || !tokens.get(i + 1)?.is_punct('[') {
        return None;
    }
    // Find the matching `]` at depth 0, collecting identifiers.
    let mut depth = 0i32;
    let mut j = i + 1;
    let mut mentions_test = false;
    let mut mentions_not = false;
    let mut head: Option<&str> = None;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('[') | TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(s) => {
                if head.is_none() {
                    head = Some(s.as_str());
                }
                if s == "test" {
                    mentions_test = true;
                }
                if s == "not" {
                    mentions_not = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let recognized = match head {
        Some("test") => true,
        // `#[cfg(test)]` / `#[cfg(any(test, …))]` — but not
        // `#[cfg(not(test))]`, which guards *production* code.
        Some("cfg") => mentions_test && !mentions_not,
        _ => false,
    };
    (recognized && j < tokens.len()).then_some(j + 1)
}

/// End index (exclusive) of the item starting at `i`: skips further
/// attributes, then runs to the matching `}` of the first brace block, or
/// to the first `;` at depth 0 for block-less items.
fn item_end(tokens: &[Token], mut i: usize) -> usize {
    // Skip stacked attributes.
    while i + 1 < tokens.len() && tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            TokenKind::Punct(';') if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // unwrap() in a comment
            /* HashMap in /* nested */ block */
            let s = "panic!(\"no\")";
            let r = r#"unwrap()"#;
            let b = b"expect";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(!ids.contains(&"expect".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).count();
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Literal(_)))
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(literals, 1);
    }

    #[test]
    fn numeric_literals_keep_their_text() {
        let lexed = lex("let a = 0; let b = 1_000u64; let s = \"7\";");
        let texts: Vec<&str> = lexed.tokens.iter().filter_map(Token::literal_text).collect();
        // The string literal is opaque (no payload); numbers keep theirs.
        assert_eq!(texts, ["0", "1_000u64"]);
    }

    #[test]
    fn path_sep_is_one_token() {
        let lexed = lex("std::time::Instant::now()");
        let seps = lexed.tokens.iter().filter(|t| t.kind == TokenKind::PathSep).count();
        assert_eq!(seps, 3);
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("a\n  b");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); }
            }
            fn live2() {}
        ";
        let lexed = lex(src);
        let flag_of = |name: &str| {
            match lexed.tokens.iter().position(|t| t.is_ident(name)) {
                Some(i) => lexed.is_test(i),
                None => panic!("token `{name}` not found"),
            }
        };
        assert!(!flag_of("live"));
        assert!(flag_of("tests"));
        assert!(flag_of("y"));
        assert!(!flag_of("live2"));
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "
            #[test]
            fn check() { z.unwrap(); }
            fn live() {}
        ";
        let lexed = lex(src);
        let pos_of = |name: &str| {
            match lexed.tokens.iter().position(|t| t.is_ident(name)) {
                Some(i) => i,
                None => panic!("token `{name}` not found"),
            }
        };
        assert!(lexed.is_test(pos_of("z")));
        assert!(!lexed.is_test(pos_of("live")));
    }

    #[test]
    fn raw_identifier_is_ident_not_string() {
        let ids = idents("let r#type = 1; let rx = r;");
        assert!(ids.contains(&"type".to_string()));
        assert!(ids.contains(&"rx".to_string()));
    }
}
