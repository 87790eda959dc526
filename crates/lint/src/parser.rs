//! Tolerant recursive-descent parser over [`crate::lexer`] tokens.
//!
//! Produces the lint-grade AST of [`crate::ast`]. Design rules:
//!
//! - **Never panic, always terminate.** Every loop consumes at least one
//!   token or breaks; a global fuel counter (decremented on every token
//!   bump) aborts the whole parse if something slips through, and a
//!   recursion-depth cap degrades pathological nesting to
//!   [`ExprKind::Unknown`].
//! - **Degrade, don't fail.** Constructs the grammar subset does not
//!   cover (patterns, types, generics, macros with non-expression input)
//!   are *skipped* with bracket-depth tracking; the surrounding structure
//!   still parses. Unrecognized tokens become `Unknown` expressions.
//! - **Positions are the diagnostic currency.** Method calls carry the
//!   method name's position, everything else its first token's.
//!
//! Multi-character operators (`->`, `=>`, `<<`, `==`, `..`, …) are not
//! lexed as units; the parser pairs adjacent single-character punctuation
//! tokens (same line, consecutive columns).

use crate::ast::{AstFile, BinOp, Expr, ExprKind, FnDef, Item, Pos, Stmt};
use crate::lexer::{LexedFile, Token, TokenKind};

/// Parse one lexed file into an AST. Infallible: unparsable regions
/// degrade to [`Item::Other`] / [`ExprKind::Unknown`].
pub fn parse_file(lexed: &LexedFile) -> AstFile {
    let entry_lines: Vec<(u32, Vec<String>)> = lexed
        .comments
        .iter()
        .filter_map(|c| {
            let rest = c.text.trim().strip_prefix("vdsms-lint:")?.trim();
            parse_entry_directive(rest).map(|rules| (c.end_line, rules))
        })
        .collect();
    let fuel = 16 * lexed.tokens.len() as u64 + 1024;
    let mut p = Parser { lexed, entry_lines, i: 0, fuel, depth: 0 };
    let items = p.items_until(None);
    AstFile { items }
}

/// Parse the payload of a `// vdsms-lint: …` comment as an entry
/// directive. `entry` seeds every hot-path rule (empty list);
/// `entry(rule-a, rule-b)` seeds only the named rules. Anything else —
/// including an `entry()` with no rules — is not an entry directive.
fn parse_entry_directive(rest: &str) -> Option<Vec<String>> {
    if rest == "entry" {
        return Some(Vec::new());
    }
    let inner = rest.strip_prefix("entry(")?.strip_suffix(')')?;
    let rules: Vec<String> =
        inner.split(',').map(str::trim).filter(|r| !r.is_empty()).map(str::to_string).collect();
    (!rules.is_empty()).then_some(rules)
}

/// How many lines above an item's first token a `// vdsms-lint: entry`
/// marker may sit (allows a couple of attributes in between).
const ENTRY_MARKER_REACH: u32 = 3;

/// Recursion cap for expression nesting; beyond it expressions degrade
/// to `Unknown`.
const MAX_DEPTH: u32 = 200;

struct Parser<'a> {
    lexed: &'a LexedFile,
    entry_lines: Vec<(u32, Vec<String>)>,
    i: usize,
    fuel: u64,
    depth: u32,
}

impl<'a> Parser<'a> {
    // ---- token-stream primitives -------------------------------------

    fn tok(&self, i: usize) -> Option<&'a Token> {
        self.lexed.tokens.get(i)
    }

    fn cur(&self) -> Option<&'a Token> {
        self.tok(self.i)
    }

    fn at_end(&self) -> bool {
        self.i >= self.lexed.tokens.len()
    }

    fn pos(&self) -> Pos {
        match self.cur() {
            Some(t) => Pos::new(t.line, t.col),
            None => Pos::new(0, 0),
        }
    }

    fn bump(&mut self) {
        if self.fuel == 0 {
            // Out of fuel: abort the parse by jumping to the end.
            self.i = self.lexed.tokens.len();
            return;
        }
        self.fuel -= 1;
        self.i += 1;
    }

    fn is_punct(&self, c: char) -> bool {
        self.cur().is_some_and(|t| t.is_punct(c))
    }

    fn is_ident(&self, name: &str) -> bool {
        self.cur().is_some_and(|t| t.is_ident(name))
    }

    fn is_path_sep(&self) -> bool {
        self.cur().is_some_and(|t| t.kind == TokenKind::PathSep)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.is_punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.is_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Two adjacent punctuation tokens forming a multi-char operator at
    /// offset `off` from the cursor.
    fn pair_at(&self, off: usize, a: char, b: char) -> bool {
        let (Some(t1), Some(t2)) = (self.tok(self.i + off), self.tok(self.i + off + 1)) else {
            return false;
        };
        t1.is_punct(a) && t2.is_punct(b) && t2.line == t1.line && t2.col == t1.col + 1
    }

    fn pair(&self, a: char, b: char) -> bool {
        self.pair_at(0, a, b)
    }

    /// Three adjacent punctuation tokens (`..=`, `<<=`, `>>=`).
    fn triple(&self, a: char, b: char, c: char) -> bool {
        self.pair(a, b) && {
            let (Some(t2), Some(t3)) = (self.tok(self.i + 1), self.tok(self.i + 2)) else {
                return false;
            };
            t3.is_punct(c) && t3.line == t2.line && t3.col == t2.col + 1
        }
    }

    // ---- skipping helpers --------------------------------------------

    /// Skip one `#[…]` / `#![…]` attribute if the cursor is on `#`.
    fn skip_attr(&mut self) -> bool {
        if !self.is_punct('#') {
            return false;
        }
        let bracket = if self.tok(self.i + 1).is_some_and(|t| t.is_punct('!')) { 2 } else { 1 };
        if !self.tok(self.i + bracket).is_some_and(|t| t.is_punct('[')) {
            return false;
        }
        for _ in 0..=bracket {
            self.bump();
        }
        let mut depth = 1i32;
        while !self.at_end() && depth > 0 {
            if self.is_punct('[') {
                depth += 1;
            } else if self.is_punct(']') {
                depth -= 1;
            }
            self.bump();
        }
        true
    }

    fn skip_attrs(&mut self) {
        while self.skip_attr() {}
    }

    /// Skip a balanced `<…>` group starting at `<`. Handles `->` inside
    /// (`Fn(A) -> B` bounds) and bails at `;` as a runaway guard.
    fn skip_angles(&mut self) {
        if !self.is_punct('<') {
            return;
        }
        self.bump();
        let mut depth = 1i32;
        while !self.at_end() && depth > 0 {
            if self.pair('-', '>') {
                self.bump();
                self.bump();
                continue;
            }
            if self.is_punct('<') {
                depth += 1;
            } else if self.is_punct('>') {
                depth -= 1;
            } else if self.is_punct(';') {
                return; // unbalanced; bail out
            }
            self.bump();
        }
    }

    /// Skip tokens until one of `stops` appears at bracket depth 0
    /// (tracking `(`/`[`/`{` nesting). The stop token is *not* consumed.
    /// Returns the stop character, if found.
    fn skip_until(&mut self, stops: &[char]) -> Option<char> {
        let mut paren = 0i32;
        while let Some(t) = self.cur() {
            if let TokenKind::Punct(c) = t.kind {
                if paren == 0 && stops.contains(&c) {
                    return Some(c);
                }
                match c {
                    '(' | '[' | '{' => paren += 1,
                    ')' | ']' | '}' => {
                        if paren == 0 {
                            return None; // closing an outer group
                        }
                        paren -= 1;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
        None
    }

    /// Skip the rest of an item whose head keyword was consumed: to the
    /// first brace group at depth 0 (consumed), or to a `;` at depth 0
    /// (consumed).
    fn skip_item_rest(&mut self) {
        let mut paren = 0i32;
        while let Some(t) = self.cur() {
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
                TokenKind::Punct('{') if paren == 0 => {
                    self.skip_brace_group();
                    return;
                }
                TokenKind::Punct('}') if paren == 0 => return, // outer close
                TokenKind::Punct(';') if paren == 0 => {
                    self.bump();
                    return;
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Consume a balanced `{…}` group starting at `{`.
    fn skip_brace_group(&mut self) {
        if !self.is_punct('{') {
            return;
        }
        self.bump();
        let mut depth = 1i32;
        while !self.at_end() && depth > 0 {
            if self.is_punct('{') {
                depth += 1;
            } else if self.is_punct('}') {
                depth -= 1;
            }
            self.bump();
        }
    }

    // ---- items -------------------------------------------------------

    /// Parse items until the closing brace (`Some('}')`) or end of file
    /// (`None`). Consumes the closing brace.
    fn items_until(&mut self, close: Option<char>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            if self.at_end() {
                break;
            }
            if let Some(c) = close {
                if self.is_punct(c) {
                    self.bump();
                    break;
                }
            }
            if self.eat_punct(';') {
                continue;
            }
            items.push(self.parse_item());
        }
        items
    }

    fn parse_item(&mut self) -> Item {
        let start_line = self.cur().map_or(0, |t| t.line);
        self.skip_attrs();
        // Visibility.
        if self.eat_ident("pub") && self.is_punct('(') {
            self.skip_paren_group();
        }
        // Modifiers before `fn`.
        loop {
            if (self.is_ident("const") && self.tok(self.i + 1).is_some_and(|t| t.is_ident("fn")))
                || (self.is_ident("unsafe")
                    && self.tok(self.i + 1).is_some_and(|t| {
                        t.is_ident("fn")
                            || t.is_ident("extern")
                            || t.is_ident("impl")
                            || t.is_ident("trait")
                    }))
                || self.is_ident("async")
            {
                self.bump();
            } else if self.is_ident("extern")
                && self.tok(self.i + 1).is_some_and(|t| matches!(t.kind, TokenKind::Literal(_)))
                && self.tok(self.i + 2).is_some_and(|t| t.is_ident("fn"))
            {
                self.bump();
                self.bump();
            } else {
                break;
            }
        }
        if self.is_ident("fn") {
            return self.parse_fn(start_line);
        }
        if self.eat_ident("impl") {
            return self.parse_impl();
        }
        if self.is_ident("mod") && self.tok(self.i + 1).is_some_and(|t| t.ident().is_some()) {
            self.bump();
            let name = self.cur().and_then(Token::ident).unwrap_or("?").to_string();
            self.bump();
            if self.is_punct('{') {
                self.bump();
                let items = self.items_until(Some('}'));
                return Item::Mod { name, items };
            }
            self.eat_punct(';');
            return Item::Mod { name, items: Vec::new() };
        }
        if self.is_ident("trait") && self.tok(self.i + 1).is_some_and(|t| t.ident().is_some()) {
            self.bump();
            let name = self.cur().and_then(Token::ident).unwrap_or("?").to_string();
            self.bump();
            if self.is_punct('<') {
                self.skip_angles();
            }
            if self.skip_until(&['{', ';']) == Some('{') {
                self.bump();
                let items = self.items_until(Some('}'));
                return Item::Trait { name, items };
            }
            self.eat_punct(';');
            return Item::Trait { name, items: Vec::new() };
        }
        // Everything else: struct, enum, union, use, const, static, type,
        // macro_rules!, extern crate / extern blocks, stray tokens.
        if self.cur().is_some_and(|t| t.ident().is_some()) {
            self.bump();
            self.skip_item_rest();
        } else {
            // Unknown leading token; consume it to guarantee progress.
            self.bump();
        }
        Item::Other
    }

    fn skip_paren_group(&mut self) {
        if !self.is_punct('(') {
            return;
        }
        self.bump();
        let mut depth = 1i32;
        while !self.at_end() && depth > 0 {
            if self.is_punct('(') {
                depth += 1;
            } else if self.is_punct(')') {
                depth -= 1;
            }
            self.bump();
        }
    }

    fn parse_fn(&mut self, start_line: u32) -> Item {
        let fn_idx = self.i;
        let pos = self.pos();
        self.bump(); // `fn`
        let name = self.cur().and_then(Token::ident).unwrap_or("?").to_string();
        if self.cur().is_some_and(|t| t.ident().is_some()) {
            self.bump();
        }
        if self.is_punct('<') {
            self.skip_angles();
        }
        let params = if self.is_punct('(') { self.parse_params() } else { Vec::new() };
        let returns_result = self.return_type_is_result();
        // Return type + where clause: skip to the body or the semicolon.
        let body = match self.skip_until(&['{', ';']) {
            Some('{') => Some(self.parse_block_stmts()),
            Some(_) => {
                self.bump(); // `;` — bodyless declaration
                None
            }
            None => None,
        };
        let is_test = self.lexed.is_test(fn_idx);
        // A marker blesses exactly one function: the first one parsed
        // (source order) whose signature starts within reach below it.
        // Claiming prevents one marker from leaking onto the next item.
        let entry = self
            .entry_lines
            .iter()
            .position(|(m, _)| *m <= start_line && start_line - m <= ENTRY_MARKER_REACH)
            .map(|idx| self.entry_lines.remove(idx).1);
        Item::Fn(FnDef { name, pos, is_test, entry, params, body, returns_result })
    }

    /// Non-consuming lookahead over the return type: scan from the cursor
    /// to the body's `{` (or the `;` of a bodyless declaration) at
    /// depth 0 and report whether the declared type mentions `Result` (or
    /// an alias ending in `Result`, e.g. `io::Result`, `DecodeResult`).
    /// A `where` clause ends the scan — bounds like `T: Into<Result<…>>`
    /// are not return types.
    fn return_type_is_result(&self) -> bool {
        let mut depth = 0i32;
        let mut j = self.i;
        while let Some(t) = self.tok(j) {
            match &t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                TokenKind::Punct('{') | TokenKind::Punct(';') if depth <= 0 => return false,
                TokenKind::Ident(s) if depth <= 0 => {
                    if s == "where" {
                        return false;
                    }
                    if s == "Result" || s.ends_with("Result") {
                        return true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        false
    }

    /// Parse `(…)` parameter list, collecting identifier-pattern names.
    fn parse_params(&mut self) -> Vec<String> {
        self.bump(); // `(`
        let mut names = Vec::new();
        let mut depth = 1i32; // paren/bracket/brace depth
        let mut angle = 0i32;
        let mut at_param_start = true;
        while let Some(t) = self.cur() {
            if self.pair('-', '>') {
                self.bump();
                self.bump();
                continue;
            }
            match &t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct('<') => {
                    angle += 1;
                    self.bump();
                }
                TokenKind::Punct('>') => {
                    angle = (angle - 1).max(0);
                    self.bump();
                }
                TokenKind::Punct(',') if depth == 1 && angle == 0 => {
                    at_param_start = true;
                    self.bump();
                }
                TokenKind::Ident(s) if at_param_start => {
                    if s == "mut" || s == "ref" {
                        self.bump(); // still at pattern start
                    } else if s == "self" {
                        names.push("self".to_string());
                        at_param_start = false;
                        self.bump();
                    } else if self.tok(self.i + 1).is_some_and(|t2| t2.is_punct(':'))
                        && !self.pair_at(1, ':', ':')
                        && self.tok(self.i + 1).is_some_and(|t2| t2.kind != TokenKind::PathSep)
                    {
                        names.push(s.clone());
                        at_param_start = false;
                        self.bump();
                    } else {
                        at_param_start = false;
                        self.bump();
                    }
                }
                TokenKind::Punct('&') | TokenKind::Lifetime if at_param_start => {
                    self.bump(); // `&self`, `&'a self`
                }
                _ => {
                    at_param_start = false;
                    self.bump();
                }
            }
        }
        names
    }

    fn parse_impl(&mut self) -> Item {
        if self.is_punct('<') {
            self.skip_angles();
        }
        // First path (trait or self type).
        let first = self.parse_type_path();
        let self_ty = if self.eat_ident("for") {
            let second = self.parse_type_path();
            if second.is_empty() { first } else { second }
        } else {
            first
        };
        if self.skip_until(&['{', ';']) == Some('{') {
            self.bump();
            let items = self.items_until(Some('}'));
            Item::Impl { self_ty, items }
        } else {
            self.eat_punct(';');
            Item::Impl { self_ty, items: Vec::new() }
        }
    }

    /// Read a type path (`a::b::C<T>`, `&mut C`, …), returning the last
    /// plain segment name (`C`). Empty string if none found.
    fn parse_type_path(&mut self) -> String {
        let mut last = String::new();
        loop {
            if self.is_punct('&') || self.is_punct('*') {
                self.bump();
                continue;
            }
            if self.cur().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                self.bump();
                continue;
            }
            if self.is_ident("mut") || self.is_ident("const") || self.is_ident("dyn") {
                self.bump();
                continue;
            }
            match self.cur().map(|t| &t.kind) {
                Some(TokenKind::Ident(s)) => {
                    last = s.clone();
                    self.bump();
                    if self.is_punct('<') {
                        self.skip_angles();
                    }
                    if self.is_path_sep() {
                        self.bump();
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        last
    }

    // ---- statements --------------------------------------------------

    /// Parse `{ stmts }`; the cursor is on `{`.
    fn parse_block_stmts(&mut self) -> Vec<Stmt> {
        self.bump(); // `{`
        let mut stmts = Vec::new();
        loop {
            if self.at_end() {
                break;
            }
            if self.eat_punct('}') {
                break;
            }
            if self.eat_punct(';') {
                continue;
            }
            if self.is_punct('#') {
                self.skip_attrs();
                continue;
            }
            if self.is_ident("let") {
                self.parse_let(&mut stmts);
                continue;
            }
            if self.stmt_is_item() {
                let item = self.parse_item();
                stmts.push(Stmt::Item(Box::new(item)));
                continue;
            }
            let e = self.expr(false);
            let semi = self.eat_punct(';');
            stmts.push(Stmt::Expr(e, semi));
        }
        stmts
    }

    /// Whether the statement at the cursor starts a nested item.
    fn stmt_is_item(&self) -> bool {
        let Some(head) = self.cur().and_then(Token::ident) else {
            return false;
        };
        match head {
            "fn" | "struct" | "enum" | "impl" | "mod" | "use" | "trait" | "static" | "pub"
            | "macro_rules" => true,
            "type" | "union" => self.tok(self.i + 1).is_some_and(|t| t.ident().is_some()),
            "const" => self
                .tok(self.i + 1)
                .is_some_and(|t| t.ident().is_some() || t.is_ident("_")),
            "unsafe" => self.tok(self.i + 1).is_some_and(|t| t.is_ident("fn")),
            "extern" => true,
            _ => false,
        }
    }

    fn parse_let(&mut self, stmts: &mut Vec<Stmt>) {
        let pos = self.pos();
        self.bump(); // `let`
        while self.eat_ident("mut") || self.eat_ident("ref") {}
        // Plain-identifier pattern?
        let mut name = None;
        if let Some(id) = self.cur().and_then(Token::ident) {
            let next_ok = match self.tok(self.i + 1).map(|t| &t.kind) {
                Some(TokenKind::Punct(':')) | Some(TokenKind::Punct('=')) | Some(TokenKind::Punct(';')) => true,
                Some(TokenKind::Ident(s)) => s == "else",
                None => true,
                _ => false,
            };
            if next_ok && !self.pair_at(1, '=', '=') && id != "else" {
                name = Some(id.to_string());
                self.bump();
            }
        }
        let mut tuple: Vec<String> = Vec::new();
        if name.is_none() {
            // Flat tuple-of-idents pattern: `(tx, rx)` (with `mut`/`ref`/
            // `_` tolerated per element). Anything fancier falls through
            // to the generic pattern skip below.
            if self.is_punct('(') {
                tuple = self.try_tuple_pattern();
            }
            if tuple.is_empty() {
                // Skip a complex pattern to `=` / `;` (or `else` for
                // let-else without initializer — not legal Rust, but
                // tolerate).
                self.skip_pattern_to_eq();
            }
        }
        if self.is_punct(':') && !self.is_path_sep() {
            self.bump();
            self.skip_type_to_eq();
        }
        let mut init = None;
        if self.is_punct('=') && !self.pair('=', '=') {
            self.bump();
            init = Some(self.expr(false));
        }
        stmts.push(Stmt::Let { name, tuple, init, pos });
        // let-else diverging block: parse it as a trailing statement so
        // panic/alloc sites inside stay visible.
        if self.eat_ident("else") && self.is_punct('{') {
            let body = self.parse_block_stmts();
            stmts.push(Stmt::Expr(Expr { kind: ExprKind::Block(body), pos }, true));
        }
        self.eat_punct(';');
    }

    /// Skip a pattern until `=` (not `==`) or `;` at depth 0. Stops
    /// before the terminator.
    fn skip_pattern_to_eq(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Punct('=') if depth == 0 => {
                    if self.pair('=', '=') {
                        self.bump(); // `==` inside a pattern: literal eq? skip both
                        self.bump();
                        continue;
                    }
                    return;
                }
                TokenKind::Punct(';') if depth == 0 => return,
                TokenKind::Ident(ref s) if depth == 0 && s == "else" => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Parse a flat tuple-of-idents pattern `(a, mut b, _)` and return
    /// the element names. On any non-ident element (nested patterns,
    /// struct destructuring, rest `..`) nothing is consumed and the
    /// caller falls back to [`Self::skip_pattern_to_eq`].
    fn try_tuple_pattern(&mut self) -> Vec<String> {
        let start = self.i;
        self.bump(); // `(`
        let mut names = Vec::new();
        loop {
            if self.eat_punct(')') {
                return names;
            }
            while self.eat_ident("mut") || self.eat_ident("ref") {}
            let Some(id) = self.cur().and_then(Token::ident) else {
                self.i = start;
                return Vec::new();
            };
            names.push(id.to_string());
            self.bump();
            if self.eat_punct(',') {
                continue;
            }
            if self.eat_punct(')') {
                return names;
            }
            self.i = start;
            return Vec::new();
        }
    }

    /// Skip a type annotation until `=` or `;` at depth 0 (angle-aware,
    /// `->` tolerated).
    fn skip_type_to_eq(&mut self) {
        let mut depth = 0i32;
        let mut angle = 0i32;
        while !self.at_end() {
            if self.pair('-', '>') {
                self.bump();
                self.bump();
                continue;
            }
            let Some(t) = self.cur() else { return };
            match t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle = (angle - 1).max(0),
                TokenKind::Punct('=') if depth == 0 && angle == 0 => return,
                TokenKind::Punct(';') if depth == 0 => return,
                _ => {}
            }
            self.bump();
        }
    }

    // ---- expressions -------------------------------------------------

    /// Parse one expression. `no_struct` disallows struct literals at the
    /// top level (condition / scrutinee position).
    fn expr(&mut self, no_struct: bool) -> Expr {
        self.expr_bp(0, no_struct)
    }

    fn expr_bp(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            let pos = self.pos();
            self.bump();
            return Expr { kind: ExprKind::Unknown, pos };
        }
        self.depth += 1;
        let mut lhs = self.prefix_expr(no_struct);
        loop {
            // Assignment (lowest precedence, right-associative).
            if min_bp <= 1 {
                if let Some((op, ntok)) = self.peek_assign_op() {
                    let pos = self.pos();
                    for _ in 0..ntok {
                        self.bump();
                    }
                    let value = self.expr_bp(1, no_struct);
                    lhs = Expr {
                        kind: ExprKind::Assign { target: Box::new(lhs), op, value: Box::new(value) },
                        pos,
                    };
                    continue;
                }
            }
            // Range.
            if min_bp <= 3 && self.is_punct('.') && self.pair('.', '.') {
                let pos = self.pos();
                self.bump();
                self.bump();
                if self.is_punct('=') {
                    self.bump(); // `..=`
                }
                let hi = if self.can_start_expr() {
                    Some(Box::new(self.expr_bp(4, no_struct)))
                } else {
                    None
                };
                lhs = Expr { kind: ExprKind::Range { lo: Some(Box::new(lhs)), hi }, pos };
                continue;
            }
            let Some((op, l_bp, r_bp, ntok)) = self.peek_bin_op() else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            let pos = self.pos();
            for _ in 0..ntok {
                self.bump();
            }
            let rhs = self.expr_bp(r_bp, no_struct);
            lhs = Expr {
                kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                pos,
            };
        }
        self.depth -= 1;
        lhs
    }

    /// Assignment operator at the cursor: `=`, `+=`, `<<=`, … Returns the
    /// compound op (None for plain `=`) and its token count.
    fn peek_assign_op(&self) -> Option<(Option<BinOp>, usize)> {
        if self.triple('<', '<', '=') {
            return Some((Some(BinOp::Shl), 3));
        }
        if self.triple('>', '>', '=') {
            return Some((Some(BinOp::Shr), 3));
        }
        let compound = [
            ('+', BinOp::Add),
            ('-', BinOp::Sub),
            ('*', BinOp::Mul),
            ('/', BinOp::Div),
            ('%', BinOp::Rem),
            ('&', BinOp::BitAnd),
            ('|', BinOp::BitOr),
            ('^', BinOp::BitXor),
        ];
        for (c, op) in compound {
            if self.pair(c, '=') && !self.pair_at(1, '=', '=') {
                return Some((Some(op), 2));
            }
        }
        if self.is_punct('=') && !self.pair('=', '=') && !self.pair('=', '>') {
            return Some((None, 1));
        }
        None
    }

    /// Binary operator at the cursor: (op, left bp, right bp, tokens).
    fn peek_bin_op(&self) -> Option<(BinOp, u8, u8, usize)> {
        // Two-token operators first (adjacency-paired).
        if self.pair('&', '&') {
            return Some((BinOp::And, 7, 8, 2));
        }
        if self.pair('|', '|') {
            return Some((BinOp::Or, 5, 6, 2));
        }
        if self.pair('=', '=') || self.pair('!', '=') {
            return Some((BinOp::Cmp, 9, 10, 2));
        }
        if self.pair('<', '=') || self.pair('>', '=') {
            return Some((BinOp::Cmp, 9, 10, 2));
        }
        if self.pair('<', '<') {
            return Some((BinOp::Shl, 17, 18, 2));
        }
        if self.pair('>', '>') {
            return Some((BinOp::Shr, 17, 18, 2));
        }
        if self.pair('-', '>') || self.pair('=', '>') {
            return None; // arrow: not an operator in expression position
        }
        let t = self.cur()?;
        let (op, l, r) = match t.kind {
            TokenKind::Punct('<') | TokenKind::Punct('>') => (BinOp::Cmp, 9, 10),
            TokenKind::Punct('|') => (BinOp::BitOr, 11, 12),
            TokenKind::Punct('^') => (BinOp::BitXor, 13, 14),
            TokenKind::Punct('&') => (BinOp::BitAnd, 15, 16),
            TokenKind::Punct('+') => (BinOp::Add, 19, 20),
            TokenKind::Punct('-') => (BinOp::Sub, 19, 20),
            TokenKind::Punct('*') => (BinOp::Mul, 21, 22),
            TokenKind::Punct('/') => (BinOp::Div, 21, 22),
            TokenKind::Punct('%') => (BinOp::Rem, 21, 22),
            _ => return None,
        };
        Some((op, l, r, 1))
    }

    /// Whether the cursor can start an expression (used for optional
    /// `return` / `break` / range operands).
    fn can_start_expr(&self) -> bool {
        match self.cur().map(|t| &t.kind) {
            None => false,
            Some(TokenKind::Punct(c)) => !matches!(c, ',' | ')' | ']' | '}' | ';' | '=' | '>' | '<'),
            _ => true,
        }
    }

    fn prefix_expr(&mut self, no_struct: bool) -> Expr {
        let pos = self.pos();
        let Some(t) = self.cur() else {
            return Expr { kind: ExprKind::Unknown, pos };
        };
        match &t.kind {
            TokenKind::Literal(text) => {
                let text = text.clone();
                self.bump();
                self.postfix(Expr { kind: ExprKind::Lit(text), pos }, no_struct)
            }
            TokenKind::Lifetime => {
                // Loop label: `'a: loop { … }`.
                self.bump();
                self.eat_punct(':');
                self.prefix_expr(no_struct)
            }
            TokenKind::PathSep => {
                let e = self.parse_path_expr(no_struct);
                self.postfix(e, no_struct)
            }
            TokenKind::Ident(name) => {
                let name = name.as_str();
                match name {
                    "if" => self.if_expr(),
                    "while" => self.while_expr(),
                    "loop" => {
                        self.bump();
                        let body =
                            if self.is_punct('{') { self.parse_block_stmts() } else { Vec::new() };
                        Expr { kind: ExprKind::Loop { body }, pos }
                    }
                    "for" => self.for_expr(),
                    "match" => self.match_expr(),
                    "return" => {
                        self.bump();
                        let v = if self.can_start_expr() {
                            Some(Box::new(self.expr_bp(2, no_struct)))
                        } else {
                            None
                        };
                        Expr { kind: ExprKind::Return(v), pos }
                    }
                    "break" => {
                        self.bump();
                        if self.cur().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                            self.bump();
                        }
                        let v = if self.can_start_expr() {
                            Some(Box::new(self.expr_bp(2, no_struct)))
                        } else {
                            None
                        };
                        Expr { kind: ExprKind::Jump(v), pos }
                    }
                    "continue" => {
                        self.bump();
                        if self.cur().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                            self.bump();
                        }
                        Expr { kind: ExprKind::Jump(None), pos }
                    }
                    "unsafe" => {
                        self.bump();
                        if self.is_punct('{') {
                            let body = self.parse_block_stmts();
                            self.postfix(Expr { kind: ExprKind::Block(body), pos }, no_struct)
                        } else {
                            Expr { kind: ExprKind::Unknown, pos }
                        }
                    }
                    "move" => {
                        self.bump();
                        if self.is_punct('|') || self.pair('|', '|') {
                            self.closure_expr(pos)
                        } else {
                            Expr { kind: ExprKind::Unknown, pos }
                        }
                    }
                    "let" => {
                        // let-in-condition (`if let`-chains). Skip the
                        // pattern, parse the bound expression.
                        self.bump();
                        self.skip_pattern_to_eq();
                        if self.is_punct('=') {
                            self.bump();
                            self.expr_bp(4, true)
                        } else {
                            Expr { kind: ExprKind::Unknown, pos }
                        }
                    }
                    _ => {
                        let e = self.parse_path_expr(no_struct);
                        self.postfix(e, no_struct)
                    }
                }
            }
            TokenKind::Punct(c) => match c {
                '(' => {
                    self.bump();
                    let mut elems = Vec::new();
                    let mut trailing_comma = false;
                    while !self.at_end() && !self.is_punct(')') {
                        elems.push(self.expr(false));
                        trailing_comma = self.eat_punct(',');
                    }
                    self.eat_punct(')');
                    let e = match elems.pop() {
                        Some(only) if elems.is_empty() && !trailing_comma => only,
                        popped => {
                            elems.extend(popped);
                            Expr { kind: ExprKind::Tuple(elems), pos }
                        }
                    };
                    self.postfix(e, no_struct)
                }
                '[' => {
                    self.bump();
                    let mut elems = Vec::new();
                    while !self.at_end() && !self.is_punct(']') {
                        elems.push(self.expr(false));
                        if !self.eat_punct(',') && !self.eat_punct(';') && !self.is_punct(']') {
                            break;
                        }
                    }
                    self.eat_punct(']');
                    self.postfix(Expr { kind: ExprKind::Tuple(elems), pos }, no_struct)
                }
                '{' => {
                    let body = self.parse_block_stmts();
                    self.postfix(Expr { kind: ExprKind::Block(body), pos }, no_struct)
                }
                '&' => {
                    self.bump();
                    self.eat_ident("mut");
                    let inner = self.unary_operand(no_struct);
                    Expr { kind: ExprKind::Ref(Box::new(inner)), pos }
                }
                '*' | '-' | '!' => {
                    self.bump();
                    let inner = self.unary_operand(no_struct);
                    Expr { kind: ExprKind::Unary(Box::new(inner)), pos }
                }
                '|' => self.closure_expr(pos),
                '.' if self.pair('.', '.') => {
                    self.bump();
                    self.bump();
                    if self.is_punct('=') {
                        self.bump();
                    }
                    let hi = if self.can_start_expr() {
                        Some(Box::new(self.expr_bp(4, no_struct)))
                    } else {
                        None
                    };
                    Expr { kind: ExprKind::Range { lo: None, hi }, pos }
                }
                '#' => {
                    self.skip_attrs();
                    self.prefix_expr(no_struct)
                }
                '<' => {
                    // Qualified path `<T as Trait>::method(…)`.
                    self.skip_angles();
                    let e = if self.is_path_sep() {
                        self.parse_path_expr(no_struct)
                    } else {
                        Expr { kind: ExprKind::Unknown, pos }
                    };
                    self.postfix(e, no_struct)
                }
                _ => {
                    self.bump();
                    Expr { kind: ExprKind::Unknown, pos }
                }
            },
        }
    }

    /// Parse the operand of a unary operator: prefix + postfix, but no
    /// binary operators (they bind looser).
    fn unary_operand(&mut self, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            let pos = self.pos();
            self.bump();
            return Expr { kind: ExprKind::Unknown, pos };
        }
        self.depth += 1;
        let e = self.prefix_expr(no_struct);
        self.depth -= 1;
        e
    }

    /// Parse a path expression (cursor on its first ident or leading
    /// `::`), then decide among macro call, struct literal, or plain
    /// path.
    fn parse_path_expr(&mut self, no_struct: bool) -> Expr {
        let pos = self.pos();
        let mut segs: Vec<String> = Vec::new();
        if self.is_path_sep() {
            self.bump();
        }
        while let Some(TokenKind::Ident(s)) = self.cur().map(|t| &t.kind) {
            segs.push(s.clone());
            self.bump();
            if self.is_path_sep() {
                self.bump();
                if self.is_punct('<') {
                    // Turbofish `::<…>`; may be followed by `::more`.
                    self.skip_angles();
                    if self.is_path_sep() {
                        self.bump();
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            self.bump();
            return Expr { kind: ExprKind::Unknown, pos };
        }
        // Macro call: `name!(…)` / `name![…]` / `name!{…}`.
        if self.is_punct('!')
            && self
                .tok(self.i + 1)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
        {
            self.bump(); // `!`
            let close = match self.cur().map(|t| &t.kind) {
                Some(TokenKind::Punct('(')) => ')',
                Some(TokenKind::Punct('[')) => ']',
                _ => '}',
            };
            self.bump(); // open delimiter
            let mut args = Vec::new();
            while !self.at_end() && !self.is_punct(close) {
                args.push(self.expr(false));
                if !self.eat_punct(',') && !self.eat_punct(';') && !self.is_punct(close) {
                    // Non-expression macro input (patterns, token trees):
                    // skip to the next separator or the end.
                    if self.skip_until(&[',', ';', close]).is_none() {
                        break;
                    }
                    if !self.is_punct(close) {
                        self.bump();
                    }
                }
            }
            self.eat_punct(close);
            let name = segs.pop().unwrap_or_default();
            return Expr { kind: ExprKind::MacroCall { name, args }, pos };
        }
        // Struct literal: `Path { … }`.
        if !no_struct && self.is_punct('{') {
            self.bump();
            let mut fields = Vec::new();
            while !self.at_end() && !self.is_punct('}') {
                self.skip_attrs();
                if self.pair('.', '.') {
                    self.bump();
                    self.bump();
                    if !self.is_punct('}') {
                        fields.push(self.expr(false));
                    }
                    break;
                }
                if self.cur().is_some_and(|t| t.ident().is_some())
                    && self.tok(self.i + 1).is_some_and(|t| t.is_punct(':'))
                    && self.tok(self.i + 1).is_some_and(|t| t.kind != TokenKind::PathSep)
                {
                    self.bump(); // field name
                    self.bump(); // `:`
                }
                fields.push(self.expr(false));
                if !self.eat_punct(',') && !self.is_punct('}') {
                    break;
                }
            }
            self.eat_punct('}');
            return Expr { kind: ExprKind::Struct { path: segs, fields }, pos };
        }
        Expr { kind: ExprKind::Path(segs), pos }
    }

    /// Postfix loop: `.method(…)`, `.field`, `[…]`, `(…)`, `?`, `as T`.
    fn postfix(&mut self, mut e: Expr, no_struct: bool) -> Expr {
        loop {
            if self.eat_punct('?') {
                let pos = e.pos;
                e = Expr { kind: ExprKind::Try(Box::new(e)), pos };
                continue;
            }
            if self.is_punct('.') && !self.pair('.', '.') {
                self.bump();
                let t = self.cur();
                match t.map(|t| &t.kind) {
                    Some(TokenKind::Ident(name)) => {
                        let name = name.clone();
                        let mpos = self.pos();
                        self.bump();
                        // Turbofish: `.collect::<Vec<_>>()`.
                        if self.is_path_sep() {
                            self.bump();
                            self.skip_angles();
                        }
                        if self.is_punct('(') {
                            let args = self.call_args();
                            e = Expr {
                                kind: ExprKind::MethodCall { recv: Box::new(e), method: name, args },
                                pos: mpos,
                            };
                        } else {
                            e = Expr {
                                kind: ExprKind::Field { base: Box::new(e), name },
                                pos: mpos,
                            };
                        }
                    }
                    Some(TokenKind::Literal(_)) => {
                        // Tuple index: `x.0`.
                        let mpos = self.pos();
                        self.bump();
                        e = Expr {
                            kind: ExprKind::Field { base: Box::new(e), name: "#tuple".to_string() },
                            pos: mpos,
                        };
                    }
                    _ => break,
                }
                continue;
            }
            if self.is_punct('(') {
                let pos = e.pos;
                let args = self.call_args();
                e = Expr { kind: ExprKind::Call { callee: Box::new(e), args }, pos };
                continue;
            }
            if self.is_punct('[') {
                let pos = e.pos;
                self.bump();
                let index = self.expr(false);
                self.eat_punct(']');
                e = Expr {
                    kind: ExprKind::Index { base: Box::new(e), index: Box::new(index) },
                    pos,
                };
                continue;
            }
            if self.is_ident("as") {
                let pos = self.pos();
                self.bump();
                let ty = self.cast_type();
                e = Expr { kind: ExprKind::Cast { expr: Box::new(e), ty }, pos };
                continue;
            }
            let _ = no_struct;
            break;
        }
        e
    }

    /// Parse `(arg, …)`; cursor on `(`.
    fn call_args(&mut self) -> Vec<Expr> {
        self.bump(); // `(`
        let mut args = Vec::new();
        while !self.at_end() && !self.is_punct(')') {
            args.push(self.expr(false));
            if !self.eat_punct(',') && !self.is_punct(')') {
                break;
            }
        }
        self.eat_punct(')');
        args
    }

    /// Consume a cast target type, returning its text (path segments
    /// joined; `*const u8` → `u8`). Casts are to primitive or simple
    /// path types, so `<` after the type is comparison, not generics.
    fn cast_type(&mut self) -> String {
        let mut last = String::new();
        loop {
            if self.is_punct('*')
                && self
                    .tok(self.i + 1)
                    .is_some_and(|t| t.is_ident("const") || t.is_ident("mut"))
            {
                self.bump();
                self.bump();
                continue;
            }
            if self.is_ident("dyn") || self.is_punct('&') {
                self.bump();
                continue;
            }
            match self.cur().map(|t| &t.kind) {
                Some(TokenKind::Ident(s)) => {
                    last = s.clone();
                    self.bump();
                    if self.is_path_sep() {
                        self.bump();
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        last
    }

    // ---- control flow ------------------------------------------------

    fn if_expr(&mut self) -> Expr {
        let pos = self.pos();
        self.bump(); // `if`
        let cond = self.if_condition();
        let then = if self.is_punct('{') { self.parse_block_stmts() } else { Vec::new() };
        let alt = if self.eat_ident("else") {
            if self.is_ident("if") {
                Some(Box::new(self.if_expr()))
            } else if self.is_punct('{') {
                let bpos = self.pos();
                let body = self.parse_block_stmts();
                Some(Box::new(Expr { kind: ExprKind::Block(body), pos: bpos }))
            } else {
                None
            }
        } else {
            None
        };
        Expr { kind: ExprKind::If { cond: Box::new(cond), then, alt }, pos }
    }

    fn if_condition(&mut self) -> Expr {
        if self.is_ident("let") {
            let pos = self.pos();
            self.bump();
            self.skip_pattern_to_eq();
            if self.is_punct('=') {
                self.bump();
                return self.expr(true);
            }
            return Expr { kind: ExprKind::Unknown, pos };
        }
        self.expr(true)
    }

    fn while_expr(&mut self) -> Expr {
        let pos = self.pos();
        self.bump(); // `while`
        let cond = self.if_condition();
        let body = if self.is_punct('{') { self.parse_block_stmts() } else { Vec::new() };
        Expr { kind: ExprKind::While { cond: Box::new(cond), body }, pos }
    }

    fn for_expr(&mut self) -> Expr {
        let pos = self.pos();
        self.bump(); // `for`
        // Skip the loop pattern up to `in` at depth 0.
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            match &t.kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
                TokenKind::Ident(s) if depth == 0 && s == "in" => break,
                _ => {}
            }
            self.bump();
        }
        self.eat_ident("in");
        let iter = self.expr(true);
        let body = if self.is_punct('{') { self.parse_block_stmts() } else { Vec::new() };
        Expr { kind: ExprKind::For { iter: Box::new(iter), body }, pos }
    }

    fn match_expr(&mut self) -> Expr {
        let pos = self.pos();
        self.bump(); // `match`
        let scrutinee = self.expr(true);
        let mut arms = Vec::new();
        if self.is_punct('{') {
            self.bump();
            loop {
                if self.at_end() || self.eat_punct('}') {
                    break;
                }
                self.skip_attrs();
                self.eat_punct('|'); // leading or-pattern pipe
                // Skip the arm pattern to `=>` at depth 0, parsing a
                // guard expression if `if` appears.
                let mut guard = None;
                let mut depth = 0i32;
                while let Some(t) = self.cur() {
                    if depth == 0 && self.pair('=', '>') {
                        self.bump();
                        self.bump();
                        break;
                    }
                    match &t.kind {
                        TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                            depth += 1
                        }
                        TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                        TokenKind::Punct('}') => {
                            if depth == 0 {
                                // End of match body (tolerate missing arm).
                                self.bump();
                                return Expr {
                                    kind: ExprKind::Match { scrutinee: Box::new(scrutinee), arms },
                                    pos,
                                };
                            }
                            depth -= 1;
                        }
                        TokenKind::Ident(s) if depth == 0 && s == "if" => {
                            self.bump();
                            guard = Some(self.expr(true));
                            continue;
                        }
                        _ => {}
                    }
                    self.bump();
                }
                if let Some(g) = guard {
                    arms.push(g);
                }
                if self.at_end() {
                    break;
                }
                arms.push(self.expr(false));
                self.eat_punct(',');
            }
        }
        Expr { kind: ExprKind::Match { scrutinee: Box::new(scrutinee), arms }, pos }
    }

    fn closure_expr(&mut self, pos: Pos) -> Expr {
        // Cursor on the first `|` (or the `||` pair).
        if self.pair('|', '|') {
            self.bump();
            self.bump();
        } else {
            self.bump(); // opening `|`
            let mut depth = 0i32;
            let mut angle = 0i32;
            while let Some(t) = self.cur() {
                match t.kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                        depth -= 1
                    }
                    TokenKind::Punct('<') => angle += 1,
                    TokenKind::Punct('>') => angle = (angle - 1).max(0),
                    TokenKind::Punct('|') if depth == 0 && angle == 0 => {
                        self.bump();
                        break;
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        // Optional return type: `-> T { … }`.
        if self.pair('-', '>') {
            self.skip_until(&['{']);
        }
        let body = self.expr(false);
        Expr { kind: ExprKind::Closure(Box::new(body)), pos }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{walk_fns, walk_stmts};
    use crate::lexer::lex;

    fn parse(src: &str) -> AstFile {
        parse_file(&lex(src))
    }

    /// All (self_ty, fn name) pairs in the file.
    fn fns(ast: &AstFile) -> Vec<(Option<String>, String)> {
        let mut out = Vec::new();
        walk_fns(&ast.items, &mut |ty, def| {
            out.push((ty.map(str::to_string), def.name.clone()));
        });
        out
    }

    /// All method names called anywhere in the file.
    fn methods(ast: &AstFile) -> Vec<String> {
        let mut out = Vec::new();
        walk_fns(&ast.items, &mut |_, def| {
            if let Some(body) = &def.body {
                walk_stmts(body, &mut |e| {
                    if let ExprKind::MethodCall { method, .. } = &e.kind {
                        out.push(method.clone());
                    }
                });
            }
        });
        out
    }

    #[test]
    fn items_and_impls() {
        let ast = parse(
            "pub struct S { a: u8 }\n\
             impl S {\n  pub fn new() -> S { S { a: 0 } }\n  fn helper(&self, x: u64) {}\n}\n\
             impl std::fmt::Display for S {\n  fn fmt(&self) {}\n}\n\
             mod inner { pub fn free() {} }\n\
             trait T { fn default_method(&self) { self.hook(); } fn hook(&self); }",
        );
        let fs = fns(&ast);
        assert!(fs.contains(&(Some("S".into()), "new".into())));
        assert!(fs.contains(&(Some("S".into()), "helper".into())));
        assert!(fs.contains(&(Some("S".into()), "fmt".into())));
        assert!(fs.contains(&(None, "free".into())));
        assert!(fs.contains(&(Some("T".into()), "default_method".into())));
    }

    #[test]
    fn method_calls_and_positions() {
        let ast = parse("fn f(v: Vec<u64>) {\n    let x = v.iter().map(|a| a + 1).collect::<Vec<_>>();\n    x.first().unwrap();\n}");
        let ms = methods(&ast);
        // walk_expr is pre-order: the outermost call of each chain first.
        assert_eq!(ms, vec!["collect", "map", "iter", "unwrap", "first"]);
        // The unwrap's diagnostic position is the method name itself.
        let mut unwrap_pos = None;
        walk_fns(&ast.items, &mut |_, def| {
            if let Some(b) = &def.body {
                walk_stmts(b, &mut |e| {
                    if let ExprKind::MethodCall { method, .. } = &e.kind {
                        if method == "unwrap" {
                            unwrap_pos = Some(e.pos);
                        }
                    }
                });
            }
        });
        let p = unwrap_pos.expect("unwrap found");
        assert_eq!(p.line, 3);
        assert_eq!(p.col, 15);
    }

    #[test]
    fn control_flow_bodies_are_walked() {
        let ast = parse(
            "fn f(o: Option<u8>) {\n\
               if let Some(x) = o { a.lock(); } else { b.lock(); }\n\
               while cond() { c.push(1); }\n\
               for i in 0..10 { d.insert(i); }\n\
               match o { Some(_) => e.clone(), None => f.to_vec() };\n\
               loop { break g.unwrap(); }\n\
             }",
        );
        let ms = methods(&ast);
        for m in ["lock", "push", "insert", "clone", "to_vec", "unwrap"] {
            assert!(ms.contains(&m.to_string()), "missing {m}: {ms:?}");
        }
        assert_eq!(ms.iter().filter(|m| *m == "lock").count(), 2);
    }

    #[test]
    fn struct_literal_vs_block_ambiguity() {
        // `match x {` must not parse `x {` as a struct literal.
        let ast = parse("fn f(x: E) -> u8 { match x { E::A => 1, E::B => 2 } }");
        let mut matches = 0;
        walk_fns(&ast.items, &mut |_, def| {
            if let Some(b) = &def.body {
                walk_stmts(b, &mut |e| {
                    if matches!(e.kind, ExprKind::Match { .. }) {
                        matches += 1;
                    }
                });
            }
        });
        assert_eq!(matches, 1);
        // …while a genuine struct literal in value position still parses.
        let ast2 = parse("fn g() -> P { P { x: 1, y: 2 } }");
        let mut structs = 0;
        walk_fns(&ast2.items, &mut |_, def| {
            if let Some(b) = &def.body {
                walk_stmts(b, &mut |e| {
                    if matches!(e.kind, ExprKind::Struct { .. }) {
                        structs += 1;
                    }
                });
            }
        });
        assert_eq!(structs, 1);
    }

    #[test]
    fn entry_marker_and_test_flags() {
        let ast = parse(
            "// vdsms-lint: entry\n\
             pub fn hot() {}\n\
             pub fn cold() {}\n\
             #[cfg(test)]\n\
             mod tests {\n  fn t() {}\n}",
        );
        let mut seen = Vec::new();
        walk_fns(&ast.items, &mut |_, def| {
            seen.push((def.name.clone(), def.entry.is_some(), def.is_test));
        });
        assert!(seen.contains(&("hot".into(), true, false)));
        assert!(seen.contains(&("cold".into(), false, false)));
        assert!(seen.contains(&("t".into(), false, true)));
    }

    #[test]
    fn scoped_entry_marker_carries_its_rule_list() {
        let ast = parse(
            "// vdsms-lint: entry(no-panic-hot-path)\n\
             pub fn panic_only() {}\n\
             // vdsms-lint: entry(no-panic-hot-path, no-alloc-hot-path)\n\
             pub fn both() {}\n\
             // vdsms-lint: entry\n\
             pub fn all_rules() {}\n\
             // vdsms-lint: entry()\n\
             pub fn empty_scope_is_not_an_entry() {}",
        );
        let mut seen = std::collections::BTreeMap::new();
        walk_fns(&ast.items, &mut |_, def| {
            seen.insert(def.name.clone(), def.entry.clone());
        });
        assert_eq!(seen["panic_only"], Some(vec!["no-panic-hot-path".to_string()]));
        assert_eq!(
            seen["both"],
            Some(vec!["no-panic-hot-path".to_string(), "no-alloc-hot-path".to_string()])
        );
        assert_eq!(seen["all_rules"], Some(Vec::new()));
        assert_eq!(seen["empty_scope_is_not_an_entry"], None);
    }

    #[test]
    fn binary_ops_and_casts() {
        let ast = parse("fn f(a: u8, b: u8) -> u64 { (a as u64) << 8 | u64::from(b) + a as u64 * 2 }");
        let mut shls = 0;
        let mut casts = Vec::new();
        walk_fns(&ast.items, &mut |_, def| {
            if let Some(body) = &def.body {
                walk_stmts(body, &mut |e| match &e.kind {
                    ExprKind::Binary { op: BinOp::Shl, .. } => shls += 1,
                    ExprKind::Cast { ty, .. } => casts.push(ty.clone()),
                    _ => {}
                });
            }
        });
        assert_eq!(shls, 1);
        assert_eq!(casts, vec!["u64", "u64"]);
    }

    #[test]
    fn macro_calls_keep_expression_args() {
        let ast = parse("fn f() { assert_eq!(a.len(), 3); let v = vec![0u8; n]; format!(\"{}\", x.clone()); }");
        let ms = methods(&ast);
        assert!(ms.contains(&"len".to_string()));
        assert!(ms.contains(&"clone".to_string()));
        let mut macros = Vec::new();
        walk_fns(&ast.items, &mut |_, def| {
            if let Some(b) = &def.body {
                walk_stmts(b, &mut |e| {
                    if let ExprKind::MacroCall { name, .. } = &e.kind {
                        macros.push(name.clone());
                    }
                });
            }
        });
        assert_eq!(macros, vec!["assert_eq", "vec", "format"]);
    }

    #[test]
    fn params_collected() {
        let ast = parse("impl S { fn m(&self, bytes: &[u8], map: BTreeMap<K, V>, n: usize) {} }");
        let mut params = Vec::new();
        walk_fns(&ast.items, &mut |_, def| params.extend(def.params.clone()));
        assert_eq!(params, vec!["self", "bytes", "map", "n"]);
    }

    #[test]
    fn pathological_input_terminates() {
        // Unbalanced garbage must not hang or panic.
        let srcs = [
            "fn f( {{{{ ((( }} )) fn g",
            "impl impl impl",
            "fn f() { match { { { ",
            "let < < < > :: :: ..",
            "fn f() { a.b.c.(((( }",
        ];
        for s in srcs {
            let _ = parse(s);
        }
        // Deep nesting degrades but terminates.
        let mut deep = String::from("fn f() { ");
        for _ in 0..500 {
            deep.push('(');
        }
        deep.push('1');
        for _ in 0..500 {
            deep.push(')');
        }
        deep.push_str("; }");
        let _ = parse(&deep);
    }

    #[test]
    fn let_else_body_is_visible() {
        let ast = parse("fn f(o: Option<u8>) { let Some(x) = o else { panic!(\"boom\") }; }");
        let mut macros = Vec::new();
        walk_fns(&ast.items, &mut |_, def| {
            if let Some(b) = &def.body {
                walk_stmts(b, &mut |e| {
                    if let ExprKind::MacroCall { name, .. } = &e.kind {
                        macros.push(name.clone());
                    }
                });
            }
        });
        assert_eq!(macros, vec!["panic"]);
    }
}
