//! The syntax tree produced by [`crate::parser`].
//!
//! This is a *lint-grade* AST, not a compiler-grade one: it keeps exactly
//! the structure the workspace analyses need — items, function bodies,
//! statements, and an expression tree rich enough to see method calls,
//! paths, macro invocations, binary arithmetic, casts and block scopes —
//! and collapses everything else (types, generics, patterns, visibility)
//! into either skipped token runs or [`ExprKind::Unknown`]. The parser is
//! tolerant by construction: code it cannot understand degrades analysis
//! coverage, never correctness of what *was* parsed, and never panics.

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Pos {
    /// Convenience constructor.
    pub fn new(line: u32, col: u32) -> Pos {
        Pos { line, col }
    }
}

/// One parsed source file.
#[derive(Debug, Default)]
pub struct AstFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// A free or associated function.
    Fn(FnDef),
    /// An `impl` block (inherent or trait); `self_ty` is the last path
    /// segment of the implemented-for type.
    Impl {
        /// Simple name of the type being implemented.
        self_ty: String,
        /// Items inside the block (functions, mostly).
        items: Vec<Item>,
    },
    /// An inline `mod name { … }`.
    Mod {
        /// Module name.
        name: String,
        /// Items inside the module.
        items: Vec<Item>,
    },
    /// A `trait` definition; default method bodies are kept.
    Trait {
        /// Trait name (used as `self_ty` for its default methods).
        name: String,
        /// Items inside the trait.
        items: Vec<Item>,
    },
    /// Anything else (struct, enum, use, const, static, type, macro …).
    Other,
}

/// A function definition.
#[derive(Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Position of the `fn` keyword.
    pub pos: Pos,
    /// Whether the function is test-only code (`#[test]` / `#[cfg(test)]`
    /// region, as tracked by the lexer).
    pub is_test: bool,
    /// Entry marker, if a `// vdsms-lint: entry` directive annotates this
    /// function (root of the interprocedural hot path). `Some(rules)`
    /// carries the rule ids a scoped `entry(rule, …)` form names; an
    /// empty list is the bare `entry` form and seeds every hot-path
    /// rule.
    pub entry: Option<Vec<String>>,
    /// Parameter names, best-effort (identifier patterns only).
    pub params: Vec<String>,
    /// Whether the declared return type is a `Result` (by name: the
    /// first type path mentions `Result` or an alias ending in
    /// `Result`). Drives `no-swallowed-error`.
    pub returns_result: bool,
    /// Body statements; `None` for bodyless declarations (trait methods,
    /// extern fns).
    pub body: Option<Vec<Stmt>>,
}

/// One statement in a block.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat> = <init>;` — `name` is kept only for single-identifier
    /// patterns (what the local dataflow needs).
    Let {
        /// Bound identifier, if the pattern is a plain `ident` /
        /// `mut ident`.
        name: Option<String>,
        /// Bound identifiers when the pattern is a flat tuple of plain
        /// idents — `let (tx, rx) = …` — in source order (`_` kept as
        /// `_`). Empty for every other pattern shape. The channel
        /// endpoint tracking needs both names of an `mpsc` pair.
        tuple: Vec<String>,
        /// Initializer expression, if present.
        init: Option<Expr>,
        /// Position of the `let`.
        pos: Pos,
    },
    /// An expression statement. The flag records whether a `;`
    /// terminated it: a semicolon discards the value, while a
    /// semicolon-less tail is the enclosing block's value (the
    /// delegation idiom `fn send(…) -> … { self.0.send(v) }` must not
    /// read as a discarded send).
    Expr(Expr, bool),
    /// A nested item (fn/struct/… defined inside a block).
    Item(Box<Item>),
}

/// Binary operators the analyses distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `==`, `!=`, `<`, `>`, `<=`, `>=` (not distinguished further)
    Cmp,
}

impl BinOp {
    /// Whether the operator can overflow on fixed-width integers (the
    /// operators `no-unchecked-arith` polices).
    pub fn can_overflow(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl)
    }

    /// Source text of the operator, for diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Cmp => "<cmp>",
        }
    }
}

/// An expression with its source position.
#[derive(Debug)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Position of the expression's first token (for method calls, the
    /// method name's position — that is where diagnostics point).
    pub pos: Pos,
}

/// Expression kinds.
#[derive(Debug)]
pub enum ExprKind {
    /// `a::b::c` or a plain identifier (including `self`, `Self`).
    Path(Vec<String>),
    /// Any literal. Numeric literals keep their source text (empty for
    /// strings/chars, which the analyses treat as opaque).
    Lit(String),
    /// Unary `-x`, `!x`, `*x`.
    Unary(Box<Expr>),
    /// `&x` / `&mut x`.
    Ref(Box<Expr>),
    /// `lhs <op> rhs`.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `target = value` or `target <op>= value`.
    Assign {
        /// Assignment target.
        target: Box<Expr>,
        /// Compound operator, if any (`+=` → `Add`).
        op: Option<BinOp>,
        /// Assigned value.
        value: Box<Expr>,
    },
    /// `callee(args…)` where `callee` is usually a path.
    Call {
        /// The called expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.method(args…)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `name!(args…)` / `name![…]` / `name!{…}` — arguments are parsed
    /// as expressions where possible, else dropped.
    MacroCall {
        /// Macro name (last path segment).
        name: String,
        /// Parsed arguments (best effort).
        args: Vec<Expr>,
    },
    /// `base.field` (also tuple fields `x.0`).
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name (or tuple index as text).
        name: String,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `expr as ty`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Target type, as source text (e.g. `u64`, `*const u8`).
        ty: String,
    },
    /// `expr?`.
    Try(Box<Expr>),
    /// `{ stmts }`.
    Block(Vec<Stmt>),
    /// `if cond { then } else { alt }` (`alt` is a Block or another If).
    If {
        /// Condition (struct literals disallowed inside, as in Rust).
        cond: Box<Expr>,
        /// Then-block statements.
        then: Vec<Stmt>,
        /// Else branch, if any.
        alt: Option<Box<Expr>>,
    },
    /// `while cond { body }` (including `while let`).
    While {
        /// Loop condition.
        cond: Box<Expr>,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `loop { body }`.
    Loop {
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `for pat in iter { body }`.
    For {
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `match scrutinee { pat => expr, … }` — patterns and guards are
    /// skipped; arm values are kept.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arm value expressions.
        arms: Vec<Expr>,
    },
    /// `|args| body` / `move |args| body`.
    Closure(Box<Expr>),
    /// `Path { field: expr, … }`.
    Struct {
        /// Struct path.
        path: Vec<String>,
        /// Field value expressions (shorthand fields become paths).
        fields: Vec<Expr>,
    },
    /// `(a, b, …)` tuples and `[a, b, …]` arrays.
    Tuple(Vec<Expr>),
    /// `lo .. hi` / `lo ..= hi` with either side optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// `return expr?`.
    Return(Option<Box<Expr>>),
    /// `break expr?` / `continue` (labels dropped, break values kept).
    Jump(Option<Box<Expr>>),
    /// Anything the parser could not classify (consumed tolerantly).
    Unknown,
}

impl Expr {
    /// The path segments if this is a plain path expression.
    pub fn as_path(&self) -> Option<&[String]> {
        match &self.kind {
            ExprKind::Path(p) => Some(p),
            _ => None,
        }
    }

    /// The last identifier of a receiver chain: `self.streams` → `streams`,
    /// `shard.sink` → `sink`, `x` → `x`. Used as the lock identity by the
    /// lock-order analysis. `None` when the chain has no trailing name
    /// (calls, literals, …).
    pub fn chain_name(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Path(p) => p.last().map(String::as_str),
            ExprKind::Field { name, .. } => Some(name),
            ExprKind::Ref(e) | ExprKind::Unary(e) | ExprKind::Try(e) => e.chain_name(),
            ExprKind::Index { base, .. } => base.chain_name(),
            _ => None,
        }
    }

    /// The numeric value of an integer literal, if this expression is one
    /// (`_` separators and type suffixes tolerated; hex/oct/bin accepted).
    pub fn int_value(&self) -> Option<u64> {
        let ExprKind::Lit(text) = &self.kind else { return None };
        let clean: String = text.chars().filter(|c| *c != '_').collect();
        let (radix, rest) = if let Some(r) = clean.strip_prefix("0x") {
            (16, r)
        } else if let Some(r) = clean.strip_prefix("0o") {
            (8, r)
        } else if let Some(r) = clean.strip_prefix("0b") {
            (2, r)
        } else {
            (10, clean.as_str())
        };
        // A type suffix (u8/i32/usize/…) starts at the first char that is
        // not a digit of the radix; floats (a `.` or exponent) bail out
        // the same way via from_str_radix failing on the prefix.
        let end = rest
            .char_indices()
            .find(|(_, c)| !c.is_digit(radix))
            .map_or(rest.len(), |(i, _)| i);
        if end == 0 {
            return None;
        }
        u64::from_str_radix(&rest[..end], radix).ok()
    }
}

/// Walk every expression in a statement list, depth-first, including
/// nested blocks and closures — but **not** nested items (a nested `fn`
/// is its own symbol, analysed separately).
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Expr)) {
    for s in stmts {
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
            }
            Stmt::Expr(e, _) => walk_expr(e, f),
            Stmt::Item(_) => {}
        }
    }
}

/// Walk one expression tree depth-first (pre-order).
pub fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Path(_) | ExprKind::Lit(_) | ExprKind::Unknown => {}
        ExprKind::Unary(x) | ExprKind::Ref(x) | ExprKind::Try(x) | ExprKind::Closure(x) => {
            walk_expr(x, f)
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Assign { target, value, .. } => {
            walk_expr(target, f);
            walk_expr(value, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MacroCall { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field { base, .. } => walk_expr(base, f),
        ExprKind::Index { base, index } => {
            walk_expr(base, f);
            walk_expr(index, f);
        }
        ExprKind::Cast { expr, .. } => walk_expr(expr, f),
        ExprKind::Block(stmts) | ExprKind::Loop { body: stmts } => walk_stmts(stmts, f),
        ExprKind::If { cond, then, alt } => {
            walk_expr(cond, f);
            walk_stmts(then, f);
            if let Some(a) = alt {
                walk_expr(a, f);
            }
        }
        ExprKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_stmts(body, f);
        }
        ExprKind::For { iter, body } => {
            walk_expr(iter, f);
            walk_stmts(body, f);
        }
        ExprKind::Match { scrutinee, arms } => {
            walk_expr(scrutinee, f);
            for a in arms {
                walk_expr(a, f);
            }
        }
        ExprKind::Struct { fields, .. } => {
            for x in fields {
                walk_expr(x, f);
            }
        }
        ExprKind::Tuple(xs) => {
            for x in xs {
                walk_expr(x, f);
            }
        }
        ExprKind::Range { lo, hi } => {
            if let Some(x) = lo {
                walk_expr(x, f);
            }
            if let Some(x) = hi {
                walk_expr(x, f);
            }
        }
        ExprKind::Return(x) | ExprKind::Jump(x) => {
            if let Some(x) = x {
                walk_expr(x, f);
            }
        }
    }
}

/// Walk every item recursively (modules, impls, traits, nested items in
/// function bodies), calling `f` on each function definition together
/// with the `self_ty` of its enclosing impl/trait (if any).
pub fn walk_fns<'a>(items: &'a [Item], f: &mut impl FnMut(Option<&'a str>, &'a FnDef)) {
    walk_fns_inner(items, None, f);
}

fn walk_fns_inner<'a>(
    items: &'a [Item],
    self_ty: Option<&'a str>,
    f: &mut impl FnMut(Option<&'a str>, &'a FnDef),
) {
    for item in items {
        match item {
            Item::Fn(def) => {
                f(self_ty, def);
                if let Some(body) = &def.body {
                    walk_body_items(body, f);
                }
            }
            Item::Impl { self_ty: ty, items } | Item::Trait { name: ty, items } => {
                walk_fns_inner(items, Some(ty.as_str()), f);
            }
            Item::Mod { items, .. } => walk_fns_inner(items, self_ty, f),
            Item::Other => {}
        }
    }
}

fn walk_body_items<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(Option<&'a str>, &'a FnDef)) {
    for s in stmts {
        if let Stmt::Item(item) = s {
            walk_fns_inner(std::slice::from_ref(item.as_ref()), None, f);
        }
    }
}
