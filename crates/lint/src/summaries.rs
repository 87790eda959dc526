//! Per-function analysis summaries — the boundary between the AST
//! walkers and the cross-file link phase.
//!
//! [`summarize`] distils one parsed file into a [`FileSummary`]: every
//! fact the link phase ([`crate::flow`]) needs, and nothing that
//! depends on *other* files or on the active rule configuration. Rule
//! switches, suppressions and cross-function resolution are all applied
//! later, at link time, so `flow` never walks an AST and the walkers
//! here never see the symbol table.
//!
//! The extraction walkers are the local halves of the flow analyses:
//! panic/alloc sites, lock acquisition events, local arithmetic taint,
//! float comparisons, the untrusted-byte taint walker
//! (`taint-unchecked-flow`), the loop cursor scanner (`loop-progress`),
//! the discarded-`Result` scanner (`no-swallowed-error`) and the
//! channel/blocking walk (`guard-across-blocking`, `channel-protocol`).

use crate::ast::{walk_fns, walk_stmts, AstFile, BinOp, Expr, ExprKind, Pos, Stmt};
use crate::lexer::{Comment, LexedFile};
use std::collections::BTreeMap;

/// A flagged position with a short description (`what` is the panic
/// site kind, the allocation kind, the arithmetic operator, or the
/// loop keyword, depending on which list it sits in).
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// Where.
    pub pos: Pos,
    /// What, pre-rendered for the diagnostic message.
    pub what: String,
}

/// One unresolved call site, in body walk order. Every `Call` /
/// `MethodCall` expression gets an entry (even ones that will never
/// resolve), so the taint and discard records can refer to call sites
/// by index.
#[derive(Debug, Clone, PartialEq)]
pub enum CallRef {
    /// `a::b::f(…)` — `segs` is empty when the callee was not a plain
    /// path (resolves to nothing, kept for index stability).
    Path {
        /// Callee path segments.
        segs: Vec<String>,
        /// Call position.
        pos: Pos,
    },
    /// `recv.method(…)`.
    Method {
        /// Whether the receiver is the literal `self`.
        recv_self: bool,
        /// Method name.
        name: String,
        /// Position of the method name.
        pos: Pos,
    },
}

impl CallRef {
    /// The call's source position.
    pub fn pos(&self) -> Pos {
        match self {
            CallRef::Path { pos, .. } | CallRef::Method { pos, .. } => *pos,
        }
    }
}

/// One event on the lock-acquisition walk, in statement order. The
/// link phase replays these to build the workspace lock graph with the
/// same first-witness-wins semantics the interleaved walk had.
#[derive(Debug, Clone, PartialEq)]
pub enum LockEvent {
    /// A direct `.lock()`/`.read()`/`.write()` acquisition while
    /// `held` guards were live. Only recorded when `held` is
    /// non-empty (an unordered acquisition creates no edges).
    Direct {
        /// Guards held at the acquisition (outer `let` guards plus
        /// earlier acquisitions in the same statement).
        held: Vec<String>,
        /// Lock identity acquired.
        acquired: String,
        /// Acquisition site.
        pos: Pos,
        /// Witness note (`direct `.lock()` acquisition`).
        note: String,
    },
    /// A call made while `held` guards were live; the link phase adds
    /// edges to everything the callee transitively acquires. Only
    /// recorded when `held` is non-empty.
    Call {
        /// Call site (matched against [`FnSummary::calls`] positions).
        pos: Pos,
        /// Guards held across the call.
        held: Vec<String>,
    },
}

/// A `let _ = …;` or statement-level `.ok()` that throws a value away.
#[derive(Debug, Clone, PartialEq)]
pub struct Discard {
    /// Call-site index of the discarded call, when the discarded value
    /// came from one (`None` for channel sends/receives, which are
    /// flagged unconditionally — their `Result` is always load-bearing).
    pub call: Option<usize>,
    /// Discard site.
    pub pos: Pos,
    /// Pre-rendered description of what was discarded.
    pub what: String,
}

/// A taint source description or a call whose return may carry taint.
#[derive(Debug, Clone, PartialEq)]
pub enum TaintSrc {
    /// Directly from a source expression (e.g. `` `.read_u32()` ``).
    Direct(String),
    /// From the return value of call site `calls[i]` — tainted iff the
    /// resolved callee's return is tainted (link-time fixpoint).
    FromCall(usize),
}

/// A sink fed directly by a local taint source.
#[derive(Debug, Clone, PartialEq)]
pub struct TaintLocal {
    /// Sink site.
    pub pos: Pos,
    /// Sink description.
    pub sink: String,
    /// Source description.
    pub src: String,
}

/// A sink fed by the return value of a call site.
#[derive(Debug, Clone, PartialEq)]
pub struct TaintCallFlow {
    /// Call-site index whose return feeds the sink.
    pub call: usize,
    /// Sink site.
    pub pos: Pos,
    /// Sink description.
    pub sink: String,
}

/// A sink fed (unsanitized) by one of this function's own parameters —
/// the building block of interprocedural flows.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSink {
    /// Parameter index (into the declared parameter list, `self`
    /// included for methods).
    pub param: usize,
    /// Sink site.
    pub pos: Pos,
    /// Sink description.
    pub sink: String,
}

/// A parameter passed on, still unsanitized, as a callee argument:
/// `param` reaches `calls[call]`'s argument `callee_param` (0-based,
/// not counting a method receiver).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSinkCall {
    /// Caller parameter index.
    pub param: usize,
    /// Call-site index.
    pub call: usize,
    /// Argument position at the call.
    pub callee_param: usize,
}

/// A tainted value passed as a call argument.
#[derive(Debug, Clone, PartialEq)]
pub struct TaintedArg {
    /// Call-site index.
    pub call: usize,
    /// Argument position (0-based, not counting a method receiver).
    pub arg: usize,
    /// Argument site.
    pub pos: Pos,
    /// Where the taint came from.
    pub src: TaintSrc,
}

/// A channel pair bound by a tuple `let`:
/// `let (tx, rx) = mpsc::channel();` / `sync_channel(n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelBind {
    /// `sync_channel` (bounded, blocking send) vs `channel`.
    pub sync: bool,
    /// The literal bound of a `sync_channel(n)`, when it was a literal.
    pub cap: Option<u64>,
    /// Sender binding name.
    pub tx: String,
    /// Receiver binding name.
    pub rx: String,
    /// Binding site.
    pub pos: Pos,
}

/// What a [`ChanOp`] does to its endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanOpKind {
    /// `send` / `try_send`.
    Send,
    /// `recv` / `try_recv` / `recv_timeout`.
    Recv,
    /// `drop(endpoint)`.
    Drop,
}

/// One channel-endpoint operation, in body walk order — the sequence
/// `channel-protocol` replays against the binds of the same function.
#[derive(Debug, Clone, PartialEq)]
pub struct ChanOp {
    /// Endpoint name (receiver-chain tail, same identity scheme as
    /// locks).
    pub name: String,
    /// Operation.
    pub op: ChanOpKind,
    /// Operation site.
    pub pos: Pos,
    /// Whether the operation sits inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
    /// Whether a `send` result was thrown away in statement position
    /// (`tx.send(v);` with no binding — distinct from the `let _ =`
    /// shape `no-swallowed-error` covers).
    pub discarded: bool,
}

/// One function's summary — everything the link phase knows about it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FnSummary {
    /// Function name.
    pub name: String,
    /// `impl`/`trait` self type, if associated.
    pub self_ty: Option<String>,
    /// Position of the `fn` keyword.
    pub pos: Pos,
    /// Whether the function is test-only code.
    pub is_test: bool,
    /// Entry marker (`None` = not an entry; `Some([])` = bare `entry`;
    /// `Some(rules)` = scoped `entry(rule, …)`).
    pub entry: Option<Vec<String>>,
    /// Whether the declared return type is a `Result`.
    pub returns_result: bool,
    /// Number of declared parameters (`self` included).
    pub param_count: usize,
    /// Whether the first parameter is `self`.
    pub has_self_param: bool,
    /// Every call site, in body walk order.
    pub calls: Vec<CallRef>,
    /// Panic sites (`what` = site description).
    pub panic_sites: Vec<Site>,
    /// Heap-allocation sites.
    pub alloc_sites: Vec<Site>,
    /// Unchecked-arithmetic sites on locally tainted operands
    /// (`what` = operator text).
    pub arith_sites: Vec<Site>,
    /// `partial_cmp` sites.
    pub float_sites: Vec<Pos>,
    /// Lock identities this function acquires directly (sorted,
    /// deduplicated) — the base set for transitive lock summaries.
    pub direct_locks: Vec<String>,
    /// Ordered lock-acquisition events (see [`LockEvent`]).
    pub lock_events: Vec<LockEvent>,
    /// `while`/`loop` loops with no progress witness in their body
    /// (`what` = the loop keyword).
    pub stalled_loops: Vec<Site>,
    /// Whether the function returns a directly tainted value.
    pub returns_taint: bool,
    /// Call sites whose return value this function returns — its own
    /// return is tainted iff any of them resolves to a tainted callee.
    pub taint_return_calls: Vec<usize>,
    /// Source-to-sink flows entirely inside this function.
    pub taint_locals: Vec<TaintLocal>,
    /// Call-return-to-sink flows (conditional on the callee).
    pub taint_call_flows: Vec<TaintCallFlow>,
    /// Parameter-to-sink flows (make this fn a sink for callers).
    pub param_sinks: Vec<ParamSink>,
    /// Parameter-to-callee-argument forwarding edges.
    pub param_sink_calls: Vec<ParamSinkCall>,
    /// Tainted values passed as call arguments.
    pub tainted_args: Vec<TaintedArg>,
    /// Discarded `Result`s (see [`Discard`]).
    pub discards: Vec<Discard>,
    /// Channel pairs bound by tuple `let`s.
    pub channels: Vec<ChannelBind>,
    /// Channel-endpoint operations, in body walk order.
    pub chan_ops: Vec<ChanOp>,
    /// Directly-blocking operations (`.recv()`, zero-arg `.join()`,
    /// `send` on a local `sync_channel` sender) — the seeds of the
    /// transitive blocking set `guard-across-blocking` computes.
    pub blocking: Vec<Site>,
}

impl FnSummary {
    /// Whether any entry marker annotates this function.
    pub fn is_entry(&self) -> bool {
        self.entry.is_some()
    }

    /// Whether this function seeds the hot set of `rule` (bare `entry`,
    /// or a scoped form naming `rule`).
    pub fn entry_covers(&self, rule: &str) -> bool {
        match &self.entry {
            Some(rules) => rules.is_empty() || rules.iter().any(|r| r == rule),
            None => false,
        }
    }
}

/// One file's complete summary: directive comments (for suppressions)
/// and per-function summaries in definition order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FileSummary {
    /// Directive (`vdsms-lint:`) comments, for the suppression pass.
    pub comments: Vec<Comment>,
    /// Function summaries in [`walk_fns`] order.
    pub fns: Vec<FnSummary>,
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

/// Growth methods that (re)allocate on the receiver.
const ALLOC_METHODS: &[&str] = &[
    "append", "clone", "collect", "extend", "insert", "push", "push_back", "push_front",
    "reserve", "resize", "to_owned", "to_string", "to_vec",
];

/// `Type::ctor` associated calls that allocate.
const ALLOC_CTORS: &[(&str, &str)] =
    &[("Box", "new"), ("String", "from"), ("Vec", "from"), ("Vec", "with_capacity")];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Methods whose result advances a cursor or drains a source — progress
/// witnesses for `loop-progress`.
const DRAIN_METHODS: &[&str] = &[
    "advance", "bump", "next", "next_back", "pop", "pop_back", "pop_front", "recv",
    "recv_timeout", "seek", "skip", "try_recv",
];

/// Channel operations whose `Result` is always load-bearing: a
/// discarded send/recv error silently drops data, resolvable or not.
const CHANNEL_METHODS: &[&str] = &["recv", "send", "try_recv", "try_send"];

/// Methods that sanitize a tainted value for `taint-unchecked-flow`
/// (clamping, checked conversion, checked arithmetic).
fn is_sanitizer_method(method: &str) -> bool {
    matches!(method, "min" | "clamp" | "try_into") || method.starts_with("checked_")
}

/// Summarize one parsed file. Pure function of the file's bytes: no
/// configuration, no other files.
pub fn summarize(lexed: &LexedFile, ast: &AstFile) -> FileSummary {
    let mut fns = Vec::new();
    walk_fns(&ast.items, &mut |self_ty, def| {
        fns.push(summarize_fn(self_ty, def));
    });
    FileSummary {
        // Only directive comments feed the link phase (suppressions and
        // their validation).
        comments: lexed
            .comments
            .iter()
            .filter(|c| c.text.trim().starts_with("vdsms-lint:"))
            .cloned()
            .collect(),
        fns,
    }
}

fn summarize_fn(self_ty: Option<&str>, def: &crate::ast::FnDef) -> FnSummary {
    let mut f = FnSummary {
        name: def.name.clone(),
        self_ty: self_ty.map(str::to_string),
        pos: def.pos,
        is_test: def.is_test,
        entry: def.entry.clone(),
        returns_result: def.returns_result,
        param_count: def.params.len(),
        has_self_param: def.params.first().is_some_and(|p| p == "self"),
        ..FnSummary::default()
    };
    let Some(body) = &def.body else { return f };

    // Call sites, in walk order — the index space every cross-reference
    // below uses.
    walk_stmts(body, &mut |e: &Expr| match &e.kind {
        ExprKind::Call { callee, .. } => f.calls.push(CallRef::Path {
            segs: callee.as_path().map(<[String]>::to_vec).unwrap_or_default(),
            pos: e.pos,
        }),
        ExprKind::MethodCall { recv, method, .. } => f.calls.push(CallRef::Method {
            recv_self: matches!(recv.as_path(), Some([seg]) if seg == "self"),
            name: method.clone(),
            pos: e.pos,
        }),
        _ => {}
    });
    let mut call_at: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for (i, c) in f.calls.iter().enumerate() {
        let p = c.pos();
        call_at.entry((p.line, p.col)).or_insert(i);
    }

    // Panic / alloc / float sites and direct lock acquisitions.
    let mut direct_locks: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    walk_stmts(body, &mut |e: &Expr| {
        if let Some(what) = panic_site(e) {
            f.panic_sites.push(Site { pos: e.pos, what });
        }
        if let Some(what) = alloc_site(e) {
            f.alloc_sites.push(Site { pos: e.pos, what });
        }
        if let ExprKind::MethodCall { method, .. } = &e.kind {
            if method == "partial_cmp" {
                f.float_sites.push(e.pos);
            }
        }
        if let Some(name) = acquisition(e) {
            direct_locks.insert(name.to_string());
        }
    });
    f.direct_locks = direct_locks.into_iter().collect();

    // Local arithmetic taint (`no-unchecked-arith`).
    {
        let mut tainted: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut sites: Vec<(Pos, BinOp)> = Vec::new();
        check_arith_stmts(body, &mut tainted, &mut sites);
        f.arith_sites = sites
            .into_iter()
            .map(|(pos, op)| Site { pos, what: op.as_str().to_string() })
            .collect();
    }

    // Lock-acquisition events, statement-ordered.
    {
        let mut held: Held = Vec::new();
        lock_stmts(body, &mut held, &mut f.lock_events);
    }

    // Loops without a progress witness (`loop-progress`).
    walk_stmts(body, &mut |e: &Expr| {
        let (what, cond, loop_body) = match &e.kind {
            ExprKind::While { cond, body } => ("while", Some(cond.as_ref()), body),
            ExprKind::Loop { body } => ("loop", None, body),
            _ => return,
        };
        let mut progress = cond.is_some_and(has_progress_expr);
        if !progress {
            walk_stmts(loop_body, &mut |inner: &Expr| {
                if is_progress_witness(inner) {
                    progress = true;
                }
            });
        }
        if !progress {
            f.stalled_loops.push(Site { pos: e.pos, what: what.to_string() });
        }
    });

    // Thread/sync model: channel binds and endpoint operations, direct
    // blocking sites.
    {
        let mut cw = ConcWalker {
            sync_txs: std::collections::BTreeSet::new(),
            loop_depth: 0,
            out: &mut f,
        };
        cw.scan_stmts(body);
    }

    // Untrusted-byte taint walk + discarded-`Result` scan.
    {
        let mut tw = TaintWalker { call_at: &call_at, env: BTreeMap::new(), out: &mut f };
        for (i, p) in def.params.iter().enumerate() {
            if p != "self" && p != "_" {
                tw.env.insert(p.clone(), Origin::Param(i));
            }
        }
        tw.scan_stmts(body, true);
    }
    f
}

/// Classify a panic site; returns the description.
fn panic_site(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::MethodCall { recv, method, .. } => match method.as_str() {
            "unwrap" | "expect" => Some(format!("`.{method}()`")),
            "clone" if matches!(recv.kind, ExprKind::Index { .. }) => {
                Some("indexing followed by `.clone()`".to_string())
            }
            _ => None,
        },
        ExprKind::MacroCall { name, .. }
            if matches!(name.as_str(), "panic" | "todo" | "unimplemented") =>
        {
            Some(format!("`{name}!`"))
        }
        _ => None,
    }
}

/// Classify a heap-allocation site; returns the description.
fn alloc_site(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::MethodCall { method, .. } if ALLOC_METHODS.contains(&method.as_str()) => {
            Some(format!("`.{method}(…)`"))
        }
        ExprKind::Call { callee, .. } => {
            let segs = callee.as_path()?;
            let [.., ty, ctor] = segs else { return None };
            ALLOC_CTORS
                .iter()
                .any(|(t, c)| t == ty && c == ctor)
                .then(|| format!("`{ty}::{ctor}(…)`"))
        }
        ExprKind::MacroCall { name, .. } if ALLOC_MACROS.contains(&name.as_str()) => {
            Some(format!("`{name}!`"))
        }
        _ => None,
    }
}

/// A lock acquisition: `recv.lock()` / `.read()` / `.write()` with no
/// arguments. Returns the lock identity (last name of the receiver
/// chain).
fn acquisition(e: &Expr) -> Option<&str> {
    let ExprKind::MethodCall { recv, method, args } = &e.kind else {
        return None;
    };
    if !matches!(method.as_str(), "lock" | "read" | "write") || !args.is_empty() {
        return None;
    }
    recv.chain_name()
}

fn method_of(e: &Expr) -> &str {
    match &e.kind {
        ExprKind::MethodCall { method, .. } => method,
        _ => "?",
    }
}

// ----- lock-event walk (mirrors the old interleaved flow walk) -------

/// The held-guard stack: lock identity plus the `let` binding that
/// owns the guard (`None` for guards live only within one statement),
/// so an explicit `drop(binding)` statement can release it.
type Held = Vec<(String, Option<String>)>;

fn lock_stmts(stmts: &[Stmt], held: &mut Held, events: &mut Vec<LockEvent>) {
    for stmt in stmts {
        match stmt {
            Stmt::Let { name, init: Some(e), .. } => {
                lock_expr_events(e, held, events);
                lock_nested(e, held, events);
                // Guards bound by `let` stay held for the rest of the
                // enclosing block (straight-line acquisitions only),
                // tagged with the binding name so `drop(g)` releases
                // them.
                let mut acquired: Vec<String> = Vec::new();
                straight_line_acquisitions(e, &mut acquired);
                for a in acquired {
                    held.push((a, name.clone()));
                }
            }
            Stmt::Let { .. } | Stmt::Item(_) => continue,
            Stmt::Expr(e, _) => {
                lock_expr_events(e, held, events);
                lock_nested(e, held, events);
                // `drop(g);` ends g's guards for the rest of the block.
                // Path-insensitive like the rest of the walk: a drop in
                // a conditional branch counts as a release, trading a
                // missed exotic bug for zero false fire on the common
                // `lock → work → drop → block` sequence.
                if let Some(owner) = dropped_binding(e) {
                    held.retain(|(_, o)| o.as_deref() != Some(owner));
                }
            }
        }
    }
}

/// `drop(x)` in statement position: the binding whose guards die.
fn dropped_binding(e: &Expr) -> Option<&str> {
    let ExprKind::Call { callee, args } = &e.kind else { return None };
    let [.., last] = callee.as_path()? else { return None };
    if last != "drop" {
        return None;
    }
    let [arg] = args.as_slice() else { return None };
    let ExprKind::Path(p) = &arg.kind else { return None };
    let [name] = p.as_slice() else { return None };
    Some(name)
}

fn lock_expr_events(e: &Expr, held: &Held, events: &mut Vec<LockEvent>) {
    let mut stmt_locks: Vec<String> = Vec::new();
    lock_straight(e, held, &mut stmt_locks, events);
}

fn lock_straight(
    e: &Expr,
    held: &Held,
    stmt_locks: &mut Vec<String>,
    events: &mut Vec<LockEvent>,
) {
    // Control-flow boundary: only the eagerly-evaluated head expression
    // belongs to this statement's straight line.
    let head: Option<&Expr> = match &e.kind {
        ExprKind::Block(_) | ExprKind::Loop { .. } | ExprKind::Closure(_) => return,
        ExprKind::If { cond, .. } | ExprKind::While { cond, .. } => Some(cond),
        ExprKind::For { iter, .. } => Some(iter),
        ExprKind::Match { scrutinee, .. } => Some(scrutinee),
        _ => None,
    };
    if let Some(head) = head {
        lock_straight(head, held, stmt_locks, events);
        return;
    }
    if let Some(name) = acquisition(e) {
        let snapshot: Vec<String> =
            held.iter().map(|(l, _)| l.clone()).chain(stmt_locks.iter().cloned()).collect();
        if !snapshot.is_empty() {
            events.push(LockEvent::Direct {
                held: snapshot,
                acquired: name.to_string(),
                pos: e.pos,
                note: format!("direct `.{}()` acquisition", method_of(e)),
            });
        }
        stmt_locks.push(name.to_string());
    }
    if matches!(&e.kind, ExprKind::Call { .. } | ExprKind::MethodCall { .. }) {
        let snapshot: Vec<String> =
            held.iter().map(|(l, _)| l.clone()).chain(stmt_locks.iter().cloned()).collect();
        if !snapshot.is_empty() {
            events.push(LockEvent::Call { pos: e.pos, held: snapshot });
        }
    }
    let mut children: Vec<&Expr> = Vec::new();
    collect_children(e, &mut children);
    for c in children {
        lock_straight(c, held, stmt_locks, events);
    }
}

/// Append the lock names acquired on `e`'s straight line — the guards a
/// `let` binding keeps alive for the rest of its block.
fn straight_line_acquisitions(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Block(_)
        | ExprKind::Loop { .. }
        | ExprKind::Closure(_)
        | ExprKind::If { .. }
        | ExprKind::While { .. }
        | ExprKind::For { .. }
        | ExprKind::Match { .. } => return,
        _ => {}
    }
    if let Some(name) = acquisition(e) {
        out.push(name.to_string());
    }
    let mut children: Vec<&Expr> = Vec::new();
    collect_children(e, &mut children);
    for c in children {
        straight_line_acquisitions(c, out);
    }
}

/// Recurse into block-bearing sub-expressions with held-stack
/// save/restore, so `let` guards bound inside a nested block or branch
/// do not leak out.
fn lock_nested(e: &Expr, held: &mut Held, events: &mut Vec<LockEvent>) {
    let mut recurse = |stmts: &[Stmt], held: &mut Held| {
        let depth = held.len();
        lock_stmts(stmts, held, events);
        held.truncate(depth);
    };
    match &e.kind {
        ExprKind::Block(stmts) | ExprKind::Loop { body: stmts } => recurse(stmts, held),
        ExprKind::If { then, alt, .. } => {
            recurse(then, held);
            if let Some(a) = alt {
                lock_nested(a, held, events);
            }
        }
        ExprKind::While { body, .. } | ExprKind::For { body, .. } => recurse(body, held),
        ExprKind::Match { arms, .. } => {
            for arm in arms {
                let depth = held.len();
                lock_expr_events(arm, held, events);
                lock_nested(arm, held, events);
                held.truncate(depth);
            }
        }
        ExprKind::Closure(body) => {
            let depth = held.len();
            lock_expr_events(body, held, events);
            lock_nested(body, held, events);
            held.truncate(depth);
        }
        _ => {}
    }
}

/// Direct sub-expressions of `e` (one level).
fn collect_children<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match &e.kind {
        ExprKind::Unary(x) | ExprKind::Ref(x) | ExprKind::Try(x) | ExprKind::Closure(x) => {
            out.push(x)
        }
        ExprKind::Call { callee, args } => {
            out.push(callee);
            out.extend(args.iter());
        }
        ExprKind::MethodCall { recv, args, .. } => {
            out.push(recv);
            out.extend(args.iter());
        }
        ExprKind::MacroCall { args, .. } => out.extend(args.iter()),
        ExprKind::Field { base, .. } => out.push(base),
        ExprKind::Index { base, index } => {
            out.push(base);
            out.push(index);
        }
        ExprKind::Cast { expr, .. } => out.push(expr),
        ExprKind::Struct { fields, .. } => out.extend(fields.iter()),
        ExprKind::Tuple(xs) => out.extend(xs.iter()),
        ExprKind::Range { lo, hi } => {
            out.extend(lo.as_deref());
            out.extend(hi.as_deref());
        }
        ExprKind::Return(x) | ExprKind::Jump(x) => out.extend(x.as_deref()),
        _ => {}
    }
}

// ----- local arithmetic taint (unchanged semantics from flow v2) -----

fn check_arith_stmts(
    stmts: &[Stmt],
    tainted: &mut std::collections::BTreeSet<String>,
    sites: &mut Vec<(Pos, BinOp)>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Let { name, init, .. } => {
                if let Some(e) = init {
                    check_arith_expr(e, tainted, sites);
                    if let Some(n) = name {
                        if expr_tainted(e, tainted) {
                            tainted.insert(n.clone());
                        }
                    }
                }
            }
            Stmt::Expr(e, _) => check_arith_expr(e, tainted, sites),
            Stmt::Item(_) => {}
        }
    }
}

fn check_arith_expr(
    e: &Expr,
    tainted: &mut std::collections::BTreeSet<String>,
    sites: &mut Vec<(Pos, BinOp)>,
) {
    match &e.kind {
        ExprKind::Binary { op, lhs, rhs } => {
            if op.can_overflow()
                && (operand_unsanitized(lhs, tainted) || operand_unsanitized(rhs, tainted))
            {
                sites.push((e.pos, *op));
            }
            check_arith_expr(lhs, tainted, sites);
            check_arith_expr(rhs, tainted, sites);
        }
        ExprKind::Assign { target, op, value } => {
            check_arith_expr(value, tainted, sites);
            if let Some(op) = op {
                if op.can_overflow() && operand_unsanitized(value, tainted) {
                    sites.push((e.pos, *op));
                }
            }
            if let ExprKind::Path(p) = &target.kind {
                if let [name] = p.as_slice() {
                    if expr_tainted(value, tainted) || (op.is_some() && tainted.contains(name)) {
                        tainted.insert(name.clone());
                    } else {
                        tainted.remove(name);
                    }
                }
            }
        }
        ExprKind::Block(stmts) | ExprKind::Loop { body: stmts } => {
            check_arith_stmts(stmts, tainted, sites)
        }
        ExprKind::If { cond, then, alt } => {
            check_arith_expr(cond, tainted, sites);
            check_arith_stmts(then, tainted, sites);
            if let Some(a) = alt {
                check_arith_expr(a, tainted, sites);
            }
        }
        ExprKind::While { cond, body } => {
            check_arith_expr(cond, tainted, sites);
            check_arith_stmts(body, tainted, sites);
        }
        ExprKind::For { iter, body } => {
            check_arith_expr(iter, tainted, sites);
            check_arith_stmts(body, tainted, sites);
        }
        ExprKind::Match { scrutinee, arms } => {
            check_arith_expr(scrutinee, tainted, sites);
            for a in arms {
                check_arith_expr(a, tainted, sites);
            }
        }
        _ => {
            let mut children: Vec<&Expr> = Vec::new();
            collect_children(e, &mut children);
            for c in children {
                check_arith_expr(c, tainted, sites);
            }
        }
    }
}

/// Taint source: a `get_*` / `read_*` method call (stream-byte reads).
fn is_taint_source(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::MethodCall { method, .. } => {
            method.starts_with("get_") || method.starts_with("read_")
        }
        ExprKind::Try(inner) => is_taint_source(inner),
        _ => false,
    }
}

fn expr_tainted(e: &Expr, tainted: &std::collections::BTreeSet<String>) -> bool {
    if is_taint_source(e) {
        return true;
    }
    match &e.kind {
        ExprKind::Path(p) => matches!(p.as_slice(), [name] if tainted.contains(name)),
        ExprKind::Try(x) | ExprKind::Unary(x) | ExprKind::Ref(x) => expr_tainted(x, tainted),
        ExprKind::Index { base, .. } => expr_tainted(base, tainted),
        ExprKind::Binary { lhs, rhs, .. } => {
            expr_tainted(lhs, tainted) || expr_tainted(rhs, tainted)
        }
        ExprKind::Cast { expr, .. } => expr_tainted(expr, tainted),
        _ => false,
    }
}

fn operand_unsanitized(e: &Expr, tainted: &std::collections::BTreeSet<String>) -> bool {
    match &e.kind {
        ExprKind::Cast { .. } => false,
        ExprKind::Ref(x) | ExprKind::Try(x) => operand_unsanitized(x, tainted),
        _ => expr_tainted(e, tainted),
    }
}

// ----- loop-progress witnesses ---------------------------------------

/// Whether one expression (anywhere in a loop body) witnesses forward
/// progress: a non-zero `+=`/`-=`, a re-assignment derived from the
/// target itself (`i = i + 1`), or a cursor-advancing method call.
fn is_progress_witness(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Assign { op: Some(BinOp::Add | BinOp::Sub), value, .. } => {
            value.int_value() != Some(0)
        }
        ExprKind::Assign { target, op: None, value } => {
            let Some(t) = target.chain_name() else { return false };
            let mut derived = false;
            crate::ast::walk_expr(value, &mut |inner: &Expr| {
                if let ExprKind::Binary { op: BinOp::Add | BinOp::Sub, lhs, rhs } = &inner.kind {
                    if lhs.chain_name() == Some(t) || rhs.chain_name() == Some(t) {
                        derived = true;
                    }
                }
            });
            derived
        }
        ExprKind::MethodCall { method, .. } => {
            DRAIN_METHODS.contains(&method.as_str())
                || method.starts_with("get_")
                || method.starts_with("read_")
                || method.starts_with("next_")
        }
        _ => false,
    }
}

/// Whether a `while` condition itself witnesses progress (e.g.
/// `while let Some(x) = iter.next()`).
fn has_progress_expr(cond: &Expr) -> bool {
    let mut progress = false;
    crate::ast::walk_expr(cond, &mut |e: &Expr| {
        if is_progress_witness(e) {
            progress = true;
        }
    });
    progress
}

// ----- thread/sync model walk ----------------------------------------

/// Channel send/recv method → op kind, gated on the expected arity so
/// unrelated methods sharing a name (`str::join`-style) don't count.
fn chan_op_kind(method: &str, argc: usize) -> Option<ChanOpKind> {
    match (method, argc) {
        ("send", 1) | ("try_send", 1) => Some(ChanOpKind::Send),
        ("recv", 0) | ("try_recv", 0) | ("recv_timeout", 1) => Some(ChanOpKind::Recv),
        _ => None,
    }
}

/// `channel()` / `sync_channel(n)` constructor call → (sync, literal
/// bound). Matched by trailing path segment, so `mpsc::channel`,
/// `sync::channel` and a bare `channel` all count.
fn channel_ctor(e: &Expr) -> Option<(bool, Option<u64>)> {
    let ExprKind::Call { callee, args } = &e.kind else { return None };
    let [.., last] = callee.as_path()? else { return None };
    match last.as_str() {
        "channel" if args.is_empty() => Some((false, None)),
        "sync_channel" if args.len() == 1 => Some((true, args[0].int_value())),
        _ => None,
    }
}

struct ConcWalker<'a> {
    /// Senders of locally-bound `sync_channel`s: their `send` blocks.
    sync_txs: std::collections::BTreeSet<String>,
    loop_depth: u32,
    out: &'a mut FnSummary,
}

impl ConcWalker<'_> {
    fn scan_stmts(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Let { tuple, init: Some(e), .. } => {
                    if let [tx, rx] = tuple.as_slice() {
                        if let Some((sync, cap)) = channel_ctor(e) {
                            if sync {
                                self.sync_txs.insert(tx.clone());
                            }
                            self.out.channels.push(ChannelBind {
                                sync,
                                cap,
                                tx: tx.clone(),
                                rx: rx.clone(),
                                pos: e.pos,
                            });
                        }
                    }
                    self.scan_expr(e, false);
                }
                Stmt::Let { .. } | Stmt::Item(_) => {}
                // A semicolon-less tail is the block's value, not a
                // discarded statement — the wrapper-delegation idiom
                // (`fn send(…) -> … { self.0.send(v) }`) returns the
                // `Result` instead of dropping it.
                Stmt::Expr(e, semi) => self.scan_expr(e, *semi),
            }
        }
    }

    fn scan_expr(&mut self, e: &Expr, stmt_root: bool) {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                if let Some([.., last]) = callee.as_path() {
                    if last == "drop" {
                        if let [arg] = args.as_slice() {
                            if let Some(name) = arg.chain_name() {
                                self.out.chan_ops.push(ChanOp {
                                    name: name.to_string(),
                                    op: ChanOpKind::Drop,
                                    pos: e.pos,
                                    in_loop: self.loop_depth > 0,
                                    discarded: false,
                                });
                            }
                        }
                    }
                }
                self.scan_expr(callee, false);
                for a in args {
                    self.scan_expr(a, false);
                }
            }
            ExprKind::MethodCall { recv, method, args } => {
                if let Some(op) = chan_op_kind(method, args.len()) {
                    if let Some(name) = recv.chain_name() {
                        self.out.chan_ops.push(ChanOp {
                            name: name.to_string(),
                            op,
                            pos: e.pos,
                            in_loop: self.loop_depth > 0,
                            discarded: stmt_root && op == ChanOpKind::Send,
                        });
                        if let Some(what) = self.blocking_desc(name, method) {
                            self.out.blocking.push(Site { pos: e.pos, what });
                        }
                    }
                }
                // Thread-handle join. The zero-arg gate keeps
                // `slice::join(sep)` and friends out.
                if method == "join" && args.is_empty() {
                    self.out.blocking.push(Site { pos: e.pos, what: "`.join()`".to_string() });
                }
                self.scan_expr(recv, false);
                for a in args {
                    self.scan_expr(a, false);
                }
            }
            ExprKind::Block(stmts) => self.scan_stmts(stmts),
            ExprKind::Loop { body } => {
                self.loop_depth += 1;
                self.scan_stmts(body);
                self.loop_depth -= 1;
            }
            // A `while` head re-evaluates every iteration
            // (`while let Ok(v) = rx.recv()`), a `for` head once.
            ExprKind::While { cond, body } => {
                self.loop_depth += 1;
                self.scan_expr(cond, false);
                self.scan_stmts(body);
                self.loop_depth -= 1;
            }
            ExprKind::For { iter, body } => {
                self.scan_expr(iter, false);
                self.loop_depth += 1;
                self.scan_stmts(body);
                self.loop_depth -= 1;
            }
            ExprKind::If { cond, then, alt } => {
                self.scan_expr(cond, false);
                self.scan_stmts(then);
                if let Some(a) = alt {
                    self.scan_expr(a, false);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.scan_expr(scrutinee, false);
                for a in arms {
                    self.scan_expr(a, false);
                }
            }
            _ => {
                let mut children: Vec<&Expr> = Vec::new();
                collect_children(e, &mut children);
                for c in children {
                    self.scan_expr(c, false);
                }
            }
        }
    }

    /// Whether a channel op blocks: every `recv`/`recv_timeout`, and
    /// `send` on a locally-bound `sync_channel` sender. `Condvar::wait`
    /// is deliberately absent — waiting is the one blocking call that
    /// must hold its guard.
    fn blocking_desc(&self, name: &str, method: &str) -> Option<String> {
        match method {
            "recv" | "recv_timeout" => Some(format!("`.{method}()`")),
            "send" if self.sync_txs.contains(name) => {
                Some("`.send(…)` on a bounded channel".to_string())
            }
            _ => None,
        }
    }
}

// ----- untrusted-byte taint walker -----------------------------------

/// Where a value's taint (if any) came from.
#[derive(Debug, Clone, PartialEq)]
enum Origin {
    /// Directly from a source expression.
    Source(String),
    /// From the return of call site `calls[i]`.
    Call(usize),
    /// From parameter `i` of the enclosing function.
    Param(usize),
}

struct TaintWalker<'a> {
    call_at: &'a BTreeMap<(u32, u32), usize>,
    env: BTreeMap<String, Origin>,
    out: &'a mut FnSummary,
}

impl TaintWalker<'_> {
    fn call_idx(&self, pos: Pos) -> Option<usize> {
        self.call_at.get(&(pos.line, pos.col)).copied()
    }

    fn scan_stmts(&mut self, stmts: &[Stmt], is_fn_tail: bool) {
        for (i, stmt) in stmts.iter().enumerate() {
            let last = i + 1 == stmts.len();
            match stmt {
                Stmt::Let { name, init, .. } => {
                    if let Some(e) = init {
                        self.scan_expr(e);
                        if name.as_deref() == Some("_") {
                            self.record_let_discard(e);
                        } else if let Some(n) = name {
                            match self.expr_origin(e) {
                                Some(o) => {
                                    self.env.insert(n.clone(), o);
                                }
                                None => {
                                    self.env.remove(n);
                                }
                            }
                        }
                    }
                }
                Stmt::Expr(e, _) => {
                    self.scan_expr(e);
                    if !last {
                        self.record_ok_discard(e);
                    }
                    if last && is_fn_tail {
                        self.record_return_taint(e);
                    }
                }
                Stmt::Item(_) => {}
            }
        }
    }

    /// Walk one expression: record sinks and tainted call arguments
    /// (pre-order, against the current environment), recurse with
    /// control-flow awareness, then apply comparison/membership clears
    /// (post-order, so a sink *inside* a comparison still fires).
    fn scan_expr(&mut self, e: &Expr) {
        self.record_sinks(e);
        self.record_call_args(e);
        match &e.kind {
            ExprKind::Block(stmts) => self.scan_stmts(stmts, false),
            ExprKind::Loop { body } => self.scan_stmts(body, false),
            ExprKind::If { cond, then, alt } => {
                self.scan_expr(cond);
                self.scan_stmts(then, false);
                if let Some(a) = alt {
                    self.scan_expr(a);
                }
            }
            ExprKind::While { cond, body } => {
                self.scan_expr(cond);
                self.scan_stmts(body, false);
            }
            ExprKind::For { iter, body } => {
                self.scan_expr(iter);
                self.scan_stmts(body, false);
            }
            ExprKind::Match { scrutinee, arms } => {
                self.scan_expr(scrutinee);
                for a in arms {
                    self.scan_expr(a);
                }
            }
            ExprKind::Assign { target, op, value } => {
                self.scan_expr(value);
                if let ExprKind::Path(p) = &target.kind {
                    if let [name] = p.as_slice() {
                        match (self.expr_origin(value), op) {
                            (Some(o), _) => {
                                self.env.insert(name.clone(), o);
                            }
                            (None, None) => {
                                self.env.remove(name);
                            }
                            (None, Some(_)) => {} // compound op keeps prior origin
                        }
                    }
                }
            }
            ExprKind::Return(x) => {
                if let Some(x) = x {
                    self.scan_expr(x);
                    self.record_return_taint(x);
                }
            }
            _ => {
                let mut children: Vec<&Expr> = Vec::new();
                collect_children(e, &mut children);
                for c in children {
                    self.scan_expr(c);
                }
            }
        }
        // Post-order clears: a comparison or membership test is the
        // bounds check the rule is looking for.
        match &e.kind {
            ExprKind::Binary { op: BinOp::Cmp, lhs, rhs } => {
                for side in [lhs, rhs] {
                    if let Some(n) = side.chain_name() {
                        self.env.remove(n);
                    }
                }
            }
            ExprKind::MethodCall { method, args, .. }
                if matches!(method.as_str(), "contains" | "contains_key") =>
            {
                for a in args {
                    if let Some(n) = a.chain_name() {
                        self.env.remove(n);
                    }
                }
            }
            _ => {}
        }
    }

    /// The taint origin of a value expression, if any.
    fn expr_origin(&self, e: &Expr) -> Option<Origin> {
        match &e.kind {
            ExprKind::MethodCall { method, .. } => {
                if method.starts_with("get_") || method.starts_with("read_") {
                    return Some(Origin::Source(format!("`.{method}()`")));
                }
                if is_sanitizer_method(method) {
                    return None;
                }
                self.call_idx(e.pos).map(Origin::Call)
            }
            ExprKind::Call { callee, args } => {
                // `Ok(x)` / `Some(x)` wrap without laundering.
                if let Some([name]) = callee.as_path() {
                    if matches!(name.as_str(), "Ok" | "Some") && args.len() == 1 {
                        return self.expr_origin(&args[0]);
                    }
                }
                self.call_idx(e.pos).map(Origin::Call)
            }
            ExprKind::Path(p) => match p.as_slice() {
                [name] => self.env.get(name).cloned(),
                _ => None,
            },
            ExprKind::Field { base, name } => {
                if name.ends_with("_len") || name.ends_with("_count") {
                    return Some(Origin::Source(format!("`.{name}` field")));
                }
                self.expr_origin(base)
            }
            ExprKind::Try(x) | ExprKind::Unary(x) | ExprKind::Ref(x) => self.expr_origin(x),
            // Casts do NOT sanitize here: `len as usize` still carries
            // an attacker-chosen magnitude into a capacity or index.
            ExprKind::Cast { expr, .. } => self.expr_origin(expr),
            ExprKind::Binary { op, lhs, rhs } => match op {
                // Comparison yields a bool; `%`, `&&`, `||` bound or
                // consume the value.
                BinOp::Cmp | BinOp::And | BinOp::Or | BinOp::Rem => None,
                _ => self.expr_origin(lhs).or_else(|| self.expr_origin(rhs)),
            },
            ExprKind::Index { base, .. } => self.expr_origin(base),
            ExprKind::Struct { fields, .. } => {
                fields.iter().find_map(|f| self.expr_origin(f))
            }
            _ => None,
        }
    }

    fn record_sink(&mut self, origin: Origin, pos: Pos, sink: &str) {
        match origin {
            Origin::Source(src) => {
                self.out.taint_locals.push(TaintLocal { pos, sink: sink.to_string(), src })
            }
            Origin::Call(call) => {
                self.out.taint_call_flows.push(TaintCallFlow { call, pos, sink: sink.to_string() })
            }
            Origin::Param(param) => {
                self.out.param_sinks.push(ParamSink { param, pos, sink: sink.to_string() })
            }
        }
    }

    fn record_sinks(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Index { index, .. } => {
                if let Some(o) = self.expr_origin(index) {
                    self.record_sink(o, e.pos, "slice indexing");
                }
            }
            ExprKind::MethodCall { method, args, .. }
                if matches!(
                    method.as_str(),
                    "reserve" | "reserve_exact" | "resize" | "with_capacity"
                ) =>
            {
                if let Some(arg0) = args.first() {
                    if let Some(o) = self.expr_origin(arg0) {
                        let sink = format!("`.{method}(…)`");
                        self.record_sink(o, e.pos, &sink);
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                if let Some([.., ty, ctor]) = callee.as_path() {
                    if ctor == "with_capacity" {
                        if let Some(arg0) = args.first() {
                            if let Some(o) = self.expr_origin(arg0) {
                                let sink = format!("`{ty}::with_capacity(…)`");
                                self.record_sink(o, e.pos, &sink);
                            }
                        }
                    }
                }
            }
            ExprKind::MacroCall { name, args } if name == "vec" && args.len() == 2 => {
                if let Some(o) = self.expr_origin(&args[1]) {
                    self.record_sink(o, e.pos, "`vec![…; n]` length");
                }
            }
            ExprKind::For { iter, .. } => {
                if let ExprKind::Range { hi: Some(h), .. } = &iter.kind {
                    if let Some(o) = self.expr_origin(h) {
                        self.record_sink(o, h.pos, "loop upper bound");
                    }
                }
            }
            _ => {}
        }
    }

    fn record_call_args(&mut self, e: &Expr) {
        let args = match &e.kind {
            ExprKind::Call { args, .. } | ExprKind::MethodCall { args, .. } => args,
            _ => return,
        };
        let Some(call) = self.call_idx(e.pos) else { return };
        for (i, a) in args.iter().enumerate() {
            match self.expr_origin(a) {
                Some(Origin::Source(src)) => self.out.tainted_args.push(TaintedArg {
                    call,
                    arg: i,
                    pos: a.pos,
                    src: TaintSrc::Direct(src),
                }),
                Some(Origin::Call(j)) => self.out.tainted_args.push(TaintedArg {
                    call,
                    arg: i,
                    pos: a.pos,
                    src: TaintSrc::FromCall(j),
                }),
                Some(Origin::Param(p)) => self.out.param_sink_calls.push(ParamSinkCall {
                    param: p,
                    call,
                    callee_param: i,
                }),
                None => {}
            }
        }
    }

    fn record_return_taint(&mut self, e: &Expr) {
        match self.expr_origin(e) {
            Some(Origin::Source(_)) => self.out.returns_taint = true,
            Some(Origin::Call(i)) => self.out.taint_return_calls.push(i),
            _ => {}
        }
    }

    /// `let _ = e;` — a discarded value. `?` and macros are exempt;
    /// channel operations are flagged unconditionally; other calls are
    /// recorded and judged at link time (flagged iff the resolved
    /// callee returns a `Result`).
    fn record_let_discard(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Try(_) | ExprKind::MacroCall { .. } => {}
            ExprKind::MethodCall { method, .. }
                if CHANNEL_METHODS.contains(&method.as_str()) =>
            {
                self.out.discards.push(Discard {
                    call: None,
                    pos: e.pos,
                    what: format!("`.{method}(…)`"),
                });
            }
            ExprKind::MethodCall { method, .. } => {
                if let Some(call) = self.call_idx(e.pos) {
                    self.out.discards.push(Discard {
                        call: Some(call),
                        pos: e.pos,
                        what: format!("`.{method}(…)`"),
                    });
                }
            }
            ExprKind::Call { callee, .. } => {
                if let (Some(call), Some(segs)) = (self.call_idx(e.pos), callee.as_path()) {
                    if let Some(name) = segs.last() {
                        self.out.discards.push(Discard {
                            call: Some(call),
                            pos: e.pos,
                            what: format!("`{name}(…)`"),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    /// A non-tail `foo().ok();` statement — `.ok()` used purely to
    /// swallow a `Result`. Judged at link time on the resolved callee.
    fn record_ok_discard(&mut self, e: &Expr) {
        let ExprKind::MethodCall { recv, method, args } = &e.kind else { return };
        if method != "ok" || !args.is_empty() {
            return;
        }
        let what = match &recv.kind {
            ExprKind::MethodCall { method: m, .. } => format!("`.{m}(…)`"),
            ExprKind::Call { callee, .. } => match callee.as_path().and_then(|s| s.last()) {
                Some(name) => format!("`{name}(…)`"),
                None => return,
            },
            _ => return,
        };
        if let Some(call) = self.call_idx(recv.pos) {
            self.out.discards.push(Discard { call: Some(call), pos: e.pos, what });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn summarize_src(src: &str) -> FileSummary {
        let lexed = lex(src);
        summarize(&lexed, &parse_file(&lexed))
    }

    fn only_fn<'s>(s: &'s FileSummary, name: &str) -> &'s FnSummary {
        match s.fns.iter().find(|f| f.name == name) {
            Some(f) => f,
            None => panic!("no fn `{name}` in summary"),
        }
    }

    #[test]
    fn taint_source_to_index_sink_is_recorded() {
        let s = summarize_src(
            "fn f(r: &mut R, buf: &[u8]) -> u8 {\n\
             \x20   let i = r.read_u8();\n\
             \x20   buf[i as usize]\n\
             }\n",
        );
        let f = only_fn(&s, "f");
        assert_eq!(f.taint_locals.len(), 1, "taint_locals: {:?}", f.taint_locals);
        assert_eq!(f.taint_locals[0].sink, "slice indexing");
        assert_eq!(f.taint_locals[0].src, "`.read_u8()`");
        assert_eq!(f.taint_locals[0].pos.line, 3);
    }

    #[test]
    fn comparison_clears_taint_before_the_sink() {
        let s = summarize_src(
            "fn f(r: &mut R, buf: &[u8]) -> u8 {\n\
             \x20   let i = r.read_u8() as usize;\n\
             \x20   if i < buf.len() { return buf[i]; }\n\
             \x20   0\n\
             }\n",
        );
        let f = only_fn(&s, "f");
        assert!(f.taint_locals.is_empty(), "cleared by bounds check: {:?}", f.taint_locals);
    }

    #[test]
    fn param_to_capacity_sink_and_forwarding_are_recorded() {
        let s = summarize_src(
            "fn alloc_for(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n\
             fn outer(m: usize) { helper(m); }\n",
        );
        let f = only_fn(&s, "alloc_for");
        assert_eq!(f.param_sinks.len(), 1);
        assert_eq!(f.param_sinks[0].param, 0);
        assert_eq!(f.param_sinks[0].sink, "`Vec::with_capacity(…)`");
        let outer = only_fn(&s, "outer");
        assert_eq!(outer.param_sink_calls.len(), 1);
        assert_eq!(outer.param_sink_calls[0].callee_param, 0);
    }

    #[test]
    fn stalled_and_progressing_loops_are_classified() {
        let s = summarize_src(
            "fn stalls(q: &Q) { while q.is_ready() { q.peek(); } }\n\
             fn advances(q: &mut Q) { while q.is_ready() { q.pop(); } }\n\
             fn counts(n: usize) { let mut i = 0; while i < n { i += 1; } }\n",
        );
        assert_eq!(only_fn(&s, "stalls").stalled_loops.len(), 1);
        assert_eq!(only_fn(&s, "stalls").stalled_loops[0].what, "while");
        assert!(only_fn(&s, "advances").stalled_loops.is_empty());
        assert!(only_fn(&s, "counts").stalled_loops.is_empty());
    }

    #[test]
    fn discards_distinguish_channel_and_resolvable_calls() {
        let s = summarize_src(
            "fn f(tx: &Sender<u32>, s: &S) {\n\
             \x20   let _ = tx.send(1);\n\
             \x20   let _ = s.persist();\n\
             \x20   let _ = flush_all();\n\
             \x20   let _ = compute()?;\n\
             }\n",
        );
        let f = only_fn(&s, "f");
        assert_eq!(f.discards.len(), 3, "discards: {:?}", f.discards);
        assert_eq!(f.discards[0].call, None, "channel send is unconditional");
        assert!(f.discards[1].call.is_some());
        assert!(f.discards[2].call.is_some());
    }

    #[test]
    fn lock_events_keep_statement_order_and_held_snapshots() {
        let s = summarize_src(
            "impl S { fn f(&self) {\n\
             \x20   let a = self.alpha.lock();\n\
             \x20   let b = self.beta.lock();\n\
             } }\n",
        );
        let f = only_fn(&s, "f");
        // `.lock()` sites also appear as Call events (they are method
        // calls, and a resolvable callee's transitive locks order after
        // the guard just taken) — mirror of the old interleaved walk.
        let directs: Vec<_> = f
            .lock_events
            .iter()
            .filter_map(|e| match e {
                LockEvent::Direct { held, acquired, .. } => Some((held.clone(), acquired.clone())),
                LockEvent::Call { .. } => None,
            })
            .collect();
        assert_eq!(directs, vec![(vec!["alpha".to_string()], "beta".to_string())]);
        assert_eq!(f.direct_locks, vec!["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn explicit_drop_releases_let_bound_guards() {
        let s = summarize_src(
            "fn f(m: &M, rx: &R) {\n\
             \x20   let g = m.lock();\n\
             \x20   rx.recv();\n\
             \x20   drop(g);\n\
             \x20   rx.try_recv();\n\
             }\n",
        );
        let f = only_fn(&s, "f");
        let call_lines: Vec<u32> = f
            .lock_events
            .iter()
            .filter_map(|e| match e {
                LockEvent::Call { pos, .. } => Some(pos.line),
                LockEvent::Direct { .. } => None,
            })
            .collect();
        // The `.lock()` itself, the `recv` under the guard, and the
        // `drop` call; the `try_recv` after `drop(g)` runs guard-free.
        assert_eq!(call_lines, vec![2, 3, 4], "events: {:?}", f.lock_events);
    }

    #[test]
    fn channel_binds_ops_and_blocking_sites_are_recorded() {
        let s = summarize_src(
            "fn f(m: &M) {\n\
             \x20   let (tx, rx) = mpsc::sync_channel(1);\n\
             \x20   let (etx, erx) = mpsc::channel();\n\
             \x20   tx.send(1);\n\
             \x20   let g = m.lock();\n\
             \x20   while let Ok(v) = rx.recv() { etx.send(v); }\n\
             \x20   drop(erx);\n\
             }\n",
        );
        let f = only_fn(&s, "f");
        assert_eq!(f.channels.len(), 2, "channels: {:?}", f.channels);
        assert!(f.channels[0].sync && f.channels[0].cap == Some(1));
        assert_eq!((f.channels[0].tx.as_str(), f.channels[0].rx.as_str()), ("tx", "rx"));
        assert!(!f.channels[1].sync);
        let ops: Vec<(&str, ChanOpKind, bool, bool)> = f
            .chan_ops
            .iter()
            .map(|o| (o.name.as_str(), o.op, o.in_loop, o.discarded))
            .collect();
        assert_eq!(
            ops,
            vec![
                ("tx", ChanOpKind::Send, false, true),
                ("rx", ChanOpKind::Recv, true, false),
                ("etx", ChanOpKind::Send, true, true),
                ("erx", ChanOpKind::Drop, false, false),
            ],
            "ops: {:?}",
            f.chan_ops
        );
        // Blocking: the bounded send and the recv (join has its own
        // test below); `etx.send` is unbounded and does not block.
        let what: Vec<&str> = f.blocking.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(what, vec!["`.send(…)` on a bounded channel", "`.recv()`"]);
    }

    #[test]
    fn zero_arg_join_blocks_but_separator_join_does_not() {
        let s = summarize_src(
            "fn f(h: H, parts: &[String]) -> String {\n\
             \x20   h.join();\n\
             \x20   parts.join(\"-\")\n\
             }\n",
        );
        let f = only_fn(&s, "f");
        let what: Vec<&str> = f.blocking.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(what, vec!["`.join()`"]);
    }
}
