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
//! panic/alloc sites and float comparisons, the loop cursor scanner
//! (`loop-progress`), one guard/channel/blocking walk (`lock-order`,
//! `guard-across-blocking`, `channel-protocol`) and one untrusted-byte
//! taint walk whose sinks are indexing, capacity, loop bounds
//! (`taint-unchecked-flow`) and bare arithmetic (`no-unchecked-arith`),
//! and which also records discarded `Result`s (`no-swallowed-error`).

use crate::ast::{walk_fns, walk_stmts, AstFile, BinOp, Expr, ExprKind, Pos, Stmt};
use crate::lexer::{Comment, LexedFile};
use std::collections::{BTreeMap, BTreeSet};

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
    let mut direct_locks: BTreeSet<String> = BTreeSet::new();
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

    // Lock events, channel binds and endpoint operations, direct
    // blocking sites.
    SyncWalker {
        held: Vec::new(),
        line: Vec::new(),
        sync_txs: BTreeSet::new(),
        loop_depth: 0,
        out: &mut f,
    }
    .scan_block(body, true);

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

    // Untrusted-byte taint walk (flow and arithmetic sinks) +
    // discarded-`Result` scan.
    {
        let mut tw =
            TaintWalker { call_at: &call_at, env: BTreeMap::new(), flow: true, out: &mut f };
        for (i, p) in def.params.iter().enumerate() {
            if p != "self" && p != "_" {
                tw.env.insert(p.clone(), Taint { origin: Some(Origin::Param(i)), raw: false });
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

/// The argument of a `drop(x)` call.
fn drop_arg(e: &Expr) -> Option<&Expr> {
    let ExprKind::Call { callee, args } = &e.kind else { return None };
    let [.., last] = callee.as_path()? else { return None };
    let [arg] = args.as_slice() else { return None };
    (last == "drop").then_some(arg)
}

/// What the lock half of [`SyncWalker`] sees of an expression. Guards are
/// tracked along a statement's straight line and into the blocks the
/// statement itself opens; a block, loop or closure nested *inside* an
/// expression (a call argument, say) is walked for channel operations
/// and blocking sites only, and an `else` branch's condition is not on
/// any line.
#[derive(Clone, Copy)]
struct Reach {
    /// On the current statement's straight line: acquisitions and calls
    /// are lock events. `Some(true)` under an `if`/`while` condition, a
    /// `for` iterator or a `match` scrutinee, where an acquisition never
    /// becomes a `let` guard.
    line: Option<bool>,
    /// The blocks, arms and closure bodies this expression opens are
    /// tracked statements.
    opens: bool,
}

/// A statement's own expression (or a `match` arm, a closure body it
/// opens).
const STMT: Reach = Reach { line: Some(false), opens: true };
/// Channel operations and blocking sites only.
const OFF: Reach = Reach { line: None, opens: false };

/// One pass over a body for everything live across a statement
/// sequence: the held-guard stack behind [`LockEvent`]s, the loop depth
/// behind [`ChanOp::in_loop`], and the bounded senders whose `send`
/// blocks.
struct SyncWalker<'a> {
    /// Live `let` guards: lock identity plus the binding that owns it,
    /// so an explicit `drop(binding)` statement can release it.
    held: Vec<(String, Option<String>)>,
    /// The current statement's acquisitions so far, each flagged with
    /// whether it sits under a control-flow head.
    line: Vec<(String, bool)>,
    /// Senders of locally-bound `sync_channel`s: their `send` blocks.
    sync_txs: BTreeSet<String>,
    loop_depth: u32,
    out: &'a mut FnSummary,
}

impl SyncWalker<'_> {
    /// Walk a statement list. When `tracked`, every statement starts a
    /// fresh straight line, `let` guards stay held to the closing brace
    /// and `drop(g);` releases `g`'s guards.
    fn scan_block(&mut self, stmts: &[Stmt], tracked: bool) {
        let depth = self.held.len();
        for stmt in stmts {
            let (e, owner) = match stmt {
                Stmt::Let { name, tuple, init: Some(e), .. } => {
                    if let ([tx, rx], Some((sync, cap))) = (tuple.as_slice(), channel_ctor(e)) {
                        if sync {
                            self.sync_txs.insert(tx.clone());
                        }
                        let (tx, rx) = (tx.clone(), rx.clone());
                        self.out.channels.push(ChannelBind { sync, cap, tx, rx, pos: e.pos });
                    }
                    (e, Some(name))
                }
                Stmt::Expr(e, _) => (e, None),
                Stmt::Let { .. } | Stmt::Item(_) => continue,
            };
            if !tracked {
                self.scan_expr(e, OFF);
                continue;
            }
            let line = self.statement(e);
            match owner {
                // Guards taken on a `let`'s straight line stay held for
                // the rest of the block, tagged with the binding.
                Some(name) => self.held.extend(
                    line.into_iter().filter(|(_, head)| !head).map(|(l, _)| (l, name.clone())),
                ),
                // `drop(g);` ends g's guards for the rest of the block.
                // Path-insensitive like the rest of the walk: a drop in
                // a conditional branch counts as a release, trading a
                // missed exotic bug for zero false fire on the common
                // `lock → work → drop → block` sequence.
                None => {
                    if let Some([owner]) = drop_arg(e).and_then(Expr::as_path) {
                        self.held.retain(|(_, o)| o.as_ref() != Some(owner));
                    }
                }
            }
        }
        self.held.truncate(depth);
    }

    fn scan_expr(&mut self, e: &Expr, reach: Reach) {
        let head = Reach { line: reach.line.map(|_| true), opens: false };
        match &e.kind {
            ExprKind::Block(stmts) => self.scan_block(stmts, reach.opens),
            ExprKind::Loop { body } => {
                self.loop_depth += 1;
                self.scan_block(body, reach.opens);
                self.loop_depth -= 1;
            }
            // A `while` head re-evaluates every iteration
            // (`while let Ok(v) = rx.recv()`), a `for` head once.
            ExprKind::While { cond, body } => {
                self.loop_depth += 1;
                self.scan_expr(cond, head);
                self.scan_block(body, reach.opens);
                self.loop_depth -= 1;
            }
            ExprKind::For { iter, body } => {
                self.scan_expr(iter, head);
                self.loop_depth += 1;
                self.scan_block(body, reach.opens);
                self.loop_depth -= 1;
            }
            ExprKind::If { cond, then, alt } => {
                self.scan_expr(cond, head);
                self.scan_block(then, reach.opens);
                if let Some(a) = alt {
                    self.scan_expr(a, Reach { line: None, opens: reach.opens });
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.scan_expr(scrutinee, head);
                for a in arms {
                    self.nested(a, reach.opens);
                }
            }
            ExprKind::Closure(body) => self.nested(body, reach.opens),
            _ => {
                self.record(e, reach.line);
                let mut children: Vec<&Expr> = Vec::new();
                collect_children(e, &mut children);
                for c in children {
                    self.scan_expr(c, Reach { line: reach.line, opens: false });
                }
            }
        }
    }

    /// Walk `e` as a statement of its own, on a fresh line, and return
    /// that line's acquisitions.
    fn statement(&mut self, e: &Expr) -> Vec<(String, bool)> {
        let outer = std::mem::take(&mut self.line);
        self.scan_expr(e, STMT);
        std::mem::replace(&mut self.line, outer)
    }

    /// A `match` arm or closure body: a statement of its own when its
    /// parent opens blocks.
    fn nested(&mut self, e: &Expr, opens: bool) {
        if opens {
            self.statement(e);
        } else {
            self.scan_expr(e, OFF);
        }
    }

    /// Record what one non-control-flow expression does: lock events
    /// (when it is on a `line`), channel operations, blocking sites.
    fn record(&mut self, e: &Expr, line: Option<bool>) {
        if let Some(under_head) = line {
            if let Some(name) = acquisition(e) {
                let held = self.held_now();
                if !held.is_empty() {
                    let (acquired, pos) = (name.to_string(), e.pos);
                    let note = format!("direct `.{}()` acquisition", method_of(e));
                    self.out.lock_events.push(LockEvent::Direct { held, acquired, pos, note });
                }
                self.line.push((name.to_string(), under_head));
            }
            if matches!(&e.kind, ExprKind::Call { .. } | ExprKind::MethodCall { .. }) {
                let held = self.held_now();
                if !held.is_empty() {
                    self.out.lock_events.push(LockEvent::Call { pos: e.pos, held });
                }
            }
        }
        let in_loop = self.loop_depth > 0;
        let mut chan_op = |name: &str, op| {
            self.out.chan_ops.push(ChanOp { name: name.to_string(), op, pos: e.pos, in_loop });
        };
        match &e.kind {
            ExprKind::Call { .. } => {
                if let Some(name) = drop_arg(e).and_then(Expr::chain_name) {
                    chan_op(name, ChanOpKind::Drop);
                }
            }
            ExprKind::MethodCall { recv, method, args } => {
                let op = chan_op_kind(method, args.len());
                if let (Some(op), Some(name)) = (op, recv.chain_name()) {
                    chan_op(name, op);
                    if let Some(what) = self.blocking_desc(name, method) {
                        self.out.blocking.push(Site { pos: e.pos, what });
                    }
                }
                // Thread-handle join. The zero-arg gate keeps
                // `slice::join(sep)` and friends out.
                if method == "join" && args.is_empty() {
                    self.out.blocking.push(Site { pos: e.pos, what: "`.join()`".to_string() });
                }
            }
            _ => {}
        }
    }

    /// Every guard live at this point: `let` guards, then this
    /// statement's earlier acquisitions.
    fn held_now(&self) -> Vec<String> {
        self.held.iter().map(|(l, _)| l).chain(self.line.iter().map(|(l, _)| l)).cloned().collect()
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

/// What the walk knows about a value, for its two kinds of sink. They
/// sanitise differently: a comparison, `contains` or `%` bounds a value
/// for a flow sink but leaves it a raw byte for arithmetic; a `*_len` /
/// `*_count` field, a field of a tainted value, a struct literal or an
/// `Ok`/`Some` wrapper carries a flow but is not a raw byte; and a cast
/// clears an arithmetic operand (see [`TaintWalker::raw_operand`]) but
/// never a flow.
#[derive(Debug, Clone, Default)]
struct Taint {
    /// The origin a flow sink (`taint-unchecked-flow`) reports.
    origin: Option<Origin>,
    /// Whether the value is an unsanitised `get_*` / `read_*` result
    /// (`no-unchecked-arith`).
    raw: bool,
}

struct TaintWalker<'a> {
    call_at: &'a BTreeMap<(u32, u32), usize>,
    env: BTreeMap<String, Taint>,
    /// Off beneath a binary operator: inside an operand only the
    /// arithmetic sink and the raw-byte bindings are live, not the flow
    /// sinks, call arguments, clears or discards.
    flow: bool,
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
                            if self.flow {
                                self.record_let_discard(e);
                            }
                        } else if let Some(n) = name {
                            // A `let` never forgets a raw byte, not even
                            // when it shadows the name.
                            self.rebind(n, self.taint(e), false, true);
                        }
                    }
                }
                Stmt::Expr(e, _) => {
                    self.scan_expr(e);
                    if self.flow && !last {
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

    /// Bind `name` to a value of taint `t`, keeping what it carried
    /// before where `keep_origin` / `keep_raw` say so.
    fn rebind(&mut self, name: &str, t: Taint, keep_origin: bool, keep_raw: bool) {
        let prev = self.env.remove(name).unwrap_or_default();
        let origin = match (self.flow, keep_origin) {
            (false, _) => prev.origin,
            (true, true) => t.origin.or(prev.origin),
            (true, false) => t.origin,
        };
        let raw = t.raw || (keep_raw && prev.raw);
        self.env.insert(name.to_string(), Taint { origin, raw });
    }

    /// An arithmetic operand that is a raw byte. A cast operand is the
    /// explicit widening `no-unchecked-arith` asks for.
    fn raw_operand(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Cast { .. } => false,
            ExprKind::Ref(x) | ExprKind::Try(x) => self.raw_operand(x),
            _ => self.taint(e).raw,
        }
    }

    /// Walk one expression: record sinks and tainted call arguments
    /// (pre-order, against the current environment), recurse with
    /// control-flow awareness, then apply comparison/membership clears
    /// (post-order, so a sink *inside* a comparison still fires).
    fn scan_expr(&mut self, e: &Expr) {
        if self.flow {
            self.record_sinks(e);
            self.record_call_args(e);
        }
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
            ExprKind::Binary { op, lhs, rhs } => {
                self.record_arith(e.pos, *op, &[&**lhs, &**rhs]);
                let flow = std::mem::replace(&mut self.flow, false);
                self.scan_expr(lhs);
                self.scan_expr(rhs);
                self.flow = flow;
            }
            ExprKind::Assign { target, op, value } => {
                self.scan_expr(value);
                if let Some(op) = op {
                    self.record_arith(e.pos, *op, &[&**value]);
                }
                if let ExprKind::Path(p) = &target.kind {
                    if let [name] = p.as_slice() {
                        // A compound op keeps what the target carried.
                        self.rebind(name, self.taint(value), op.is_some(), op.is_some());
                    }
                }
            }
            ExprKind::Return(x) => {
                if let Some(x) = x {
                    self.scan_expr(x);
                    if self.flow {
                        self.record_return_taint(x);
                    }
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
        if !self.flow {
            return;
        }
        // Post-order clears: a comparison or membership test is the
        // bounds check a flow sink is looking for. The value stays a raw
        // byte for arithmetic.
        let cleared: Vec<&Expr> = match &e.kind {
            ExprKind::Binary { op: BinOp::Cmp, lhs, rhs } => vec![lhs.as_ref(), rhs.as_ref()],
            ExprKind::MethodCall { method, args, .. }
                if matches!(method.as_str(), "contains" | "contains_key") =>
            {
                args.iter().collect()
            }
            _ => return,
        };
        for n in cleared.into_iter().filter_map(Expr::chain_name) {
            if let Some(t) = self.env.get_mut(n) {
                t.origin = None;
            }
        }
    }

    /// The arithmetic sink: an operator that can overflow, applied to a
    /// raw byte.
    fn record_arith(&mut self, pos: Pos, op: BinOp, operands: &[&Expr]) {
        if op.can_overflow() && operands.iter().any(|x| self.raw_operand(x)) {
            self.out.arith_sites.push(Site { pos, what: op.as_str().to_string() });
        }
    }

    /// The taint of a value expression.
    fn taint(&self, e: &Expr) -> Taint {
        let flow = |origin| Taint { origin, raw: false };
        match &e.kind {
            ExprKind::MethodCall { method, .. } => {
                if method.starts_with("get_") || method.starts_with("read_") {
                    let src = Origin::Source(format!("`.{method}()`"));
                    return Taint { origin: Some(src), raw: true };
                }
                if is_sanitizer_method(method) {
                    return Taint::default();
                }
                flow(self.call_idx(e.pos).map(Origin::Call))
            }
            ExprKind::Call { callee, args } => {
                // `Ok(x)` / `Some(x)` wrap without laundering.
                if let Some([name]) = callee.as_path() {
                    if matches!(name.as_str(), "Ok" | "Some") && args.len() == 1 {
                        return flow(self.taint(&args[0]).origin);
                    }
                }
                flow(self.call_idx(e.pos).map(Origin::Call))
            }
            ExprKind::Path(p) => match p.as_slice() {
                [name] => self.env.get(name).cloned().unwrap_or_default(),
                _ => Taint::default(),
            },
            ExprKind::Field { base, name } => {
                if name.ends_with("_len") || name.ends_with("_count") {
                    return flow(Some(Origin::Source(format!("`.{name}` field"))));
                }
                flow(self.taint(base).origin)
            }
            // Casts do NOT sanitize a flow: `len as usize` still carries
            // an attacker-chosen magnitude into a capacity or index.
            ExprKind::Try(x)
            | ExprKind::Unary(x)
            | ExprKind::Ref(x)
            | ExprKind::Cast { expr: x, .. } => self.taint(x),
            ExprKind::Binary { op, lhs, rhs } => {
                let (l, r) = (self.taint(lhs), self.taint(rhs));
                // Comparison yields a bool; `%`, `&&`, `||` bound or
                // consume the value.
                let bounded = matches!(op, BinOp::Cmp | BinOp::And | BinOp::Or | BinOp::Rem);
                let origin = if bounded { None } else { l.origin.or(r.origin) };
                Taint { origin, raw: l.raw || r.raw }
            }
            ExprKind::Index { base, .. } => self.taint(base),
            ExprKind::Struct { fields, .. } => {
                flow(fields.iter().find_map(|f| self.taint(f).origin))
            }
            _ => Taint::default(),
        }
    }

    /// The flow origin of a value expression, if any.
    fn origin(&self, e: &Expr) -> Option<Origin> {
        self.taint(e).origin
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
                if let Some(o) = self.origin(index) {
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
                    if let Some(o) = self.origin(arg0) {
                        let sink = format!("`.{method}(…)`");
                        self.record_sink(o, e.pos, &sink);
                    }
                }
            }
            ExprKind::Call { callee, args } => {
                if let Some([.., ty, ctor]) = callee.as_path() {
                    if ctor == "with_capacity" {
                        if let Some(arg0) = args.first() {
                            if let Some(o) = self.origin(arg0) {
                                let sink = format!("`{ty}::with_capacity(…)`");
                                self.record_sink(o, e.pos, &sink);
                            }
                        }
                    }
                }
            }
            ExprKind::MacroCall { name, args } if name == "vec" && args.len() == 2 => {
                if let Some(o) = self.origin(&args[1]) {
                    self.record_sink(o, e.pos, "`vec![…; n]` length");
                }
            }
            ExprKind::For { iter, .. } => {
                if let ExprKind::Range { hi: Some(h), .. } = &iter.kind {
                    if let Some(o) = self.origin(h) {
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
            match self.origin(a) {
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
        match self.origin(e) {
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
             }\n\
             fn g(&self, m: &M) {\n\
             \x20   let (tx, rx) = mpsc::sync_channel(1);\n\
             \x20   let g = m.lock();\n\
             \x20   {\n\
             \x20       let h = self.inner.lock();\n\
             \x20       tx.send(1);\n\
             \x20   }\n\
             \x20   rx.recv();\n\
             \x20   drop(g);\n\
             \x20   rx.recv();\n\
             } }\n",
        );
        let f = only_fn(&s, "f");
        // `.lock()` sites also appear as Call events (they are method
        // calls, and a resolvable callee's transitive locks order after
        // the guard just taken).
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

        // One walk yields `g`'s guard events, channel operations and
        // blocking sites, each in statement order: the nested block's
        // guard dies at its brace, and after `drop(g)` the last `recv`
        // runs guard-free.
        let g = only_fn(&s, "g");
        let events: Vec<String> = g
            .lock_events
            .iter()
            .map(|e| match e {
                LockEvent::Direct { held, acquired, pos, .. } => {
                    format!("{}:{}+{acquired}", pos.line, held.join(","))
                }
                LockEvent::Call { pos, held } => format!("{}:{}", pos.line, held.join(",")),
            })
            .collect();
        assert_eq!(events, ["7:m", "9:m+inner", "9:m,inner", "10:m,inner", "12:m", "13:m"]);
        let ops: Vec<String> =
            g.chan_ops.iter().map(|o| format!("{}:{:?} {}", o.pos.line, o.op, o.name)).collect();
        assert_eq!(ops, ["10:Send tx", "12:Recv rx", "13:Drop g", "14:Recv rx"]);
        let blocking: Vec<u32> = g.blocking.iter().map(|b| b.pos.line).collect();
        assert_eq!(blocking, [10, 12, 14]);
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
        let ops: Vec<(&str, ChanOpKind, bool)> =
            f.chan_ops.iter().map(|o| (o.name.as_str(), o.op, o.in_loop)).collect();
        assert_eq!(
            ops,
            vec![
                ("tx", ChanOpKind::Send, false),
                ("rx", ChanOpKind::Recv, true),
                ("etx", ChanOpKind::Send, true),
                ("erx", ChanOpKind::Drop, false),
            ],
            "ops: {:?}",
            f.chan_ops
        );
        // Blocking: the bounded send and the recv (join has its own
        // test below); `etx.send` is unbounded and does not block.
        let what: Vec<&str> = f.blocking.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(what, vec!["`.send(…)` on a bounded channel", "`.recv()`"]);
        // The same walk saw the guard: the `while let` head's `recv`, the
        // send in its body and the `drop` all run under `m`, and the
        // bounded send before the `let` runs guard-free.
        let guarded: Vec<(u32, u32)> = f
            .lock_events
            .iter()
            .filter_map(|e| match e {
                LockEvent::Call { pos, held } if held == &["m"] => Some((pos.line, pos.col)),
                _ => None,
            })
            .collect();
        assert_eq!(guarded, vec![(5, 15), (6, 26), (6, 39), (7, 5)], "{:?}", f.lock_events);
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
