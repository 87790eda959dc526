//! The workspace-level (interprocedural + dataflow) analyses — the
//! **link phase** of the pipeline. Per-file facts are extracted into
//! [`crate::summaries::FileSummary`] records by the AST walkers;
//! everything here works purely over those summaries plus the
//! [`crate::symbols`] table and [`crate::callgraph`] built from them.
//!
//! - **`no-panic-hot-path` (v2)** — panic sites (`unwrap` / `expect` /
//!   `panic!` / `todo!` / `unimplemented!` / index-then-`clone`) flagged
//!   only in functions reachable from a `// vdsms-lint: entry` function;
//!   every diagnostic names the call chain from the entry point.
//! - **`no-alloc-hot-path`** — heap-allocating operations on the same
//!   hot set: growth methods (`push`, `insert`, `extend`, `collect`,
//!   `to_vec`, `clone`, …), allocating constructors
//!   (`Vec::with_capacity`, `Box::new`, `String::from`) and macros
//!   (`vec!`, `format!`). Capacity-zero constructors (`Vec::new`,
//!   `String::new`, `BTreeMap::new`) are exempt — they are
//!   allocation-free by std's documented guarantee, so flagging them
//!   would only breed no-op `allow`s; the growth calls that actually
//!   allocate are where the rule bites.
//! - **`lock-order`** — a static lock-acquisition graph: an edge A → B
//!   is recorded whenever lock B is acquired (directly or via a callee,
//!   by transitive summary) while a guard on A is held. Any cycle is a
//!   deadlock hazard; the diagnostic prints both witness chains.
//! - **`no-unchecked-arith`** — local taint, the arithmetic sink of the
//!   untrusted-byte taint walk: values from `get_*` / `read_*` method
//!   calls (untrusted stream bytes) flow through let-bindings; `+ - * <<`
//!   on a tainted operand is flagged unless the operand is itself an
//!   explicit cast or passed through a call boundary
//!   (`u64::from(b)` widens; `wrapping_*` / `checked_*` /
//!   `saturating_*` are method calls, not bare operators, so they pass).
//! - **`float-determinism`** — `partial_cmp` in production code: its
//!   `Option` forces `unwrap`-or-fallback on NaN and its NaN behaviour
//!   is order-unstable; detection scoring must use `total_cmp` or
//!   integer keys.
//! - **`taint-unchecked-flow` (v3)** — interprocedural untrusted-byte
//!   taint: sources are `read_*` / `get_*` reads and `*_len` / `*_count`
//!   payload fields; sinks are slice indexing, capacity reservation and
//!   loop bounds. Flows are tracked through call returns (a bounded
//!   returns-taint fixpoint) and call arguments (a parameter-sink
//!   fixpoint), and each diagnostic prints the witness call chain.
//! - **`loop-progress` (v3)** — `while` / `loop` bodies reachable from
//!   an entry marker must contain a progress witness (cursor advance,
//!   drain call, or counter update); a malformed stream must never spin
//!   a recovery loop forever.
//! - **`no-swallowed-error` (v3)** — `let _ = …` / statement-level
//!   `.ok()` on a call whose resolved callee returns `Result` (channel
//!   send/recv flagged unconditionally): error paths must be handled or
//!   carry a reasoned `allow`.
//! - **`guard-across-blocking` (v4)** — a lock guard live across
//!   `.recv()`, `.join()` or a bounded-channel `send` — directly, or
//!   through a call whose resolved callee transitively blocks (bounded
//!   fixpoint over the call graph, witness chain printed). The deadlock
//!   shape `lock-order` cannot see: one lock plus one channel.
//! - **`channel-protocol` (v4)** — mpsc misuse replayed against each
//!   function's channel binds: a send after the receiver was dropped,
//!   and a one-shot reply `sync_channel(1)` sent more than once or in a
//!   loop.

use crate::ast::Pos;
use crate::callgraph::{transitive_union, CallGraph, Reachability};
use crate::config::RuleSet;
use crate::diag::Diagnostic;
use crate::rules::{
    CHANNEL_PROTOCOL, FLOAT_DET, GUARD_BLOCKING, LOCK_ORDER, LOOP_PROGRESS, NO_ALLOC, NO_PANIC,
    NO_SWALLOWED_ERROR, NO_UNCHECKED_ARITH, TAINT_FLOW,
};
use crate::summaries::{CallRef, ChanOpKind, FileSummary, LockEvent, TaintSrc};
use crate::symbols::SymbolTable;
use crate::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Run every workspace analysis over pre-extracted summaries.
/// `files[i]`, `summaries[i]` and `rules[i]` (the rule set of the file's
/// crate) correspond; diagnostics are raw (suppressions are applied by
/// the driver).
pub fn analyze(
    files: &[SourceFile],
    summaries: &[FileSummary],
    rules: &[RuleSet],
) -> Vec<Diagnostic> {
    let symbols = SymbolTable::build(files, summaries);
    let (graph, resolved) = CallGraph::build(&symbols);
    // Each hot-path rule gets its own hot set: bare `entry` markers seed
    // all of them, `entry(rule)` markers only the named rule (batch-
    // evaluation entries are panic-checked without dragging their
    // working-set allocations into `no-alloc-hot-path`).
    let reach_panic = Reachability::from_entries_for(&symbols, &graph, NO_PANIC);
    let reach_alloc = Reachability::from_entries_for(&symbols, &graph, NO_ALLOC);
    let reach_progress = Reachability::from_entries_for(&symbols, &graph, LOOP_PROGRESS);

    let mut diags = Vec::new();
    let mut ctx = Ctx { files, symbols: &symbols, rules, diags: &mut diags };

    hot_path_rules(&mut ctx, &reach_panic, &reach_alloc);
    lock_order(&mut ctx, &graph);
    unchecked_arith(&mut ctx);
    float_determinism(&mut ctx);
    taint_flow(&mut ctx, &resolved);
    loop_progress(&mut ctx, &reach_progress);
    swallowed_errors(&mut ctx, &resolved);
    guard_across_blocking(&mut ctx, &graph);
    channel_protocol(&mut ctx);
    diags
}

struct Ctx<'a> {
    files: &'a [SourceFile],
    symbols: &'a SymbolTable<'a>,
    rules: &'a [RuleSet],
    diags: &'a mut Vec<Diagnostic>,
}

impl Ctx<'_> {
    fn enabled(&self, file: usize, rule: &str) -> bool {
        self.rules[file].enabled(rule)
    }

    fn emit(&mut self, rule: &str, file: usize, pos: Pos, message: String) {
        self.diags.push(self.files[file].diagnostic(rule, pos.line, pos.col, message));
    }
}

// ---------------------------------------------------------------------
// no-panic-hot-path / no-alloc-hot-path
// ---------------------------------------------------------------------

fn hot_path_rules(ctx: &mut Ctx<'_>, reach_panic: &Reachability, reach_alloc: &Reachability) {
    for f in &ctx.symbols.fns {
        if f.def.is_test {
            continue;
        }
        let check_panic = reach_panic.hot[f.id] && ctx.enabled(f.file, NO_PANIC);
        let check_alloc = reach_alloc.hot[f.id] && ctx.enabled(f.file, NO_ALLOC);
        if !check_panic && !check_alloc {
            continue;
        }
        let mut sites: Vec<(&str, Pos, &str)> = Vec::new();
        if check_panic {
            sites.extend(f.def.panic_sites.iter().map(|s| (NO_PANIC, s.pos, s.what.as_str())));
        }
        if check_alloc {
            sites.extend(f.def.alloc_sites.iter().map(|s| (NO_ALLOC, s.pos, s.what.as_str())));
        }
        // The summary keeps the two site lists separately; restore the
        // single-walk emission order (source position, panic before
        // alloc at a tie) so diagnostics stay byte-identical to v2.
        sites.sort_by_key(|(rule, pos, _)| (pos.line, pos.col, *rule != NO_PANIC));
        for (rule, pos, what) in sites {
            let (verb, reach) = if rule == NO_PANIC {
                ("can panic", reach_panic)
            } else {
                ("allocates", reach_alloc)
            };
            let chain = reach.chain_names(ctx.symbols, f.id);
            ctx.emit(
                rule,
                f.file,
                pos,
                format!("{what} {verb} on the steady-state hot path `{chain}`"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

/// One acquisition edge witness: where lock `to` was acquired while
/// `from` was held.
#[derive(Debug, Clone)]
struct EdgeWitness {
    file: usize,
    pos: Pos,
    fn_name: String,
    note: String,
}

fn lock_order(ctx: &mut Ctx<'_>, graph: &CallGraph) {
    // Per-function direct acquisitions (for transitive summaries) and
    // ordered edges with witnesses.
    let n = ctx.symbols.fns.len();
    let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, LOCK_ORDER) {
            continue;
        }
        direct[f.id] = f.def.direct_locks.iter().cloned().collect();
    }
    let trans = transitive_union(graph, &direct);

    // Edge map: (held, acquired) -> first witness. Replaying the
    // summaries' ordered event lists in function order preserves the
    // first-witness-wins semantics of the original interleaved walk.
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, LOCK_ORDER) {
            continue;
        }
        for event in &f.def.lock_events {
            match event {
                LockEvent::Direct { held, acquired, pos, note } => {
                    for h in held {
                        if h != acquired {
                            edges.entry((h.clone(), acquired.clone())).or_insert_with(|| {
                                EdgeWitness {
                                    file: f.file,
                                    pos: *pos,
                                    fn_name: f.qual_name(),
                                    note: note.clone(),
                                }
                            });
                        }
                    }
                }
                LockEvent::Call { pos, held } => {
                    // Everything the callee may acquire is acquired
                    // while our guards are held. Matching resolved call
                    // sites by position mirrors the v2 walk exactly
                    // (including its dedup-by-callee site list).
                    for site in &graph.edges[f.id] {
                        if site.pos != *pos {
                            continue;
                        }
                        let callee = &ctx.symbols.fns[site.callee];
                        for lock in &trans[site.callee] {
                            for h in held {
                                if h != lock {
                                    edges.entry((h.clone(), lock.clone())).or_insert_with(|| {
                                        EdgeWitness {
                                            file: f.file,
                                            pos: *pos,
                                            fn_name: f.qual_name(),
                                            note: format!(
                                                "via call to `{}` which acquires `{lock}`",
                                                callee.qual_name()
                                            ),
                                        }
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over the lock graph.
    let adj: BTreeMap<&str, Vec<&str>> = {
        let mut m: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            m.entry(from).or_default().push(to);
        }
        m
    };
    let reachable = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if seen.insert(x) {
                if let Some(next) = adj.get(x) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    let keys: Vec<(String, String)> = edges.keys().cloned().collect();
    for (a, b) in keys {
        if a == b {
            continue; // self-edge: re-acquisition, not an order cycle
        }
        if !reachable(&b, &a) {
            continue;
        }
        let pair = if a < b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
        if !reported.insert(pair) {
            continue;
        }
        let w_ab = &edges[&(a.clone(), b.clone())];
        let back = edges
            .get(&(b.clone(), a.clone()))
            .cloned()
            .or_else(|| {
                // Longer cycle: find the first edge out of `b` on a path
                // back to `a` for the counter-witness.
                edges
                    .iter()
                    .find(|((from, to), _)| from == &b && reachable(to, &a))
                    .map(|(_, w)| w.clone())
            });
        let counter = match &back {
            Some(w) => format!(
                "counter-witness: `{}` acquires `{}` while holding `{}` at {}:{}:{}",
                w.fn_name,
                a,
                b,
                ctx.files[w.file].path,
                w.pos.line,
                w.pos.col
            ),
            None => "counter-witness chain spans multiple functions".to_string(),
        };
        let msg = format!(
            "lock-order cycle between `{a}` and `{b}`: `{}` acquires `{b}` while holding `{a}` ({}); {counter} — a concurrent interleaving deadlocks",
            w_ab.fn_name, w_ab.note,
        );
        let (file, pos) = (w_ab.file, w_ab.pos);
        ctx.emit(LOCK_ORDER, file, pos, msg);
    }
}

// ---------------------------------------------------------------------
// no-unchecked-arith
// ---------------------------------------------------------------------

fn unchecked_arith(ctx: &mut Ctx<'_>) {
    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, NO_UNCHECKED_ARITH) {
            continue;
        }
        for site in &f.def.arith_sites {
            let msg = format!(
                "unchecked `{}` on a value derived from untrusted stream bytes in `{}`; use `wrapping_*`/`checked_*`/`saturating_*` or widen first (`u64::from(…)` / `as u64`)",
                site.what,
                f.qual_name()
            );
            ctx.emit(NO_UNCHECKED_ARITH, f.file, site.pos, msg);
        }
    }
}

// ---------------------------------------------------------------------
// float-determinism
// ---------------------------------------------------------------------

fn float_determinism(ctx: &mut Ctx<'_>) {
    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, FLOAT_DET) {
            continue;
        }
        for pos in &f.def.float_sites {
            let msg = format!(
                "`partial_cmp` in `{}` is NaN-unstable (returns `None`, tempting `unwrap`, and orders NaN inconsistently); use `f64::total_cmp` / `f32::total_cmp` or compare integer keys",
                f.qual_name()
            );
            ctx.emit(FLOAT_DET, f.file, *pos, msg);
        }
    }
}

// ---------------------------------------------------------------------
// taint-unchecked-flow
// ---------------------------------------------------------------------

/// The argument index a caller's positional argument maps to in the
/// callee's parameter list: method callees with a `self` receiver shift
/// positional parameters by one.
fn callee_param_index(cr: &CallRef, callee_has_self: bool, arg: usize) -> usize {
    match cr {
        CallRef::Method { .. } if callee_has_self => arg + 1,
        _ => arg,
    }
}

fn taint_flow(ctx: &mut Ctx<'_>, resolved: &[Vec<Vec<usize>>]) {
    let n = ctx.symbols.fns.len();

    // Fixpoint 1: which functions return untrusted values. Seeded by
    // direct `return source` summaries, propagated through call returns
    // (`fn a() -> u32 { b() }` is tainted when `b` is). Bounded by the
    // function count — each round grows the set or the loop stops.
    let mut rt: Vec<bool> = ctx.symbols.fns.iter().map(|f| f.def.returns_taint).collect();
    for _ in 0..=n {
        let mut changed = false;
        for f in &ctx.symbols.fns {
            if rt[f.id] {
                continue;
            }
            let taints = f
                .def
                .taint_return_calls
                .iter()
                .any(|&ci| resolved[f.id][ci].iter().any(|&c| rt[c]));
            if taints {
                rt[f.id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Fixpoint 2: which parameters reach a sink, with a witness chain.
    // `psinks[f][p]` = (sink description, qualified call chain from `f`
    // down to the sink). Seeded by intra-function parameter sinks,
    // propagated backwards through parameter forwarding.
    let mut psinks: Vec<BTreeMap<usize, (String, String)>> = vec![BTreeMap::new(); n];
    for f in &ctx.symbols.fns {
        for ps in &f.def.param_sinks {
            psinks[f.id].entry(ps.param).or_insert((ps.sink.clone(), f.qual_name()));
        }
    }
    for _ in 0..=n {
        let mut changed = false;
        for f in &ctx.symbols.fns {
            for pkc in &f.def.param_sink_calls {
                if psinks[f.id].contains_key(&pkc.param) {
                    continue;
                }
                let cr = &f.def.calls[pkc.call];
                let hit = resolved[f.id][pkc.call].iter().find_map(|&c| {
                    let idx = callee_param_index(
                        cr,
                        ctx.symbols.fns[c].def.has_self_param,
                        pkc.callee_param,
                    );
                    psinks[c].get(&idx).cloned()
                });
                if let Some((sink, chain)) = hit {
                    let chain = format!("{} → {chain}", f.qual_name());
                    psinks[f.id].insert(pkc.param, (sink, chain));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Emission. All three flow kinds share one message shape so the
    // remedy reads the same wherever the flow was cut.
    let mut found: Vec<(usize, Pos, String, String, String)> = Vec::new();
    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, TAINT_FLOW) {
            continue;
        }
        // Source and sink in the same function.
        for tl in &f.def.taint_locals {
            found.push((f.file, tl.pos, tl.src.clone(), tl.sink.clone(), f.qual_name()));
        }
        // Sink fed by a call whose resolved callee returns taint.
        for tc in &f.def.taint_call_flows {
            let Some(&callee) = resolved[f.id][tc.call].iter().find(|&&c| rt[c]) else {
                continue;
            };
            let callee_q = ctx.symbols.fns[callee].qual_name();
            found.push((
                f.file,
                tc.pos,
                format!("the return of `{callee_q}`"),
                tc.sink.clone(),
                format!("{} → {callee_q}", f.qual_name()),
            ));
        }
        // Tainted argument handed to a callee whose parameter reaches a
        // sink (possibly through further forwarding).
        for ta in &f.def.tainted_args {
            let src = match &ta.src {
                TaintSrc::Direct(s) => s.clone(),
                TaintSrc::FromCall(j) => {
                    let Some(&c) = resolved[f.id][*j].iter().find(|&&c| rt[c]) else {
                        continue;
                    };
                    format!("the return of `{}`", ctx.symbols.fns[c].qual_name())
                }
            };
            let cr = &f.def.calls[ta.call];
            let hit = resolved[f.id][ta.call].iter().find_map(|&c| {
                let idx =
                    callee_param_index(cr, ctx.symbols.fns[c].def.has_self_param, ta.arg);
                psinks[c].get(&idx).cloned()
            });
            if let Some((sink, chain)) = hit {
                found.push((f.file, ta.pos, src, sink, format!("{} → {chain}", f.qual_name())));
            }
        }
    }
    for (file, pos, src, sink, chain) in found {
        let msg = format!(
            "untrusted value from {src} flows into {sink} with no bounds check on the way (flow: `{chain}`); bound it with an explicit comparison or `try_from`/`checked_*` first"
        );
        ctx.emit(TAINT_FLOW, file, pos, msg);
    }
}

// ---------------------------------------------------------------------
// loop-progress
// ---------------------------------------------------------------------

fn loop_progress(ctx: &mut Ctx<'_>, reach: &Reachability) {
    for f in &ctx.symbols.fns {
        if f.def.is_test || !reach.hot[f.id] || !ctx.enabled(f.file, LOOP_PROGRESS) {
            continue;
        }
        for site in &f.def.stalled_loops {
            let chain = reach.chain_names(ctx.symbols, f.id);
            let msg = format!(
                "`{}` loop without a progress witness on the hot path `{chain}`: no cursor advance, drain call or counter update found, so a malformed stream can spin it forever; advance a cursor every iteration or bound the loop",
                site.what
            );
            ctx.emit(LOOP_PROGRESS, f.file, site.pos, msg);
        }
    }
}

// ---------------------------------------------------------------------
// no-swallowed-error
// ---------------------------------------------------------------------

fn swallowed_errors(ctx: &mut Ctx<'_>, resolved: &[Vec<Vec<usize>>]) {
    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, NO_SWALLOWED_ERROR) {
            continue;
        }
        for d in &f.def.discards {
            let judged = match d.call {
                // Channel send/recv: the `Result` is the disconnect
                // signal; discarding it is never benign.
                None => Some(format!(
                    "discarded `Result` of {} in `{}`: a channel error means the peer hung up, and ignoring it turns shutdown into a hang",
                    d.what,
                    f.qual_name()
                )),
                Some(ci) => resolved[f.id][ci]
                    .iter()
                    .find(|&&c| ctx.symbols.fns[c].def.returns_result)
                    .map(|&c| {
                        format!(
                            "discarded `Result` of {} in `{}`: `{}` can fail, and this swallows the error path",
                            d.what,
                            f.qual_name(),
                            ctx.symbols.fns[c].qual_name()
                        )
                    }),
            };
            if let Some(msg) = judged {
                let msg = format!(
                    "{msg}; handle the error or suppress with a reasoned `allow({NO_SWALLOWED_ERROR})`"
                );
                ctx.emit(NO_SWALLOWED_ERROR, f.file, d.pos, msg);
            }
        }
    }
}

// ---------------------------------------------------------------------
// guard-across-blocking
// ---------------------------------------------------------------------

fn guard_across_blocking(ctx: &mut Ctx<'_>, graph: &CallGraph) {
    let n = ctx.symbols.fns.len();
    // Fixpoint: does calling this function park the thread, and on
    // what? Seeded by each function's first direct blocking site
    // (`.recv()`, `.join()`, bounded-channel send); propagated through
    // resolved call edges so a guard held across `helper()` is flagged
    // when `helper` eventually blocks. Each entry keeps the rendered
    // blocking operation plus the qualified witness chain down to it.
    let mut blocks: Vec<Option<(String, String)>> = vec![None; n];
    for f in &ctx.symbols.fns {
        if let Some(site) = f.def.blocking.first() {
            blocks[f.id] = Some((site.what.clone(), f.qual_name()));
        }
    }
    for _ in 0..=n {
        let mut changed = false;
        for f in &ctx.symbols.fns {
            if blocks[f.id].is_some() {
                continue;
            }
            let hit = graph.edges[f.id].iter().find_map(|site| blocks[site.callee].clone());
            if let Some((what, chain)) = hit {
                blocks[f.id] = Some((what, format!("{} → {chain}", f.qual_name())));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, GUARD_BLOCKING) {
            continue;
        }
        // One finding per call position: the same site can match both a
        // direct blocking summary and a resolved callee; direct wins.
        let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new();
        for event in &f.def.lock_events {
            let LockEvent::Call { pos, held } = event else { continue };
            if held.is_empty() || reported.contains(&(pos.line, pos.col)) {
                continue;
            }
            let guards = held.join("`, `");
            let msg = if let Some(site) = f.def.blocking.iter().find(|s| s.pos == *pos) {
                Some(format!(
                    "lock guard on `{guards}` is held across {} in `{}`: the thread parks while holding the lock, and any thread that must take `{guards}` to make the operation ready deadlocks; drop the guard (scope it or `drop(…)`) before blocking",
                    site.what,
                    f.qual_name(),
                ))
            } else {
                graph
                    .edges[f.id]
                    .iter()
                    .filter(|site| site.pos == *pos)
                    .find_map(|site| blocks[site.callee].as_ref())
                    .map(|(what, chain)| {
                        format!(
                            "lock guard on `{guards}` is held across a call that blocks on {what} (witness: `{} → {chain}`): the thread parks while holding the lock, and any thread that must take `{guards}` to make the operation ready deadlocks; drop the guard before the call",
                            f.qual_name(),
                        )
                    })
            };
            if let Some(msg) = msg {
                reported.insert((pos.line, pos.col));
                ctx.emit(GUARD_BLOCKING, f.file, *pos, msg);
            }
        }
    }
}

// ---------------------------------------------------------------------
// channel-protocol
// ---------------------------------------------------------------------

/// A discarded statement-position `tx.send(v);` is not a shape here:
/// rustc's `unused_must_use` rejects it under `-D warnings`.
fn channel_protocol(ctx: &mut Ctx<'_>) {
    for f in &ctx.symbols.fns {
        if f.def.is_test || !ctx.enabled(f.file, CHANNEL_PROTOCOL) {
            continue;
        }
        for bind in &f.def.channels {
            // (a) a one-shot reply channel — `sync_channel(1)` — must
            // send at most once; a second send blocks until the peer
            // drains the first, which a reply protocol never does.
            if bind.sync && bind.cap == Some(1) {
                let sends: Vec<_> = f
                    .def
                    .chan_ops
                    .iter()
                    .filter(|op| op.op == ChanOpKind::Send && op.name == bind.tx)
                    .collect();
                if let Some(looped) = sends.iter().find(|op| op.in_loop) {
                    let msg = format!(
                        "`{}` is a one-shot reply channel (`sync_channel(1)` bound at line {}) but is sent inside a loop in `{}`: the second iteration blocks forever once the receiver has taken its single reply; use a fresh reply channel per request or widen the bound",
                        bind.tx,
                        bind.pos.line,
                        f.qual_name(),
                    );
                    ctx.emit(CHANNEL_PROTOCOL, f.file, looped.pos, msg);
                } else if sends.len() > 1 {
                    let msg = format!(
                        "`{}` is a one-shot reply channel (`sync_channel(1)` bound at line {}) but is sent {} times in `{}`: the second send blocks forever once the receiver has taken its single reply; use a fresh reply channel per request or widen the bound",
                        bind.tx,
                        bind.pos.line,
                        sends.len(),
                        f.qual_name(),
                    );
                    ctx.emit(CHANNEL_PROTOCOL, f.file, sends[1].pos, msg);
                }
            }
            // (b) a send sequenced after the paired receiver was
            // dropped can only return `Err(SendError)`.
            if let Some(di) = f
                .def
                .chan_ops
                .iter()
                .position(|op| op.op == ChanOpKind::Drop && op.name == bind.rx)
            {
                let drop_line = f.def.chan_ops[di].pos.line;
                if let Some(late) = f.def.chan_ops[di + 1..]
                    .iter()
                    .find(|op| op.op == ChanOpKind::Send && op.name == bind.tx)
                {
                    let msg = format!(
                        "`{}.send(…)` in `{}` after its receiver `{}` was dropped at line {drop_line}: every send from here on returns `Err(SendError)` and the value is lost; send before dropping the receiver, or drop the sender instead",
                        bind.tx,
                        f.qual_name(),
                        bind.rx,
                    );
                    ctx.emit(CHANNEL_PROTOCOL, f.file, late.pos, msg);
                }
            }
        }
    }
}
