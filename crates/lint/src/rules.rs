//! The per-file token rules, the rule registry (ids + explanations),
//! and inline-suppression handling.
//!
//! ## Rule catalog
//!
//! Per-file token rule (this module):
//!
//! | id | guards against |
//! |---|---|
//! | `unsafe-audit` | crate roots missing `#![forbid(unsafe_code)]` |
//!
//! No wall-clock reads, no hash-order iteration, no `std::sync` locks,
//! no `partial_cmp` and no undocumented `unsafe` block are clippy's to
//! enforce: the `clippy.toml` files' `disallowed-methods` /
//! `disallowed-types` lists and `clippy::undocumented_unsafe_blocks`.
//!
//! Workspace analyses (AST + call graph + dataflow, in [`crate::flow`]):
//!
//! | id | guards against |
//! |---|---|
//! | `no-panic-hot-path` | panic sites reachable from a `// vdsms-lint: entry` function — diagnostics name the call chain |
//! | `no-alloc-hot-path` | heap allocation on the same hot set (growth methods, allocating constructors, `vec!` / `format!`) |
//! | `lock-order` | cycles in the static lock-acquisition graph (deadlock hazard) — both witness chains reported |
//! | `no-unchecked-arith` | bare `+ - * <<` on values tainted by `get_*` / `read_*` stream reads (codec paths) |
//! | `taint-unchecked-flow` | untrusted bytes/lengths reaching slice indexing, capacity reservation or loop bounds with no bounds check — interprocedural, with witness chains |
//! | `loop-progress` | `while`/`loop` loops on hot or recovery paths with no provably advancing cursor (livelock hazard) |
//! | `no-swallowed-error` | `Result`s discarded via `let _ =` or statement-`.ok()` without a reasoned `allow` |
//! | `guard-across-blocking` | lock guards held across `.recv()`, zero-arg `.join()`, bounded-channel `send` or any transitively-blocking call (deadlock shape `lock-order` can't see) |
//! | `channel-protocol` | channel misuse: send after the receiver was dropped, a one-shot reply `sync_channel(1)` sent more than once or in a loop (a bare-statement `send` whose `Result` vanishes is rustc's `unused_must_use`) |
//!
//! A finding on a given line is suppressed by an inline directive on the
//! same line or the line above:
//!
//! ```text
//! // vdsms-lint: allow(rule-id) reason="why this occurrence is sound"
//! ```
//!
//! The reason is mandatory; a directive without one is itself reported
//! (rule `invalid-suppression`, which cannot be suppressed), and so is a
//! well-formed `allow` that silences nothing — a dead directive hides no
//! finding today and would hide a real one tomorrow. The only other
//! directive is `// vdsms-lint: entry`, which marks the function
//! below it as a hot-path entry point; the scoped form
//! `entry(no-panic-hot-path)` seeds only the named hot-path rule, for
//! entries (batch evaluation, report generation) that must not panic
//! but are allowed to allocate.

use crate::config::{RuleSet, KNOWN_KEYS};
use crate::diag::Diagnostic;
use crate::lexer::{Comment, LexedFile};
use crate::SourceFile;

/// Rule id: panic sites on the interprocedural hot path.
pub const NO_PANIC: &str = "no-panic-hot-path";
/// Rule id: heap allocation on the interprocedural hot path.
pub const NO_ALLOC: &str = "no-alloc-hot-path";
/// Rule id: lock-acquisition-order cycles (deadlock hazard).
pub const LOCK_ORDER: &str = "lock-order";
/// Rule id: unchecked arithmetic on untrusted stream bytes.
pub const NO_UNCHECKED_ARITH: &str = "no-unchecked-arith";
/// Rule id: untrusted stream bytes reaching index/capacity/bound sinks.
pub const TAINT_FLOW: &str = "taint-unchecked-flow";
/// Rule id: hot-path loops must provably advance a cursor.
pub const LOOP_PROGRESS: &str = "loop-progress";
/// Rule id: silently discarded `Result`s.
pub const NO_SWALLOWED_ERROR: &str = "no-swallowed-error";
/// Rule id: crate roots must forbid unsafe.
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
/// Rule id: no lock guard held across a blocking operation.
pub const GUARD_BLOCKING: &str = "guard-across-blocking";
/// Rule id: channel endpoint protocol violations.
pub const CHANNEL_PROTOCOL: &str = "channel-protocol";
/// Rule id: malformed suppression directives (not suppressible).
pub const INVALID_SUPPRESSION: &str = "invalid-suppression";

/// One registered rule with its operator-facing explanation
/// (`vdsms-lint --explain <id>`).
pub struct RuleInfo {
    /// Rule id as used in `lint.toml` and `allow(…)`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists (tied to the paper's continuous-monitoring
    /// guarantee or the workspace's determinism contract).
    pub rationale: &'static str,
    /// A bad → good example.
    pub example: &'static str,
    /// How to silence a legitimate occurrence.
    pub suppression: &'static str,
}

/// Every registered rule, in catalog order.
pub fn registry() -> &'static [RuleInfo] {
    const SUPPRESS: &str = "// vdsms-lint: allow(<rule>) reason=\"…\" on the line above (reason mandatory)";
    &[
        RuleInfo {
            id: NO_PANIC,
            summary: "no panic sites reachable from a streaming entry point",
            rationale: "The VDSMS must monitor broadcast streams continuously (Yan/Ooi/Zhou, ICDE 2008, §VI); a panic anywhere on the per-keyframe path is an outage. 'Hot' is computed, not declared: every function reachable in the workspace call graph from a `// vdsms-lint: entry` function (Detector::push_keyframe, the shard worker batch loop) is checked for `.unwrap()`, `.expect()`, `panic!`, `todo!`, `unimplemented!` and index-then-`.clone()`. Diagnostics print the call chain from the entry point.",
            example: "bad:  let sig = rel.sig_for(q).unwrap();\ngood: let Some(sig) = rel.sig_for(q) else { continue };",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: NO_ALLOC,
            summary: "no heap allocation on the steady-state hot path",
            rationale: "Sustained throughput requires the per-keyframe loop to run in pre-allocated scratch space: growth methods (push/insert/extend/collect/to_vec/clone/…), allocating constructors (Vec::with_capacity, Box::new, String::from) and macros (vec!, format!) are flagged in every hot-path function. Capacity-zero constructors (Vec::new, String::new, BTreeMap::new) are exempt: std guarantees they do not allocate, so the growth call is the site that matters. Amortized growth into a buffer whose capacity is reserved up front is legitimate — say so in an allow reason.",
            example: "bad:  let related = rel.related().to_vec();\ngood: for i in 0..rel.related_len() { let (q, n) = rel.related_at(i); … }",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: LOCK_ORDER,
            summary: "no cycles in the lock-acquisition order",
            rationale: "Two threads acquiring the same two locks in opposite orders deadlock under the right interleaving — and a deadlocked shard silently stops monitoring its streams. The analysis builds the static lock graph (an edge A → B whenever B is acquired — directly or via any callee, by transitive summary — while a guard on A is held) and reports every cycle with both witness chains. Fix by choosing one global acquisition order or narrowing the first guard's scope.",
            example: "bad:  thread 1: sink.lock() then stats.write(); thread 2: stats.write() then sink.lock()\ngood: both threads: sink before stats, always",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: NO_UNCHECKED_ARITH,
            summary: "no bare arithmetic on untrusted stream bytes",
            rationale: "Codec inputs are attacker-controlled: a crafted varint or header must not overflow its way into a wrong length or a debug-build panic. Values returned by get_*/read_* methods are tainted (flowing through let-bindings); a bare + - * << on a tainted operand is flagged unless the operand passed through an explicit widening cast (as u64), a conversion call (u64::from(b)), or a wrapping_*/checked_*/saturating_* method.",
            example: "bad:  let len = hi << 8 | lo;            // hi, lo from get_u8()\ngood: let len = u32::from(hi) << 8 | u32::from(lo);",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: TAINT_FLOW,
            summary: "no untrusted byte or length reaching an index/capacity/bound sink unchecked",
            rationale: "Attack-transformed streams put every decoded length and offset under adversary control: a crafted payload length that reaches slice indexing, Vec::with_capacity/reserve or a loop bound unchecked is an out-of-bounds panic or a multi-gigabyte allocation — either one stops continuous monitoring. The analysis taints values returned by get_*/read_* reads and *_len/*_count payload fields, follows them through let-bindings, returns and call arguments (interprocedurally, by per-function summary), and flags any sink with no intervening comparison, `contains` check, `min`/`clamp`, `try_into` or `checked_*` on the way. Diagnostics print the witness call chain from the source to the sink.",
            example: "bad:  let n = r.read_u32()? as usize; let mut v = Vec::with_capacity(n);\ngood: let n = r.read_u32()? as usize; if n > MAX_PAYLOAD { return Err(…) } let mut v = Vec::with_capacity(n);",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: LOOP_PROGRESS,
            summary: "every hot-path loop provably advances a cursor",
            rationale: "A `while`/`loop` on the streaming or corruption-recovery path that can iterate without consuming input is a livelock: the shard spins forever on one malformed frame and its streams silently stop being monitored — the paper's continuous-operation setting fails open. Loops reachable from a `// vdsms-lint: entry` function must contain a progress witness: a non-zero `+=`/`-=` on a cursor, a re-assignment derived from the cursor itself, or a draining call (`next`, `pop`, `recv`, `advance`, `read_*`, …). `for` loops are exempt (the iterator advances by construction). Scoped entries may use `entry(loop-progress)`.",
            example: "bad:  while self.pos < len { if !self.try_frame() { continue } }\ngood: while self.pos < len { if !self.try_frame() { self.pos += 1; } }",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: NO_SWALLOWED_ERROR,
            summary: "no silently discarded Results",
            rationale: "A discarded `Result` converts a detectable fault into silent data loss: `let _ = reply.send(stats)` drops a shard's statistics on a closed channel and nobody ever learns. `let _ = <call>` where the callee's declared return type is a `Result` (resolved through the workspace call graph) and statement-position `.ok()` are flagged; channel sends/receives are flagged unconditionally because their `Result` is always load-bearing. Handle the error, or document why it is ignorable with an allow reason — `?` and explicit matches are never flagged.",
            example: "bad:  let _ = reply.send(stats);\ngood: if reply.send(stats).is_err() { break } // requester hung up",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: GUARD_BLOCKING,
            summary: "no lock guard held across a blocking operation",
            rationale: "A guard held across `.recv()`, a zero-arg `.join()` or a `send` on a bounded channel stalls every thread that wants the lock for as long as the blocked peer takes — and if the peer needs that same lock to make progress, the fleet deadlocks without any lock-order cycle for `lock-order` to see. The analysis replays each function's ordered lock events against its blocking sites and a transitive blocks-summary of its callees, so a guard held across a call that blocks three frames deeper is still caught; the diagnostic names the guard and the full call chain down to the blocking operation. `Condvar::wait` is exempt — waiting is the one blocking call that must hold its guard.",
            example: "bad:  let sink = self.sink.lock(); let batch = rx.recv()?; sink.push(batch);\ngood: let batch = rx.recv()?; self.sink.lock().push(batch);",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: CHANNEL_PROTOCOL,
            summary: "channel endpoints follow their protocol",
            rationale: "The fleet's command channels are its spine: a `send` after the matching receiver was dropped is guaranteed data loss, and a reply `sync_channel(1)` sent more than once blocks the second send forever (the requester reads one reply and walks away). The analysis pairs each function's tuple-`let` channel bindings with its send/recv/drop sequence and flags both shapes. A statement-position `send(…)` whose `Result` simply vanishes is left to rustc: `unused_must_use` rejects it under `-D warnings`.",
            example: "bad:  let (reply, rx) = mpsc::sync_channel(1); for s in shards { reply.send(ack) }\ngood: one fresh reply channel per request, moved into the command",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: UNSAFE_AUDIT,
            summary: "every crate root forbids unsafe",
            rationale: "The workspace is #![forbid(unsafe_code)] everywhere except the parking_lot shim (unsafe-allowed = true in lint.toml). rustc enforces the attribute once it is there; this rule requires that it is there. An unsafe block that does exist needs a // SAFETY: comment, which clippy::undocumented_unsafe_blocks enforces in ci.sh.",
            example: "bad:  //! My crate.\n      pub fn f() {}\ngood: #![forbid(unsafe_code)]\n      //! My crate.",
            suppression: SUPPRESS,
        },
        RuleInfo {
            id: INVALID_SUPPRESSION,
            summary: "malformed or dead vdsms-lint directives are findings",
            rationale: "A typo'd allow would silently fail open (the finding it meant to suppress still fires) or silently fail closed (suppressing nothing, forever). Every `// vdsms-lint:` comment must parse: either `entry`, or `allow(known-rule) reason=\"non-empty\"` — and an `allow` naming a rule that is on for its crate must silence at least one finding on its own line or the line below; one that matches nothing is reported so it cannot sit there until the code under it changes. This rule cannot be suppressed.",
            example: "bad:  // vdsms-lint: allow(no-panic-hot-path)\ngood: // vdsms-lint: allow(no-panic-hot-path) reason=\"index invariant: set at construction\"",
            suppression: "not suppressible — fix the directive",
        },
    ]
}

/// Look up a rule explanation by id.
pub fn explain(id: &str) -> Option<&'static RuleInfo> {
    registry().iter().find(|r| r.id == id)
}

/// Per-file lint result.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Surviving diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a valid `allow` directive.
    pub suppressed: usize,
}

/// Run the per-file token rule if `rules` switches it on. Diagnostics
/// are raw: suppressions are the driver's second pass
/// ([`apply_suppressions`]), so the workspace analyses share them.
pub fn token_rules(file: &SourceFile, lexed: &LexedFile, rules: &RuleSet) -> Vec<Diagnostic> {
    if rules.enabled(UNSAFE_AUDIT)
        && file.is_crate_root
        && !rules.enabled("unsafe-allowed")
        && !forbids_unsafe(lexed)
    {
        let message = "crate root is missing `#![forbid(unsafe_code)]` (set `unsafe-allowed = true` in lint.toml for the one shim that needs unsafe)";
        return vec![file.diagnostic(UNSAFE_AUDIT, 1, 1, message.to_string())];
    }
    Vec::new()
}

/// Parse directives, silence covered findings, and report the
/// directives themselves when they are malformed or dead. `diags` must
/// hold every raw finding for the file — token *and* flow — or a live
/// `allow` for a rule that has not run yet reads as dead; `rules` is the
/// file's crate's rule set, so an `allow` for a rule switched off there
/// is left alone.
pub fn apply_suppressions(
    path: &str,
    comments: &[Comment],
    diags: Vec<Diagnostic>,
    rules: &RuleSet,
) -> FileReport {
    let directive_finding = |c: &Comment, message: String| Diagnostic {
        rule: INVALID_SUPPRESSION.to_string(),
        file: path.to_string(),
        line: c.line,
        col: 1,
        message,
        snippet: format!("//{}", c.text.trim_end()),
    };
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut report = FileReport::default();
    for c in comments {
        match parse_directive(c) {
            DirectiveParse::None => {}
            DirectiveParse::Valid(ids) => {
                suppressions.push(Suppression { rules: ids, comment: c, used: false });
            }
            DirectiveParse::Invalid(message) => {
                report.diagnostics.push(directive_finding(c, message));
            }
        }
    }
    for d in diags {
        let mut covered = false;
        for s in suppressions.iter_mut().filter(|s| s.covers(&d)) {
            s.used = true;
            covered = true;
        }
        if covered {
            report.suppressed += 1;
        } else {
            report.diagnostics.push(d);
        }
    }
    for s in &suppressions {
        if !s.used && s.rules.iter().any(|r| rules.enabled(r)) {
            let message = format!(
                "`allow({})` silences nothing: no such finding on its line or the line below; \
                 remove the directive",
                s.rules.join(", ")
            );
            report.diagnostics.push(directive_finding(s.comment, message));
        }
    }
    report.diagnostics.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    report
}

/// One well-formed `allow` directive.
struct Suppression<'a> {
    rules: Vec<String>,
    comment: &'a Comment,
    /// Whether it has silenced a finding yet.
    used: bool,
}

impl Suppression<'_> {
    /// A directive covers its own line and the line after its comment.
    fn covers(&self, d: &Diagnostic) -> bool {
        self.rules.iter().any(|r| r == &d.rule)
            && (self.comment.line == d.line || self.comment.end_line + 1 == d.line)
    }
}

enum DirectiveParse {
    None,
    /// A well-formed `allow`, with the rule ids it names.
    Valid(Vec<String>),
    Invalid(String),
}

/// Parse `vdsms-lint: allow(rule-a, rule-b) reason="…"` (or the `entry`
/// marker, which is consumed by the parser, not here) from a comment.
fn parse_directive(c: &Comment) -> DirectiveParse {
    let text = c.text.trim();
    let Some(rest) = text.strip_prefix("vdsms-lint:") else {
        return DirectiveParse::None;
    };
    let rest = rest.trim_start();
    if rest == "entry" {
        // Hot-path entry marker — valid, handled by the parser.
        return DirectiveParse::None;
    }
    if let Some(inner) = rest.strip_prefix("entry(").and_then(|r| r.strip_suffix(')')) {
        // Scoped entry marker: `entry(rule, …)` seeds only the named
        // hot-path rules. Consumed by the parser; validated here so a
        // typo'd rule id cannot silently produce a no-op marker.
        let scoped: Vec<&str> =
            inner.split(',').map(str::trim).filter(|r| !r.is_empty()).collect();
        if scoped.is_empty() {
            return DirectiveParse::Invalid("scoped entry marker lists no rules".to_string());
        }
        for r in &scoped {
            if !matches!(*r, NO_PANIC | NO_ALLOC | LOOP_PROGRESS) {
                return DirectiveParse::Invalid(format!(
                    "entry scope names `{r}`, which is not a hot-path rule (expected \
                     `{NO_PANIC}`, `{NO_ALLOC}` or `{LOOP_PROGRESS}`)"
                ));
            }
        }
        return DirectiveParse::None;
    }
    let Some(rest) = rest.strip_prefix("allow") else {
        return DirectiveParse::Invalid(format!(
            "unknown vdsms-lint directive `{}` (expected `entry`, `entry(hot-path-rule)` or \
             `allow(rule-id) reason=\"…\"`)",
            rest.split_whitespace().next().unwrap_or("")
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return DirectiveParse::Invalid("allow directive missing `(rule-id)`".to_string());
    };
    let Some((ids, rest)) = rest.split_once(')') else {
        return DirectiveParse::Invalid("allow directive missing closing `)`".to_string());
    };
    let rules: Vec<String> =
        ids.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    if rules.is_empty() {
        return DirectiveParse::Invalid("allow directive lists no rules".to_string());
    }
    for r in &rules {
        if r == INVALID_SUPPRESSION {
            return DirectiveParse::Invalid("`invalid-suppression` cannot be suppressed".to_string());
        }
        if !KNOWN_KEYS.contains(&r.as_str()) {
            return DirectiveParse::Invalid(format!("allow directive names unknown rule `{r}`"));
        }
    }
    let rest = rest.trim_start();
    let Some(reason) = rest.strip_prefix("reason=") else {
        return DirectiveParse::Invalid(
            "allow directive missing mandatory `reason=\"…\"`".to_string(),
        );
    };
    let reason = reason.trim();
    let ok_reason = reason.len() > 2 && reason.starts_with('"') && reason[1..].contains('"');
    let body = reason.trim_matches('"').trim();
    if !ok_reason || body.is_empty() {
        return DirectiveParse::Invalid("allow reason must be a non-empty quoted string".to_string());
    }
    DirectiveParse::Valid(rules)
}

/// Whether the file carries `#![forbid(unsafe_code)]`.
fn forbids_unsafe(lexed: &LexedFile) -> bool {
    let t = &lexed.tokens;
    (0..t.len()).any(|i| {
        t[i].is_punct('#')
            && t.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && t.get(i + 2).is_some_and(|n| n.is_punct('['))
            && t.get(i + 3).is_some_and(|n| n.is_ident("forbid"))
            && t.get(i + 4).is_some_and(|n| n.is_punct('('))
            && t.get(i + 5).is_some_and(|n| n.is_ident("unsafe_code"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(src: &str, is_crate_root: bool) -> SourceFile {
        SourceFile {
            crate_name: "test-crate".to_string(),
            path: "test.rs".to_string(),
            source: src.to_string(),
            is_crate_root,
        }
    }

    /// Token rules + suppressions on one file in isolation.
    fn check_file(file: &SourceFile, rules: &RuleSet) -> FileReport {
        let lexed = crate::lexer::lex(&file.source);
        apply_suppressions(&file.path, &lexed.comments, token_rules(file, &lexed, rules), rules)
    }

    fn check(src: &str) -> FileReport {
        check_file(&input(src, false), &RuleSet::all_enabled())
    }

    /// A crate root, where the `unsafe-audit` root check runs.
    fn check_root(src: &str) -> FileReport {
        check_file(&input(src, true), &RuleSet::all_enabled())
    }

    fn rules_of(rep: &FileReport) -> Vec<&str> {
        rep.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn suppression_with_reason_silences_and_counts() {
        let rep = check_root("// vdsms-lint: allow(unsafe-audit) reason=\"a fixture root\"\npub fn x() {}\n");
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.suppressed, 1);
    }

    #[test]
    fn suppression_without_reason_is_reported() {
        let rep = check_root("// vdsms-lint: allow(unsafe-audit)\npub fn x() {}\n");
        let rules = rules_of(&rep);
        assert!(rules.contains(&INVALID_SUPPRESSION), "{rules:?}");
        assert!(rules.contains(&UNSAFE_AUDIT), "the un-suppressed finding must survive");
    }

    #[test]
    fn entry_directive_is_valid_not_a_finding() {
        let rep = check("// vdsms-lint: entry\npub fn hot() {}\n");
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        assert_eq!(rep.suppressed, 0);
    }

    #[test]
    fn unknown_directive_is_a_finding() {
        let rep = check("// vdsms-lint: entrypoint\npub fn hot() {}\n");
        assert_eq!(rules_of(&rep), vec![INVALID_SUPPRESSION]);
    }

    #[test]
    fn scoped_entry_directive_is_valid_not_a_finding() {
        let rep = check("// vdsms-lint: entry(no-panic-hot-path)\npub fn sweep() {}\n");
        assert!(rep.diagnostics.is_empty(), "{:?}", rep.diagnostics);
        let both = check(
            "// vdsms-lint: entry(no-panic-hot-path, no-alloc-hot-path)\npub fn sweep() {}\n",
        );
        assert!(both.diagnostics.is_empty(), "{:?}", both.diagnostics);
    }

    #[test]
    fn scoped_entry_with_a_non_hot_path_rule_is_a_finding() {
        // A typo'd or non-hot-path scope must not silently become a no-op
        // marker.
        let rep = check("// vdsms-lint: entry(no-panic-hotpath)\npub fn sweep() {}\n");
        assert_eq!(rules_of(&rep), vec![INVALID_SUPPRESSION]);
        let wrong_kind = check("// vdsms-lint: entry(lock-order)\npub fn sweep() {}\n");
        assert_eq!(rules_of(&wrong_kind), vec![INVALID_SUPPRESSION]);
        let empty = check("// vdsms-lint: entry()\npub fn sweep() {}\n");
        assert_eq!(rules_of(&empty), vec![INVALID_SUPPRESSION]);
    }

    #[test]
    fn crate_root_requires_forbid_unsafe() {
        assert_eq!(rules_of(&check_root("pub fn x() {}")), vec![UNSAFE_AUDIT]);
        let present = check_root("#![forbid(unsafe_code)]\npub fn x() {}");
        assert!(present.diagnostics.is_empty(), "{:?}", present.diagnostics);
        // Only crate roots need the attribute.
        let module = check("pub fn x() {}");
        assert!(module.diagnostics.is_empty(), "{:?}", module.diagnostics);
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let mut rs = RuleSet::all_enabled();
        rs.switches.insert(UNSAFE_AUDIT.to_string(), false);
        assert!(check_file(&input("pub fn x() {}", true), &rs).diagnostics.is_empty());
        // `unsafe-allowed` waives the root requirement for its crate.
        let mut shim = RuleSet::all_enabled();
        shim.switches.insert("unsafe-allowed".to_string(), true);
        assert!(check_file(&input("pub fn x() {}", true), &shim).diagnostics.is_empty());
    }

    #[test]
    fn every_configurable_rule_has_a_full_explanation() {
        for key in KNOWN_KEYS {
            if *key == "unsafe-allowed" {
                continue; // a flag, not a rule
            }
            let info = explain(key).unwrap_or_else(|| panic!("no explanation for `{key}`"));
            assert!(!info.summary.is_empty(), "{key}: empty summary");
            assert!(info.rationale.len() > 40, "{key}: rationale too thin");
            assert!(!info.example.is_empty(), "{key}: empty example");
            assert!(!info.suppression.is_empty(), "{key}: empty suppression");
        }
        // invalid-suppression is registered too (not configurable).
        assert!(explain(INVALID_SUPPRESSION).is_some());
        // No duplicate ids.
        let mut ids: Vec<&str> = registry().iter().map(|r| r.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate rule ids in registry");
    }
}
