//! Fixture-driven rule tests: every rule has a positive fixture (must
//! fire, with the expected count) and a negative fixture full of
//! look-alikes (must stay silent), plus suppression round-trips.
//!
//! Token rules run per file through [`token_rules`] +
//! [`apply_suppressions`]; the workspace analyses (hot-path, lock-order,
//! taint, float ordering, …) run through [`lint_sources`] with a config
//! enabling exactly the rule under test, so cross-firing between rules
//! cannot mask a miscount.

use std::path::PathBuf;
use vdsms_lint::config::KNOWN_KEYS;
use vdsms_lint::rules::{apply_suppressions, token_rules};
use vdsms_lint::{
    lint_sources, parse_config, FileReport, LintConfig, Report, RuleSet, SourceFile,
};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn source(crate_name: &str, name: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.to_string(),
        path: name.to_string(),
        source: fixture(name),
        is_crate_root: false,
    }
}

/// Token rules + suppressions on one file in isolation.
fn check_file(file: &SourceFile, rules: &RuleSet) -> FileReport {
    let lexed = vdsms_lint::lexer::lex(&file.source);
    apply_suppressions(&file.path, &lexed.comments, token_rules(file, &lexed, rules), rules)
}

fn check(name: &str) -> FileReport {
    check_file(&source("fixture", name), &RuleSet::all_enabled())
}

/// A config with exactly `rule` enabled (and everything else off).
fn config_only(rule: &str) -> LintConfig {
    let mut toml = String::from("[default]\n");
    for key in KNOWN_KEYS {
        if *key == "unsafe-allowed" {
            continue;
        }
        toml.push_str(&format!("{key} = {}\n", *key == rule));
    }
    parse_config(&toml).unwrap()
}

/// Run the workspace analyses over single-crate fixture files with only
/// `rule` enabled.
fn flow_check(names: &[&str], rule: &str) -> Report {
    let files: Vec<SourceFile> = names.iter().map(|n| source("fixture", n)).collect();
    lint_sources(&files, &config_only(rule))
}

fn count_of(diags: &[vdsms_lint::Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn token_positive_fixtures_fire_exactly_the_expected_rule() {
    for (file, rule, expected) in [
        ("det_iter_pos.rs", "deterministic-iteration", 3),
        ("wall_clock_pos.rs", "no-wall-clock", 2),
        ("lock_pos.rs", "lock-discipline", 2),
        ("unsafe_pos.rs", "unsafe-audit", 1),
    ] {
        let rep = check(file);
        assert_eq!(
            count_of(&rep.diagnostics, rule),
            expected,
            "{file}: wrong `{rule}` count: {:#?}",
            rep.diagnostics
        );
        assert_eq!(
            rep.diagnostics.len(),
            expected,
            "{file}: unexpected extra findings: {:#?}",
            rep.diagnostics
        );
    }
}

#[test]
fn flow_positive_fixtures_fire_exactly_the_expected_rule() {
    for (file, rule, expected) in [
        ("no_panic_pos.rs", "no-panic-hot-path", 4),
        ("alloc_pos.rs", "no-alloc-hot-path", 4),
        ("lock_order_pos.rs", "lock-order", 1),
        ("arith_pos.rs", "no-unchecked-arith", 3),
        ("float_pos.rs", "float-determinism", 2),
        ("taint_pos.rs", "taint-unchecked-flow", 5),
        ("loop_progress_pos.rs", "loop-progress", 2),
        ("swallow_pos.rs", "no-swallowed-error", 3),
        ("guard_blocking_pos.rs", "guard-across-blocking", 4),
        ("channel_protocol_pos.rs", "channel-protocol", 3),
    ] {
        let rep = flow_check(&[file], rule);
        assert_eq!(
            count_of(&rep.diagnostics, rule),
            expected,
            "{file}: wrong `{rule}` count: {:#?}",
            rep.diagnostics
        );
        assert_eq!(
            rep.diagnostics.len(),
            expected,
            "{file}: unexpected extra findings: {:#?}",
            rep.diagnostics
        );
    }
}

#[test]
fn negative_fixtures_are_silent() {
    for file in ["det_iter_neg.rs", "wall_clock_neg.rs", "lock_neg.rs", "unsafe_neg.rs"] {
        let rep = check(file);
        assert!(rep.diagnostics.is_empty(), "{file}: {:#?}", rep.diagnostics);
        assert_eq!(rep.suppressed, 0, "{file}: nothing should need suppression");
    }
    for (file, rule) in [
        ("no_panic_neg.rs", "no-panic-hot-path"),
        ("alloc_neg.rs", "no-alloc-hot-path"),
        ("lock_order_neg.rs", "lock-order"),
        ("arith_neg.rs", "no-unchecked-arith"),
        ("float_neg.rs", "float-determinism"),
        ("taint_neg.rs", "taint-unchecked-flow"),
        ("loop_progress_neg.rs", "loop-progress"),
        ("swallow_neg.rs", "no-swallowed-error"),
        ("guard_blocking_neg.rs", "guard-across-blocking"),
        ("channel_protocol_neg.rs", "channel-protocol"),
    ] {
        let rep = flow_check(&[file], rule);
        assert!(rep.diagnostics.is_empty(), "{file}: {:#?}", rep.diagnostics);
        assert_eq!(rep.suppressed, 0, "{file}: nothing should need suppression");
    }
}

#[test]
fn diagnostics_carry_position_rule_snippet_and_chain() {
    let rep = flow_check(&["no_panic_pos.rs"], "no-panic-hot-path");
    let d = &rep.diagnostics[0];
    assert_eq!(d.rule, "no-panic-hot-path");
    assert_eq!(d.file, "no_panic_pos.rs");
    assert_eq!((d.line, d.col), (5, 28), "unwrap call position");
    assert!(d.snippet.contains("unwrap"), "snippet shows the offending line: {d:?}");
    assert!(d.render().contains("no_panic_pos.rs:5:28"), "render is file:line:col");
    assert!(d.message.contains("`lookup`"), "message names the hot chain: {}", d.message);
}

#[test]
fn hot_path_reachability_spans_three_crates() {
    let files = vec![
        source("vdsms-a", "reach_entry.rs"),
        source("vdsms-b", "reach_mid.rs"),
        source("vdsms-c", "reach_deep.rs"),
    ];
    let rep = lint_sources(&files, &config_only("no-panic-hot-path"));
    assert_eq!(rep.diagnostics.len(), 1, "{:#?}", rep.diagnostics);
    let d = &rep.diagnostics[0];
    assert_eq!(d.file, "reach_deep.rs", "finding lands at the panic site");
    assert!(
        d.message.contains("ingest → relay → danger"),
        "message prints the cross-crate chain: {}",
        d.message
    );
    // `cold` has the same unwrap but no path from an entry — no second
    // finding, which is the reachability gate doing its job.
}

#[test]
fn lock_order_cycle_reports_both_witness_chains() {
    let rep = flow_check(&["lock_order_pos.rs"], "lock-order");
    assert_eq!(rep.diagnostics.len(), 1, "{:#?}", rep.diagnostics);
    let d = &rep.diagnostics[0];
    assert!(d.message.contains("`publish`"), "first witness chain: {}", d.message);
    assert!(d.message.contains("`snapshot`"), "counter-witness chain: {}", d.message);
    assert!(
        d.message.contains("lock_order_pos.rs:"),
        "counter-witness carries file:line:col: {}",
        d.message
    );
}

#[test]
fn guard_across_blocking_prints_the_transitive_witness_chain() {
    let rep = flow_check(&["guard_blocking_pos.rs"], "guard-across-blocking");
    let d = rep
        .diagnostics
        .iter()
        .find(|d| d.message.contains("witness:"))
        .expect("one finding flows through a callee");
    assert!(
        d.message.contains("transitive_block → wait_for_ack"),
        "chain names the caller and the blocking callee: {}",
        d.message
    );
    assert!(d.message.contains("`.recv()`"), "names the blocking operation: {}", d.message);
    assert!(d.message.contains("`m`"), "names the held lock: {}", d.message);
}

#[test]
fn valid_suppression_silences_and_is_counted() {
    let rep = check("suppression_ok.rs");
    assert!(rep.diagnostics.is_empty(), "{:#?}", rep.diagnostics);
    assert_eq!(rep.suppressed, 1);
}

#[test]
fn suppressions_cover_workspace_analyses_too() {
    let files = vec![SourceFile {
        crate_name: "fixture".to_string(),
        path: "inline.rs".to_string(),
        source: "// vdsms-lint: entry\n\
                 fn hot(x: Option<u32>) -> u32 {\n\
                 \x20   // vdsms-lint: allow(no-panic-hot-path) reason=\"x is Some by construction\"\n\
                 \x20   x.unwrap()\n\
                 }\n"
            .to_string(),
        is_crate_root: false,
    }];
    let rep = lint_sources(&files, &config_only("no-panic-hot-path"));
    assert!(rep.diagnostics.is_empty(), "{:#?}", rep.diagnostics);
    assert_eq!(rep.suppressed, 1);
}

#[test]
fn malformed_suppressions_are_themselves_findings() {
    let rep = check("suppression_bad.rs");
    assert_eq!(count_of(&rep.diagnostics, "invalid-suppression"), 3, "{:#?}", rep.diagnostics);
    assert_eq!(
        count_of(&rep.diagnostics, "no-wall-clock"),
        1,
        "a reason-less directive must not silence the finding it targets"
    );
    assert_eq!(rep.suppressed, 0);
}

#[test]
fn positive_fixtures_are_silent_when_their_rule_is_disabled() {
    // The per-crate config story in miniature: the same source is clean
    // once the rule is switched off.
    let rep = check_file(&source("fixture", "det_iter_pos.rs"), &RuleSet::builtin_default());
    assert!(rep.diagnostics.is_empty(), "{:#?}", rep.diagnostics);
    // And a flow fixture with a different (token) rule enabled instead.
    let rep = flow_check(&["no_panic_pos.rs"], "no-wall-clock");
    assert!(rep.diagnostics.is_empty(), "{:#?}", rep.diagnostics);
}
