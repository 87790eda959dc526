//! The gate itself, exercised both ways: the real workspace must be
//! violation-free under `lint.toml` (what `ci.sh` enforces), and seeded
//! violations — one per rule — must turn the report non-clean with a
//! precise `file:line:col` (so the CI step demonstrably fails, at the
//! right place, when someone reintroduces a forbidden pattern).

use std::path::{Path, PathBuf};
use vdsms_lint::config::KNOWN_KEYS;
use vdsms_lint::{find_workspace_root, lint_workspace_with_default_config, Report};

fn workspace_root() -> PathBuf {
    let start = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&start).expect("crates/lint lives inside the workspace")
}

#[test]
fn real_workspace_is_violation_free() {
    let report = lint_workspace_with_default_config(&workspace_root()).expect("lint run");
    assert!(
        report.is_clean(),
        "the workspace must pass its own gate:\n{}",
        report.render()
    );
    // Sanity: the run actually covered the workspace, it didn't silently
    // scan an empty directory.
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
    assert!(
        report.suppressed >= 40,
        "the justified hot-path allows (scratch warm-up, detection events, \
         per-batch staging) should be counted, got {}",
        report.suppressed
    );
}

/// Build a minimal fake workspace in `dir`: a `lint.toml` enabling exactly
/// `rules` (everything else off), a root package, and one source file with
/// the violations seeded in.
fn seed_workspace(dir: &Path, rules: &[&str], source: &str) {
    std::fs::create_dir_all(dir.join("src")).unwrap();
    let mut toml = String::from("[default]\n");
    for key in KNOWN_KEYS {
        if *key == "unsafe-allowed" {
            continue;
        }
        toml.push_str(&format!("{key} = {}\n", rules.contains(key)));
    }
    std::fs::write(dir.join("lint.toml"), toml).unwrap();
    std::fs::write(dir.join("Cargo.toml"), "[package]\nname = \"seeded\"\n").unwrap();
    std::fs::write(dir.join("src/lib.rs"), source).unwrap();
}

/// Lint a seeded one-file workspace and clean up after.
fn lint_seeded(tag: &str, rules: &[&str], source: &str) -> Report {
    let dir = std::env::temp_dir().join(format!("vdsms-lint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    seed_workspace(&dir, rules, source);
    let report = lint_workspace_with_default_config(&dir).expect("lint run");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[test]
fn seeded_panic_violation_fails_the_gate() {
    // A clean file passes…
    let clean = lint_seeded(
        "panic-clean",
        &["no-panic-hot-path"],
        "// vdsms-lint: entry\npub fn ok(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    );
    assert!(clean.is_clean(), "{}", clean.render());

    // …and reintroducing a hot-path unwrap turns the report non-clean,
    // which is exactly the condition ci.sh's exit code keys off.
    let dirty = lint_seeded(
        "panic-dirty",
        &["no-panic-hot-path"],
        "// vdsms-lint: entry\npub fn bad(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    assert!(!dirty.is_clean());
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "no-panic-hot-path");
    assert_eq!(d.file, "src/lib.rs", "workspace-relative path");
    assert_eq!((d.line, d.col), (3, 7), "points at the `unwrap` call");
    assert!(d.message.contains("`bad`"), "names the hot entry: {}", d.message);

    // JSON output is machine-checkable: it names the rule and the file.
    let json = dirty.to_json();
    assert!(json.contains("\"no-panic-hot-path\""), "{json}");
    assert!(json.contains("src/lib.rs"), "{json}");
}

#[test]
fn seeded_alloc_violation_names_the_witness_chain() {
    let dirty = lint_seeded(
        "alloc",
        &["no-alloc-hot-path"],
        "// vdsms-lint: entry\n\
         pub fn ingest(state: &mut Vec<u64>, id: u64) {\n\
         \x20   store(state, id);\n\
         }\n\
         \n\
         fn store(state: &mut Vec<u64>, id: u64) {\n\
         \x20   state.push(id);\n\
         }\n\
         \n\
         fn cold(state: &mut Vec<u64>, id: u64) {\n\
         \x20   state.push(id);\n\
         }\n",
    );
    // `cold` has the same push but no path from an entry — exactly one
    // finding, at the reachable site.
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "no-alloc-hot-path");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 7, 11));
    assert!(
        d.message.contains("ingest → store"),
        "message prints the interprocedural chain: {}",
        d.message
    );
}

#[test]
fn seeded_lock_cycle_reports_both_witness_chains() {
    let dirty = lint_seeded(
        "lock-order",
        &["lock-order"],
        "pub fn publish(s: &Shared) {\n\
         \x20   let sink = s.sink.lock();\n\
         \x20   let stats = s.stats.lock();\n\
         \x20   sink.merge_into(stats);\n\
         }\n\
         \n\
         pub fn snapshot(s: &Shared) {\n\
         \x20   let stats = s.stats.lock();\n\
         \x20   let sink = s.sink.lock();\n\
         \x20   stats.copy_from(sink);\n\
         }\n",
    );
    assert_eq!(dirty.diagnostics.len(), 1, "one finding per cycle: {:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "lock-order");
    assert_eq!(d.file, "src/lib.rs");
    assert!(d.message.contains("`publish`"), "first witness: {}", d.message);
    assert!(d.message.contains("`snapshot`"), "counter-witness: {}", d.message);
    assert!(
        d.message.contains("src/lib.rs:"),
        "counter-witness carries file:line:col: {}",
        d.message
    );
}

#[test]
fn seeded_unchecked_arith_violation_points_at_the_operator() {
    let dirty = lint_seeded(
        "arith",
        &["no-unchecked-arith"],
        "pub fn decode(r: &mut Reader) -> u32 {\n\
         \x20   let len = r.get_u8();\n\
         \x20   len + 1\n\
         }\n",
    );
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "no-unchecked-arith");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 3, 9));
    assert!(d.message.contains("`decode`"), "names the function: {}", d.message);
}

#[test]
fn seeded_taint_flow_reports_the_witness_chain() {
    // Interprocedural: the length is read from the wire in one function
    // and reaches a capacity sink in its caller.
    let dirty = lint_seeded(
        "taint",
        &["taint-unchecked-flow"],
        "fn read_len(feed: &mut Feed) -> usize {\n\
         \x20   feed.read_u32() as usize\n\
         }\n\
         \n\
         pub fn sized_table(feed: &mut Feed, out: &mut Vec<u64>) {\n\
         \x20   let n = read_len(feed);\n\
         \x20   out.reserve(n);\n\
         }\n",
    );
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "taint-unchecked-flow");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 7, 9));
    assert!(
        d.message.contains("sized_table → read_len"),
        "witness call chain: {}",
        d.message
    );
    assert!(
        d.message.contains("the return of `read_len`"),
        "names the tainted producer: {}",
        d.message
    );

    // The same flow with a clamp between is clean.
    let clean = lint_seeded(
        "taint-clean",
        &["taint-unchecked-flow"],
        "fn read_len(feed: &mut Feed) -> usize {\n\
         \x20   feed.read_u32() as usize\n\
         }\n\
         \n\
         pub fn sized_table(feed: &mut Feed, out: &mut Vec<u64>) {\n\
         \x20   let n = read_len(feed).min(4096);\n\
         \x20   out.reserve(n);\n\
         }\n",
    );
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn seeded_stalled_loop_fails_the_gate_with_its_chain() {
    let dirty = lint_seeded(
        "loop-progress",
        &["loop-progress"],
        "// vdsms-lint: entry\n\
         pub fn resync(feed: &mut Feed) {\n\
         \x20   while feed.damaged() {\n\
         \x20       feed.probe();\n\
         \x20   }\n\
         }\n",
    );
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "loop-progress");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 3, 5));
    assert!(d.message.contains("hot path `resync`"), "names the chain: {}", d.message);

    // Advancing a cursor in the loop body satisfies the rule.
    let clean = lint_seeded(
        "loop-progress-clean",
        &["loop-progress"],
        "// vdsms-lint: entry\n\
         pub fn resync(feed: &mut Feed) {\n\
         \x20   let mut at = 0;\n\
         \x20   while feed.damaged() {\n\
         \x20       at += 1;\n\
         \x20   }\n\
         }\n",
    );
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn seeded_swallowed_error_names_the_failing_callee() {
    let dirty = lint_seeded(
        "swallow",
        &["no-swallowed-error"],
        "fn persist(id: u64) -> Result<(), String> {\n\
         \x20   Err(format!(\"{id}\"))\n\
         }\n\
         \n\
         pub fn shutdown() {\n\
         \x20   let _ = persist(7);\n\
         }\n",
    );
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "no-swallowed-error");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 6, 13));
    assert!(d.message.contains("`persist`"), "names the callee: {}", d.message);
    assert!(d.message.contains("`shutdown`"), "names the discarding fn: {}", d.message);
}

#[test]
fn seeded_guard_across_blocking_reports_the_transitive_chain() {
    let dirty = lint_seeded(
        "guard-blocking",
        &["guard-across-blocking"],
        "fn wait_ack(rx: &Receiver<u64>) -> u64 {\n\
         \x20   rx.recv().unwrap()\n\
         }\n\
         \n\
         pub fn install(m: &Mutex<u64>, rx: &Receiver<u64>) -> u64 {\n\
         \x20   let g = m.lock();\n\
         \x20   let v = wait_ack(rx);\n\
         \x20   drop(g);\n\
         \x20   v\n\
         }\n",
    );
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "guard-across-blocking");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 7, 13), "points at the call");
    assert!(d.message.contains("`m`"), "names the held lock: {}", d.message);
    assert!(
        d.message.contains("witness: `install → wait_ack`"),
        "prints the blocking chain: {}",
        d.message
    );
    assert!(d.message.contains("`.recv()`"), "names the blocking op: {}", d.message);

    // Dropping the guard before the blocking call is clean.
    let clean = lint_seeded(
        "guard-blocking-clean",
        &["guard-across-blocking"],
        "fn wait_ack(rx: &Receiver<u64>) -> u64 {\n\
         \x20   rx.recv().unwrap()\n\
         }\n\
         \n\
         pub fn install(m: &Mutex<u64>, rx: &Receiver<u64>) -> u64 {\n\
         \x20   let g = m.lock();\n\
         \x20   drop(g);\n\
         \x20   wait_ack(rx)\n\
         }\n",
    );
    assert!(clean.is_clean(), "{}", clean.render());
}

#[test]
fn seeded_channel_protocol_violation_points_at_the_second_send() {
    let dirty = lint_seeded(
        "channel-protocol",
        &["channel-protocol"],
        "pub fn reply_twice() {\n\
         \x20   let (tx, rx) = mpsc::sync_channel(1);\n\
         \x20   let _ = tx.send(1);\n\
         \x20   let _ = tx.send(2);\n\
         \x20   let _ = rx.recv();\n\
         }\n",
    );
    assert_eq!(dirty.diagnostics.len(), 1, "{:#?}", dirty.diagnostics);
    let d = &dirty.diagnostics[0];
    assert_eq!(d.rule, "channel-protocol");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 4, 16), "the second send");
    assert!(d.message.contains("one-shot reply channel"), "{}", d.message);
    assert!(d.message.contains("`reply_twice`"), "names the function: {}", d.message);

    // One send per one-shot reply is the protocol.
    let clean = lint_seeded(
        "channel-protocol-clean",
        &["channel-protocol"],
        "pub fn reply_once() {\n\
         \x20   let (tx, rx) = mpsc::sync_channel(1);\n\
         \x20   let _ = tx.send(1);\n\
         \x20   let _ = rx.recv();\n\
         }\n",
    );
    assert!(clean.is_clean(), "{}", clean.render());
}

/// One violation of each flow rule, in one file, with a lock cycle across
/// two functions — the golden input for the JSON snapshot below.
const GOLDEN_SRC: &str = "// vdsms-lint: entry\n\
pub fn ingest(feed: &mut Feed, out: &mut Vec<u64>) {\n\
\x20   let raw = feed.get_u8();\n\
\x20   let scaled = raw * 2;\n\
\x20   out.push(u64::from(scaled));\n\
\x20   let sink = feed.sink.lock();\n\
\x20   let stats = feed.stats.lock();\n\
\x20   sink.record(stats.count().unwrap());\n\
}\n\
\n\
pub fn drain(feed: &mut Feed) {\n\
\x20   let stats = feed.stats.lock();\n\
\x20   let sink = feed.sink.lock();\n\
}\n";

const GOLDEN_RULES: [&str; 4] =
    ["no-panic-hot-path", "no-alloc-hot-path", "lock-order", "no-unchecked-arith"];

/// Satellite guarantee for CI consumers: `--json` output is byte-stable.
/// The snapshot lives in `tests/golden/seeded_report.json`; regenerate it
/// with `BLESS=1 cargo test -p vdsms-lint json_report` after an
/// intentional format change.
#[test]
fn json_report_matches_the_golden_snapshot_byte_for_byte() {
    let first = lint_seeded("golden-a", &GOLDEN_RULES, GOLDEN_SRC);
    let second = lint_seeded("golden-b", &GOLDEN_RULES, GOLDEN_SRC);
    assert_eq!(first.diagnostics.len(), 4, "one finding per rule:\n{}", first.render());
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "two runs over the same input must serialize identically"
    );

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seeded_report.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, first.to_json()).expect("write golden snapshot");
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden snapshot missing — run with BLESS=1 to create it");
    assert_eq!(
        first.to_json(),
        golden,
        "JSON output drifted from the golden snapshot; if intentional, \
         regenerate with BLESS=1"
    );
}

/// A live `allow` and a dead one on the same hot function.
const DEAD_ALLOW_SRC: &str = "// vdsms-lint: entry\n\
pub fn hot(x: Option<u32>, y: Option<u32>) -> u32 {\n\
\x20   // vdsms-lint: allow(no-panic-hot-path) reason=\"x is Some by construction\"\n\
\x20   let a = x.unwrap();\n\
\x20   // vdsms-lint: allow(no-panic-hot-path) reason=\"stale: the unwrap below is gone\"\n\
\x20   let b = y.unwrap_or(0);\n\
\x20   a + b\n\
}\n";

#[test]
fn seeded_dead_allow_is_reported_and_the_live_one_is_not() {
    let rep = lint_seeded("dead-allow", &["no-panic-hot-path"], DEAD_ALLOW_SRC);
    assert_eq!(rep.suppressed, 1, "the live allow still silences and counts");
    assert_eq!(rep.diagnostics.len(), 1, "exactly the dead one:\n{}", rep.render());
    let d = &rep.diagnostics[0];
    assert_eq!(d.rule, "invalid-suppression");
    assert_eq!((d.file.as_str(), d.line, d.col), ("src/lib.rs", 5, 1));
    assert!(d.message.contains("allow(no-panic-hot-path)"), "{}", d.message);

    // With the rule switched off for the crate neither directive can
    // match, and neither is reported: an off rule says nothing about
    // whether its allows are still needed.
    let off = lint_seeded("dead-allow-off", &["lock-order"], DEAD_ALLOW_SRC);
    assert!(off.is_clean(), "{}", off.render());
    assert_eq!(off.suppressed, 0);
}

/// Run the `vdsms-lint` binary; returns (exit code, stdout, stderr).
fn run_bin(args: &[&str]) -> (i32, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vdsms-lint"))
        .args(args)
        .output()
        .expect("spawn vdsms-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// The binary's contract — what `ci.sh` relies on under `set -e`: exit 0
/// clean, 1 on violations (with `file:line:col` on stdout), 2 with usage
/// on stderr for anything it cannot run.
#[test]
fn binary_exit_codes_and_reports_follow_the_contract() {
    let dir = std::env::temp_dir().join(format!("vdsms-lint-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let root = dir.to_str().expect("utf-8 temp path");

    seed_workspace(&dir, &["no-panic-hot-path"], "pub fn ok() {}\n");
    let (code, stdout, _) = run_bin(&["--root", root]);
    assert_eq!(code, 0, "clean tree: {stdout}");
    assert!(stdout.contains("vdsms-lint: 0 violation(s)"), "{stdout}");

    seed_workspace(
        &dir,
        &["no-panic-hot-path"],
        "// vdsms-lint: entry\npub fn bad(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let (code, stdout, _) = run_bin(&["--root", root]);
    assert_eq!(code, 1, "one seeded violation: {stdout}");
    assert!(stdout.contains("src/lib.rs:3:7: [no-panic-hot-path]"), "{stdout}");
    assert!(stdout.contains("vdsms-lint: 1 violation(s)"), "{stdout}");

    for json_flag in [&["--json"][..], &["--format", "json"][..]] {
        let (code, stdout, _) = run_bin(&[&["--root", root], json_flag].concat());
        assert_eq!(code, 1);
        let doc = vdsms_json::Json::parse(&stdout).expect("--json output parses");
        let violations = doc.get("violations").and_then(|v| v.as_arr()).expect("violations");
        assert_eq!(doc.get("count").and_then(|c| c.as_usize()), Some(violations.len()));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].get("line").and_then(|l| l.as_usize()), Some(3));
    }

    // Usage and configuration errors: exit 2, usage on stderr, no report.
    let expect_usage_error = |args: &[&str]| {
        let (code, stdout, stderr) = run_bin(args);
        assert_eq!(code, 2, "{args:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{args:?} printed a report: {stdout}");
        assert!(stderr.starts_with("error:") && stderr.contains("USAGE:"), "{args:?}: {stderr}");
        stderr
    };
    // The flag and the format value this gate used to have are unknown
    // like any other.
    expect_usage_error(&["--root", root, "--frobnicate"]);
    expect_usage_error(&["--root", root, "--no-cache"]);
    expect_usage_error(&["--root", root, "--format", "sarif"]);
    expect_usage_error(&["--root", root, "--format"]);
    expect_usage_error(&["--explain"]);
    // So is the config key of the rule that was removed; then no config.
    std::fs::write(dir.join("lint.toml"), "[default]\nshared-state-discipline = true\n").unwrap();
    assert!(expect_usage_error(&["--root", root]).contains("unknown rule key"));
    std::fs::remove_file(dir.join("lint.toml")).unwrap();
    assert!(expect_usage_error(&["--root", root]).contains("lint.toml"));

    let (code, _, stderr) = run_bin(&["--explain", "shared-state-discipline"]);
    assert_eq!(code, 2, "a removed rule is an unknown rule: {stderr}");
    assert!(stderr.contains("unknown rule"), "{stderr}");
    for info in vdsms_lint::rules::registry() {
        let (code, stdout, _) = run_bin(&["--explain", info.id]);
        assert_eq!(code, 0, "--explain {}", info.id);
        assert!(stdout.starts_with(info.id), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
