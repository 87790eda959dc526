//! Byte-soup fuzzing: the linter must survive arbitrary input without
//! panicking. Two surfaces are hammered — raw bytes masquerading as
//! source, and Rust-shaped token soup (the nastier case: it gets deep
//! into the parser) — and every case must come back with *some* report,
//! never an abort. The full pipeline runs: lex → parse → summarize →
//! link-phase analysis → render/JSON.

use proptest::prelude::*;
use vdsms_lint::config::KNOWN_KEYS;
use vdsms_lint::{lint_sources, parse_config, LintConfig, SourceFile};

/// A config with every rule switched on, so fuzz inputs exercise every
/// analysis, not just the default set.
fn all_rules() -> LintConfig {
    let mut toml = String::from("[default]\n");
    for key in KNOWN_KEYS {
        if *key == "unsafe-allowed" {
            continue;
        }
        toml.push_str(&format!("{key} = true\n"));
    }
    parse_config(&toml).unwrap()
}

/// Run the whole pipeline over one synthetic file and serialize both
/// output formats; the only failure mode we accept is a diagnostic.
fn lint_soup(source: String, is_crate_root: bool) {
    let files = [SourceFile {
        crate_name: "fuzz".to_string(),
        path: "fuzz.rs".to_string(),
        source,
        is_crate_root,
    }];
    let report = lint_sources(&files, &all_rules());
    let _ = report.render();
    let _ = report.to_json();
}

/// Fragments that look enough like Rust to drive the parser into its
/// corners: unbalanced delimiters, half-finished items, markers the
/// summarizer keys on, raw strings, lifetimes, macro soup.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "pub fn f(",
    ") -> Result<(), ",
    "{",
    "}",
    "((",
    "]]",
    "let _ = ",
    "let mut x = ",
    ".ok();",
    "?;",
    "unwrap()",
    "while ",
    "loop {",
    "for i in ",
    "0..n",
    "match x {",
    "=> {}",
    "impl ",
    "struct S",
    "self.",
    "read_u8()",
    "payload_len",
    "Vec::with_capacity(",
    "table[i]",
    ".lock()",
    ".send(v)",
    // Concurrency-summary bait: spawn/closure/channel shapes that feed
    // the channel-bind and blocking walks.
    "thread::spawn(move || {",
    "thread::spawn(move || { tx.send(x); })",
    "let (tx, rx) = mpsc::channel();",
    "let (tx, rx) = mpsc::sync_channel(1);",
    "let (a, mut b",
    "Arc::new(RefCell::new(0))",
    "Arc::clone(&state)",
    "Rc::new(",
    "static mut ",
    ".recv()",
    ".recv_timeout(t)",
    ".join()",
    "drop(rx);",
    "drop(g);",
    "move ||",
    "// vdsms-lint: entry",
    "// vdsms-lint: allow(no-panic) reason=\"x\"",
    "#[test]",
    "#[cfg(test)]",
    "r#\"raw",
    "\"unterminated",
    "'a>",
    "'x'",
    "b'\\\\",
    "macro_rules! m {",
    "1_000_000usize",
    "0xFFu8 as usize",
    "/* nested /* comment",
    "\u{0}\u{7f}",
    "λ≤≥→",
    ";;",
    ",",
    "::<>",
];

fn assemble(picks: &[usize], seps: &[bool]) -> String {
    let mut out = String::new();
    for (k, &p) in picks.iter().enumerate() {
        out.push_str(FRAGMENTS[p % FRAGMENTS.len()]);
        out.push(if seps.get(k).copied().unwrap_or(false) { '\n' } else { ' ' });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw bytes through UTF-8 lossy conversion: mostly lexer abuse —
    /// control characters, replacement chars, stray delimiters.
    #[test]
    fn raw_byte_soup_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        is_root in any::<bool>(),
    ) {
        lint_soup(String::from_utf8_lossy(&bytes).into_owned(), is_root);
    }

    /// Rust-shaped token soup: random fragment sequences reach far past
    /// the lexer into item/expression parsing and summarization.
    #[test]
    fn token_soup_never_panics(
        picks in proptest::collection::vec(any::<usize>(), 0..256),
        seps in proptest::collection::vec(any::<bool>(), 0..256),
        is_root in any::<bool>(),
    ) {
        lint_soup(assemble(&picks, &seps), is_root);
    }
}
