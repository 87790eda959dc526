#![forbid(unsafe_code)]
//! # vdsms-lint — the workspace static-analysis gate
//!
//! PR 1's headline guarantee — detections and stats are **bit-identical
//! at any shard count** — and the paper's continuous-monitoring setting
//! (Yan/Ooi/Zhou, ICDE 2008, §VI assumes uninterrupted operation) are
//! properties of the *code*, not of any one test run. This crate enforces
//! them mechanically, in one pass — read, lex, parse, summarise, link,
//! report — with two layers of rules sharing one hand-rolled lexer (no
//! external parser dependencies, consistent with the workspace's offline
//! stand-in policy):
//!
//! 1. **Per-file token rules** ([`rules`]) — pattern matchers for
//!    structural bans (order-randomized collections, wall-clock reads,
//!    std locks, unaudited `unsafe`).
//! 2. **Workspace semantic analyses** ([`flow`]) — a recursive-descent
//!    [`parser`] builds a lint-grade [`ast`], per-function [`summaries`]
//!    are the only thing that crosses from the AST walkers to the link
//!    phase, a [`symbols`] table and a [`callgraph`] link every file, and
//!    the analyses run over the whole workspace at once: interprocedural
//!    hot-path inference (panic- and allocation-freedom from
//!    `// vdsms-lint: entry` markers), lock-order deadlock detection,
//!    taint-based overflow checking and float-compare determinism.
//!
//! Both layers share inline suppressions with mandatory reasons,
//! per-crate configuration in `lint.toml`, and machine-readable JSON
//! output for CI. See [`rules`] for the rule catalog and suppression
//! syntax, or `vdsms-lint --explain <rule>` for any single rule. Run the
//! gate as `cargo run -p vdsms-lint --release` (what `ci.sh` does); the
//! binary, the tests and the self-check all go through
//! [`lint_workspace`] → [`lint_sources`], and every run computes its
//! verdict from the sources (≈ 50 ms for the whole tree).
//!
//! The lint scope is each crate's `src/` tree: integration tests,
//! benches and examples are test/demo code by definition, and `#[cfg(test)]`
//! / `#[test]` items inside `src/` are excluded by the lexer's test-region
//! tracking.

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod diag;
pub mod flow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod summaries;
pub mod symbols;

pub use config::{parse_config, ConfigError, LintConfig, RuleSet};
pub use diag::{Diagnostic, Report};
pub use rules::FileReport;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One source file handed to the lint driver, with the crate it belongs
/// to (rule switches are per crate) and its workspace-relative path
/// label (used verbatim in diagnostics).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Package name of the owning crate.
    pub crate_name: String,
    /// Workspace-relative path label (forward slashes).
    pub path: String,
    /// Full source text.
    pub source: String,
    /// Whether this is the crate root (`src/lib.rs` / `src/main.rs`),
    /// where `#![forbid(unsafe_code)]` is required.
    pub is_crate_root: bool,
}

impl SourceFile {
    /// A finding in this file, with the offending source line (trimmed)
    /// as its snippet.
    pub(crate) fn diagnostic(
        &self,
        rule: &str,
        line: u32,
        col: u32,
        message: String,
    ) -> Diagnostic {
        let snippet = self
            .source
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        Diagnostic { rule: rule.to_string(), file: self.path.clone(), line, col, message, snippet }
    }
}

/// Errors while driving a workspace lint run.
#[derive(Debug)]
pub enum LintError {
    /// I/O failure reading a file (path, error).
    Io(PathBuf, std::io::Error),
    /// `lint.toml` is missing or malformed.
    Config(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LintError::Config(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// One discovered workspace crate.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `Cargo.toml`.
    pub name: String,
    /// Crate directory (contains `Cargo.toml` and `src/`).
    pub dir: PathBuf,
}

/// Discover workspace members: the root package plus every `crates/*`
/// directory with a `Cargo.toml`. Sorted by name for deterministic
/// reports.
pub fn discover_crates(root: &Path) -> Result<Vec<CrateInfo>, LintError> {
    let mut out = Vec::new();
    let mut push_pkg = |dir: PathBuf| -> Result<(), LintError> {
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() || !dir.join("src").is_dir() {
            return Ok(());
        }
        let text = std::fs::read_to_string(&manifest).map_err(|e| LintError::Io(manifest, e))?;
        if let Some(name) = package_name(&text) {
            out.push(CrateInfo { name, dir });
        }
        Ok(())
    };
    push_pkg(root.to_path_buf())?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            std::fs::read_dir(&crates_dir).map_err(|e| LintError::Io(crates_dir.clone(), e))?;
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            push_pkg(dir)?;
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// Extract `name = "…"` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// All `.rs` files under `dir`, recursively, sorted for determinism.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| LintError::Io(d.clone(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| LintError::Io(d.clone(), e))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint a set of in-memory sources as one workspace, in one pass: lex
/// each file, run its crate's token rules, parse and summarise it; link
/// the summaries and run the cross-file analyses; then apply
/// suppressions (one pass, shared by both layers) and sort canonically.
pub fn lint_sources(files: &[SourceFile], config: &LintConfig) -> Report {
    let rule_sets: Vec<RuleSet> = files.iter().map(|f| config.rules_for(&f.crate_name)).collect();
    let mut per_file: Vec<Vec<Diagnostic>> = Vec::with_capacity(files.len());
    let mut summaries: Vec<summaries::FileSummary> = Vec::with_capacity(files.len());
    for (file, rules) in files.iter().zip(&rule_sets) {
        let lexed = lexer::lex(&file.source);
        per_file.push(rules::token_rules(file, &lexed, rules));
        summaries.push(summaries::summarize(&lexed, &parser::parse_file(&lexed)));
    }

    // Workspace analyses emit diagnostics keyed by path label; route
    // them back to their files so suppressions apply uniformly.
    let by_path: BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();
    for diag in flow::analyze(files, &summaries, &rule_sets) {
        if let Some(&i) = by_path.get(diag.file.as_str()) {
            per_file[i].push(diag);
        }
    }

    let mut report = Report::default();
    for (i, diags) in per_file.into_iter().enumerate() {
        let fr = rules::apply_suppressions(
            &files[i].path,
            &summaries[i].comments,
            diags,
            &rule_sets[i],
        );
        report.files_scanned += 1;
        report.suppressed += fr.suppressed;
        report.diagnostics.extend(fr.diagnostics);
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    report
}

/// Read every crate's `src/` tree under `root` into [`SourceFile`]s,
/// in the canonical (crate, path) order.
fn collect_workspace_files(root: &Path) -> Result<Vec<SourceFile>, LintError> {
    let mut files = Vec::new();
    for krate in discover_crates(root)? {
        let src = krate.dir.join("src");
        let crate_root_file = ["lib.rs", "main.rs"]
            .iter()
            .map(|f| src.join(f))
            .find(|p| p.is_file());
        for path in rust_files(&src)? {
            let source =
                std::fs::read_to_string(&path).map_err(|e| LintError::Io(path.clone(), e))?;
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile {
                crate_name: krate.name.clone(),
                path: label,
                source,
                is_crate_root: crate_root_file.as_deref() == Some(&path),
            });
        }
    }
    Ok(files)
}

/// Lint every crate's `src/` tree under `root` with `config`.
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<Report, LintError> {
    let files = collect_workspace_files(root)?;
    Ok(lint_sources(&files, config))
}

/// Load and parse `<root>/lint.toml`.
fn load_config(root: &Path) -> Result<LintConfig, LintError> {
    let config_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&config_path)
        .map_err(|e| LintError::Config(format!("{}: {e}", config_path.display())))?;
    parse_config(&text).map_err(|e| LintError::Config(e.to_string()))
}

/// Load `<root>/lint.toml` and lint the workspace — what the binary
/// runs.
pub fn lint_workspace_with_default_config(root: &Path) -> Result<Report, LintError> {
    let config = load_config(root)?;
    lint_workspace(root, &config)
}

/// Walk upward from `start` to the first directory containing
/// `lint.toml` (the workspace root).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("lint.toml").is_file() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_workspace_manifest_shapes() {
        assert_eq!(
            package_name("[package]\nname = \"vdsms-core\"\nversion.workspace = true\n"),
            Some("vdsms-core".to_string())
        );
        // `name` under a different section must not match.
        assert_eq!(package_name("[workspace]\nname = \"nope\"\n"), None);
        // Root manifest: [workspace] first, then [package].
        assert_eq!(
            package_name("[workspace]\nmembers = [\"crates/*\"]\n[package]\nname = \"vdsms\"\n"),
            Some("vdsms".to_string())
        );
    }
}
