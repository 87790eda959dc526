//! Diagnostics: what a rule reports, how it renders for humans, and the
//! machine-readable JSON form CI consumes.
//!
//! The JSON emitter goes through [`vdsms_json`] — the same module the
//! `vdsms-workload` floor parser reads with — so the reader and writer
//! of every JSON surface in the workspace share one byte-stable
//! implementation and cannot drift.

use std::fmt::Write as _;
use vdsms_json::Json;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `no-panic-hot-path`).
    pub rule: String,
    /// Path of the offending file, workspace-relative where possible.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed, for rendering.
    pub snippet: String,
}

impl Diagnostic {
    /// Render as `file:line:col: [rule] message` plus the snippet line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        );
        if !self.snippet.is_empty() {
            let _ = writeln!(out, "    | {}", self.snippet);
        }
        out
    }
}

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in (file, line, col) order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of suppressed findings (matched by an `allow` directive).
    pub suppressed: usize,
}

impl Report {
    /// True when no violations were found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
        }
        let _ = writeln!(
            out,
            "vdsms-lint: {} violation(s), {} suppressed, {} file(s) scanned",
            self.diagnostics.len(),
            self.suppressed,
            self.files_scanned
        );
        out
    }

    /// Machine-readable JSON (stable key order, no external deps).
    pub fn to_json(&self) -> String {
        let violations = self
            .diagnostics
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("rule".to_string(), Json::str(&d.rule)),
                    ("file".to_string(), Json::str(&d.file)),
                    ("line".to_string(), Json::num(d.line as usize)),
                    ("col".to_string(), Json::num(d.col as usize)),
                    ("message".to_string(), Json::str(&d.message)),
                    ("snippet".to_string(), Json::str(&d.snippet)),
                ])
            })
            .collect();
        let mut out = Json::Obj(vec![
            ("violations".to_string(), Json::Arr(violations)),
            ("count".to_string(), Json::num(self.diagnostics.len())),
            ("suppressed".to_string(), Json::num(self.suppressed)),
            ("files_scanned".to_string(), Json::num(self.files_scanned)),
        ])
        .to_pretty();
        out.push('\n');
        out
    }
}

/// JSON-escape a string (quotes, backslashes, control characters).
pub fn json_string(s: &str) -> String {
    vdsms_json::escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "no-panic-hot-path".into(),
            file: "crates/core/src/x.rs".into(),
            line: 3,
            col: 7,
            message: "`unwrap()` forbidden".into(),
            snippet: "let v = m.get(&k).unwrap();".into(),
        }
    }

    #[test]
    fn render_contains_location_and_rule() {
        let r = diag().render();
        assert!(r.contains("crates/core/src/x.rs:3:7"));
        assert!(r.contains("[no-panic-hot-path]"));
        assert!(r.contains("unwrap"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_report_shape() {
        let mut rep = Report { files_scanned: 2, ..Default::default() };
        rep.diagnostics.push(diag());
        let j = rep.to_json();
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\"rule\": \"no-panic-hot-path\""));
        // Empty report is still valid JSON with an empty array.
        let empty = Report::default().to_json();
        assert!(empty.contains("\"violations\": []"));
    }
}
