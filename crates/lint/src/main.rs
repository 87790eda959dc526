#![forbid(unsafe_code)]
//! `vdsms-lint` — run the workspace static-analysis gate.
//!
//! ```text
//! vdsms-lint [--format human|json] [--root DIR]
//! vdsms-lint --explain <rule>
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/config error.

use std::process::ExitCode;

const USAGE: &str = "\
vdsms-lint — workspace static-analysis gate

USAGE:
  vdsms-lint [--format human|json] [--root DIR]
  vdsms-lint --explain <rule>

  --format FMT    report format: human (default) or json
  --json          alias for --format json
  --root DIR      workspace root (default: nearest ancestor with lint.toml)
  --explain RULE  print a rule's rationale, example and suppression syntax

Every run reads, parses and analyses the whole workspace; nothing is
kept between runs.

Rules and per-crate configuration live in <root>/lint.toml.
Mark a streaming entry point (root of the hot-path analyses) with:
  // vdsms-lint: entry
or scope it to a subset of the hot-path rules:
  // vdsms-lint: entry(no-panic-hot-path)
Suppress a finding inline with a mandatory reason:
  // vdsms-lint: allow(rule-id) reason=\"why this occurrence is sound\"
";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

fn explain_rule(id: &str) -> ExitCode {
    match vdsms_lint::rules::explain(id) {
        Some(info) => {
            println!("{} — {}\n", info.id, info.summary);
            println!("rationale:\n  {}\n", info.rationale);
            println!("example:");
            for line in info.example.lines() {
                println!("  {line}");
            }
            println!("\nsuppression:\n  {}", info.suppression);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("error: unknown rule `{id}`; registered rules:");
            for info in vdsms_lint::rules::registry() {
                eprintln!("  {} — {}", info.id, info.summary);
            }
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Human;
    let mut root: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => format = Format::Json,
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some(other) => {
                        eprintln!("error: unknown format `{other}` (human, json)\n{USAGE}");
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("error: --format needs a value\n{USAGE}");
                        return ExitCode::from(2);
                    }
                };
            }
            "--explain" => {
                i += 1;
                return match args.get(i) {
                    Some(id) => explain_rule(id),
                    None => {
                        eprintln!("error: --explain needs a rule id\n{USAGE}");
                        ExitCode::from(2)
                    }
                };
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(v) => root = Some(v.clone()),
                    None => {
                        eprintln!("error: --root needs a value\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown flag {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let root = match root {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot read current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match vdsms_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no lint.toml found between {} and /", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    match vdsms_lint::lint_workspace_with_default_config(&root) {
        Ok(report) => {
            match format {
                Format::Human => print!("{}", report.render()),
                Format::Json => print!("{}", report.to_json()),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        // A missing or malformed `lint.toml` is a usage error: the
        // usage text says where the file lives and what goes in it.
        Err(e @ vdsms_lint::LintError::Config(_)) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
