//! `lint.toml` — per-crate rule configuration.
//!
//! The parser accepts the small TOML subset the gate needs (no external
//! TOML dependency, per the workspace's offline stand-in policy):
//!
//! ```toml
//! # comment
//! [default]              # rule defaults for every crate
//! lock-order = true
//!
//! [crate.vdsms-core]     # per-crate overrides, by package name
//! no-panic-hot-path = true
//! ```
//!
//! Values are booleans. Unknown keys are rejected so a typo cannot
//! silently disable a rule.

use std::collections::BTreeMap;

/// Every switch a crate section may set.
pub const KNOWN_KEYS: &[&str] = &[
    "no-panic-hot-path",
    "no-alloc-hot-path",
    "lock-order",
    "no-unchecked-arith",
    "taint-unchecked-flow",
    "loop-progress",
    "no-swallowed-error",
    "unsafe-audit",
    "guard-across-blocking",
    "channel-protocol",
    // `unsafe-allowed = true` exempts a crate from the
    // `#![forbid(unsafe_code)]` requirement (the parking_lot shim);
    // `// SAFETY:` comments stay mandatory on its unsafe blocks.
    "unsafe-allowed",
];

/// Effective rule switches for one crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    /// Switch per rule id / flag, keyed by the entries of [`KNOWN_KEYS`].
    pub switches: BTreeMap<String, bool>,
}

impl RuleSet {
    /// The gate's built-in defaults. The hot-path rules are globally on
    /// because they are reachability-gated (a crate with no function
    /// reachable from a `// vdsms-lint: entry` marker gets no findings);
    /// `no-unchecked-arith` stays opt-in per crate (it asserts a
    /// crate-specific contract).
    pub fn builtin_default() -> RuleSet {
        let mut switches = BTreeMap::new();
        switches.insert("no-panic-hot-path".to_string(), true);
        switches.insert("no-alloc-hot-path".to_string(), true);
        switches.insert("lock-order".to_string(), true);
        switches.insert("no-unchecked-arith".to_string(), false);
        // `taint-unchecked-flow` asserts a codec-grade input contract and
        // stays opt-in per crate, like `no-unchecked-arith`; the other
        // two v3 rules are cheap and reachability- or resolution-gated.
        switches.insert("taint-unchecked-flow".to_string(), false);
        switches.insert("loop-progress".to_string(), true);
        switches.insert("no-swallowed-error".to_string(), true);
        switches.insert("unsafe-audit".to_string(), true);
        // The concurrency rules are cheap (they only look at summaries
        // that mention channels/guards) and default-on: a deadlock shape
        // is a bug in any crate, not a per-crate contract.
        switches.insert("guard-across-blocking".to_string(), true);
        switches.insert("channel-protocol".to_string(), true);
        switches.insert("unsafe-allowed".to_string(), false);
        RuleSet { switches }
    }

    /// A rule set with every rule enabled (used by fixture tests).
    pub fn all_enabled() -> RuleSet {
        let mut rs = RuleSet::builtin_default();
        for (k, v) in rs.switches.iter_mut() {
            *v = k != "unsafe-allowed";
        }
        rs
    }

    /// Whether switch `key` is on.
    pub fn enabled(&self, key: &str) -> bool {
        self.switches.get(key).copied().unwrap_or(false)
    }

    fn apply(&mut self, overrides: &BTreeMap<String, bool>) {
        for (k, v) in overrides {
            self.switches.insert(k.clone(), *v);
        }
    }
}

/// Parsed `lint.toml`: defaults plus per-crate overrides.
#[derive(Debug, Default)]
pub struct LintConfig {
    default: BTreeMap<String, bool>,
    per_crate: BTreeMap<String, BTreeMap<String, bool>>,
}

impl LintConfig {
    /// The effective rule set for crate `name`.
    pub fn rules_for(&self, name: &str) -> RuleSet {
        let mut rs = RuleSet::builtin_default();
        rs.apply(&self.default);
        if let Some(overrides) = self.per_crate.get(name) {
            rs.apply(overrides);
        }
        rs
    }
}

/// Configuration parse error with line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Parse a `lint.toml` document.
pub fn parse_config(text: &str) -> Result<LintConfig, ConfigError> {
    let mut cfg = LintConfig::default();
    // None = before any section; entries there are rejected.
    let mut section: Option<String> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(ConfigError { line: lineno, message: "unterminated section header".into() });
            };
            let name = name.trim();
            if name != "default" && !name.starts_with("crate.") {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown section [{name}] (expected [default] or [crate.<name>])"),
                });
            }
            section = Some(name.to_string());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ConfigError { line: lineno, message: format!("expected `key = value`, got `{line}`") });
        };
        let key = key.trim();
        let value = value.trim();
        if !KNOWN_KEYS.contains(&key) {
            return Err(ConfigError { line: lineno, message: format!("unknown rule key `{key}`") });
        }
        let value = match value {
            "true" => true,
            "false" => false,
            other => {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("value for `{key}` must be true or false, got `{other}`"),
                })
            }
        };
        match &section {
            None => {
                return Err(ConfigError { line: lineno, message: "entry outside any section".into() })
            }
            Some(s) if s == "default" => {
                cfg.default.insert(key.to_string(), value);
            }
            Some(s) => {
                let name = s.trim_start_matches("crate.").to_string();
                cfg.per_crate.entry(name).or_default().insert(key.to_string(), value);
            }
        }
    }
    Ok(cfg)
}

/// Drop a trailing `# comment` (quotes are not needed in this subset).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_overrides_compose() {
        let cfg = parse_config(
            "
            [default]
            lock-order = true
            [crate.vdsms-core]
            no-panic-hot-path = true
            [crate.vdsms-bench]
            lock-order = false
            ",
        )
        .unwrap();
        assert!(cfg.rules_for("vdsms-core").enabled("no-panic-hot-path"));
        assert!(cfg.rules_for("vdsms-core").enabled("lock-order"));
        assert!(!cfg.rules_for("vdsms-bench").enabled("lock-order"));
        // Unmentioned crates keep the built-in defaults.
        assert!(cfg.rules_for("other").enabled("no-panic-hot-path"));
        assert!(!cfg.rules_for("other").enabled("no-unchecked-arith"));
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        assert!(parse_config("[default]\nno-such-rule = true").is_err());
        assert!(parse_config("[weird]\n").is_err());
        assert!(parse_config("lock-order = true").is_err());
        assert!(parse_config("[default]\nlock-order = yes").is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let cfg = parse_config("# top\n[default] # section\nlock-order = false # off\n").unwrap();
        assert!(!cfg.rules_for("x").enabled("lock-order"));
    }
}
