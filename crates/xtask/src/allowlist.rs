//! The ratcheting allowlist (`crates/xtask/lint-allow.toml`).
//!
//! Format — a tiny TOML subset parsed by hand (no dependencies):
//!
//! ```toml
//! # comments
//! [panic-safety]
//! "crates/net/src/topology.rs" = 16
//! ```
//!
//! Each entry is the number of findings of that rule budgeted for that
//! file. The gate (`engine::gate`) is strict both ways — it fails when a
//! file exceeds its budget and when it is under it — so a budget can
//! only ever be ratcheted down, in the change that burns the debt.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// rule -> file -> allowed count.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Allowlist {
    pub budgets: BTreeMap<String, BTreeMap<String, usize>>,
}

/// A malformed allowlist line.
#[derive(Debug)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Allowlist {
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut budgets: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                budgets.entry(name.trim().to_string()).or_default();
                continue;
            }
            let Some(rule) = section.clone() else {
                return Err(ParseError {
                    line: lineno,
                    message: format!("entry before any [rule] section: {line}"),
                });
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(ParseError {
                    line: lineno,
                    message: format!("expected `\"path\" = count`, got: {line}"),
                });
            };
            let path = key
                .trim()
                .trim_matches('"')
                .to_string();
            let count: usize = value.trim().parse().map_err(|_| ParseError {
                line: lineno,
                message: format!("count is not a number: {}", value.trim()),
            })?;
            if path.is_empty() {
                return Err(ParseError {
                    line: lineno,
                    message: "empty path".to_string(),
                });
            }
            budgets.entry(rule).or_default().insert(path, count);
        }
        Ok(Allowlist { budgets })
    }

    /// Budget for (rule, file); zero when absent.
    pub fn budget(&self, rule: &str, file: &str) -> usize {
        self.budgets
            .get(rule)
            .and_then(|files| files.get(file))
            .copied()
            .unwrap_or(0)
    }

    /// Renders the canonical file content (sorted, commented header).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# xtask lint allowlist — pre-existing violation budgets, per rule, per file.\n\
             # The gate fails when a file EXCEEDS its budget and when it is UNDER it:\n\
             # only ratchet these numbers DOWN, in the change that burns the debt.\n\
             # Regenerate with\n\
             #   cargo run -p xtask -- lint --update-allowlist\n",
        );
        for (rule, files) in &self.budgets {
            if files.is_empty() {
                continue;
            }
            let _ = write!(out, "\n[{rule}]\n");
            for (file, count) in files {
                let _ = writeln!(out, "\"{file}\" = {count}");
            }
        }
        out
    }

    /// Total number of budgeted violations for a rule.
    pub fn total(&self, rule: &str) -> usize {
        self.budgets
            .get(rule)
            .map(|files| files.values().sum())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let text = r#"
# header
[panic-safety]
"crates/a/src/lib.rs" = 3
"crates/b/src/lib.rs" = 1

[timer-constants]
"crates/a/src/lib.rs" = 2
"#;
        let list = Allowlist::parse(text).unwrap();
        assert_eq!(list.budget("panic-safety", "crates/a/src/lib.rs"), 3);
        assert_eq!(list.budget("panic-safety", "crates/missing.rs"), 0);
        assert_eq!(list.total("panic-safety"), 4);
        let reparsed = Allowlist::parse(&list.render()).unwrap();
        assert_eq!(list, reparsed);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Allowlist::parse("\"orphan\" = 3").is_err());
        assert!(Allowlist::parse("[r]\n\"p\" = x").is_err());
        assert!(Allowlist::parse("[r]\nnonsense").is_err());
    }
}
