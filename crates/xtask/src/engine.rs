//! The lint pass: clippy's findings plus the token rules, then the
//! ratcheting allowlist and the final deterministic report.

use std::collections::BTreeMap;
use std::path::Path;

use crate::allowlist::Allowlist;
use crate::diag::{sort_diagnostics, Diagnostic, RULE_PANIC_INDEXING, RULE_PANIC_SAFETY};
use crate::rules::{self, TimerRule};
use crate::{clippy, lexer, walk};

/// Crates whose non-test code may not spell a `from_millis`/`from_secs`
/// literal at all: the layers that run or consume the protocol timers.
/// `xtask` is included so the rule's own sources obey it.
pub const TIMER_LITERAL_SCOPE: &[&str] = &[
    "crates/sim/src",
    "crates/routing/src",
    "crates/emu/src",
    "crates/core/src",
    "crates/sweep/src",
    "crates/chaos/src",
    "crates/metrics/src",
    "crates/xtask/src",
];

/// Crates where only protocol-timer *magnitudes* are flagged: experiment
/// drivers legitimately spell analysis windows and deadlines (100 ms,
/// 250 ms) but must not restate a protocol timer.
pub const TIMER_MAGNITUDE_SCOPE: &[&str] = &["crates/experiments/src"];

/// The only files allowed to define protocol timer constants:
/// `dcn_sim::timers` holds the paper's measured timer values (the lowest
/// layer, so routing/emu defaults can reference them), and
/// `crates/core/src/config.rs` is the top-level experiment configuration.
pub const TIMER_CONFIG_FILES: &[&str] = &["crates/sim/src/timers.rs", "crates/core/src/config.rs"];

/// Rules whose pre-existing debt may be budgeted in `lint-allow.toml`.
/// Everything else must be fixed or waived where it stands.
pub const RATCHET_RULES: &[&str] = &[RULE_PANIC_SAFETY, RULE_PANIC_INDEXING];

/// How much of `timer-constants` applies to a file (decided from its path).
pub fn timer_rule_for(rel_path: &str) -> TimerRule {
    let within = |scope: &[&str]| scope.iter().any(|s| rel_path.starts_with(s));
    if TIMER_CONFIG_FILES.contains(&rel_path) {
        TimerRule::Off
    } else if within(TIMER_LITERAL_SCOPE) {
        TimerRule::Literals
    } else if within(TIMER_MAGNITUDE_SCOPE) {
        TimerRule::Magnitudes
    } else {
        TimerRule::Off
    }
}

/// A (rule, file) budget that no longer matches reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetMismatch {
    pub rule: String,
    pub file: String,
    pub actual: usize,
    pub budget: usize,
}

/// The complete result of one lint run.
pub struct Report {
    pub files_checked: usize,
    /// All diagnostics, sorted; `allowed` marks budget-covered findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Budgets exceeded (actual > budget) — always a failure.
    pub over: Vec<BudgetMismatch>,
    /// Stale budgets (actual < budget) — also a failure: the ratchet
    /// must be lowered in the same change that burns debt down.
    pub stale: Vec<BudgetMismatch>,
    pub ok: bool,
    /// Observed ratchet-rule counts, for `--update-allowlist`.
    pub observed: Allowlist,
}

/// Runs the whole pass over the workspace rooted at `root`.
pub fn analyze(root: &Path, allowlist: &Allowlist) -> Result<Report, String> {
    let mut diagnostics = clippy::run(root)?;
    let (files_checked, token_diagnostics) = token_pass(root)?;
    diagnostics.extend(token_diagnostics);
    gate(files_checked, diagnostics, allowlist)
}

/// Runs the token rules over every non-test `.rs` file under `root`;
/// returns the number of files read and the unsorted findings.
pub fn token_pass(root: &Path) -> Result<(usize, Vec<Diagnostic>), String> {
    let paths = walk::workspace_rs_files(root)?;
    let mut diagnostics = Vec::new();
    for path in &paths {
        let rel = walk::repo_relative(root, path);
        let source = std::fs::read_to_string(path).map_err(|e| format!("reading {rel}: {e}"))?;
        diagnostics.extend(rules::check(
            &lexer::lex(&source),
            timer_rule_for(&rel),
            &rel,
        ));
    }
    Ok((paths.len(), diagnostics))
}

/// Sorts the findings and applies the allowlist: a finding passes only
/// under a budget that covers its (rule, file) count, and every budget
/// must equal the count it covers. Budgets exist for [`RATCHET_RULES`]
/// only; a section for any other rule is an error.
pub fn gate(
    files_checked: usize,
    mut diagnostics: Vec<Diagnostic>,
    allowlist: &Allowlist,
) -> Result<Report, String> {
    if let Some(rule) = allowlist
        .budgets
        .keys()
        .find(|r| !RATCHET_RULES.contains(&r.as_str()))
    {
        return Err(format!(
            "lint-allow.toml: [{rule}] cannot carry budgets: only {} are ratcheted",
            RATCHET_RULES.join(", ")
        ));
    }
    sort_diagnostics(&mut diagnostics);

    let mut counts: BTreeMap<(&'static str, String), usize> = BTreeMap::new();
    for d in &diagnostics {
        *counts.entry((d.rule, d.file.clone())).or_default() += 1;
    }
    let mut over = Vec::new();
    let mut stale = Vec::new();
    for ((rule, file), &actual) in &counts {
        let budget = allowlist.budget(rule, file);
        let mismatch = BudgetMismatch {
            rule: rule.to_string(),
            file: file.clone(),
            actual,
            budget,
        };
        // A file with findings and no budget is not "over": each of its
        // findings is reported on its own line instead.
        if actual > budget && budget > 0 {
            over.push(mismatch);
        } else if actual < budget {
            stale.push(mismatch);
        }
    }
    // Budgets for files that no longer have findings at all are stale too.
    for (rule, per_file) in &allowlist.budgets {
        for (file, &budget) in per_file {
            let counted = counts.keys().any(|(r, f)| r == rule && f == file);
            if budget > 0 && !counted {
                stale.push(BudgetMismatch {
                    rule: rule.clone(),
                    file: file.clone(),
                    actual: 0,
                    budget,
                });
            }
        }
    }
    stale.sort_by(|a, b| (&a.rule, &a.file).cmp(&(&b.rule, &b.file)));

    let mut ok = over.is_empty() && stale.is_empty();
    for d in &mut diagnostics {
        let count = counts.get(&(d.rule, d.file.clone())).copied().unwrap_or(0);
        d.allowed = count <= allowlist.budget(d.rule, &d.file);
        ok &= d.allowed;
    }

    let mut observed = Allowlist::default();
    for ((rule, file), &n) in &counts {
        if RATCHET_RULES.contains(rule) {
            observed
                .budgets
                .entry(rule.to_string())
                .or_default()
                .insert(file.clone(), n);
        }
    }

    Ok(Report {
        files_checked,
        diagnostics,
        over,
        stale,
        ok,
        observed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{render_text, RULE_CLIPPY, RULE_DETERMINISM};

    /// Three `indexing_slicing` hits and one `expect_used` in `a.rs`,
    /// as cargo would print them from the repo root.
    fn canned() -> Vec<Diagnostic> {
        let line = clippy::canned_warning;
        let stdout = [
            line("clippy::indexing_slicing", "crates/a/src/a.rs", 3),
            line("clippy::indexing_slicing", "crates/a/src/a.rs", 1),
            line("clippy::expect_used", "crates/a/src/a.rs", 2),
            line("clippy::indexing_slicing", "/repo/crates/a/src/a.rs", 4),
        ]
        .join("\n");
        clippy::parse(&stdout, Path::new("/repo")).expect("canned output parses")
    }

    fn allow(text: &str) -> Allowlist {
        Allowlist::parse(text).expect("test allowlist parses")
    }

    const EXACT: &str =
        "[panic-indexing]\n\"crates/a/src/a.rs\" = 3\n[panic-safety]\n\"crates/a/src/a.rs\" = 1\n";

    #[test]
    fn exact_budgets_pass_and_round_trip_through_update() {
        let report = gate(1, canned(), &allow(EXACT)).unwrap();
        assert!(report.ok);
        assert!(report.over.is_empty() && report.stale.is_empty());
        assert!(report.diagnostics.iter().all(|d| d.allowed));
        assert_eq!(
            report.observed,
            allow(EXACT),
            "--update-allowlist would write the same file"
        );
        let lines: Vec<u32> = report.diagnostics.iter().map(|d| d.span.line).collect();
        assert_eq!(lines, [1, 2, 3, 4], "sorted by position");
    }

    #[test]
    fn over_budget_fails() {
        let tight = EXACT.replace("= 3", "= 2");
        let report = gate(1, canned(), &allow(&tight)).unwrap();
        assert!(!report.ok);
        assert_eq!(report.over.len(), 1);
        let over = report.over.first().unwrap();
        assert_eq!(
            (over.rule.as_str(), over.actual, over.budget),
            (RULE_PANIC_INDEXING, 3, 2)
        );
        assert!(report.stale.is_empty());
    }

    #[test]
    fn stale_budget_fails() {
        let loose = EXACT.replace("= 1", "= 2");
        let report = gate(1, canned(), &allow(&loose)).unwrap();
        assert!(!report.ok);
        assert!(report.over.is_empty());
        let stale = report.stale.first().unwrap();
        assert_eq!(
            (stale.rule.as_str(), stale.actual, stale.budget),
            (RULE_PANIC_SAFETY, 1, 2)
        );
        // A budget for a file that has no findings left is stale as well.
        let gone = format!("{EXACT}\"crates/a/src/gone.rs\" = 5\n");
        let report = gate(1, canned(), &allow(&gone)).unwrap();
        assert!(!report.ok);
        let stale = report.stale.first().unwrap();
        assert_eq!(
            (stale.file.as_str(), stale.actual),
            ("crates/a/src/gone.rs", 0)
        );
    }

    #[test]
    fn findings_without_a_budget_fail_one_by_one() {
        let only_indexing = "[panic-indexing]\n\"crates/a/src/a.rs\" = 3\n";
        let report = gate(1, canned(), &allow(only_indexing)).unwrap();
        assert!(!report.ok);
        assert!(report.over.is_empty() && report.stale.is_empty());
        let failing: Vec<String> = report
            .diagnostics
            .iter()
            .filter(|d| !d.allowed)
            .map(render_text)
            .collect();
        assert_eq!(
            failing,
            ["crates/a/src/a.rs:2:1: [panic-safety] clippy::expect_used: m"]
        );
    }

    #[test]
    fn unratcheted_findings_fail_and_cannot_be_budgeted() {
        for rule in [RULE_CLIPPY, RULE_DETERMINISM] {
            let mut diags = canned();
            diags.push(Diagnostic::new(
                "crates/a/src/a.rs",
                Default::default(),
                rule,
                "m".into(),
            ));
            let report = gate(1, diags, &allow(EXACT)).unwrap();
            assert!(!report.ok, "a `{rule}` finding must fail the gate");
            assert_eq!(
                report.observed,
                allow(EXACT),
                "and never enters the allowlist"
            );
        }
        let err = gate(
            1,
            canned(),
            &allow("[determinism]\n\"crates/a/src/a.rs\" = 1\n"),
        )
        .err()
        .expect("a budget section for an unratcheted rule is rejected");
        assert!(err.contains("[determinism] cannot carry budgets"), "{err}");
    }

    #[test]
    fn timer_scopes_follow_the_path() {
        assert_eq!(
            timer_rule_for("crates/routing/src/process.rs"),
            TimerRule::Literals
        );
        assert_eq!(
            timer_rule_for("crates/experiments/src/fig7.rs"),
            TimerRule::Magnitudes
        );
        assert_eq!(timer_rule_for("crates/sim/src/timers.rs"), TimerRule::Off);
        assert_eq!(timer_rule_for("crates/core/src/config.rs"), TimerRule::Off);
        assert_eq!(
            timer_rule_for("crates/transport/src/tcp.rs"),
            TimerRule::Off
        );
    }
}
