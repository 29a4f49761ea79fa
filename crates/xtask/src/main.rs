//! `xtask` — workspace automation, run as `cargo run -p xtask -- <command>`.
//!
//! One command:
//!
//! - `lint [--update-allowlist] [--explain <RULE>]` runs the lint pass
//!   (clippy's findings plus the token rules, see `xtask::engine`) over
//!   the workspace. `--explain` prints the rationale and fix guidance
//!   for one rule; `--update-allowlist` regenerates the ratchet budgets
//!   in `crates/xtask/lint-allow.toml` from observed counts.
//!
//! Exit codes: 0 clean, 1 lint violations, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::allowlist::Allowlist;
use xtask::diag::{self, render_text};
use xtask::engine::{self, Report};

const ALLOWLIST_REL: &str = "crates/xtask/lint-allow.toml";

const USAGE: &str = "usage: cargo run -p xtask -- <command>\n\
commands:\n  \
  lint [--update-allowlist] [--explain <RULE>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("lint") => {
            let mut update_allowlist = false;
            while let Some(arg) = it.next() {
                match arg {
                    "--update-allowlist" => update_allowlist = true,
                    "--explain" => {
                        return match it.next() {
                            Some(rule) => match diag::explain(rule) {
                                Some(text) => {
                                    println!("{text}");
                                    ExitCode::SUCCESS
                                }
                                None => {
                                    eprintln!("{}", diag::unknown_rule_message(rule));
                                    ExitCode::from(2)
                                }
                            },
                            None => {
                                eprintln!("--explain takes a rule name");
                                ExitCode::from(2)
                            }
                        };
                    }
                    other => {
                        eprintln!("unknown lint option: {other}\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            match run_lint(update_allowlist) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(err) => {
                    eprintln!("xtask lint: {err}");
                    ExitCode::from(2)
                }
            }
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Workspace root: two levels above this crate's manifest dir.
fn workspace_root() -> Result<PathBuf, String> {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map_err(|_| "CARGO_MANIFEST_DIR not set".to_string())?;
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .ok_or_else(|| "cannot locate workspace root".to_string())
}

fn load_allowlist(path: &Path) -> Result<Allowlist, String> {
    if !path.exists() {
        return Ok(Allowlist::default());
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {ALLOWLIST_REL}: {e}"))?;
    Allowlist::parse(&text).map_err(|e| format!("{ALLOWLIST_REL}: {e}"))
}

fn run_lint(update_allowlist: bool) -> Result<bool, String> {
    let root = workspace_root()?;
    let allowlist_path = root.join(ALLOWLIST_REL);
    let allowlist = load_allowlist(&allowlist_path)?;

    let report = engine::analyze(&root, &allowlist)?;

    if update_allowlist {
        std::fs::write(&allowlist_path, report.observed.render())
            .map_err(|e| format!("writing {ALLOWLIST_REL}: {e}"))?;
        println!("wrote {ALLOWLIST_REL} with current ratchet counts");
        return Ok(true);
    }

    report_text(&report, &allowlist);
    Ok(report.ok)
}

fn report_text(report: &Report, allowlist: &Allowlist) {
    for d in &report.diagnostics {
        if !d.allowed {
            println!("{}", render_text(d));
        }
    }
    for m in &report.over {
        println!(
            "{}: [{}] {} finding(s) exceed the allowlisted budget of {}",
            m.file, m.rule, m.actual, m.budget
        );
    }
    for m in &report.stale {
        println!(
            "{}: [{}] stale budget: {} allowed but only {} found — run \
             `cargo run -p xtask -- lint --update-allowlist` to ratchet down",
            m.file, m.rule, m.budget, m.actual
        );
    }

    let mut totals: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for d in &report.diagnostics {
        *totals.entry(d.rule).or_default() += 1;
    }
    let summary: Vec<String> = totals
        .iter()
        .map(|(rule, n)| format!("{n} {rule}"))
        .collect();
    println!(
        "xtask lint: {} files; findings: {}; budgets: {} panic-safety, {} panic-indexing",
        report.files_checked,
        if summary.is_empty() {
            "none".to_string()
        } else {
            summary.join(", ")
        },
        allowlist.total(diag::RULE_PANIC_SAFETY),
        allowlist.total(diag::RULE_PANIC_INDEXING),
    );
    if report.ok {
        println!("xtask lint: OK");
    } else {
        println!(
            "xtask lint: FAILED (fix the code, waive it where it stands with a \
             justification, or — for pre-existing panic debt only — ratchet \
             lint-allow.toml; see `lint --explain <rule>`)"
        );
    }
}
