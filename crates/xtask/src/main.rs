//! `xtask` — workspace automation, run as `cargo run -p xtask -- <command>`.
//!
//! Commands:
//!
//! - `lint [--format text|json] [--update-allowlist] [--explain <RULE>]`
//!   runs the full static-analysis engine (token rules + AST/dataflow
//!   rule packs, see `xtask::engine`) over every workspace `.rs` file.
//!   `--format json` emits a byte-stable machine-readable report;
//!   `--explain` prints the rationale and fix guidance for one rule;
//!   `--update-allowlist` regenerates the ratchet budgets in
//!   `crates/xtask/lint-allow.toml` from observed counts.
//! - `audit [--format text|json] [--explain <RULE>]` runs the same
//!   engine but reports the parallelism-safety view: every
//!   `thread::scope`/`spawn` site in the determinism scope with its
//!   capture set (mode, shared-state reachability, RNG provenance)
//!   plus the parallelism diagnostics. The JSON report is byte-stable.
//! - `check-json <file>` validates that a file parses as JSON (used by
//!   CI to assert the lint report is well-formed without jq/python).
//!
//! Exit codes: 0 clean, 1 lint violations, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::allowlist::Allowlist;
use xtask::diag::{self, render_json, render_text};
use xtask::engine::{self, Analysis};
use xtask::jsonchk;

const ALLOWLIST_REL: &str = "crates/xtask/lint-allow.toml";

const USAGE: &str = "usage: cargo run -p xtask -- <command>\n\
commands:\n  \
  lint [--format text|json] [--update-allowlist] [--explain <RULE>]\n  \
  audit [--format text|json] [--explain <RULE>]\n  \
  check-json <file>";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("lint") => {
            let mut update_allowlist = false;
            let mut format = Format::Text;
            while let Some(arg) = it.next() {
                match arg {
                    "--update-allowlist" => update_allowlist = true,
                    "--format" => match it.next() {
                        Some("text") => format = Format::Text,
                        Some("json") => format = Format::Json,
                        other => {
                            eprintln!(
                                "--format takes `text` or `json`, got {}",
                                other.unwrap_or("nothing")
                            );
                            return ExitCode::from(2);
                        }
                    },
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
            match run_lint(update_allowlist, format) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(err) => {
                    eprintln!("xtask lint: {err}");
                    ExitCode::from(2)
                }
            }
        }
        Some("audit") => {
            let mut format = Format::Text;
            while let Some(arg) = it.next() {
                match arg {
                    "--format" => match it.next() {
                        Some("text") => format = Format::Text,
                        Some("json") => format = Format::Json,
                        other => {
                            eprintln!(
                                "--format takes `text` or `json`, got {}",
                                other.unwrap_or("nothing")
                            );
                            return ExitCode::from(2);
                        }
                    },
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
                        eprintln!("unknown audit option: {other}\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            match run_audit(format) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(err) => {
                    eprintln!("xtask audit: {err}");
                    ExitCode::from(2)
                }
            }
        }
        Some("check-json") => match it.next() {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => match jsonchk::validate(&text) {
                    Ok(()) => {
                        println!("{path}: valid JSON");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{path}: invalid JSON: {e}");
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("reading {path}: {e}");
                    ExitCode::from(2)
                }
            },
            None => {
                eprintln!("check-json takes a file path\n{USAGE}");
                ExitCode::from(2)
            }
        },
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
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").map_err(|_| "CARGO_MANIFEST_DIR not set".to_string())?;
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
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {ALLOWLIST_REL}: {e}"))?;
    Allowlist::parse(&text).map_err(|e| format!("{ALLOWLIST_REL}: {e}"))
}

fn run_lint(update_allowlist: bool, format: Format) -> Result<bool, String> {
    let root = workspace_root()?;
    let allowlist_path = root.join(ALLOWLIST_REL);
    let allowlist = load_allowlist(&allowlist_path)?;

    let analysis = engine::analyze(&root, &allowlist)?;

    if update_allowlist {
        std::fs::write(&allowlist_path, analysis.observed.render())
            .map_err(|e| format!("writing {ALLOWLIST_REL}: {e}"))?;
        println!("wrote {ALLOWLIST_REL} with current ratchet counts");
        return Ok(true);
    }

    match format {
        Format::Json => {
            print!(
                "{}",
                render_json(analysis.files_checked, &analysis.diagnostics, analysis.ok)
            );
        }
        Format::Text => report_text(&analysis, &allowlist),
    }
    Ok(analysis.ok)
}

fn run_audit(format: Format) -> Result<bool, String> {
    let root = workspace_root()?;
    let allowlist = load_allowlist(&root.join(ALLOWLIST_REL))?;
    let analysis = engine::analyze(&root, &allowlist)?;
    let audit = engine::audit_view(&analysis);

    match format {
        Format::Json => {
            print!(
                "{}",
                xtask::par::render_audit_json(
                    audit.files_checked,
                    &audit.spawn_sites,
                    &audit.diagnostics,
                    audit.ok
                )
            );
        }
        Format::Text => report_audit_text(&audit),
    }
    Ok(audit.ok)
}

fn report_audit_text(audit: &engine::AuditReport) {
    for s in &audit.spawn_sites {
        let captures: Vec<String> = s
            .captures
            .iter()
            .map(|c| {
                let mut extra = Vec::new();
                if c.shared {
                    extra.push("shared".to_string());
                }
                if c.rng != "none" {
                    extra.push(format!("rng:{}", c.rng));
                }
                if extra.is_empty() {
                    format!("{} ({})", c.name, c.mode)
                } else {
                    format!("{} ({}, {})", c.name, c.mode, extra.join(", "))
                }
            })
            .collect();
        println!(
            "{}:{}:{}: [{}] in `{}` captures: {}",
            s.file,
            s.span.line,
            s.span.col,
            s.kind,
            s.function,
            if captures.is_empty() { "none".to_string() } else { captures.join(", ") },
        );
    }
    for d in &audit.diagnostics {
        if !d.allowed {
            println!("{}", render_text(d));
        }
    }
    for m in &audit.over {
        println!(
            "{}: [{}] {} finding(s) exceed the allowlisted budget of {}",
            m.file, m.rule, m.actual, m.budget
        );
    }
    for m in &audit.stale {
        println!(
            "{}: [{}] stale budget: {} allowed but only {} found — run \
             `cargo run -p xtask -- lint --update-allowlist` to ratchet down",
            m.file, m.rule, m.budget, m.actual
        );
    }
    println!(
        "xtask audit: {} files; {} spawn site(s); {} parallelism finding(s)",
        audit.files_checked,
        audit.spawn_sites.len(),
        audit.diagnostics.len(),
    );
    if audit.ok {
        println!("xtask audit: OK");
    } else {
        println!(
            "xtask audit: FAILED (fix the parallel region, add an inline \
             `// lint:allow(<rule>)` waiver naming the blessed seam, or ratchet \
             lint-allow.toml; see `lint --explain <rule>`)"
        );
    }
}

fn report_text(analysis: &Analysis, allowlist: &Allowlist) {
    for d in &analysis.diagnostics {
        if !d.allowed {
            println!("{}", render_text(d));
        }
    }
    for m in &analysis.over {
        println!(
            "{}: [{}] {} finding(s) exceed the allowlisted budget of {}",
            m.file, m.rule, m.actual, m.budget
        );
    }
    for m in &analysis.stale {
        println!(
            "{}: [{}] stale budget: {} allowed but only {} found — run \
             `cargo run -p xtask -- lint --update-allowlist` to ratchet down",
            m.file, m.rule, m.budget, m.actual
        );
    }

    let mut totals: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for d in &analysis.diagnostics {
        *totals.entry(d.rule).or_default() += 1;
    }
    let summary: Vec<String> = diag::ALL_RULES
        .iter()
        .filter_map(|r| totals.get(r).map(|n| format!("{n} {r}")))
        .collect();
    let hot_budget = allowlist.total(diag::RULE_ALLOC_HOT_LOOP)
        + allowlist.total(diag::RULE_CLONE_HOT_PATH)
        + allowlist.total(diag::RULE_MAP_SCAN);
    println!(
        "xtask lint: {} files; findings: {}; budgets: {} panic-safety, {} panic-indexing, \
         {} hot-path",
        analysis.files_checked,
        if summary.is_empty() { "none".to_string() } else { summary.join(", ") },
        allowlist.total(diag::RULE_PANIC_SAFETY),
        allowlist.total(diag::RULE_PANIC_INDEXING),
        hot_budget,
    );
    if analysis.ok {
        println!("xtask lint: OK");
    } else {
        println!(
            "xtask lint: FAILED (fix the code, add an inline `// lint:allow(<rule>)` waiver \
             with justification, or — for pre-existing panic debt only — ratchet \
             lint-allow.toml; see `lint --explain <rule>`)"
        );
    }
}
