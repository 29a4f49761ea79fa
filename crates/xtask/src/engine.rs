//! The analysis engine: parses the workspace, runs token rules, the
//! dataflow fixpoint and the semantic rule packs, then applies the
//! ratcheting allowlist and produces the final deterministic report.

use std::collections::BTreeMap;
use std::path::Path;

use crate::allowlist::Allowlist;
use crate::dataflow::Evaluator;
use crate::diag::{
    sort_diagnostics, Diagnostic, PAR_RULES, RULE_ALLOC_HOT_LOOP, RULE_CLONE_HOT_PATH,
    RULE_MAP_SCAN, RULE_PANIC_INDEXING, RULE_PANIC_SAFETY, RULE_RELAXED_ATOMIC,
    RULE_SHARED_MUTABLE_CAPTURE, RULE_UNFORKED_RNG, RULE_UNORDERED_REDUCTION,
};
use crate::packs::{filter_waived, PackConfig, Packs};
use crate::par::SiteSummary;
use crate::parser::parse_file;
use crate::reach::{self, HotRoots};
use crate::resolve::{CrateMap, FnTable, SourceFile};
use crate::rules::{self, RuleSet};
use crate::{lexer, walk};

/// Crates whose *library* code must be bit-for-bit deterministic: the
/// simulator's figures are only credible if identical seeds replay
/// identical traces. `xtask` itself is included — the analyzer's output
/// must be byte-stable too.
pub const DETERMINISM_SCOPE: &[&str] = &[
    "crates/sim/src",
    "crates/routing/src",
    "crates/emu/src",
    "crates/core/src",
    "crates/sweep/src",
    "crates/chaos/src",
    "crates/metrics/src",
    "crates/xtask/src",
];

/// The only files allowed to define protocol timer constants:
/// `dcn_sim::timers` holds the paper's measured timer values (the lowest
/// layer, so routing/emu defaults can reference them), and
/// `crates/core/src/config.rs` is the top-level experiment configuration.
pub const TIMER_CONFIG_FILES: &[&str] =
    &["crates/sim/src/timers.rs", "crates/core/src/config.rs"];

/// Crates subject to the timer-provenance pack: the layers that consume
/// protocol timers and must reference them symbolically.
pub const TIMER_PROVENANCE_SCOPE: &[&str] = &[
    "crates/routing/src",
    "crates/chaos/src",
    "crates/experiments/src",
];

/// Rules whose pre-existing debt may be budgeted in `lint-allow.toml`:
/// the panic rules and the hot-path perf rules. Everything else must be
/// fixed or inline-waived. `--update-allowlist` regenerates exactly
/// these sections; manual budgets for other rules are preserved.
pub const RATCHET_RULES: &[&str] = &[
    RULE_PANIC_SAFETY,
    RULE_PANIC_INDEXING,
    RULE_ALLOC_HOT_LOOP,
    RULE_CLONE_HOT_PATH,
    RULE_MAP_SCAN,
    RULE_RELAXED_ATOMIC,
    RULE_SHARED_MUTABLE_CAPTURE,
    RULE_UNFORKED_RNG,
    RULE_UNORDERED_REDUCTION,
];

/// Which token-rule families apply to a file (decided from its path).
pub fn rule_set_for(rel_path: &str) -> RuleSet {
    let in_determinism_scope = DETERMINISM_SCOPE.iter().any(|s| rel_path.starts_with(s));
    RuleSet {
        determinism: in_determinism_scope,
        panic_safety: true,
        timer_constants: in_determinism_scope && !TIMER_CONFIG_FILES.contains(&rel_path),
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

/// The complete result of one analysis run.
pub struct Analysis {
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
    /// Every spawn site in the determinism scope with its capture set,
    /// sorted by (file, line, column) — the `xtask audit` report body.
    pub spawn_sites: Vec<SiteSummary>,
}

/// Runs the full analysis over the workspace rooted at `root`.
pub fn analyze(root: &Path, allowlist: &Allowlist) -> Result<Analysis, String> {
    let crates = CrateMap::load(root);
    let paths = walk::workspace_rs_files(root)?;

    let mut files = Vec::with_capacity(paths.len());
    let mut diagnostics = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "file outside root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("reading {rel}: {e}"))?;
        let lexed = lexer::lex(&source);

        // Token-level rules (waivers already applied inside).
        diagnostics.extend(rules::check(&lexed, rule_set_for(&rel), &rel));

        let ast = parse_file(&lexed);
        let krate = crates.lib_for_rel(&rel).unwrap_or("").to_string();
        files.push(SourceFile::new(rel, krate, lexed, ast));
    }

    // Resolution + dataflow fixpoint.
    let table = FnTable::collect(&files);
    let mut eval = Evaluator::new(&files, &table, &crates);
    eval.run_fixpoint();

    // Semantic rule packs.
    let packs = Packs {
        files: &files,
        table: &table,
        eval: &eval,
        crates: &crates,
        cfg: PackConfig {
            determinism_scope: DETERMINISM_SCOPE,
            timer_scope: TIMER_PROVENANCE_SCOPE,
            timer_exempt: TIMER_CONFIG_FILES,
        },
    };
    let mut pack_diags = Vec::new();
    pack_diags.extend(packs.determinism_taint());
    pack_diags.extend(packs.rng_stream());
    pack_diags.extend(packs.timer_provenance());
    pack_diags.extend(packs.panic_indexing());

    // Parallelism-safety packs: spawn-site capture analysis.
    let sites = packs.spawn_sites();
    pack_diags.extend(packs.shared_mutable_capture(&sites));
    pack_diags.extend(packs.unforked_rng_spawn(&sites));
    pack_diags.extend(packs.unordered_reduction(&sites));
    pack_diags.extend(packs.relaxed_atomic());
    let spawn_sites = crate::par::summarize(&sites);
    drop(sites);

    // Perf packs run only when the tree declares hot roots; a root
    // naming an unknown function is a hard error (a stale root is a
    // silent hole in the perf gate).
    if let Some(hot) = HotRoots::load(root)? {
        let reachability = reach::compute(&files, &table, &eval, &crates, &hot)?;
        pack_diags.extend(packs.alloc_in_hot_loop(&reachability));
        pack_diags.extend(packs.clone_in_hot_path(&reachability));
        pack_diags.extend(packs.map_scan_per_event(&reachability));
    }
    diagnostics.extend(filter_waived(pack_diags, &files));

    sort_diagnostics(&mut diagnostics);

    // Budget accounting, per (rule, file).
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for d in &diagnostics {
        *counts.entry((d.rule.to_string(), d.file.clone())).or_default() += 1;
    }
    let mut over = Vec::new();
    let mut stale = Vec::new();
    let mut covered: BTreeMap<(String, String), bool> = BTreeMap::new();
    for ((rule, file), &n) in &counts {
        let budget = allowlist.budget(rule, file);
        covered.insert((rule.clone(), file.clone()), n <= budget);
        if n > budget && budget > 0 {
            over.push(BudgetMismatch {
                rule: rule.to_string(),
                file: file.to_string(),
                actual: n,
                budget,
            });
        } else if n < budget {
            stale.push(BudgetMismatch {
                rule: rule.to_string(),
                file: file.to_string(),
                actual: n,
                budget,
            });
        }
    }
    // Budgets for files that no longer have findings at all are stale too.
    for (rule, per_file) in &allowlist.budgets {
        for (file, &budget) in per_file {
            if budget > 0 && !counts.contains_key(&(rule.clone(), file.clone())) {
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
        d.allowed = covered
            .get(&(d.rule.to_string(), d.file.clone()))
            .copied()
            .unwrap_or(false);
        if !d.allowed {
            ok = false;
        }
    }

    // Observed counts for the ratchet rules, for --update-allowlist.
    let mut observed = Allowlist::default();
    for ((rule, file), &n) in &counts {
        if RATCHET_RULES.contains(&rule.as_str()) {
            observed
                .budgets
                .entry(rule.clone())
                .or_default()
                .insert(file.clone(), n);
        }
    }
    // Preserve manually-maintained budgets for non-ratchet rules.
    for (rule, per_file) in &allowlist.budgets {
        if !RATCHET_RULES.contains(&rule.as_str()) {
            observed.budgets.insert(rule.clone(), per_file.clone());
        }
    }

    Ok(Analysis {
        files_checked: files.len(),
        diagnostics,
        over,
        stale,
        ok,
        observed,
        spawn_sites,
    })
}

/// The `xtask audit` view of an analysis: the spawn-site table plus
/// only the parallelism diagnostics and budget mismatches. `ok` here is
/// the audit gate — every parallelism finding budgeted or waived, no
/// over/stale parallelism budgets — independent of whatever other rules
/// report.
pub struct AuditReport {
    pub files_checked: usize,
    pub spawn_sites: Vec<SiteSummary>,
    pub diagnostics: Vec<Diagnostic>,
    pub over: Vec<BudgetMismatch>,
    pub stale: Vec<BudgetMismatch>,
    pub ok: bool,
}

/// Projects a full analysis down to the parallelism-safety audit.
pub fn audit_view(analysis: &Analysis) -> AuditReport {
    let par_rule = |rule: &str| PAR_RULES.contains(&rule);
    let diagnostics: Vec<Diagnostic> = analysis
        .diagnostics
        .iter()
        .filter(|d| par_rule(d.rule))
        .cloned()
        .collect();
    let over: Vec<BudgetMismatch> = analysis
        .over
        .iter()
        .filter(|m| par_rule(&m.rule))
        .cloned()
        .collect();
    let stale: Vec<BudgetMismatch> = analysis
        .stale
        .iter()
        .filter(|m| par_rule(&m.rule))
        .cloned()
        .collect();
    let ok = diagnostics.iter().all(|d| d.allowed) && over.is_empty() && stale.is_empty();
    AuditReport {
        files_checked: analysis.files_checked,
        spawn_sites: analysis.spawn_sites.clone(),
        diagnostics,
        over,
        stale,
        ok,
    }
}
