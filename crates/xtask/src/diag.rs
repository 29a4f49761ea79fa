//! Diagnostics: spans, rule identifiers, text rendering and `--explain`
//! texts.
//!
//! Every finding carries a repo-relative path and a 1-based line/column
//! span, and diagnostics are sorted by (file, line, column, rule,
//! message), so two runs over the same tree print the same report.

use std::fmt::Write as _;

/// 1-based line/column source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }
}

// --- rule identifiers ---------------------------------------------------

/// Families enforced by clippy; `crate::clippy` maps lint names to them.
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_PANIC_SAFETY: &str = "panic-safety";
pub const RULE_PANIC_INDEXING: &str = "panic-indexing";

/// Token rules (`crate::rules`).
pub const RULE_TIMER_CONSTANTS: &str = "timer-constants";
pub const RULE_RNG_STREAM: &str = "rng-stream";

/// Every rule family, in canonical order.
pub const ALL_RULES: &[&str] = &[
    RULE_DETERMINISM,
    RULE_PANIC_INDEXING,
    RULE_PANIC_SAFETY,
    RULE_RNG_STREAM,
    RULE_TIMER_CONSTANTS,
];

/// The label for a compiler or clippy message that belongs to no family:
/// not a rule of ours (nothing to `--explain`), but it fails the gate.
pub const RULE_CLIPPY: &str = "clippy";

/// One finding, after inline-waiver filtering but before allowlist
/// budgeting (`allowed` is filled in by the budget pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub span: Span,
    pub rule: &'static str,
    pub message: String,
    /// True when the finding is covered by a `lint-allow.toml` budget.
    pub allowed: bool,
}

impl Diagnostic {
    pub fn new(file: &str, span: Span, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            span,
            rule,
            message,
            allowed: false,
        }
    }

    fn sort_key(&self) -> (&str, u32, u32, &str, &str) {
        (
            self.file.as_str(),
            self.span.line,
            self.span.col,
            self.rule,
            self.message.as_str(),
        )
    }
}

/// Sorts diagnostics into the canonical deterministic order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

// --- rendering ----------------------------------------------------------

/// `path:line:col: [rule] message` — the human format.
pub fn render_text(d: &Diagnostic) -> String {
    format!(
        "{}:{}:{}: [{}] {}",
        d.file, d.span.line, d.span.col, d.rule, d.message
    )
}

// --- explain ------------------------------------------------------------

/// The `--explain <RULE>` text, or `None` for an unknown rule.
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        RULE_DETERMINISM => Some(
            "determinism (clippy: disallowed_types, disallowed_methods)\n\
             \n\
             Identical seeds must replay identical traces, so the sources\n\
             of run-to-run variation are banned in every workspace crate:\n\
             `HashMap`/`HashSet`/`RandomState` (per-process seeded\n\
             iteration order), `Instant::now`/`SystemTime::now` (wall\n\
             clock) and `thread::current` (thread identity). The lists are\n\
             the `disallowed-types` and `disallowed-methods` entries of the\n\
             root clippy.toml; clippy resolves them by definition, so an\n\
             alias or re-export does not hide a use. Use `BTreeMap`/\n\
             `BTreeSet` or dense-id indexing, seeded `SimRng` streams,\n\
             and `SimTime` from the event queue instead. Not ratcheted: a\n\
             use that never reaches results is waived where it stands\n\
             with\n\
             `#[expect(clippy::disallowed_methods, reason = \"...\")]`\n\
             (or `clippy::disallowed_types`), which itself warns once the\n\
             use is gone.",
        ),
        RULE_PANIC_SAFETY => Some(
            "panic-safety (clippy: expect_used, unwrap_used, panic, todo,\n\
             unimplemented)\n\
             \n\
             Library code returns typed errors; a panic inside the\n\
             simulator aborts a whole sweep. The lints are enabled for\n\
             every member crate in `[workspace.lints.clippy]` of the root\n\
             Cargo.toml and see non-test code only. Pre-existing debt is\n\
             budgeted per file in crates/xtask/lint-allow.toml and can\n\
             only ratchet down; a genuinely held invariant is waived with\n\
             `#[expect(clippy::expect_used, reason = \"<the invariant>\")]`\n\
             on the statement or item, which itself warns once the panic\n\
             site is gone.",
        ),
        RULE_PANIC_INDEXING => Some(
            "panic-indexing (clippy: indexing_slicing)\n\
             \n\
             `xs[i]` and `xs[a..b]` are the panic path `unwrap()` hides in\n\
             plain sight. Clippy is type-aware: a constant index into a\n\
             fixed-size array is checked at compile time and not counted.\n\
             Each file's count is ratcheted via crates/xtask/lint-allow.toml\n\
             exactly like panic-safety: the budget records current debt,\n\
             exceeding it fails, and burning a site down requires lowering\n\
             the budget in the same change. Prefer `.get()`/`.get_mut()`\n\
             with a typed error, or waive with\n\
             `#[expect(clippy::indexing_slicing, reason = \"<the bound>\")]`\n\
             on the statement or item.",
        ),
        RULE_RNG_STREAM => Some(
            "rng-stream (token rule)\n\
             \n\
             Every RNG constructed outside test code must derive its\n\
             stream from the experiment's master seed — via\n\
             `SimRng::fork(stream)` or `cell_rng(master_seed, cell_index)`\n\
             — never from a literal seed. A literal seed pins a private\n\
             random stream that silently decouples from the sweep plan:\n\
             results stop depending on the master seed, and two cells can\n\
             consume identical streams. Flags an integer literal as the\n\
             seed of `SimRng::new`, the one RNG constructor, workspace-wide.\n\
             Waive with `// lint:allow(rng-stream)` on the line or the line\n\
             before, with a justification.",
        ),
        RULE_TIMER_CONSTANTS => Some(
            "timer-constants (token rule)\n\
             \n\
             The paper's recovery-time budget is pure timer arithmetic\n\
             (detection + SPF schedule + FIB update); every protocol timer\n\
             literal must live in `dcn_sim::timers`\n\
             (crates/sim/src/timers.rs), so the budget stays auditable in\n\
             one place. Flags, in\n\
             crates/{sim,routing,emu,core,sweep,chaos,metrics,xtask}/src,\n\
             every literal `from_millis(..)`/`from_secs(..)` argument; and\n\
             there and in crates/experiments/src a literal\n\
             `from_millis`/`from_secs`/`from_micros` argument equal to a\n\
             protocol-timer magnitude (5/10/50/60/200 ms, 10 s). Waive with\n\
             `// lint:allow(timer-constants)` on the line or the line\n\
             before, with a justification.",
        ),
        _ => None,
    }
}

/// Case-insensitive Levenshtein distance, two-row formulation (same
/// technique as `dcn_chaos::repro`).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(|c| c.to_lowercase()).collect();
    let b: Vec<char> = b.chars().flat_map(|c| c.to_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        if let Some(slot) = cur.first_mut() {
            *slot = i + 1;
        }
        for (j, cb) in b.iter().enumerate() {
            let sub = prev.get(j).copied().unwrap_or(0) + usize::from(ca != cb);
            let del = prev.get(j + 1).copied().unwrap_or(0) + 1;
            let ins = cur.get(j).copied().unwrap_or(0) + 1;
            if let Some(slot) = cur.get_mut(j + 1) {
                *slot = sub.min(del).min(ins);
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.last().copied().unwrap_or(0)
}

/// The closest known rule within edit distance 2, for did-you-mean.
pub fn nearest_rule(rule: &str) -> Option<&'static str> {
    ALL_RULES
        .iter()
        .map(|r| (levenshtein(rule, r), *r))
        .filter(|&(d, _)| d <= 2)
        .min()
        .map(|(_, r)| r)
}

/// The error text for `--explain` with an unknown rule: names the rule,
/// suggests the nearest known rule when one is close enough, and lists
/// every known rule, one per line.
pub fn unknown_rule_message(rule: &str) -> String {
    let mut out = format!("unknown rule `{rule}`");
    if let Some(near) = nearest_rule(rule) {
        let _ = write!(out, " (did you mean `{near}`?)");
    }
    out.push_str("; known rules:\n");
    for r in ALL_RULES {
        let _ = writeln!(out, "  {r}");
    }
    out.push_str("run `cargo run -p xtask -- lint --explain <rule>` with one of these");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_sort_by_file_then_position() {
        let mut diags = vec![
            Diagnostic::new("b.rs", Span::new(2, 1), RULE_PANIC_SAFETY, "m2".into()),
            Diagnostic::new("a.rs", Span::new(9, 5), RULE_DETERMINISM, "m1".into()),
            Diagnostic::new("a.rs", Span::new(1, 5), RULE_RNG_STREAM, "m0".into()),
        ];
        sort_diagnostics(&mut diags);
        let rendered: Vec<String> = diags.iter().map(render_text).collect();
        assert_eq!(
            rendered,
            [
                "a.rs:1:5: [rng-stream] m0",
                "a.rs:9:5: [determinism] m1",
                "b.rs:2:1: [panic-safety] m2"
            ]
        );
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in ALL_RULES {
            assert!(explain(rule).is_some(), "missing --explain for {rule}");
        }
        assert!(explain("no-such-rule").is_none());
        assert!(
            explain(RULE_CLIPPY).is_none(),
            "the catch-all label is not a rule"
        );
    }

    #[test]
    fn unknown_rule_message_lists_every_rule() {
        let msg = unknown_rule_message("no-such-rule");
        assert!(msg.contains("unknown rule `no-such-rule`"), "{msg}");
        for rule in ALL_RULES {
            assert!(msg.contains(rule), "missing {rule} in: {msg}");
        }
    }

    #[test]
    fn did_you_mean_suggests_the_nearest_rule() {
        assert_eq!(nearest_rule("determinsm"), Some(RULE_DETERMINISM));
        assert_eq!(nearest_rule("Rng-Streams"), Some(RULE_RNG_STREAM));
        // Distance 3+ stays silent rather than guessing.
        assert_eq!(nearest_rule("zzz"), None);
        let msg = unknown_rule_message("determinsm");
        assert!(msg.contains("did you mean `determinism`?"), "{msg}");
        assert!(
            !unknown_rule_message("no-such-rule-at-all").contains("did you mean"),
            "far-off typos must not get a suggestion"
        );
    }
}
