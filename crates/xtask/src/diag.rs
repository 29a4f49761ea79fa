//! Diagnostics: spans, rule identifiers, machine-readable output and
//! `--explain` texts.
//!
//! Every finding carries a file-relative path and a 1-based line/column
//! span. Rendering is deterministic by construction: diagnostics are
//! sorted by (file, line, column, rule, message) and the JSON writer
//! emits keys in a fixed order with no timestamps or environment
//! data, so two runs over the same tree are byte-identical.

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

/// Token-level rules (PR 1), still enforced.
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_PANIC_SAFETY: &str = "panic-safety";
pub const RULE_TIMER_CONSTANTS: &str = "timer-constants";

/// Semantic rule packs (AST + dataflow).
pub const RULE_DETERMINISM_TAINT: &str = "determinism-taint";
pub const RULE_RNG_STREAM: &str = "rng-stream";
pub const RULE_TIMER_PROVENANCE: &str = "timer-provenance";
pub const RULE_PANIC_INDEXING: &str = "panic-indexing";

/// Perf rule packs (hot-path reachability from `hot-roots.toml`).
pub const RULE_ALLOC_HOT_LOOP: &str = "alloc-in-hot-loop";
pub const RULE_CLONE_HOT_PATH: &str = "clone-in-hot-path";
pub const RULE_MAP_SCAN: &str = "map-scan-per-event";

/// Parallelism-safety rule packs (spawn-site capture analysis).
pub const RULE_SHARED_MUTABLE_CAPTURE: &str = "shared-mutable-capture";
pub const RULE_RELAXED_ATOMIC: &str = "relaxed-atomic";
pub const RULE_UNFORKED_RNG: &str = "unforked-rng-spawn";
pub const RULE_UNORDERED_REDUCTION: &str = "unordered-reduction";

/// Every rule the analyzer can emit, in canonical order.
pub const ALL_RULES: &[&str] = &[
    RULE_ALLOC_HOT_LOOP,
    RULE_CLONE_HOT_PATH,
    RULE_DETERMINISM,
    RULE_DETERMINISM_TAINT,
    RULE_MAP_SCAN,
    RULE_PANIC_INDEXING,
    RULE_PANIC_SAFETY,
    RULE_RELAXED_ATOMIC,
    RULE_RNG_STREAM,
    RULE_SHARED_MUTABLE_CAPTURE,
    RULE_TIMER_CONSTANTS,
    RULE_TIMER_PROVENANCE,
    RULE_UNFORKED_RNG,
    RULE_UNORDERED_REDUCTION,
];

/// The parallelism-safety subset: what `xtask audit` reports on.
pub const PAR_RULES: &[&str] = &[
    RULE_RELAXED_ATOMIC,
    RULE_SHARED_MUTABLE_CAPTURE,
    RULE_UNFORKED_RNG,
    RULE_UNORDERED_REDUCTION,
];

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

/// Renders the full machine-readable report. `ok` is the gate verdict
/// (budgets respected, no stale waivers); diagnostics must already be
/// sorted.
pub fn render_json(files_checked: usize, diags: &[Diagnostic], ok: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"version\": 1,");
    let _ = writeln!(out, "  \"ok\": {ok},");
    let _ = writeln!(out, "  \"files_checked\": {files_checked},");
    write_totals(&mut out, diags, ALL_RULES);
    write_diagnostics_array(&mut out, diags);
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Writes the `"totals": {...},` line: per-rule counts in `rules`
/// order, only non-zero entries.
pub fn write_totals(out: &mut String, diags: &[Diagnostic], rules: &[&str]) {
    out.push_str("  \"totals\": {");
    let mut first = true;
    for rule in rules {
        let n = diags.iter().filter(|d| d.rule == *rule).count();
        if n == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{rule}\": {n}");
    }
    out.push_str("},\n");
}

/// Writes `"diagnostics": [` plus one object per diagnostic — the
/// caller closes the array (so it controls trailing whitespace).
pub fn write_diagnostics_array(out: &mut String, diags: &[Diagnostic]) {
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"file\": {}, \"line\": {}, \"column\": {}, \"rule\": {}, \"allowed\": {}, \"message\": {}",
            json_string(&d.file),
            d.span.line,
            d.span.col,
            json_string(d.rule),
            d.allowed,
            json_string(&d.message)
        );
        out.push('}');
    }
}

/// Escapes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// --- explain ------------------------------------------------------------

/// The `--explain <RULE>` text, or `None` for an unknown rule.
pub fn explain(rule: &str) -> Option<&'static str> {
    match rule {
        RULE_DETERMINISM => Some(
            "determinism (token rule)\n\
             \n\
             Bans the three classic determinism leaks inside the simulation\n\
             crates (crates/{sim,routing,emu,core,sweep,chaos,xtask}/src):\n\
             `HashMap`/`HashSet` (per-process seeded iteration order),\n\
             `rand::thread_rng`/`rand::random` (ambient OS entropy), and\n\
             `Instant::now`/`SystemTime::now` (wall clock). Identical seeds\n\
             must replay identical traces; every one of these breaks that\n\
             contract silently. Use `BTreeMap`/`BTreeSet` or dense-id\n\
             indexing, seeded `SimRng`/`DetRng` streams, and `SimTime` from\n\
             the event queue instead.",
        ),
        RULE_DETERMINISM_TAINT => Some(
            "determinism-taint (dataflow rule)\n\
             \n\
             Interprocedural extension of `determinism`: a value that\n\
             *originates* from a wall clock, hash-iteration order, OS\n\
             entropy or a thread id anywhere in the workspace must not flow\n\
             into the deterministic simulation crates — the dcn-sim event\n\
             handlers, sweep cell execution and chaos oracles all live\n\
             there. The analyzer computes a taint summary for every\n\
             function (does its return value derive from a nondeterministic\n\
             source, directly or transitively?) and flags any call site\n\
             inside the determinism scope whose callee returns taint, plus\n\
             direct sources the token rule cannot see (`thread::current`,\n\
             `RandomState`). An inline `// lint:allow(determinism)` or\n\
             `// lint:allow(determinism-taint)` waiver on the source line\n\
             kills the taint at its origin (used for sweep wall-time\n\
             observability, which never reaches merged results).",
        ),
        RULE_RNG_STREAM => Some(
            "rng-stream (AST rule)\n\
             \n\
             Every RNG constructed outside `#[cfg(test)]` code must derive\n\
             its stream from the experiment's master seed — via\n\
             `SimRng::fork(stream)` or `cell_seed(master_seed, cell_index)`\n\
             — never from a literal seed. A literal seed pins a private\n\
             random stream that silently decouples from the sweep plan:\n\
             results stop depending on the master seed, and two cells can\n\
             consume identical streams. Flags integer-literal arguments to\n\
             `SimRng::new`, `DetRng::seed_from_u64`, `DetRng::for_stream`\n\
             and `DetRng::stream_seed`.",
        ),
        RULE_TIMER_CONSTANTS => Some(
            "timer-constants (token rule)\n\
             \n\
             Flags literal `Duration::from_millis(...)`/`from_secs(...)`\n\
             arguments in the simulation crates. The paper's recovery-time\n\
             budget is pure timer arithmetic (detection + SPF schedule +\n\
             FIB update); every protocol timer literal must live in\n\
             `dcn_sim::timers` (crates/sim/src/timers.rs) or the top-level\n\
             `f2tree::config`, so the budget stays auditable in one place.",
        ),
        RULE_TIMER_PROVENANCE => Some(
            "timer-provenance (AST rule)\n\
             \n\
             Semantic companion to `timer-constants`, scoped to\n\
             crates/{routing,chaos,experiments}/src. Flags (a) integer\n\
             literals matching a protocol-timer magnitude — 60/200/10 ms,\n\
             10 s, 5/50 ms and their microsecond forms — used as\n\
             `from_millis`/`from_secs`/`from_micros` arguments or assigned\n\
             to timer-named bindings (`*_ms`, `*_us`, `*delay*`, `*hold*`,\n\
             ...) instead of referencing the symbolic constant in\n\
             `dcn_sim::timers`; and (b) unit-mixing arithmetic that adds,\n\
             subtracts or compares a milliseconds-valued expression\n\
             (`*_ms`, `.as_millis()`) against a microseconds-valued one\n\
             (`*_us`, `.as_micros()`) without conversion.",
        ),
        RULE_PANIC_SAFETY => Some(
            "panic-safety (token rule)\n\
             \n\
             Flags `.unwrap()`, `.expect()`, `panic!`, `unimplemented!` and\n\
             `todo!` in non-test library code workspace-wide. Library code\n\
             returns typed errors; a panic inside the simulator aborts a\n\
             whole sweep. Pre-existing debt is budgeted per file in\n\
             crates/xtask/lint-allow.toml and can only ratchet down;\n\
             genuinely-held invariants are waived inline with\n\
             `// lint:allow(panic-safety)` plus a justification.",
        ),
        RULE_PANIC_INDEXING => Some(
            "panic-indexing (AST rule)\n\
             \n\
             Flags slice/array/map indexing (`xs[i]`) in non-test library\n\
             code — the panic path `unwrap()` hides in plain sight. Each\n\
             crate's count is ratcheted via lint-allow.toml exactly like\n\
             panic-safety: the budget records current debt, exceeding it\n\
             fails, and burning a site down requires lowering the budget in\n\
             the same change. Prefer `.get()`/`.get_mut()` with a typed\n\
             error, or waive inline stating the bound invariant.",
        ),
        RULE_ALLOC_HOT_LOOP => Some(
            "alloc-in-hot-loop (perf rule)\n\
             \n\
             Flags heap allocation — `Vec::new`, `vec![...]`, `Box::new`,\n\
             `String::from`, `format!`, `.to_vec()`, `.collect()` —\n\
             lexically inside a loop in a function reachable from a\n\
             declared hot root (hot-roots.toml: the event-queue pop loop,\n\
             the emulator dispatch, SPF/FIB update entries, transport\n\
             delivery). At k=48 fat-tree scale the event loop runs\n\
             millions of iterations per simulated second; a per-iteration\n\
             allocation dominates the profile long before the algorithms\n\
             do. Hoist the buffer out of the loop, reuse a scratch\n\
             allocation (`std::mem::take` + `clear`), or iterate without\n\
             collecting. Pre-existing debt ratchets per file via\n\
             lint-allow.toml.",
        ),
        RULE_CLONE_HOT_PATH => Some(
            "clone-in-hot-path (perf rule)\n\
             \n\
             Flags `.clone()`/`.cloned()`/`.to_owned()` anywhere in a\n\
             function reachable from a declared hot root\n\
             (hot-roots.toml). Every clone on the per-event path is paid\n\
             once per event — per packet forwarded, per LSA flooded, per\n\
             FIB install. Restructure to borrow, move instead of copy, or\n\
             share with `Rc`. Copies inherent to the protocol (a flooded\n\
             LSA owns its payload) are waived at the call site with\n\
             `// lint:allow(clone-in-hot-path)` plus a justification —\n\
             the waiver kills the finding at its origin, exactly like the\n\
             taint rules. Pre-existing debt ratchets via lint-allow.toml.",
        ),
        RULE_MAP_SCAN => Some(
            "map-scan-per-event (perf rule)\n\
             \n\
             Flags full scans — `.iter()`, `.iter_mut()`, `.keys()`,\n\
             `.values()`, `.values_mut()` — over a `BTreeMap`/`BTreeSet`\n\
             local inside a loop in a hot-reachable function. An O(n)\n\
             scan per event turns the event loop quadratic: the paper's\n\
             k=48 regime has ~27k switches, so a per-event LSDB or FIB\n\
             scan is 27k ordered-tree steps each time. Index the entry\n\
             you need (`get`/`range`) or maintain an incremental view\n\
             updated at mutation time. Ratchets via lint-allow.toml.",
        ),
        RULE_SHARED_MUTABLE_CAPTURE => Some(
            "shared-mutable-capture (parallelism rule)\n\
             \n\
             Flags worker closures (`scope.spawn`/`thread::spawn`) that\n\
             capture a binding reaching shared-mutable state — a `Mutex`,\n\
             `RwLock`, `RefCell`, `Cell`, `Atomic*`, `OnceLock` constructor\n\
             sighting or a `static mut`. Shared state crossing a spawn\n\
             boundary is exactly where worker-count invariance breaks: the\n\
             sweep contract is that `--workers N` changes wall time only,\n\
             never results. The two blessed seams — the claim cursor that\n\
             hands out cell indices and the order-preserving merge — are\n\
             waived inline with a justification; everything else should\n\
             hand each worker its own slot and merge by index. Run\n\
             `cargo run -p xtask -- audit` for the per-site capture sets.",
        ),
        RULE_RELAXED_ATOMIC => Some(
            "relaxed-atomic (parallelism rule)\n\
             \n\
             Flags `Ordering::Relaxed` in the determinism scope, and\n\
             `Ordering::AcqRel` passed to `load`/`store` (which aborts at\n\
             runtime). Relaxed operations impose no cross-thread ordering,\n\
             so any value observed through them can differ run-to-run under\n\
             contention. The one blessed idiom is the sweep claim cursor:\n\
             `fetch_add(1, Ordering::Relaxed)` is safe there because the\n\
             returned index is unique regardless of ordering and results\n\
             are re-sorted by index at the merge — that site carries an\n\
             inline waiver saying so. Observability counters should use\n\
             `SeqCst`: they are read once per cell, ordering cost is noise.",
        ),
        RULE_UNFORKED_RNG => Some(
            "unforked-rng-spawn (parallelism rule)\n\
             \n\
             Flags worker closures capturing an RNG whose stream did not\n\
             come through the blessed provenance chain —\n\
             `cell_seed(master_seed, cell_index)` or `SimRng::fork`. An\n\
             unforked RNG crossing a spawn boundary makes draws depend on\n\
             which worker claims which cell and in what interleaving, so\n\
             results change with `--workers N`. Derive the stream per cell\n\
             inside the worker (`cell_rng`/`cell_seed`) instead of sharing\n\
             or moving a master RNG across the boundary. The capture table\n\
             in `cargo run -p xtask -- audit` shows each captured RNG as\n\
             `forked` or `unforked`.",
        ),
        RULE_UNORDERED_REDUCTION => Some(
            "unordered-reduction (parallelism rule)\n\
             \n\
             Flags mutations of captured bindings inside a parallel region\n\
             — `.push(..)`, `.extend(..)`, `.insert(..)`, assignments —\n\
             which accumulate in completion order, not cell order. Worker\n\
             completion order depends on scheduling, so any\n\
             order-sensitive reduction breaks worker-count invariance and\n\
             run-to-run determinism at once. Accumulate into a per-worker\n\
             buffer tagged with the cell index and merge by index after\n\
             the join instead. The sweep pool's merge does exactly that\n\
             (joins, then `sort_by_key(index)`) and carries the one\n\
             blessed inline waiver.",
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
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_is_deterministic_and_shaped() {
        let mut diags = vec![
            Diagnostic::new("b.rs", Span::new(2, 1), RULE_PANIC_SAFETY, "m2".into()),
            Diagnostic::new("a.rs", Span::new(1, 5), RULE_DETERMINISM, "m1".into()),
        ];
        sort_diagnostics(&mut diags);
        let one = render_json(7, &diags, false);
        let two = render_json(7, &diags, false);
        assert_eq!(one, two);
        assert!(one.starts_with("{\n  \"version\": 1,\n  \"ok\": false,\n"));
        assert!(one.contains("\"files_checked\": 7"));
        assert!(one.contains("\"determinism\": 1"));
        // Sorted: a.rs before b.rs.
        let a = one.find("a.rs").expect("a.rs present");
        let b = one.find("b.rs").expect("b.rs present");
        assert!(a < b);
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in ALL_RULES {
            assert!(explain(rule).is_some(), "missing --explain for {rule}");
        }
        assert!(explain("no-such-rule").is_none());
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
        assert_eq!(nearest_rule("Relaxed-Atomic"), Some(RULE_RELAXED_ATOMIC));
        assert_eq!(nearest_rule("unordered-reductio"), Some(RULE_UNORDERED_REDUCTION));
        // Distance 3+ stays silent rather than guessing.
        assert_eq!(nearest_rule("zzz"), None);
        let msg = unknown_rule_message("determinsm");
        assert!(msg.contains("did you mean `determinism`?"), "{msg}");
        assert!(
            !unknown_rule_message("no-such-rule-at-all").contains("did you mean"),
            "far-off typos must not get a suggestion"
        );
    }

    #[test]
    fn par_rules_are_a_subset_of_all_rules() {
        for rule in PAR_RULES {
            assert!(ALL_RULES.contains(rule), "{rule} missing from ALL_RULES");
        }
    }
}
