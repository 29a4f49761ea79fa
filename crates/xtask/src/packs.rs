//! The semantic rule packs: determinism-taint, rng-stream,
//! timer-provenance, panic-indexing, the hot-path perf rules and the
//! parallelism-safety rules (spawn-site capture analysis via
//! [`crate::par`]).
//!
//! Each pack walks the function table produced by [`crate::resolve`]
//! (plus `const`/`static` initializers where values can hide) and emits
//! [`Diagnostic`]s; inline-waiver filtering happens in
//! [`filter_waived`], budget accounting in the engine.

use std::collections::BTreeMap;

use crate::ast::{Block, Expr, ExprKind, Stmt};
use crate::dataflow::{
    intrinsic_source, taint_kinds, token_rule_covers, Evaluator, T_NONDET,
};
use crate::diag::{
    Diagnostic, RULE_ALLOC_HOT_LOOP, RULE_CLONE_HOT_PATH, RULE_DETERMINISM_TAINT,
    RULE_MAP_SCAN, RULE_PANIC_INDEXING, RULE_RELAXED_ATOMIC, RULE_RNG_STREAM,
    RULE_SHARED_MUTABLE_CAPTURE, RULE_TIMER_PROVENANCE, RULE_UNFORKED_RNG,
    RULE_UNORDERED_REDUCTION,
};
use crate::par::{RngProvenance, SpawnKind, SpawnSite};
use crate::reach::Reachability;
use crate::resolve::{CrateMap, FnTable, SourceFile};

/// Protocol-timer magnitudes in milliseconds, with the symbolic constant
/// each corresponds to in `dcn_sim::timers`.
const TIMER_MS: &[(u64, &str)] = &[
    (5, "CONTROLLER_REPORT_DELAY / CONTROLLER_PUSH_DELAY"),
    (10, "FIB_UPDATE_DELAY"),
    (50, "CONTROLLER_COMPUTE_DELAY"),
    (60, "DETECTION_DELAY"),
    (200, "SPF_INITIAL_DELAY"),
    (10_000, "SPF_MAX_HOLD"),
];

/// The same magnitudes in microseconds.
const TIMER_US: &[(u64, &str)] = &[
    (5_000, "CONTROLLER_REPORT_DELAY / CONTROLLER_PUSH_DELAY"),
    (10_000, "FIB_UPDATE_DELAY"),
    (50_000, "CONTROLLER_COMPUTE_DELAY"),
    (60_000, "DETECTION_DELAY"),
    (200_000, "SPF_INITIAL_DELAY"),
    (10_000_000, "SPF_MAX_HOLD"),
];

/// Whole-second forms.
const TIMER_SECS: &[(u64, &str)] = &[(10, "SPF_MAX_HOLD")];

fn magnitude(set: &'static [(u64, &'static str)], v: u64) -> Option<&'static str> {
    set.iter().find(|(m, _)| *m == v).map(|(_, s)| *s)
}

/// Scope configuration shared by the packs.
pub struct PackConfig<'a> {
    /// Path prefixes whose non-test code is the determinism sink scope.
    pub determinism_scope: &'a [&'a str],
    /// Path prefixes subject to timer-provenance.
    pub timer_scope: &'a [&'a str],
    /// Files allowed to define timer constants (exempt everywhere).
    pub timer_exempt: &'a [&'a str],
}

impl PackConfig<'_> {
    fn in_determinism_scope(&self, rel: &str) -> bool {
        self.determinism_scope.iter().any(|p| rel.starts_with(p))
    }

    fn in_timer_scope(&self, rel: &str) -> bool {
        self.timer_scope.iter().any(|p| rel.starts_with(p))
            && !self.timer_exempt.contains(&rel)
    }

    /// Does the token-level `timer-constants` rule already cover
    /// `from_millis`/`from_secs` literals in this file?
    fn token_timer_covers(&self, rel: &str) -> bool {
        self.in_determinism_scope(rel) && !self.timer_exempt.contains(&rel)
    }
}

pub struct Packs<'a> {
    pub files: &'a [SourceFile],
    pub table: &'a FnTable<'a>,
    pub eval: &'a Evaluator<'a>,
    pub crates: &'a CrateMap,
    pub cfg: PackConfig<'a>,
}

impl<'a> Packs<'a> {
    fn rel(&self, file_idx: usize) -> &str {
        self.files.get(file_idx).map_or("", |f| f.rel.as_str())
    }

    /// Walks every expression of every non-test function body whose file
    /// satisfies `scope`, plus const/static initializers.
    fn walk_scope(&self, scope: impl Fn(&str) -> bool, mut f: impl FnMut(usize, &'a Expr)) {
        for decl in &self.table.fns {
            if decl.is_test || !scope(self.rel(decl.file_idx)) {
                continue;
            }
            if let Some(body) = &decl.item.body {
                crate::ast::walk_block(body, &mut |e| f(decl.file_idx, e));
            }
        }
        for init in &self.table.inits {
            if init.is_test || !scope(self.rel(init.file_idx)) {
                continue;
            }
            init.init.walk(&mut |e| f(init.file_idx, e));
        }
    }

    // --- pack 1: determinism taint --------------------------------------

    pub fn determinism_taint(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.walk_scope(
            |rel| self.cfg.in_determinism_scope(rel),
            |file_idx, e| match &e.kind {
                ExprKind::Call { callee, .. } => {
                    let Some(path) = callee.as_path() else { return };
                    let q = self.eval.qualify_in(file_idx, path);
                    let src = intrinsic_source(&q);
                    let disp = path.join("::");
                    if src != 0 {
                        // Direct sources the token rule already flags are
                        // its territory; report only the ones it cannot
                        // see (thread ids, RandomState, from_entropy).
                        if !token_rule_covers(&q)
                            && !self.eval.source_waived(file_idx, e.span.line)
                        {
                            out.push(Diagnostic::new(
                                self.rel(file_idx),
                                e.span,
                                RULE_DETERMINISM_TAINT,
                                format!(
                                    "`{disp}` reads {} inside deterministic simulation \
                                     code; identical seeds must replay identical traces",
                                    taint_kinds(src)
                                ),
                            ));
                        }
                        return;
                    }
                    let s = self.eval.callee_summary(self.table.resolve_call(&q));
                    // Mask to the nondeterminism bits: the parallelism
                    // carrier bits (shared-mutability, RNG provenance)
                    // are policed by the spawn-site packs, not here.
                    let t = s.ret_always & T_NONDET;
                    if t != 0 {
                        out.push(Diagnostic::new(
                            self.rel(file_idx),
                            e.span,
                            RULE_DETERMINISM_TAINT,
                            format!(
                                "call to `{disp}` returns a value derived from {}; \
                                 deterministic simulation code must not consume it \
                                 (waive at the source with \
                                 `// lint:allow(determinism-taint)` if it never \
                                 reaches results)",
                                taint_kinds(t)
                            ),
                        ));
                    }
                }
                ExprKind::MethodCall { method, .. } => {
                    let s = self
                        .eval
                        .callee_summary(self.table.resolve_method(method));
                    let t = s.ret_always & T_NONDET;
                    if t != 0 {
                        out.push(Diagnostic::new(
                            self.rel(file_idx),
                            e.span,
                            RULE_DETERMINISM_TAINT,
                            format!(
                                "call to `.{method}()` returns a value derived from \
                                 {}; deterministic simulation code must not consume it",
                                taint_kinds(t)
                            ),
                        ));
                    }
                }
                _ => {}
            },
        );
        out
    }

    // --- pack 2: RNG stream discipline ----------------------------------

    pub fn rng_stream(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.walk_scope(
            |_| true,
            |file_idx, e| {
                let ExprKind::Call { callee, args } = &e.kind else {
                    return;
                };
                let Some(path) = callee.as_path() else { return };
                let q = self.eval.qualify_in(file_idx, path);
                let Some(name) = q.last().map(String::as_str) else {
                    return;
                };
                let owner = q
                    .len()
                    .checked_sub(2)
                    .and_then(|i| q.get(i))
                    .map(String::as_str)
                    .unwrap_or("");
                let is_rng_ctor = matches!(
                    (owner, name),
                    ("SimRng", "new")
                        | ("DetRng", "seed_from_u64")
                        | ("DetRng", "for_stream")
                        | ("DetRng", "stream_seed")
                );
                if !is_rng_ctor {
                    return;
                }
                let Some(seed) = args.first().and_then(Expr::as_int_lit) else {
                    return;
                };
                out.push(Diagnostic::new(
                    self.rel(file_idx),
                    e.span,
                    RULE_RNG_STREAM,
                    format!(
                        "literal seed {seed} passed to `{owner}::{name}`; non-test \
                         RNG streams must derive from the master seed via \
                         `SimRng::fork(stream)` or `cell_seed(master, index)`"
                    ),
                ));
            },
        );
        out
    }

    // --- pack 3: timer-constant provenance ------------------------------

    pub fn timer_provenance(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // Rule A (literal from_* construction) + Rule C (unit mixing) +
        // struct-literal fields, over all expressions in scope.
        self.walk_scope(
            |rel| self.cfg.in_timer_scope(rel),
            |file_idx, e| {
                self.timer_literal_call(file_idx, e, &mut out);
                self.timer_unit_mixing(file_idx, e, &mut out);
                self.timer_struct_fields(file_idx, e, &mut out);
            },
        );
        // Rule B: timer-named `let` bindings initialized to a bare
        // magnitude literal.
        for decl in &self.table.fns {
            let rel = self.rel(decl.file_idx);
            if decl.is_test || !self.cfg.in_timer_scope(rel) {
                continue;
            }
            if let Some(body) = &decl.item.body {
                for block in blocks_of(body) {
                    for stmt in &block.stmts {
                        let Stmt::Let {
                            span,
                            names,
                            init: Some(init),
                        } = stmt
                        else {
                            continue;
                        };
                        let Some(name) =
                            names.iter().find(|n| timer_named(n)) else {
                            continue;
                        };
                        self.check_named_literal(decl.file_idx, *span, name, init, &mut out);
                    }
                }
            }
        }
        // Rule B for const/static items.
        for init in &self.table.inits {
            let rel = self.rel(init.file_idx);
            if init.is_test || !self.cfg.in_timer_scope(rel) {
                continue;
            }
            if timer_named(&init.name) {
                self.check_named_literal(init.file_idx, init.span, &init.name, init.init, &mut out);
            }
        }
        out
    }

    fn timer_literal_call(&self, file_idx: usize, e: &Expr, out: &mut Vec<Diagnostic>) {
        let ExprKind::Call { callee, args } = &e.kind else {
            return;
        };
        let Some(ctor) = callee.as_path().and_then(|p| p.last()) else {
            return;
        };
        if args.len() != 1 {
            return;
        }
        let Some(v) = args.first().and_then(Expr::as_int_lit) else {
            return;
        };
        let rel = self.rel(file_idx);
        let token_covers = self.cfg.token_timer_covers(rel);
        let hit = match ctor.as_str() {
            "from_millis" if !token_covers => magnitude(TIMER_MS, v),
            "from_secs" if !token_covers => magnitude(TIMER_SECS, v),
            "from_micros" => magnitude(TIMER_US, v),
            _ => None,
        };
        if let Some(suggestion) = hit {
            out.push(Diagnostic::new(
                rel,
                e.span,
                RULE_TIMER_PROVENANCE,
                format!(
                    "protocol-timer literal `{ctor}({v})`; reference \
                     `dcn_sim::timers::{suggestion}` so the recovery budget stays \
                     auditable in one place"
                ),
            ));
        }
    }

    fn timer_struct_fields(&self, file_idx: usize, e: &Expr, out: &mut Vec<Diagnostic>) {
        let ExprKind::Struct { fields, .. } = &e.kind else {
            return;
        };
        for (name, value) in fields {
            if timer_named(name) {
                self.check_named_literal(file_idx, value.span, name, value, out);
            }
        }
    }

    fn check_named_literal(
        &self,
        file_idx: usize,
        span: crate::diag::Span,
        name: &str,
        init: &Expr,
        out: &mut Vec<Diagnostic>,
    ) {
        let Some(v) = init.as_int_lit() else { return };
        let lower = name.to_ascii_lowercase();
        let set: &[(u64, &str)] = if lower.ends_with("_us") || lower.ends_with("_micros") {
            TIMER_US
        } else {
            TIMER_MS
        };
        if let Some(suggestion) = magnitude(set, v) {
            out.push(Diagnostic::new(
                self.rel(file_idx),
                span,
                RULE_TIMER_PROVENANCE,
                format!(
                    "`{name}` hard-codes protocol-timer magnitude {v}; derive it \
                     from `dcn_sim::timers::{suggestion}`"
                ),
            ));
        }
    }

    fn timer_unit_mixing(&self, file_idx: usize, e: &Expr, out: &mut Vec<Diagnostic>) {
        let ExprKind::Binary { op, lhs, rhs } = &e.kind else {
            return;
        };
        if !matches!(*op, "+" | "-" | "<" | ">" | "<=" | ">=" | "==") {
            return;
        }
        let (Some((lu, ld)), Some((ru, rd))) = (unit_of(lhs), unit_of(rhs)) else {
            return;
        };
        if lu != ru {
            out.push(Diagnostic::new(
                self.rel(file_idx),
                e.span,
                RULE_TIMER_PROVENANCE,
                format!(
                    "`{op}` mixes {} (`{ld}`) with {} (`{rd}`) without unit \
                     conversion",
                    lu.name(),
                    ru.name()
                ),
            ));
        }
    }

    // --- perf packs: hot-path hygiene -----------------------------------
    //
    // These police only the functions [`crate::reach`] marked reachable
    // from a declared hot root; setup paths stay free to allocate.

    /// Iterates every non-test hot-reachable function body with its
    /// attributed root.
    fn walk_hot_fns(
        &self,
        reach: &Reachability,
        mut f: impl FnMut(usize, &str, &Block),
    ) {
        for (id, decl) in self.table.fns.iter().enumerate() {
            if decl.is_test {
                continue;
            }
            let Some(root) = reach.root_of(id) else { continue };
            if let Some(body) = &decl.item.body {
                f(decl.file_idx, root, body);
            }
        }
    }

    /// Pack 5: heap allocation lexically inside a loop on the hot path.
    pub fn alloc_in_hot_loop(&self, reach: &Reachability) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.walk_hot_fns(reach, |file_idx, root, body| {
            walk_block_loops(body, false, &mut |e, in_loop| {
                if !in_loop {
                    return;
                }
                if let Some(what) = alloc_kind(e) {
                    out.push(Diagnostic::new(
                        self.rel(file_idx),
                        e.span,
                        RULE_ALLOC_HOT_LOOP,
                        format!(
                            "`{what}` allocates inside a loop on the hot path from \
                             `{root}`; hoist the buffer out of the loop or reuse a \
                             scratch allocation"
                        ),
                    ));
                }
            });
        });
        out
    }

    /// Pack 6: `.clone()`/`.cloned()`/`.to_owned()` anywhere on the hot
    /// path. Waive at the call site when the copy is inherent.
    pub fn clone_in_hot_path(&self, reach: &Reachability) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.walk_hot_fns(reach, |file_idx, root, body| {
            crate::ast::walk_block(body, &mut |e| {
                let ExprKind::MethodCall { method, .. } = &e.kind else {
                    return;
                };
                if matches!(method.as_str(), "clone" | "cloned" | "to_owned") {
                    out.push(Diagnostic::new(
                        self.rel(file_idx),
                        e.span,
                        RULE_CLONE_HOT_PATH,
                        format!(
                            "`.{method}()` copies per event on the hot path from \
                             `{root}`; borrow or move instead, or waive here with \
                             `// lint:allow(clone-in-hot-path)` if the copy is \
                             inherent to the protocol"
                        ),
                    ));
                }
            });
        });
        out
    }

    /// Pack 7: full `iter()`/`values()` scans of a `BTreeMap`/`BTreeSet`
    /// local inside a loop on the hot path.
    pub fn map_scan_per_event(&self, reach: &Reachability) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.walk_hot_fns(reach, |file_idx, root, body| {
            // Locals bound to an ordered-container constructor anywhere
            // in this function (no type inference — constructor sighting
            // is the evidence).
            let mut btree_locals: Vec<&str> = Vec::new();
            for block in blocks_of(body) {
                for stmt in &block.stmts {
                    let Stmt::Let {
                        names,
                        init: Some(init),
                        ..
                    } = stmt
                    else {
                        continue;
                    };
                    if init_is_btree(init) {
                        btree_locals.extend(names.iter().map(String::as_str));
                    }
                }
            }
            if btree_locals.is_empty() {
                return;
            }
            walk_block_loops(body, false, &mut |e, in_loop| {
                if !in_loop {
                    return;
                }
                let ExprKind::MethodCall { recv, method, .. } = &e.kind else {
                    return;
                };
                if !matches!(
                    method.as_str(),
                    "iter" | "iter_mut" | "keys" | "values" | "values_mut"
                ) {
                    return;
                }
                let Some(p) = recv.as_path() else { return };
                let [name] = p else { return };
                if btree_locals.contains(&name.as_str()) {
                    out.push(Diagnostic::new(
                        self.rel(file_idx),
                        e.span,
                        RULE_MAP_SCAN,
                        format!(
                            "full `.{method}()` scan of ordered container `{name}` \
                             inside a loop on the hot path from `{root}`; index the \
                             entry you need or maintain an incremental view"
                        ),
                    ));
                }
            });
        });
        out
    }

    // --- pack 4: panic-reachability (indexing) --------------------------

    pub fn panic_indexing(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.walk_scope(
            |_| true,
            |file_idx, e| {
                if let ExprKind::Index { .. } = &e.kind {
                    out.push(Diagnostic::new(
                        self.rel(file_idx),
                        e.span,
                        RULE_PANIC_INDEXING,
                        "indexing panics when out of bounds; use `.get()`/`.get_mut()` \
                         with a typed error, waive with the bound invariant, or \
                         ratchet via lint-allow.toml"
                            .to_string(),
                    ));
                }
            },
        );
        out
    }

    // --- pack 5: parallelism safety (spawn-site capture analysis) -------

    /// Discovers every spawn site in the determinism scope with its
    /// capture set; input for the three site-based packs below and the
    /// `xtask audit` report.
    pub fn spawn_sites(&self) -> Vec<SpawnSite<'a>> {
        crate::par::collect_spawn_sites(self.files, self.table, self.eval, &|rel| {
            self.cfg.in_determinism_scope(rel)
        })
    }

    /// Worker closures capturing shared-mutable state: the spawn
    /// boundary is exactly where worker-count invariance breaks.
    pub fn shared_mutable_capture(&self, sites: &[SpawnSite<'_>]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for site in sites {
            if site.kind != SpawnKind::Spawn {
                continue;
            }
            for c in &site.captures {
                if !c.shared {
                    continue;
                }
                out.push(Diagnostic::new(
                    &site.file,
                    site.span,
                    RULE_SHARED_MUTABLE_CAPTURE,
                    format!(
                        "worker closure in `{}` captures shared-mutable `{}`; shared \
                         state crossing a spawn boundary breaks worker-count \
                         invariance — hand each worker its own slot and merge by \
                         index, or waive here if this is a blessed seam (claim \
                         cursor / ordered merge)",
                        site.function, c.name
                    ),
                ));
            }
        }
        out
    }

    /// Worker closures capturing an RNG without `cell_seed`/`fork`
    /// provenance: draws become interleaving-dependent.
    pub fn unforked_rng_spawn(&self, sites: &[SpawnSite<'_>]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for site in sites {
            if site.kind != SpawnKind::Spawn {
                continue;
            }
            for c in &site.captures {
                if c.rng != RngProvenance::Unforked {
                    continue;
                }
                out.push(Diagnostic::new(
                    &site.file,
                    site.span,
                    RULE_UNFORKED_RNG,
                    format!(
                        "RNG `{}` crosses the spawn boundary in `{}` without \
                         `cell_seed`/`SimRng::fork` provenance; workers would draw \
                         interleaving-dependent streams — derive the stream per \
                         cell inside the worker instead",
                        c.name, site.function
                    ),
                ));
            }
        }
        out
    }

    /// Mutations of captured bindings inside any parallel region
    /// (worker closures and the scope closure itself): they accumulate
    /// in completion order, not cell order.
    pub fn unordered_reduction(&self, sites: &[SpawnSite<'_>]) -> Vec<Diagnostic> {
        const MUTATING: &[&str] = &[
            "append",
            "clear",
            "drain",
            "extend",
            "extend_from_slice",
            "insert",
            "pop",
            "push",
            "push_str",
            "remove",
            "retain",
            "sort",
            "sort_by",
            "sort_by_key",
            "sort_unstable",
            "swap",
            "truncate",
        ];
        let mut out = Vec::new();
        for site in sites {
            let captured: std::collections::BTreeSet<&str> =
                site.captures.iter().map(|c| c.name.as_str()).collect();
            site.closure.walk(&mut |e| match &e.kind {
                ExprKind::MethodCall { recv, method, .. }
                    if MUTATING.contains(&method.as_str()) =>
                {
                    let Some(name) = single_name(recv) else { return };
                    if captured.contains(name) {
                        out.push(Diagnostic::new(
                            &site.file,
                            e.span,
                            RULE_UNORDERED_REDUCTION,
                            format!(
                                "`.{method}()` on captured `{name}` inside a parallel \
                                 region accumulates in completion order, not cell \
                                 order; collect into a per-worker buffer and merge by \
                                 index, or waive here if this is the blessed \
                                 ordered-merge seam"
                            ),
                        ));
                    }
                }
                ExprKind::Assign { place, .. } => {
                    let name = match &place.kind {
                        ExprKind::Index { recv, .. } => single_name(recv),
                        _ => single_name(place),
                    };
                    let Some(name) = name else { return };
                    if captured.contains(name) {
                        out.push(Diagnostic::new(
                            &site.file,
                            e.span,
                            RULE_UNORDERED_REDUCTION,
                            format!(
                                "assignment to captured `{name}` inside a parallel \
                                 region is scheduling-order-dependent; give each \
                                 worker its own slot and merge by index after the \
                                 join"
                            ),
                        ));
                    }
                }
                _ => {}
            });
        }
        // A mutation inside a worker closure is walked once for the
        // worker site and once for the enclosing scope site; the
        // duplicates are exact, so they collapse here.
        crate::diag::sort_diagnostics(&mut out);
        out.dedup();
        out
    }

    /// `Ordering::Relaxed` anywhere in the determinism scope, plus
    /// `Ordering::AcqRel` on `load`/`store` (a runtime abort).
    pub fn relaxed_atomic(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.walk_scope(
            |rel| self.cfg.in_determinism_scope(rel),
            |file_idx, e| match &e.kind {
                ExprKind::Path(p) => {
                    if path_ends(p, "Ordering", "Relaxed") {
                        out.push(Diagnostic::new(
                            self.rel(file_idx),
                            e.span,
                            RULE_RELAXED_ATOMIC,
                            "`Ordering::Relaxed` imposes no cross-thread ordering, so \
                             observed values can differ run-to-run; use \
                             `Ordering::SeqCst` (counters off the hot path cost \
                             nothing), or waive here if this is the blessed \
                             claim-cursor idiom"
                                .to_string(),
                        ));
                    }
                }
                ExprKind::MethodCall { method, args, .. }
                    if method == "load" || method == "store" =>
                {
                    for a in args {
                        let Some(p) = a.as_path() else { continue };
                        if path_ends(p, "Ordering", "AcqRel") {
                            out.push(Diagnostic::new(
                                self.rel(file_idx),
                                a.span,
                                RULE_RELAXED_ATOMIC,
                                format!(
                                    "`Ordering::AcqRel` passed to `{method}` aborts at \
                                     runtime; use `Acquire`, `Release` or `SeqCst`"
                                ),
                            ));
                        }
                    }
                }
                _ => {}
            },
        );
        out
    }
}

/// The single identifier when the expression is a bare one-segment path
/// (through references: `&x` / `*x`).
fn single_name(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(p) if p.len() == 1 => p.first().map(String::as_str),
        ExprKind::Unary(inner) | ExprKind::Ref(inner) => single_name(inner),
        _ => None,
    }
}

/// Does the path end with the segments `a::b`?
fn path_ends(p: &[String], a: &str, b: &str) -> bool {
    let last_is_b = p.last().is_some_and(|s| s == b);
    let prev_is_a = p
        .len()
        .checked_sub(2)
        .and_then(|i| p.get(i))
        .is_some_and(|s| s == a);
    last_is_b && prev_is_a
}

/// Time unit inferred from naming/accessor conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Ms,
    Us,
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::Ms => "milliseconds",
            Unit::Us => "microseconds",
        }
    }
}

fn unit_suffix(name: &str) -> Option<Unit> {
    let lower = name.to_ascii_lowercase();
    if lower.ends_with("_ms") || lower.ends_with("_millis") || lower == "as_millis" {
        Some(Unit::Ms)
    } else if lower.ends_with("_us") || lower.ends_with("_micros") || lower == "as_micros" {
        Some(Unit::Us)
    } else {
        None
    }
}

/// Time unit of an expression, with the display name that carries it.
fn unit_of(e: &Expr) -> Option<(Unit, String)> {
    match &e.kind {
        ExprKind::Path(p) => {
            let last = p.last()?;
            unit_suffix(last).map(|u| (u, last.clone()))
        }
        ExprKind::Field { name, .. } => unit_suffix(name).map(|u| (u, name.clone())),
        ExprKind::MethodCall { method, .. } => {
            unit_suffix(method).map(|u| (u, format!("{method}()")))
        }
        ExprKind::Unary(inner) | ExprKind::Ref(inner) | ExprKind::Try(inner) => unit_of(inner),
        ExprKind::Binary { op, lhs, rhs, .. } if matches!(*op, "+" | "-") => {
            unit_of(lhs).or_else(|| unit_of(rhs))
        }
        _ => None,
    }
}

/// Names that conventionally hold protocol-timer durations.
fn timer_named(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.ends_with("_ms")
        || lower.ends_with("_us")
        || lower.ends_with("_millis")
        || lower.ends_with("_micros")
        || lower.contains("delay")
        || lower.contains("hold")
        || lower.contains("timeout")
        || lower.contains("detect")
        || lower.contains("spf")
        || lower.contains("fib")
}

/// The function body plus every nested block, shallow per entry (so each
/// `let` statement is visited exactly once).
fn blocks_of(body: &Block) -> Vec<&Block> {
    let mut out = vec![body];
    crate::ast::walk_block(body, &mut |e| match &e.kind {
        ExprKind::Block(b) => out.push(b),
        ExprKind::If { then, .. } => out.push(then),
        ExprKind::Loop { body, .. } => out.push(body),
        _ => {}
    });
    out
}

/// Walks an expression tree tracking whether each node sits lexically
/// inside a loop (closures inside a loop run per iteration, so the flag
/// survives them). A loop's own head counts as inside it: a `while`
/// condition re-evaluates per iteration, and a `for` head *is* the
/// full traversal the scan rules police.
fn walk_expr_loops<'a>(e: &'a Expr, in_loop: bool, f: &mut impl FnMut(&'a Expr, bool)) {
    f(e, in_loop);
    match &e.kind {
        ExprKind::Path(_) | ExprKind::Lit(_) | ExprKind::Unknown => {}
        ExprKind::Call { callee, args } => {
            walk_expr_loops(callee, in_loop, f);
            for a in args {
                walk_expr_loops(a, in_loop, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr_loops(recv, in_loop, f);
            for a in args {
                walk_expr_loops(a, in_loop, f);
            }
        }
        ExprKind::Field { recv, .. } => walk_expr_loops(recv, in_loop, f),
        ExprKind::Index { recv, index } => {
            walk_expr_loops(recv, in_loop, f);
            walk_expr_loops(index, in_loop, f);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            walk_expr_loops(lhs, in_loop, f);
            walk_expr_loops(rhs, in_loop, f);
        }
        ExprKind::Unary(e) | ExprKind::Try(e) | ExprKind::Ref(e) => {
            walk_expr_loops(e, in_loop, f)
        }
        ExprKind::Assign { place, value } => {
            walk_expr_loops(place, in_loop, f);
            walk_expr_loops(value, in_loop, f);
        }
        ExprKind::Block(b) => walk_block_loops(b, in_loop, f),
        ExprKind::If { cond, then, els } => {
            walk_expr_loops(cond, in_loop, f);
            walk_block_loops(then, in_loop, f);
            if let Some(e) = els {
                walk_expr_loops(e, in_loop, f);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            walk_expr_loops(scrutinee, in_loop, f);
            for a in arms {
                walk_expr_loops(a, in_loop, f);
            }
        }
        ExprKind::Loop { head, body } => {
            if let Some(h) = head {
                walk_expr_loops(h, true, f);
            }
            walk_block_loops(body, true, f);
        }
        ExprKind::Closure { body, .. } => walk_expr_loops(body, in_loop, f),
        ExprKind::Struct { fields, .. } => {
            for (_, e) in fields {
                walk_expr_loops(e, in_loop, f);
            }
        }
        ExprKind::Tuple(es) | ExprKind::MacroCall { args: es, .. } => {
            for e in es {
                walk_expr_loops(e, in_loop, f);
            }
        }
        ExprKind::Return(e) => {
            if let Some(e) = e {
                walk_expr_loops(e, in_loop, f);
            }
        }
    }
}

/// `walk_expr_loops` over every statement of a block.
fn walk_block_loops<'a>(
    block: &'a Block,
    in_loop: bool,
    f: &mut impl FnMut(&'a Expr, bool),
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    walk_expr_loops(e, in_loop, f);
                }
            }
            Stmt::Expr(e) => walk_expr_loops(e, in_loop, f),
            Stmt::Item(_) => {}
        }
    }
}

/// Is this expression one of the allocation forms `alloc-in-hot-loop`
/// polices? Returns its display name.
fn alloc_kind(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Call { callee, .. } => {
            let p = callee.as_path()?;
            let last = p.last()?;
            let owner = p
                .len()
                .checked_sub(2)
                .and_then(|i| p.get(i))
                .map(String::as_str)
                .unwrap_or("");
            match (owner, last.as_str()) {
                ("Vec", "new" | "with_capacity")
                | ("Box", "new")
                | ("String", "from" | "new" | "with_capacity") => {
                    Some(format!("{owner}::{last}"))
                }
                _ => None,
            }
        }
        ExprKind::MacroCall { path, .. } => {
            let last = path.last()?;
            matches!(last.as_str(), "vec" | "format").then(|| format!("{last}!"))
        }
        ExprKind::MethodCall { method, .. } => {
            matches!(method.as_str(), "to_vec" | "collect").then(|| format!(".{method}()"))
        }
        _ => None,
    }
}

/// Does a `let` initializer construct a `BTreeMap`/`BTreeSet`? (No type
/// inference — a constructor sighting anywhere in the initializer is the
/// evidence.)
fn init_is_btree(init: &Expr) -> bool {
    let mut found = false;
    init.walk(&mut |e| {
        if let Some(p) = e.as_path() {
            if p.iter().any(|s| s == "BTreeMap" || s == "BTreeSet") {
                found = true;
            }
        }
    });
    found
}

/// Drops diagnostics covered by an inline `// lint:allow(<rule>)` waiver
/// on the same or the preceding line.
pub fn filter_waived(mut diags: Vec<Diagnostic>, files: &[SourceFile]) -> Vec<Diagnostic> {
    let by_rel: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();
    diags.retain(|d| {
        let Some(sf) = by_rel.get(d.file.as_str()) else {
            return true;
        };
        !sf.lexed.waivers.iter().any(|w| {
            (w.line == d.span.line || w.line + 1 == d.span.line)
                && w.rules.iter().any(|r| r == d.rule || r == "all")
        })
    });
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Evaluator;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::resolve::{CrateMap, FnTable, SourceFile};

    const SCOPE: &[&str] = &["crates/sim/src", "crates/routing/src"];
    const TSCOPE: &[&str] = &["crates/routing/src", "crates/experiments/src"];
    const EXEMPT: &[&str] = &["crates/sim/src/timers.rs"];

    fn run(srcs: &[(&str, &str, &str)], pack: &str) -> Vec<String> {
        run_with_roots(srcs, pack, "")
    }

    fn run_with_roots(srcs: &[(&str, &str, &str)], pack: &str, roots: &str) -> Vec<String> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, krate, src)| {
                let lexed = lex(src);
                let ast = parse_file(&lexed);
                SourceFile::new(rel.to_string(), krate.to_string(), lexed, ast)
            })
            .collect();
        let crates = CrateMap::default();
        let table = FnTable::collect(&files);
        let mut eval = Evaluator::new(&files, &table, &crates);
        eval.run_fixpoint();
        let packs = Packs {
            files: &files,
            table: &table,
            eval: &eval,
            crates: &crates,
            cfg: PackConfig {
                determinism_scope: SCOPE,
                timer_scope: TSCOPE,
                timer_exempt: EXEMPT,
            },
        };
        let reach = || {
            let hot = crate::reach::HotRoots::parse(roots).expect("roots parse");
            crate::reach::compute(&files, &table, &eval, &crates, &hot).expect("roots resolve")
        };
        let diags = match pack {
            "taint" => packs.determinism_taint(),
            "rng" => packs.rng_stream(),
            "timer" => packs.timer_provenance(),
            "index" => packs.panic_indexing(),
            "alloc" => packs.alloc_in_hot_loop(&reach()),
            "clone" => packs.clone_in_hot_path(&reach()),
            "scan" => packs.map_scan_per_event(&reach()),
            "shared" => packs.shared_mutable_capture(&packs.spawn_sites()),
            "unforked" => packs.unforked_rng_spawn(&packs.spawn_sites()),
            "reduction" => packs.unordered_reduction(&packs.spawn_sites()),
            "relaxed" => packs.relaxed_atomic(),
            _ => Vec::new(),
        };
        filter_waived(diags, &files)
            .into_iter()
            .map(|d| format!("{}:{} {}", d.file, d.span.line, d.message))
            .collect()
    }

    #[test]
    fn taint_flags_cross_crate_wall_clock_flow() {
        let hits = run(
            &[
                (
                    "crates/util/src/lib.rs",
                    "util",
                    "use std::time::Instant;\n\
                     pub fn wall_stamp() -> u128 { Instant::now().elapsed().as_millis() }",
                ),
                (
                    "crates/sim/src/lib.rs",
                    "dcn_sim",
                    "use util::wall_stamp;\n\
                     pub fn on_link_event(t: u64) -> u64 { t + wall_stamp() as u64 }",
                ),
            ],
            "taint",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits.first().is_some_and(
            |h| h.contains("crates/sim/src/lib.rs") && h.contains("wall_stamp")
        ));
    }

    #[test]
    fn taint_ignores_test_code_and_clean_calls() {
        let hits = run(
            &[(
                "crates/sim/src/lib.rs",
                "dcn_sim",
                "pub fn clean(t: u64) -> u64 { t + 1 }\n\
                 pub fn handler(t: u64) -> u64 { clean(t) }\n\
                 #[cfg(test)] mod tests {\n\
                     use std::time::Instant;\n\
                     fn t() -> u128 { Instant::now().elapsed().as_millis() }\n\
                 }",
            )],
            "taint",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn rng_stream_flags_literal_seeds_outside_tests() {
        let hits = run(
            &[(
                "crates/experiments/src/lib.rs",
                "f2tree_experiments",
                "pub fn bad() -> u64 { let mut r = SimRng::new(42); r.next() }\n\
                 pub fn good(seed: u64) -> u64 { let mut r = SimRng::new(seed); r.next() }\n\
                 #[cfg(test)] mod tests {\n\
                     fn ok() { let _ = SimRng::new(7); }\n\
                 }",
            )],
            "rng",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits.first().is_some_and(|h| h.contains("literal seed 42")));
    }

    #[test]
    fn timer_provenance_flags_magnitudes_and_unit_mixing() {
        let hits = run(
            &[(
                "crates/routing/src/spf.rs",
                "dcn_routing",
                "pub fn schedule() -> u64 { let spf_delay_ms = 200; spf_delay_ms }\n\
                 pub fn fine() -> u64 { let width = 200; width }\n\
                 pub fn mix(detect_ms: u64, budget_us: u64) -> bool { detect_ms > budget_us }\n\
                 pub fn micros() -> D { D::from_micros(200_000) }",
            )],
            "timer",
        );
        assert_eq!(hits.len(), 3, "{hits:?}");
        let all = hits.join("\n");
        assert!(all.contains("spf_delay_ms"), "{all}");
        assert!(all.contains("SPF_INITIAL_DELAY"), "{all}");
        assert!(all.contains("mixes milliseconds"), "{all}");
        assert!(all.contains("from_micros(200000)") || all.contains("from_micros(200_000)"));
    }

    #[test]
    fn timer_provenance_respects_symbolic_refs_and_scope() {
        let hits = run(
            &[
                (
                    "crates/routing/src/spf.rs",
                    "dcn_routing",
                    "use dcn_sim::timers;\n\
                     pub fn good() -> D { D::from_millis(timers::SPF_INITIAL_DELAY_MS) }",
                ),
                (
                    // Out of timer scope entirely.
                    "crates/emu/src/lib.rs",
                    "dcn_emu",
                    "pub fn elsewhere() -> u64 { let spf_delay_ms = 200; spf_delay_ms }",
                ),
            ],
            "timer",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    const HOT: &str = "[roots]\n\"Engine::step\" = \"event loop\"\n";

    #[test]
    fn alloc_in_hot_loop_flags_only_loops_in_hot_fns() {
        let hits = run_with_roots(
            &[(
                "crates/sim/src/lib.rs",
                "dcn_sim",
                "impl Engine {\n\
                   pub fn step(&mut self) { for x in 0..4 { self.per_event(x); } }\n\
                   fn per_event(&mut self, x: u64) {\n\
                     let ok = Vec::new();\n\
                     while x > 0 { let bad: Vec<u64> = items().collect(); use_it(bad); }\n\
                   }\n\
                 }\n\
                 fn cold() { for _ in 0..4 { let v = vec![1, 2]; use_it(v); } }\n",
            )],
            "alloc",
            HOT,
        );
        // Only the collect() inside the while loop of the hot fn: the
        // Vec::new outside any loop and the cold fn's vec! stay silent.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains(".collect()"), "{hits:?}");
        assert!(hits[0].contains("Engine::step"), "{hits:?}");
    }

    #[test]
    fn clone_in_hot_path_flags_and_respects_waivers() {
        let hits = run_with_roots(
            &[(
                "crates/routing/src/lib.rs",
                "dcn_routing",
                "impl Engine {\n\
                   pub fn step(&mut self, s: &S) {\n\
                     let a = s.payload.clone();\n\
                     let b = s.payload.clone(); // lint:allow(clone-in-hot-path) inherent\n\
                     use_them(a, b);\n\
                   }\n\
                 }\n\
                 fn cold(s: &S) -> P { s.payload.clone() }\n",
            )],
            "clone",
            HOT,
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].contains(".clone()"), "{hits:?}");
        assert!(hits[0].contains(":3 "), "{hits:?}");
    }

    #[test]
    fn map_scan_flags_btree_iteration_in_hot_loops() {
        let hits = run_with_roots(
            &[(
                "crates/routing/src/lib.rs",
                "dcn_routing",
                "impl Engine {\n\
                   pub fn step(&mut self) {\n\
                     let dist = BTreeMap::new();\n\
                     let plain = make_list();\n\
                     while go() {\n\
                       for (k, v) in dist.iter() { use_kv(k, v); }\n\
                       for x in plain.iter() { use_x(x); }\n\
                     }\n\
                     for (k, v) in dist.iter() { finish(k, v); }\n\
                   }\n\
                 }\n",
            )],
            "scan",
            HOT,
        );
        // The scan of the BTreeMap inside the while loop is flagged —
        // including the final drain loop (its own `for` is a loop), but
        // the non-BTree local is not.
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.contains("`dist`")), "{hits:?}");
    }

    #[test]
    fn panic_indexing_flags_non_test_indexing() {
        let hits = run(
            &[(
                "crates/core/src/lib.rs",
                "f2tree",
                "pub fn first(xs: &[u64]) -> u64 { xs[0] }\n\
                 pub fn safe(xs: &[u64]) -> u64 { xs.first().copied().unwrap_or(0) }\n\
                 pub fn waived(xs: &[u64]) -> u64 { xs[0] } // lint:allow(panic-indexing)\n\
                 #[cfg(test)] mod tests { fn t(xs: &[u64]) -> u64 { xs[1] } }",
            )],
            "index",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn shared_capture_flags_worker_closures_not_scope_closures() {
        let src = "use std::sync::Mutex;\n\
                   use std::thread;\n\
                   pub fn fan_out(n: u64) -> u64 {\n\
                       let tally = Mutex::new(0u64);\n\
                       thread::scope(|scope| {\n\
                           scope.spawn(|| bump(&tally, n));\n\
                       });\n\
                       n\n\
                   }\n\
                   fn bump(tally: &Mutex<u64>, n: u64) -> u64 { n }";
        let hits = run(&[("crates/sim/src/lib.rs", "dcn_sim", src)], "shared");
        // One finding at the worker spawn; the scope closure also sees
        // `tally` but runs on the calling thread.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits.first().is_some_and(|h| h.contains("`tally`") && h.contains(":6 ")));
    }

    #[test]
    fn shared_capture_honors_inline_waivers() {
        let src = "use std::sync::atomic::AtomicUsize;\n\
                   use std::thread;\n\
                   pub fn fan_out(n: usize) -> usize {\n\
                       let cursor = AtomicUsize::new(0);\n\
                       thread::scope(|scope| {\n\
                           // lint:allow(shared-mutable-capture) claim cursor\n\
                           scope.spawn(|| claim(&cursor, n));\n\
                       });\n\
                       n\n\
                   }\n\
                   fn claim(cursor: &AtomicUsize, n: usize) -> usize { n }";
        let hits = run(&[("crates/sim/src/lib.rs", "dcn_sim", src)], "shared");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unforked_rng_flags_master_but_not_forked_streams() {
        let src = "use std::thread;\n\
                   pub fn bad(master: u64) {\n\
                       let rng = SimRng::new(master);\n\
                       thread::scope(|scope| { scope.spawn(|| draw(&rng)); });\n\
                   }\n\
                   pub fn good(master: u64, index: u64) {\n\
                       let rng = SimRng::new(cell_seed(master, index));\n\
                       thread::scope(|scope| { scope.spawn(|| draw(&rng)); });\n\
                   }\n\
                   pub fn forked(parent: &mut SimRng) {\n\
                       let rng = parent.fork(7);\n\
                       thread::scope(|scope| { scope.spawn(|| draw(&rng)); });\n\
                   }\n\
                   fn draw(rng: &SimRng) -> u64 { 0 }";
        let hits = run(&[("crates/sim/src/lib.rs", "dcn_sim", src)], "unforked");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits.first().is_some_and(|h| h.contains(":4 ")), "{hits:?}");
    }

    #[test]
    fn unordered_reduction_fires_once_per_mutation_site() {
        // The push sits inside the worker closure, which is nested in
        // the scope closure — both sites walk it, the duplicate dedups.
        let src = "use std::thread;\n\
                   pub fn collect_all(cells: &[u64]) -> Vec<u64> {\n\
                       let mut results = Vec::new();\n\
                       thread::scope(|scope| {\n\
                           for c in cells {\n\
                               scope.spawn(|| results.push(*c));\n\
                           }\n\
                       });\n\
                       results\n\
                   }";
        let hits = run(&[("crates/sim/src/lib.rs", "dcn_sim", src)], "reduction");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits.first().is_some_and(|h| h.contains("`results`")), "{hits:?}");
    }

    #[test]
    fn reduction_ignores_closure_local_buffers() {
        let src = "use std::thread;\n\
                   pub fn per_worker(cells: &[u64]) {\n\
                       thread::scope(|scope| {\n\
                           scope.spawn(|| {\n\
                               let mut local = Vec::new();\n\
                               local.push(1u64);\n\
                               local\n\
                           });\n\
                       });\n\
                   }";
        let hits = run(&[("crates/sim/src/lib.rs", "dcn_sim", src)], "reduction");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn relaxed_atomic_flags_relaxed_and_acqrel_load_only() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\n\
                   pub fn bad(c: &AtomicUsize) -> usize { c.load(Ordering::Relaxed) }\n\
                   pub fn abort(c: &AtomicUsize) -> usize { c.load(Ordering::AcqRel) }\n\
                   pub fn fine(c: &AtomicUsize) -> usize { c.load(Ordering::SeqCst) }\n\
                   pub fn rmw(c: &AtomicUsize) -> usize { c.fetch_add(1, Ordering::AcqRel) }\n\
                   pub fn waived(c: &AtomicUsize) -> usize {\n\
                       // lint:allow(relaxed-atomic) claim cursor\n\
                       c.fetch_add(1, Ordering::Relaxed)\n\
                   }";
        let hits = run(&[("crates/sim/src/lib.rs", "dcn_sim", src)], "relaxed");
        // Relaxed load + AcqRel load; AcqRel on a read-modify-write is
        // legal and SeqCst is the house default.
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn out_of_scope_spawns_are_not_audited() {
        let src = "use std::sync::Mutex;\n\
                   use std::thread;\n\
                   pub fn fan_out(n: u64) {\n\
                       let tally = Mutex::new(0u64);\n\
                       thread::scope(|scope| { scope.spawn(|| bump(&tally, n)); });\n\
                   }\n\
                   fn bump(tally: &Mutex<u64>, n: u64) -> u64 { n }";
        let hits = run(&[("tools/src/lib.rs", "tools", src)], "shared");
        assert!(hits.is_empty(), "{hits:?}");
    }
}
