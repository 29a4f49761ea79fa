//! Interprocedural hot-path reachability.
//!
//! `hot-roots.toml` (checked in at the workspace root) declares the
//! entry points of the per-event universe — the event-queue pop loop,
//! the emulator dispatch, SPF/FIB update entries, transport delivery.
//! This module resolves those declarations against the workspace
//! function table and computes the set of functions transitively
//! reachable from the roots over the same
//! call edges the taint dataflow uses (`qualify` + `resolve_call` for
//! path calls, bare-name `resolve_method` for method calls; ambiguity
//! resolves to the union of candidates, which is conservative — a
//! function is "hot" if *any* resolution chain reaches it).
//!
//! The perf rule packs in [`crate::packs`] then police only the hot
//! set, so setup paths (topology construction, bootstrap) stay free to
//! allocate, and future crates opt in by adding a root — no analyzer
//! changes needed.

use std::collections::BTreeMap;
use std::path::Path;

use crate::ast::{Expr, ExprKind};
use crate::dataflow::Evaluator;
use crate::resolve::{CrateMap, FnTable, SourceFile};

/// File name of the root declaration, relative to the analyzed root.
pub const HOT_ROOTS_FILE: &str = "hot-roots.toml";

/// One declared entry: the function spec and its human note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootSpec {
    /// `Type::method` or `crate_name::function` (longer paths allowed).
    pub spec: String,
    /// Free-text rationale from the TOML value.
    pub note: String,
}

/// Parsed `hot-roots.toml`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HotRoots {
    /// `[roots]` — entry points of the per-event universe.
    pub roots: Vec<RootSpec>,
}

impl HotRoots {
    /// Parses the same tiny TOML subset as the allowlist: the `[roots]`
    /// header and `"spec" = "note"` entries.
    pub fn parse(text: &str) -> Result<HotRoots, String> {
        let mut out = HotRoots::default();
        let mut in_roots = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if name != "roots" {
                    return Err(format!(
                        "{HOT_ROOTS_FILE} line {lineno}: unknown section `[{name}]` \
                         (expected `[roots]`)"
                    ));
                }
                in_roots = true;
                continue;
            }
            if !in_roots {
                return Err(format!(
                    "{HOT_ROOTS_FILE} line {lineno}: entry before any section: {line}"
                ));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "{HOT_ROOTS_FILE} line {lineno}: expected `\"spec\" = \"note\"`, got: {line}"
                ));
            };
            let spec = key.trim().trim_matches('"').to_string();
            let note = value.trim().trim_matches('"').to_string();
            if spec.is_empty() {
                return Err(format!("{HOT_ROOTS_FILE} line {lineno}: empty spec"));
            }
            if !spec.contains("::") {
                return Err(format!(
                    "{HOT_ROOTS_FILE} line {lineno}: `{spec}` must be qualified as \
                     `Type::method` or `crate_name::function`"
                ));
            }
            out.roots.push(RootSpec { spec, note });
        }
        Ok(out)
    }

    /// Loads `<root>/hot-roots.toml`; `None` when absent (perf packs
    /// stay inactive — fixtures and bare trees opt in by adding one).
    pub fn load(root: &Path) -> Result<Option<HotRoots>, String> {
        let path = root.join(HOT_ROOTS_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {HOT_ROOTS_FILE}: {e}"))?;
        HotRoots::parse(&text).map(Some)
    }
}

/// Per-function hot-path facts, indexed by function id in the table.
#[derive(Debug)]
pub struct Reachability {
    /// For each function: the root spec it is reachable from (first
    /// declared root wins, so attribution is deterministic), or `None`
    /// when the function is cold.
    pub hot_from: Vec<Option<String>>,
}

impl Reachability {
    /// The declared root a function is hot from, if any.
    pub fn root_of(&self, fn_id: usize) -> Option<&str> {
        self.hot_from.get(fn_id).and_then(|r| r.as_deref())
    }

    /// Number of hot-reachable functions (for reporting).
    pub fn hot_count(&self) -> usize {
        self.hot_from.iter().filter(|r| r.is_some()).count()
    }
}

/// Resolves one spec against the function table. `Type::method` forms
/// hit the impl index, `crate_name::function` the free-function index;
/// `resolve_call` already dispatches on the case of the second-to-last
/// segment, so longer paths work too.
fn resolve_spec(table: &FnTable<'_>, spec: &str) -> Vec<usize> {
    let path: Vec<String> = spec.split("::").map(str::to_string).collect();
    table.resolve_call(&path).to_vec()
}

/// Computes hot-path reachability from the declared roots.
///
/// Fails with a clear diagnostic when any entry names a function the
/// workspace does not define — a stale root is a silent hole in the
/// perf gate, so it must be loud.
pub fn compute(
    files: &[SourceFile],
    table: &FnTable<'_>,
    eval: &Evaluator<'_>,
    crates: &CrateMap,
    hot: &HotRoots,
) -> Result<Reachability, String> {
    let mut hot_from: Vec<Option<String>> = vec![None; table.fns.len()];

    let edges = call_edges(files, table, eval, crates);
    // BFS per declared root, in declaration order: the first root that
    // reaches a function owns its attribution, deterministically.
    for entry in &hot.roots {
        let ids = resolve_spec(table, &entry.spec);
        if ids.is_empty() {
            return Err(unknown_spec_error(&entry.spec, files, table));
        }
        let mut queue: Vec<usize> = Vec::new();
        for id in ids {
            if let Some(slot @ None) = hot_from.get_mut(id) {
                *slot = Some(entry.spec.clone());
                queue.push(id);
            }
        }
        while let Some(id) = queue.pop() {
            for &callee in edges.get(&id).into_iter().flatten() {
                if let Some(slot @ None) = hot_from.get_mut(callee) {
                    *slot = Some(entry.spec.clone());
                    queue.push(callee);
                }
            }
        }
    }

    Ok(Reachability { hot_from })
}

fn unknown_spec_error(spec: &str, files: &[SourceFile], table: &FnTable<'_>) -> String {
    let mut sample: Vec<String> = Vec::new();
    // Same-name candidates catch a wrong owner (`Motor::step`); when the
    // name itself is the typo, the owner's other functions catch it
    // (`Engine::stpe` → `Engine::step`). Either way the hint stays short.
    let name = spec.rsplit("::").next();
    let owner_seg = spec.rsplit("::").nth(1);
    for decl in &table.fns {
        let owner = decl.type_name.clone().unwrap_or_else(|| {
            files
                .get(decl.file_idx)
                .map_or(String::new(), |f| f.krate.clone())
        });
        let same_name = name.is_some_and(|n| decl.item.name == n);
        let same_owner = owner_seg.is_some_and(|o| o == owner);
        if same_name || same_owner {
            sample.push(format!("{owner}::{}", decl.item.name));
        }
    }
    sample.sort();
    sample.dedup();
    sample.truncate(8);
    let hint = if sample.is_empty() {
        String::new()
    } else {
        format!("; did you mean {}?", sample.join(" / "))
    };
    format!(
        "{HOT_ROOTS_FILE}: [roots] entry `{spec}` does not resolve to any \
         workspace function (use `Type::method` or `crate_name::function`){hint}"
    )
}

/// Caller → callees over every function body, using the same resolution
/// the dataflow pass uses, pruned by the crate dependency graph: a
/// bare-name method collision in a crate the caller does not (even
/// transitively) depend on is not a real edge — without this pruning,
/// any workspace crate sharing a method name with the emulator would be
/// dragged into the hot set.
fn call_edges(
    files: &[SourceFile],
    table: &FnTable<'_>,
    eval: &Evaluator<'_>,
    crates: &CrateMap,
) -> BTreeMap<usize, Vec<usize>> {
    let krate_of = |fn_id: usize| -> &str {
        table
            .fns
            .get(fn_id)
            .and_then(|d| files.get(d.file_idx))
            .map_or("", |f| f.krate.as_str())
    };
    let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (id, decl) in table.fns.iter().enumerate() {
        let Some(body) = &decl.item.body else { continue };
        let caller_krate = files.get(decl.file_idx).map_or("", |f| f.krate.as_str());
        let mut callees: Vec<usize> = Vec::new();
        crate::ast::walk_block(body, &mut |e: &Expr| match &e.kind {
            ExprKind::Call { callee, .. } => {
                if let Some(path) = callee.as_path() {
                    let q = eval.qualify_in(decl.file_idx, path);
                    callees.extend_from_slice(table.resolve_call(&q));
                }
            }
            ExprKind::MethodCall { method, .. } => {
                callees.extend_from_slice(table.resolve_method(method));
            }
            _ => {}
        });
        callees.retain(|&c| crates.can_call(caller_krate, krate_of(c)));
        callees.sort_unstable();
        callees.dedup();
        if !callees.is_empty() {
            edges.insert(id, callees);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::resolve::CrateMap;

    fn sf(rel: &str, krate: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let ast = parse_file(&lexed);
        SourceFile::new(rel.to_string(), krate.to_string(), lexed, ast)
    }

    fn reach_over(
        srcs: &[(&str, &str, &str)],
        toml: &str,
    ) -> Result<(Vec<SourceFile>, HotRoots), String> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(rel, krate, src)| sf(rel, krate, src))
            .collect();
        let hot = HotRoots::parse(toml)?;
        Ok((files, hot))
    }

    #[test]
    fn parses_sections_and_rejects_garbage() {
        let hot = HotRoots::parse(
            "# comment\n[roots]\n\"EventQueue::pop\" = \"pop loop\"\n",
        )
        .unwrap();
        assert_eq!(hot.roots.len(), 1);
        assert_eq!(hot.roots[0].spec, "EventQueue::pop");

        assert!(HotRoots::parse("\"orphan\" = \"x\"").is_err());
        assert!(HotRoots::parse("[bogus]\n").is_err());
        assert!(HotRoots::parse("[roots]\n\"unqualified\" = \"x\"").is_err());
    }

    #[test]
    fn reachability_follows_calls_and_attributes_roots() {
        let (files, hot) = reach_over(
            &[(
                "crates/sim/src/lib.rs",
                "dcn_sim",
                "impl Engine {\n\
                   pub fn step(&mut self) { self.dispatch(); }\n\
                   fn dispatch(&mut self) { helper(); }\n\
                 }\n\
                 fn helper() {}\n\
                 fn cold() { helper(); }\n",
            )],
            "[roots]\n\"Engine::step\" = \"event loop\"\n",
        )
        .unwrap();
        let table = FnTable::collect(&files);
        let crates = CrateMap::default();
        let mut eval = Evaluator::new(&files, &table, &crates);
        eval.run_fixpoint();
        let r = compute(&files, &table, &eval, &crates, &hot).unwrap();
        let by_name = |n: &str| {
            table
                .fns
                .iter()
                .position(|f| f.item.name == n)
                .expect("fn present")
        };
        assert_eq!(r.root_of(by_name("step")), Some("Engine::step"));
        assert_eq!(r.root_of(by_name("dispatch")), Some("Engine::step"));
        // helper is hot via dispatch; cold calls it too but cold itself
        // is not reachable from the root.
        assert_eq!(r.root_of(by_name("helper")), Some("Engine::step"));
        assert_eq!(r.root_of(by_name("cold")), None);
        assert_eq!(r.hot_count(), 3);
    }

    #[test]
    fn unknown_root_fails_with_a_clear_diagnostic() {
        let (files, hot) = reach_over(
            &[(
                "crates/sim/src/lib.rs",
                "dcn_sim",
                "impl Engine { pub fn step(&mut self) {} }\n",
            )],
            "[roots]\n\"Engine::stpe\" = \"typo\"\n",
        )
        .unwrap();
        let table = FnTable::collect(&files);
        let crates = CrateMap::default();
        let mut eval = Evaluator::new(&files, &table, &crates);
        eval.run_fixpoint();
        let err = compute(&files, &table, &eval, &crates, &hot).unwrap_err();
        assert!(err.contains("Engine::stpe"), "{err}");
        assert!(err.contains("does not resolve"), "{err}");
    }

    #[test]
    fn unknown_spec_error_suggests_same_name_candidates() {
        let (files, hot) = reach_over(
            &[(
                "crates/sim/src/lib.rs",
                "dcn_sim",
                "impl Engine { pub fn step(&mut self) {} }\n",
            )],
            "[roots]\n\"Motor::step\" = \"wrong type\"\n",
        )
        .unwrap();
        let table = FnTable::collect(&files);
        let crates = CrateMap::default();
        let mut eval = Evaluator::new(&files, &table, &crates);
        eval.run_fixpoint();
        let err = compute(&files, &table, &eval, &crates, &hot).unwrap_err();
        assert!(err.contains("did you mean Engine::step"), "{err}");
    }
}
