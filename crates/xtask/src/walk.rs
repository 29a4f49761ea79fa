//! Deterministic workspace file discovery for the lint pass.

use std::path::{Path, PathBuf};

/// Directories never descended into: build output, vendored stand-ins for
/// third-party crates (not our code), and VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".claude"];

/// Skipped at the root only: the repo benchmark is a workspace of its own
/// (a measurement harness, not product code) with its own CI gate.
const BENCH_WORKSPACE: &str = "bench";

/// `path` relative to `root` (unchanged when it lies elsewhere), with `/`
/// separators: the spelling diagnostics and `lint-allow.toml` use.
pub fn repo_relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under the workspace root, sorted for stable output.
///
/// Test-only *trees* (`tests/`, `benches/`, `examples/`) are excluded
/// wholesale — the rules exempt test code anyway, and integration tests
/// legitimately use `unwrap()` everywhere. In-crate `#[cfg(test)]`
/// modules are handled token-wise by `rules::test_line_spans`.
pub fn workspace_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    visit(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn visit(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name.as_str()) || (dir == root && name == BENCH_WORKSPACE) {
                continue;
            }
            // Skip test-only trees at any crate root.
            if matches!(name.as_str(), "tests" | "benches" | "examples") {
                continue;
            }
            visit(root, &path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}
