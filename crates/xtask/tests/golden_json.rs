//! Golden-file tests of the token rules over a seeded fixture crate tree
//! (`tests/fixture/`), mirroring the Tables I–IV golden idiom: the text
//! report must match `tests/golden/fixture_lint.txt` byte-exactly.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p xtask --test golden_json`.
//! (The clippy-backed families are covered by the unit tests over canned
//! cargo output in `src/clippy.rs` and `src/engine.rs`.)
//!
//! The fixture crates carry no `Cargo.toml`, so cargo never compiles
//! them, and the workspace walker skips `tests/` trees, so the real lint
//! never sees them either.

use std::path::{Path, PathBuf};

use xtask::allowlist::Allowlist;
use xtask::diag::render_text;
use xtask::engine;

fn tests_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests")
}

/// One `path:line:col: [rule] message` line per finding, then the verdict.
fn lint_text(fixture: &str) -> String {
    let root = tests_dir().join(fixture);
    let (files_checked, diagnostics) = engine::token_pass(&root).expect("fixture is readable");
    let report = engine::gate(files_checked, diagnostics, &Allowlist::default())
        .expect("an empty allowlist is valid");
    let mut out: String = report
        .diagnostics
        .iter()
        .map(|d| render_text(d) + "\n")
        .collect();
    out.push_str(&format!(
        "files: {}; ok: {}\n",
        report.files_checked, report.ok
    ));
    out
}

#[test]
fn fixture_report_matches_golden_byte_exactly() {
    let got = lint_text("fixture");
    let golden = tests_dir().join("golden").join("fixture_lint.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "lint report diverged from the golden file; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fixture_triggers_exactly_the_expected_rules() {
    let got = lint_text("fixture");
    // The seeded violations: the hard-coded 200 ms SPF literal …
    assert!(
        got.contains("[timer-constants] hard-coded timer `from_millis(200)`"),
        "{got}"
    );
    // … the same timer spelled in µs, which names the constant to use …
    assert!(
        got.contains("`from_micros(200000)`; use `dcn_sim::timers::SPF_INITIAL_DELAY`"),
        "{got}"
    );
    // … and a literal-seeded RNG.
    assert!(got.contains("[rng-stream] literal seed 42"), "{got}");
    // The controls stay silent: packet-scale µs, a derived seed, the
    // `#[cfg(test)]` module, and the out-of-scope `util` crate's timer.
    assert_eq!(
        got.lines().count(),
        4,
        "three findings and the verdict:\n{got}"
    );
    assert!(got.ends_with("files: 3; ok: false\n"), "{got}");
}

#[test]
fn clean_fixture_reports_no_findings() {
    assert_eq!(lint_text("fixture_clean"), "files: 1; ok: true\n");
}

#[test]
fn report_is_byte_stable_across_runs() {
    assert_eq!(lint_text("fixture"), lint_text("fixture"));
}
