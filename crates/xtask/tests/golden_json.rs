//! Golden-file tests of `lint --format json` over a seeded fixture crate
//! tree (`tests/fixture/`), mirroring the Tables I–IV golden idiom: the
//! JSON report must match `tests/golden/fixture_lint.json` byte-exactly.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p xtask --test golden_json`.
//!
//! The fixture crates carry no `Cargo.toml` (the crate map falls back to
//! directory names), so cargo never compiles them, and the workspace
//! walker skips `tests/` trees, so the real lint never sees them either.

use std::path::{Path, PathBuf};

use xtask::allowlist::Allowlist;
use xtask::diag::render_json;
use xtask::engine;

fn tests_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests")
}

fn lint_json(fixture: &str) -> String {
    let root = tests_dir().join(fixture);
    let analysis =
        engine::analyze(&root, &Allowlist::default()).expect("fixture analysis runs");
    render_json(analysis.files_checked, &analysis.diagnostics, analysis.ok)
}

#[test]
fn fixture_report_matches_golden_byte_exactly() {
    let got = lint_json("fixture");
    let golden = tests_dir().join("golden").join("fixture_lint.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "lint JSON diverged from the golden file; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fixture_triggers_exactly_the_expected_rules() {
    let got = lint_json("fixture");
    // The seeded violations, one per family:
    // wall-clock taint into the sim event handler …
    assert!(got.contains("\"rule\": \"determinism-taint\""), "{got}");
    assert!(got.contains("wall_stamp"), "{got}");
    // … a literal-seeded RNG …
    assert!(got.contains("\"rule\": \"rng-stream\""), "{got}");
    assert!(got.contains("literal seed 42"), "{got}");
    // … the hard-coded 200 ms SPF literal …
    assert!(got.contains("\"rule\": \"timer-constants\""), "{got}");
    assert!(got.contains("from_millis(200)"), "{got}");
    // … and the µs magnitude + ms/µs mixing.
    assert!(got.contains("\"rule\": \"timer-provenance\""), "{got}");
    assert!(got.contains("spf_hold_us"), "{got}");
    assert!(got.contains("mixes milliseconds"), "{got}");
    // Nothing unexpected: no panics or hash containers are seeded.
    assert!(!got.contains("panic-safety"), "{got}");
    assert!(!got.contains("panic-indexing"), "{got}");
    assert!(got.contains("\"ok\": false"), "{got}");
}

#[test]
fn hot_fixture_report_matches_golden_byte_exactly() {
    let got = lint_json("fixture_hot");
    let golden = tests_dir().join("golden").join("fixture_hot_lint.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "hot-path lint JSON diverged from the golden file; if the change \
         is intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn hot_fixture_triggers_exactly_the_perf_rules() {
    let got = lint_json("fixture_hot");
    // One planted violation per perf rule…
    assert!(got.contains("\"rule\": \"alloc-in-hot-loop\""), "{got}");
    assert!(got.contains("\"rule\": \"map-scan-per-event\""), "{got}");
    assert!(got.contains("\"rule\": \"clone-in-hot-path\""), "{got}");
    // …each attributed to the declared root…
    assert!(got.contains("Engine::step"), "{got}");
    // …with the waiver killing the second clone: exactly one clone
    // finding (the fixture has two clone calls in the hot fn, one waived,
    // plus one in the cold bootstrap). Count rule fields, not substrings:
    // the clone message embeds its own rule name in the waive hint.
    let count = |rule: &str| got.matches(&format!("\"rule\": \"{rule}\"")).count();
    assert_eq!(count("clone-in-hot-path"), 1, "{got}");
    // The cold bootstrap's identical patterns stay silent: exactly one
    // alloc and one map-scan finding, both in `step`.
    assert_eq!(count("alloc-in-hot-loop"), 1, "{got}");
    assert_eq!(count("map-scan-per-event"), 1, "{got}");
    assert!(got.contains("\"ok\": false"), "{got}");
}

#[test]
fn stale_hot_root_fails_analysis_with_a_clear_error() {
    let root = tests_dir().join("fixture_badroots");
    let err = match engine::analyze(&root, &Allowlist::default()) {
        Err(e) => e,
        Ok(_) => panic!("a typoed root must fail the run"),
    };
    assert!(err.contains("Engine::stpe"), "{err}");
    assert!(err.contains("does not resolve"), "{err}");
    assert!(err.contains("did you mean Engine::step"), "{err}");
}

#[test]
fn clean_fixture_reports_no_findings() {
    let got = lint_json("fixture_clean");
    assert!(got.contains("\"ok\": true"), "{got}");
    assert!(got.contains("\"diagnostics\": []"), "{got}");
}

#[test]
fn report_is_byte_stable_across_runs() {
    assert_eq!(lint_json("fixture"), lint_json("fixture"));
}

#[test]
fn report_is_valid_json() {
    xtask::jsonchk::validate(&lint_json("fixture")).expect("report parses as JSON");
    xtask::jsonchk::validate(&lint_json("fixture_clean")).expect("report parses as JSON");
    xtask::jsonchk::validate(&lint_json("fixture_hot")).expect("report parses as JSON");
}
