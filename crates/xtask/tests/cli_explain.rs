//! End-to-end tests of the `lint --explain` CLI surface: every shipped
//! rule has printable documentation (the clippy-backed families name
//! their lints and the waiver syntax), an unknown rule name fails loudly
//! with the full rule list (so a typo never silently succeeds), and a
//! near-miss gets a did-you-mean suggestion.

use std::process::Command;

use xtask::diag::ALL_RULES;

fn xtask() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

fn explain(rule: &str) -> String {
    let out = xtask()
        .args(["lint", "--explain", rule])
        .output()
        .expect("spawn xtask");
    assert!(out.status.success(), "--explain {rule} must exit 0");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn explain_prints_docs_for_every_rule() {
    for rule in ALL_RULES {
        let stdout = explain(rule);
        assert!(
            stdout.contains(rule),
            "--explain {rule} must name the rule:\n{stdout}"
        );
        assert!(
            stdout.len() > 100,
            "--explain {rule} must be substantive:\n{stdout}"
        );
    }
}

#[test]
fn explain_names_the_clippy_lints_and_the_waiver_syntax() {
    let cases: [(&str, &[&str]); 3] = [
        (
            "panic-safety",
            &[
                "expect_used",
                "unwrap_used",
                "panic",
                "#[expect(clippy::expect_used, reason",
            ],
        ),
        (
            "panic-indexing",
            &[
                "indexing_slicing",
                "#[expect(clippy::indexing_slicing, reason",
            ],
        ),
        (
            "determinism",
            &[
                "disallowed_types",
                "disallowed_methods",
                "clippy.toml",
                "#[expect(clippy::disallowed_methods, reason",
            ],
        ),
    ];
    for (rule, needles) in cases {
        let stdout = explain(rule);
        for needle in needles {
            assert!(
                stdout.contains(needle),
                "--explain {rule} must mention `{needle}`:\n{stdout}"
            );
        }
        assert!(
            !stdout.contains("lint:allow"),
            "{rule} is not waived by comment:\n{stdout}"
        );
    }
    for rule in ["timer-constants", "rng-stream"] {
        let stdout = explain(rule);
        assert!(
            stdout.contains(&format!("// lint:allow({rule})")),
            "{stdout}"
        );
    }
    // One generator, one constructor: the rule names exactly that.
    let stdout = explain("rng-stream");
    assert!(stdout.contains("`SimRng::new`"), "{stdout}");
    assert!(!stdout.contains("seed_from_u64"), "{stdout}");
}

#[test]
fn explain_unknown_rule_exits_nonzero_and_lists_every_rule() {
    let out = xtask()
        .args(["lint", "--explain", "bogus-rule"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2), "unknown rule must exit 2");
    assert!(out.stdout.is_empty(), "nothing on stdout for an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown rule `bogus-rule`"),
        "must echo the bad name:\n{stderr}"
    );
    for rule in ALL_RULES {
        assert!(stderr.contains(rule), "must list {rule}:\n{stderr}");
    }
}

#[test]
fn explain_typo_gets_a_did_you_mean_and_exit_2() {
    // Within edit distance 2 of `rng-stream`: suggested, and still exit 2.
    let out = xtask()
        .args(["lint", "--explain", "rng-streams"])
        .output()
        .expect("spawn xtask");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a typo must exit 2, not succeed"
    );
    assert!(out.stdout.is_empty(), "nothing on stdout for an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("did you mean `rng-stream`?"),
        "--explain must suggest the near-miss:\n{stderr}"
    );
    // Far-off garbage gets the list but no guess.
    let out = xtask()
        .args(["lint", "--explain", "bogus-rule"])
        .output()
        .expect("spawn xtask");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("did you mean"),
        "far-off typos must not get a suggestion:\n{stderr}"
    );
}

#[test]
fn explain_without_a_rule_name_exits_nonzero() {
    let out = xtask()
        .args(["lint", "--explain"])
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--explain takes a rule name"), "{stderr}");
}
