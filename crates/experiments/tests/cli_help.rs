//! CLI contract tests for the `repro` binary: the `--help` text
//! documents every flag's accepted values; anything the parser does
//! not recognize — flags, flag values, targets, non-numeric numbers, an
//! uncreatable `--out` — is rejected with exit status 2 and a one-line
//! message on stderr, before anything reaches stdout, and so is anything
//! it would drop unread (`chaos` beside another target, a chaos-only
//! flag without `chaos`); a reader that closes the pipe ends the run
//! quietly; and `repro chaos` prints the same bytes for every
//! `--workers` value.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn help_documents_every_flag_and_its_accepted_values() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert!(out.status.success(), "{flag} must exit 0");
        let text = String::from_utf8(out.stdout).expect("utf8 help");
        for needle in [
            "--recovery",
            "ospf | f2tree | frr (alias: lfa)",
            "--workers",
            "positive integer up to 256",
            "--seed",
            "--campaigns",
            "recovery",
            "chaos",
        ] {
            assert!(text.contains(needle), "help is missing {needle:?}:\n{text}");
        }
    }
}

/// Runs `repro` with arguments it must reject: exit 2, nothing on
/// stdout, exactly one line on stderr (returned).
fn rejected(args: &[&str]) -> String {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    err
}

#[test]
fn unknown_flags_are_rejected_not_skipped() {
    let err = rejected(&["table4", "--bogus-flag"]);
    assert!(err.contains("unknown flag '--bogus-flag'"), "{err}");
    assert!(err.contains("run with --help"), "{err}");

    let err = rejected(&["table4", "--quik"]);
    assert!(err.contains("did you mean '--quick'?"), "{err}");

    // The removed engine knobs are ordinary unknown flags now — their
    // value must not be mistaken for a target.
    let err = rejected(&["fig4", "--scheduler", "heap"]);
    assert!(err.contains("unknown flag '--scheduler'"), "{err}");
    let err = rejected(&["fig4", "--spf", "full"]);
    assert!(err.contains("unknown flag '--spf'"), "{err}");
}

#[test]
fn non_numeric_seed_and_campaigns_are_rejected_not_defaulted() {
    let err = rejected(&["chaos", "--seed", "abc", "--campaigns", "x"]);
    assert!(
        err.contains("--seed takes a non-negative integer, got 'abc'"),
        "{err}"
    );
    let err = rejected(&["chaos", "--campaigns", "x"]);
    assert!(
        err.contains("--campaigns takes a non-negative integer, got 'x'"),
        "{err}"
    );
    let err = rejected(&["chaos", "--seed"]);
    assert!(err.contains("--seed needs a value"), "{err}");
}

/// A count past the bound is refused before any campaign is generated,
/// rather than overflowing an allocation's capacity.
#[test]
fn campaign_counts_past_the_bound_are_rejected() {
    for count in ["1000001", "18446744073709551615"] {
        let err = rejected(&["chaos", "--campaigns", count]);
        assert!(
            err.contains(&format!(
                "--campaigns takes a non-negative integer up to 1000000, got '{count}'"
            )),
            "{err}"
        );
    }
}

/// A worker count past the bound is refused before any thread starts.
#[test]
fn worker_counts_past_the_bound_are_rejected() {
    let err = rejected(&["table4", "--workers", "257"]);
    assert!(
        err.contains("--workers takes a positive integer up to 256, got '257'"),
        "{err}"
    );
}

#[test]
fn uncreatable_out_directory_is_an_error_not_a_panic() {
    // A path below a regular file (the binary itself) can never be created.
    let below = std::path::Path::new(env!("CARGO_BIN_EXE_repro")).join("out");
    let err = rejected(&["table4", "--out", below.to_str().expect("utf8 build path")]);
    assert!(err.contains("--out: cannot create directory"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn bad_recovery_value_gets_a_did_you_mean_hint() {
    let err = rejected(&["recovery", "--recovery", "frrr"]);
    assert!(err.contains("accepted: ospf, f2tree, frr, lfa"), "{err}");
    assert!(err.contains("did you mean 'frr'?"), "{err}");
}

#[test]
fn unknown_target_gets_a_did_you_mean_hint() {
    let out = repro(&["fig44"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(err.contains("unknown target 'fig44'"), "{err}");
    assert!(err.contains("did you mean 'fig4'?"), "{err}");
}

#[test]
fn hopeless_typo_points_at_help_instead_of_guessing() {
    let out = repro(&["qqqqqqq"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(err.contains("run with --help"), "{err}");
}

#[test]
fn chaos_runs_alone_and_its_flags_need_it() {
    let err = rejected(&["chaos", "table4", "--campaigns", "2"]);
    assert!(
        err.contains("chaos runs alone; run 'table4' in its own repro call"),
        "{err}"
    );
    let err = rejected(&["table4", "chaos"]);
    assert!(err.contains("chaos runs alone"), "{err}");

    let err = rejected(&["table4", "--seed", "5", "--campaigns", "3", "--quality"]);
    assert!(
        err.contains("--seed applies only to the chaos target"),
        "{err}"
    );
    for flag in [&["--campaigns", "3"][..], &["--quality"]] {
        let args = [&["table4"][..], flag].concat();
        let err = rejected(&args);
        let expected = format!("{} applies only to the chaos target", flag[0]);
        assert!(err.contains(&expected), "{err}");
    }
    // With no target, everything but chaos runs: its flags stay unread.
    let err = rejected(&["--quality"]);
    assert!(err.contains("--quality applies only"), "{err}");
}

/// `repro table1 | head -1`: once the reader has gone, the run stops
/// without a panic. The pipe's read end is closed before `repro` starts,
/// so its first write always meets the closed pipe.
#[test]
fn a_closed_stdout_pipe_ends_the_run_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .stdout(writer)
        .output()
        .expect("repro binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_ne!(out.status.code(), Some(101), "{err}");
}

#[test]
fn recovery_alias_lfa_is_accepted_on_a_cheap_target() {
    // table4 is a pure rendering: accepts the flag, runs in milliseconds.
    let out = repro(&["table4", "--recovery", "lfa"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(text.contains("Table IV"), "{text}");
}

/// The chaos subcommand end to end through the built binary — flag
/// parsing, the worker pool, report (and `--quality` trace) rendering:
/// a fixed-seed smoke campaign exits 0 (no oracle fired) and its stdout
/// is byte-identical across worker counts, in every mode.
#[test]
fn chaos_smoke_is_clean_and_worker_count_invariant() {
    let modes: [(&[&str], [&str; 2]); 3] = [
        (&[], ["1", "2"]),
        (&["--recovery", "frr"], ["1", "2"]),
        (&["--quality"], ["1", "4"]),
    ];
    for (mode, worker_counts) in modes {
        let run = |workers: &str| {
            let mut args = vec!["chaos", "--seed", "20150701", "--campaigns", "5"];
            args.extend_from_slice(mode);
            args.extend_from_slice(&["--workers", workers]);
            let out = repro(&args);
            assert!(
                out.status.success(),
                "{args:?}: stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).expect("utf8 stdout")
        };
        let [few, many] = worker_counts.map(run);
        assert!(
            few.contains("violation"),
            "{mode:?} printed a report:\n{few}"
        );
        assert_eq!(few, many, "{mode:?}: worker count changed stdout");
    }
}
