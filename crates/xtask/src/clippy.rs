//! The clippy-backed rule families: runs `cargo clippy` over the
//! workspace and turns its JSON message stream into [`Diagnostic`]s.
//!
//! What clippy enforces is configured where cargo and clippy read it —
//! the lint levels in `[workspace.lints.clippy]` of the root
//! `Cargo.toml`, the banned types and methods in the root `clippy.toml` —
//! so a bare `cargo clippy` shows exactly what this pass counts. The
//! only knowledge kept here is which lint feeds which family, decided
//! by lint *name* (cargo's `code` field), never by message wording.

use std::path::Path;
use std::process::Command;

use crate::diag::{
    Diagnostic, Span, RULE_CLIPPY, RULE_DETERMINISM, RULE_PANIC_INDEXING, RULE_PANIC_SAFETY,
};
use crate::json::Json;
use crate::walk::repo_relative;

/// Lint name → rule family. A warning from any other lint (clippy's
/// defaults, rustc's own) is reported under [`RULE_CLIPPY`] and fails
/// the gate unbudgeted.
const LINT_FAMILIES: &[(&str, &str)] = &[
    ("clippy::disallowed_methods", RULE_DETERMINISM),
    ("clippy::disallowed_types", RULE_DETERMINISM),
    ("clippy::indexing_slicing", RULE_PANIC_INDEXING),
    ("clippy::expect_used", RULE_PANIC_SAFETY),
    ("clippy::panic", RULE_PANIC_SAFETY),
    ("clippy::todo", RULE_PANIC_SAFETY),
    ("clippy::unimplemented", RULE_PANIC_SAFETY),
    ("clippy::unwrap_used", RULE_PANIC_SAFETY),
];

/// Runs `cargo clippy --offline --workspace` from `root` (library and
/// binary targets only: test code is exempt by not being compiled) and
/// returns its warnings and errors, unsorted.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(root)
        .args([
            "clippy",
            "--offline",
            "--workspace",
            "--message-format=json",
        ])
        .output()
        .map_err(|e| format!("running cargo clippy: {e}"))?;
    let diagnostics = parse(&String::from_utf8_lossy(&output.stdout), root)?;
    if !output.status.success() && diagnostics.is_empty() {
        return Err(format!(
            "cargo clippy failed without a diagnostic:\n{}",
            String::from_utf8_lossy(&output.stderr).trim_end()
        ));
    }
    Ok(diagnostics)
}

/// Parses cargo's `--message-format=json` stream (one object per line).
/// File names are made relative to `root` with `/` separators, which is
/// how `lint-allow.toml` spells them.
pub fn parse(stdout: &str, root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    for line in stdout.lines().filter(|l| l.starts_with('{')) {
        let record = Json::parse(line).map_err(|e| format!("cargo clippy output: {e}"))?;
        if record.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let Some(message) = record.get("message") else {
            continue;
        };
        let text = |key: &str| message.get(key).and_then(Json::as_str).unwrap_or_default();
        if !matches!(text("level"), "warning" | "error") {
            continue;
        }
        // Span-less messages are rustc's per-crate summaries ("aborting
        // due to 2 previous errors"), not findings.
        let Some(primary) = message
            .get("spans")
            .map_or(&[][..], Json::elements)
            .iter()
            .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))
        else {
            continue;
        };
        let number = |key: &str| primary.get(key).and_then(Json::as_u32).unwrap_or(0);
        let file = primary
            .get("file_name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let lint = message
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| text("level"));
        let rule = LINT_FAMILIES
            .iter()
            .find(|(name, _)| *name == lint)
            .map_or(RULE_CLIPPY, |(_, family)| *family);
        out.push(Diagnostic::new(
            &repo_relative(root, Path::new(file)),
            Span::new(number("line_start"), number("column_start")),
            rule,
            format!("{lint}: {}", text("message")),
        ));
    }
    Ok(out)
}

/// One warning line as cargo prints it, for tests of the stream parser
/// and of the ratchet over its output.
#[cfg(test)]
pub(crate) fn canned_warning(lint: &str, file: &str, line: u32) -> String {
    format!(
        r#"{{"reason":"compiler-message","message":{{"level":"warning","message":"m","code":{{"code":"{lint}"}},"spans":[{{"file_name":"{file}","is_primary":true,"line_start":{line},"column_start":1}}]}}}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::render_text;

    /// Two real lines of `cargo clippy --message-format=json` (trimmed of
    /// `rendered` and span text), one build record, one summary message.
    const STREAM: &str = r#"
{"reason":"compiler-artifact","package_id":"path+file:///repo/crates/sim#dcn-sim@0.1.0","fresh":true}
{"reason":"compiler-message","package_id":"path+file:///repo/crates/sweep#dcn-sweep@0.1.0","target":{"kind":["lib"],"name":"dcn_sweep","src_path":"/repo/crates/sweep/src/lib.rs"},"message":{"$message_type":"diagnostic","children":[{"children":[],"code":null,"level":"note","message":"wall clock","spans":[]}],"code":{"code":"clippy::disallowed_methods","explanation":null},"level":"warning","message":"use of a disallowed method `std::time::Instant::now`","spans":[{"byte_end":1,"byte_start":0,"column_end":36,"column_start":23,"expansion":null,"file_name":"crates/sweep/src/pool.rs","is_primary":true,"label":null,"line_end":30,"line_start":30}]}}
{"reason":"compiler-message","target":{"kind":["lib"]},"message":{"children":[],"code":{"code":"clippy::indexing_slicing","explanation":null},"level":"warning","message":"indexing may panic","spans":[{"column_start":9,"file_name":"/repo/crates/emu/src/network.rs","is_primary":false,"line_start":1},{"column_start":17,"file_name":"/repo/crates/emu/src/network.rs","is_primary":true,"line_start":512}]}}
{"reason":"compiler-message","message":{"children":[],"code":{"code":"unused_variables","explanation":null},"level":"warning","message":"unused variable: `x`","spans":[{"column_start":9,"file_name":"crates\\net\\src\\addr.rs","is_primary":true,"line_start":7}]}}
{"reason":"compiler-message","message":{"children":[],"code":null,"level":"error","message":"mismatched types","spans":[{"column_start":1,"file_name":"crates/net/src/lib.rs","is_primary":true,"line_start":2}]}}
{"reason":"compiler-message","message":{"children":[],"code":null,"level":"warning","message":"3 warnings emitted","spans":[]}}
{"reason":"build-finished","success":true}
"#;

    #[test]
    fn families_come_from_lint_names_and_paths_are_repo_relative() {
        let diags = parse(STREAM, Path::new("/repo")).unwrap();
        let rendered: Vec<String> = diags.iter().map(render_text).collect();
        assert_eq!(
            rendered,
            [
                "crates/sweep/src/pool.rs:30:23: [determinism] clippy::disallowed_methods: \
                 use of a disallowed method `std::time::Instant::now`",
                "crates/emu/src/network.rs:512:17: [panic-indexing] clippy::indexing_slicing: \
                 indexing may panic",
                "crates/net/src/addr.rs:7:9: [clippy] unused_variables: unused variable: `x`",
                "crates/net/src/lib.rs:2:1: [clippy] error: mismatched types",
            ]
        );
    }

    #[test]
    fn restriction_lints_map_to_their_families() {
        let family = |lint: &str| {
            parse(&canned_warning(lint, "a.rs", 1), Path::new("/repo"))
                .unwrap()
                .first()
                .map(|d| d.rule)
        };
        for lint in [
            "expect_used",
            "unwrap_used",
            "panic",
            "todo",
            "unimplemented",
        ] {
            assert_eq!(family(&format!("clippy::{lint}")), Some(RULE_PANIC_SAFETY));
        }
        assert_eq!(
            family("clippy::indexing_slicing"),
            Some(RULE_PANIC_INDEXING)
        );
        assert_eq!(family("clippy::disallowed_types"), Some(RULE_DETERMINISM));
        assert_eq!(family("clippy::needless_lifetimes"), Some(RULE_CLIPPY));
    }

    #[test]
    fn garbage_is_an_error_not_a_clean_run() {
        assert!(parse("{\"reason\":", Path::new("/repo")).is_err());
    }
}
