//! Determinism regression: the simulator's credibility rests on identical
//! seeds replaying identical traces, so the failure-condition grid must
//! produce *byte-identical* metric output across repeated runs in the
//! same process. This is the end-to-end companion to the `determinism`
//! lint (`cargo run -p xtask -- lint`; the bans live in the root
//! `clippy.toml`), which keeps the usual sources of run-to-run drift
//! (hash iteration order, wall clocks, thread identity) out of every
//! crate statically.

use dcn_routing::RecoveryMode;
use dcn_sweep::Workers;
use f2tree_experiments::conditions::{
    format_fig4, format_fig5, ConditionConfig, ConditionGrid, View,
};
use f2tree_experiments::quality::format_quality;
use f2tree_experiments::recovery::format_recovery;

/// Runs the whole grid on a shortened horizon: determinism does not
/// depend on running the full 2 s paper horizon.
fn run_grid(workers: Workers) -> ConditionGrid {
    let config = ConditionConfig {
        horizon_ms: 800,
        ..ConditionConfig::default()
    };
    ConditionGrid::run(&config, &[View::Quality], workers)
}

/// Renders everything a grid run measures — all four views under every
/// mode, plus each cell's Fig. 5 delay series, which the views show only
/// in part — so any nondeterminism shows up.
fn render(grid: &ConditionGrid) -> String {
    let mut out = String::new();
    for mode in RecoveryMode::ALL {
        out.push_str(&format_fig4(grid, mode));
        out.push_str(&format_fig5(grid, mode));
    }
    out.push_str(&format_recovery(grid));
    out.push_str(&format_quality(grid));
    for cell in &grid.cells {
        let r = &cell.result;
        out.push_str(&format!(
            "{} {} {} delay_series={:?}\n",
            r.condition, r.design, cell.recovery, r.delay_series
        ));
    }
    out
}

#[test]
fn fig4_sweep_is_byte_identical_across_runs() {
    let first = render(&run_grid(Workers::auto()));
    let second = render(&run_grid(Workers::auto()));
    assert!(
        first == second,
        "identical configs produced different metric output:\n--- first ---\n{first}\n--- second ---\n{second}"
    );
    // Sanity: the render actually contains measurements, not just headers.
    assert!(first.contains("C1"), "unexpectedly empty grid:\n{first}");
}

#[test]
fn fig4_sweep_is_byte_identical_across_worker_counts() {
    // The sweep engine's core contract: `--workers N` is pure throughput
    // configuration. One worker and four workers must render the exact
    // same bytes, cell for cell.
    let serial = render(&run_grid(Workers::SERIAL));
    let parallel = render(&run_grid(Workers::new(4)));
    assert!(
        serial == parallel,
        "worker count changed the output:\n--- 1 worker ---\n{serial}\n--- 4 workers ---\n{parallel}"
    );
    assert!(serial.contains("C7"), "unexpectedly empty grid:\n{serial}");
}

/// `repro <args>`'s stdout, which must exit 0 with nothing on stderr.
fn repro_stdout(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro {args:?} failed");
    assert!(out.stderr.is_empty(), "repro {args:?} wrote to stderr");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::read_to_string(path.join(name)).expect("golden fixture")
}

/// Every `repro` target at once prints the same bytes on one worker and
/// on two, and the scorecard among them is its fixture. Release-only
/// (`ci.sh` runs it): each run takes about 2 s in a release build.
#[test]
#[ignore = "release-only: run with cargo test --release -- --ignored"]
fn repro_all_is_byte_identical_across_worker_counts() {
    let one = repro_stdout(&["all", "--quick", "--workers", "1"]);
    let two = repro_stdout(&["all", "--quick", "--workers", "2"]);
    assert!(one == two, "the worker count changed `repro all`'s stdout");
    assert!(one.contains(&golden("summary.txt")), "{one}");
}

/// Fig. 6 and its multi-seed statistics side by side print what each
/// prints alone, in target order.
#[test]
#[ignore = "release-only: run with cargo test --release -- --ignored"]
fn fig6seeds_beside_fig6_prints_both_unchanged() {
    let fig6 = repro_stdout(&["fig6", "--quick"]);
    let both = repro_stdout(&["fig6", "fig6seeds", "--quick"]);
    assert_eq!(both, fig6 + &golden("fig6seeds_quick.txt"));
}
