//! Golden-file regression tests for the paper tables.
//!
//! Each test renders a table exactly as `repro` would and compares it
//! byte for byte against a checked-in fixture under `tests/golden/`. Any
//! drift in the simulation, the formatting, or the underlying numbers
//! fails the test with a diff-friendly message.
//!
//! To regenerate the fixtures after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p f2tree-experiments --test golden_tables
//! ```
//!
//! and review the resulting `git diff` like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use dcn_routing::RecoveryMode;
use dcn_sweep::Workers;
use f2tree::Design;
use f2tree_experiments::artifacts::{export_fig2, export_fig6};
use f2tree_experiments::conditions::{
    format_fig4, format_fig5, format_table4, ConditionConfig, ConditionGrid, View,
};
use f2tree_experiments::extensions::{format_bisection, run_bisection};
use f2tree_experiments::fig7::{format_fig7, run_fig7_sweep};
use f2tree_experiments::quality::format_quality;
use f2tree_experiments::recovery::{congestion_cost, format_recovery, frr_wins};
use f2tree_experiments::table1::{format_table1, run_table1};
use f2tree_experiments::table2::{format_table2, run_table2};
use f2tree_experiments::testbed::{format_table3, run_table3};
use f2tree_experiments::workload::{format_fig6, Fig6Sweep, WorkloadConfig};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` to the fixture, or rewrites the fixture when
/// `UPDATE_GOLDEN` is set.
///
/// Multi-column grids get a cell-level diff on mismatch: the failure
/// message names the first differing line and, when both lines split
/// into the same number of `|`-separated cells, the first differing
/// cell with both values — instead of dumping two whole tables.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run with UPDATE_GOLDEN=1", name));
    if actual == expected {
        return;
    }
    panic!(
        "{name} drifted from its fixture: {}\nif intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff",
        first_grid_difference(&expected, actual)
    );
}

/// Locates the first difference between two rendered grids, at cell
/// granularity where the line structure allows it.
fn first_grid_difference(expected: &str, actual: &str) -> String {
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    for (i, (exp, act)) in exp_lines.iter().zip(&act_lines).enumerate() {
        if exp == act {
            continue;
        }
        let row = i + 1;
        let exp_cells: Vec<&str> = exp.split('|').map(str::trim).collect();
        let act_cells: Vec<&str> = act.split('|').map(str::trim).collect();
        if exp_cells.len() == act_cells.len() && exp_cells.len() > 1 {
            for (j, (ec, ac)) in exp_cells.iter().zip(&act_cells).enumerate() {
                if ec != ac {
                    return format!(
                        "line {row}, column {} differs: expected '{ec}', got '{ac}'\n\
                         expected line: {exp}\n  actual line: {act}",
                        j + 1
                    );
                }
            }
        }
        return format!("line {row} differs:\nexpected line: {exp}\n  actual line: {act}");
    }
    match exp_lines.len().cmp(&act_lines.len()) {
        std::cmp::Ordering::Greater => format!(
            "output truncated: expected {} line(s), got {} (first missing: {})",
            exp_lines.len(),
            act_lines.len(),
            exp_lines.get(act_lines.len()).copied().unwrap_or("")
        ),
        std::cmp::Ordering::Less => format!(
            "output has {} extra line(s) (first extra: {})",
            act_lines.len() - exp_lines.len(),
            act_lines.get(exp_lines.len()).copied().unwrap_or("")
        ),
        std::cmp::Ordering::Equal => "line contents match but raw bytes differ \
             (trailing whitespace or newline convention)"
            .into(),
    }
}

/// Table I (failure-recovery properties) at every size `repro` prints.
#[test]
fn table1_matches_golden() {
    let mut out = String::new();
    for n in [8u32, 16, 48, 128] {
        writeln!(out, "{}", format_table1(n, &run_table1(n))).unwrap();
    }
    check_golden("table1.txt", &out);
}

/// Table II (path dilation) at the paper's k=8.
#[test]
fn table2_matches_golden() {
    let mut out = String::new();
    writeln!(out, "{}", format_table2(&run_table2(8))).unwrap();
    check_golden("table2.txt", &out);
}

/// Table III (testbed recovery times) — runs the full k=4 testbed
/// emulation for both designs, so this is the slowest golden test.
#[test]
fn table3_matches_golden() {
    let results = run_table3();
    let mut out = String::new();
    writeln!(out, "{}", format_table3(&results)).unwrap();
    check_golden("table3.txt", &out);
}

/// Fig. 2's throughput series, as the CSV `repro --out` writes for
/// Table III's results.
#[test]
fn fig2_throughput_csv_matches_golden() {
    let dir = std::env::temp_dir().join(format!("f2tree-fig2-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    export_fig2(&dir, &run_table3()).expect("write fig2 csv");
    let csv = std::fs::read_to_string(dir.join("fig2_throughput.csv")).expect("read fig2 csv");
    std::fs::remove_dir_all(&dir).ok();
    check_golden("fig2_throughput.csv", &csv);
}

/// Fig. 6 at `--quick` scale: the table, each run's background-transfer
/// digest, and the CSV rows `repro fig6 --out` writes. Pins the TCP
/// request, response and transfer paths of the emulator.
#[test]
fn fig6_quick_matches_golden() {
    let cfg = WorkloadConfig::quick();
    let sweep = Fig6Sweep::run(&cfg, &[cfg.seed], Workers::SERIAL);
    let results = sweep.fig6();
    let mut out = format_fig6(results);
    for r in results {
        let fct = r
            .background_fct
            .as_ref()
            .map_or_else(|| "none".to_string(), ToString::to_string);
        writeln!(
            out,
            "{} CF={}: background_fct {fct}, unfinished_transfers {}",
            r.design, r.concurrent_failures, r.unfinished_transfers
        )
        .unwrap();
    }
    let dir = std::env::temp_dir().join(format!("f2tree-fig6-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    export_fig6(&dir, results).expect("write fig6 csvs");
    for name in ["fig6_summary.csv", "fig6_cdf.csv"] {
        let csv = std::fs::read_to_string(dir.join(name)).expect("read fig6 csv");
        write!(out, "{name}\n{csv}").unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
    check_golden("fig6_quick.txt", &out);
}

/// `repro fig6seeds --quick`, exactly as the binary prints it: the
/// per-seed Fig. 6 deadline-miss statistics over its five seeds.
/// Release-only (`ci.sh` runs it): a debug run takes about 14 s.
#[test]
#[ignore = "release-only: run with cargo test --release -- --ignored"]
fn fig6seeds_quick_matches_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig6seeds", "--quick", "--workers", "2"])
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro fig6seeds --quick failed");
    check_golden(
        "fig6seeds_quick.txt",
        &String::from_utf8(out.stdout).expect("utf8 stdout"),
    );
}

/// Fig. 7 (Leaf-Spine and VL2, plain and F²-rewired) on one worker.
#[test]
fn fig7_matches_golden() {
    check_golden("fig7.txt", &format_fig7(&run_fig7_sweep(Workers::SERIAL)));
}

/// The bisection stress (`repro bisection`): 12 parallel cross-pod 5 MB
/// transfers on both designs. Pins each design's makespan and goodput.
#[test]
fn bisection_matches_golden() {
    let rows = [
        run_bisection(Design::FatTree),
        run_bisection(Design::F2Tree),
    ];
    check_golden("bisection.txt", &format_bisection(&rows));
}

/// Table IV (failure scenarios) is a pure rendering of the C1–C7 specs.
#[test]
fn table4_matches_golden() {
    let mut out = String::new();
    writeln!(out, "{}", format_table4()).unwrap();
    check_golden("table4.txt", &out);
}

/// One serial run of the whole condition grid, shared by the tests that
/// read its views (the first to ask runs it; the others wait).
fn grid() -> &'static ConditionGrid {
    static GRID: OnceLock<ConditionGrid> = OnceLock::new();
    GRID.get_or_init(|| {
        ConditionGrid::run(
            &ConditionConfig::default(),
            &[View::Quality],
            Workers::SERIAL,
        )
    })
}

/// Fig. 4 and Fig. 5 under each `--recovery` value, byte-exact.
#[test]
fn fig4_and_fig5_match_goldens_under_every_mode() {
    let grid = grid();
    for mode in RecoveryMode::ALL {
        check_golden(
            &format!("fig4_{mode}.txt"),
            &format!("{}\n", format_fig4(grid, mode)),
        );
        check_golden(
            &format!("fig5_{mode}.txt"),
            &format!("{}\n", format_fig5(grid, mode)),
        );
    }
}

/// The three-mode recovery comparison (ospf vs f2tree vs frr on the
/// Fig. 4 scenario) — byte-exact, and FRR must strictly beat OSPF on
/// every condition whose repair paths survive (C1–C6; C7 severs them).
#[test]
fn recovery_modes_match_golden_and_frr_beats_ospf() {
    let grid = grid();
    let mut out = String::new();
    writeln!(out, "{}", format_recovery(grid)).unwrap();
    check_golden("recovery_modes.txt", &out);
    let wins = frr_wins(grid);
    for c in ["C1", "C2", "C3", "C4", "C5", "C6"] {
        assert!(
            wins.iter().any(|w| w == c),
            "frr must beat ospf on {c}\n{out}"
        );
    }
    // On C1–C6 the win is the full SPF-wait, not measurement noise: FRR
    // recovers within ~detection + FIB update while OSPF reconverges.
    for r in grid
        .cells
        .iter()
        .filter(|r| r.recovery == RecoveryMode::PrecomputedFrr && r.result.condition != "C7")
    {
        let loss = r.result.connectivity_loss_us.expect("probe recovers");
        assert!(
            loss < 100_000,
            "{}: frr loss {loss}us\n{out}",
            r.result.condition
        );
    }
    // The recovery-time win is not free: both fast-reroute disciplines
    // must pay a measurable mid-failover congestion increase over the
    // healthy baseline on at least one C1–C6 condition (golden-pinned
    // above; this keeps the "cost" headline non-vacuous).
    for mode in [RecoveryMode::F2TreeRewiring, RecoveryMode::PrecomputedFrr] {
        let costly = congestion_cost(grid, mode);
        assert!(
            costly.iter().any(|c| c != "C7"),
            "{mode} shows no congestion cost on any C1-C6 condition\n{out}"
        );
    }
}

/// The quality grid (three modes × C1–C7 plus the fat-tree baseline) —
/// byte-exact, and the fast-reroute modes must price their speed: the
/// mid-failover max load is never below the healthy baseline, and
/// strictly above it somewhere on C1–C6.
#[test]
fn quality_modes_match_golden_and_fast_reroute_pays_congestion() {
    let grid = grid();
    let mut out = String::new();
    writeln!(out, "{}", format_quality(grid)).unwrap();
    check_golden("quality_modes.txt", &out);

    for mode in [RecoveryMode::F2TreeRewiring, RecoveryMode::PrecomputedFrr] {
        let cells: Vec<_> = grid.cells.iter().filter(|r| r.recovery == mode).collect();
        assert_eq!(cells.len(), 7, "{mode} covers C1-C7");
        for r in &cells {
            assert!(
                r.failover.max_load >= r.healthy.max_load,
                "{mode} {}: failover max load {} below healthy {}\n{out}",
                r.result.condition,
                r.failover.max_load,
                r.healthy.max_load
            );
        }
        assert!(
            cells
                .iter()
                .any(|r| r.result.condition != "C7" && r.failover.max_load > r.healthy.max_load),
            "{mode}: no strict max-load increase on any C1-C6 condition\n{out}"
        );
    }
}

/// `repro <target>` exactly as the binary prints it, to stdout and with
/// nothing on stderr.
fn check_repro_golden(target: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(target)
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro {target} failed");
    assert!(out.stderr.is_empty(), "repro {target} wrote to stderr");
    check_golden(
        &format!("{target}.txt"),
        &String::from_utf8(out.stdout).expect("utf8 stdout"),
    );
}

/// The centralized control plane (§V): C1 loss against the controller's
/// compute delay, both designs.
#[test]
fn centralized_matches_golden() {
    check_repro_golden("centralized");
}

/// The timer ablation: loss against the detection, SPF and FIB timers.
#[test]
fn ablation_matches_golden() {
    check_repro_golden("ablation");
}

/// The Aspen baseline (§VI).
#[test]
fn aspen_matches_golden() {
    check_repro_golden("aspen");
}

/// C7 with wider across-port budgets (§II-C).
#[test]
fn c7x_matches_golden() {
    check_repro_golden("c7x");
}

/// The unidirectional agg-to-ToR failure, both designs.
#[test]
fn unidirectional_matches_golden() {
    check_repro_golden("unidirectional");
}

/// The paper-vs-measured scorecard.
#[test]
fn summary_matches_golden() {
    check_repro_golden("summary");
}

/// The scorecard does not depend on what runs beside it: under another
/// `--recovery` value it prints the fixture's bytes, and next to a
/// figure that reads other grid cells it prints them among its output.
#[test]
fn summary_does_not_depend_on_what_runs_beside_it() {
    let golden = std::fs::read_to_string(golden_path("summary.txt")).expect("summary fixture");
    let stdout = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "repro {args:?} failed");
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };
    assert_eq!(stdout(&["--recovery", "ospf", "summary"]), golden);
    let beside = stdout(&["--recovery", "frr", "fig4", "summary"]);
    assert!(beside.contains(&golden), "{beside}");
}
