//! Regenerates every table and figure of the paper at paper scale.
//!
//! See [`USAGE`] (also `repro --help`) for the complete CLI: targets,
//! flags, and every accepted flag value.
//!
//! With no target, everything runs. `--quick` shrinks the Fig. 6
//! workload 10x; `--out DIR` additionally writes CSV artifacts;
//! `--workers N` sets the sweep-engine worker count (default: the
//! `DCN_WORKERS` env var, else all cores — the output is byte-identical
//! for every value).
//!
//! `--recovery` selects which F²Tree cells of the condition grid fig4 and
//! fig5 show (the fat-tree rows are its OSPF cells); the `recovery` and
//! `quality` targets show every mode.
//!
//! Anything the parser does not recognize — an unknown flag or target, a
//! non-numeric `--seed`, an uncreatable `--out` — or would leave unread —
//! `chaos` beside another target, a chaos flag without it — is rejected
//! with a one-line message on stderr and exit status 2 before any work
//! starts. A reader that closes stdout early ends the run quietly.
//!
//! `repro chaos` runs a deterministic failure-injection campaign under
//! the `dcn-chaos` invariant oracles instead of the paper artifacts:
//! `--campaigns M` scenarios (default 200, at most 1 000 000) are
//! generated from `--seed N` (default 20150701), alternating designs, and
//! run on the sweep worker pool. With `--recovery frr` every cell runs
//! F²Tree with the precomputed fast-reroute map under the tightened
//! (SPF-free) blackhole bound. Exit status 0 means every invariant held;
//! on a violation the offending scenario is shrunk to a minimal
//! reproducer, printed (and written to `--out DIR` as a replayable
//! `.scenario` file), and the exit status is 1.

use std::cell::LazyCell;
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use dcn_chaos::{run_chaos, run_scenario, shrink_scenario, ChaosConfig};

use dcn_routing::RecoveryMode;
use dcn_sweep::Workers;
use f2tree::Design;
use f2tree_experiments::artifacts;
use f2tree_experiments::conditions::{
    format_fig4, format_fig5, format_table4, ConditionConfig, ConditionGrid, View,
};
use f2tree_experiments::extensions::{
    format_ablation, format_aspen, format_bisection, format_c7_wide, format_centralized,
    run_aspen_baseline, run_bisection, run_c7_wide, run_centralized_sweep, run_timer_ablation,
    run_unidirectional,
};
use f2tree_experiments::fig7::{format_fig7, run_fig7_sweep};
use f2tree_experiments::plot::sparkline_values;
use f2tree_experiments::quality::format_quality;
use f2tree_experiments::recovery::{congestion_cost, format_recovery, frr_wins};
use f2tree_experiments::summary::{format_summary, scorecard};
use f2tree_experiments::table1::{format_table1, run_table1};
use f2tree_experiments::table2::{format_table2, run_table2};
use f2tree_experiments::testbed::{format_table3, run_table3};
use f2tree_experiments::workload::{
    format_fig6, format_fig6_stats, Fig6Sweep, WorkloadConfig, FIG6_SEEDS,
};

/// The `--help` text: every target, every flag, every accepted value.
const USAGE: &str = "\
repro — regenerate the paper's tables and figures

usage:
  repro [FLAGS] [TARGET ...]
  repro chaos [--seed N] [--campaigns M] [--recovery MODE] [--quality] [--workers W] [--out DIR]

targets (default: everything except fig6seeds):
  table1 table2 table3 table4   paper tables (fig2 = alias of table3)
  fig4 fig5 fig6 fig7           paper figures
  recovery                      three-mode recovery comparison
                                (ospf vs f2tree vs frr on C1-C7)
  quality                       routing-quality grid: max fabric load /
                                undeliverable demand / path diversity at
                                healthy, mid-failover, settled snapshots
  bisection aspen c7x ablation centralized summary unidirectional
                                beyond-paper extensions
  fig6seeds                     opt-in: 5-seed Fig. 6 workload stats
  chaos                         invariant-oracle failure campaigns (alone)
  all                           everything except fig6seeds

flags:
  --quick                shrink fig6 workload 10x
  --out DIR              also write CSV/JSON artifacts into DIR
  --workers N            sweep worker count (positive integer up to 256;
                         output is byte-identical for every N)
  --recovery VALUE       recovery mode: ospf | f2tree | frr (alias: lfa)
  --seed N               chaos: master seed (default 20150701)
  --campaigns M          chaos: scenario count (default 200, at most 1000000)
  --quality              chaos: score routing quality at every FIB epoch
                         and print the per-campaign traces
  -h, --help             this text
";

/// Every recognized target word.
const TARGETS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig2",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "fig6seeds",
    "fig7",
    "recovery",
    "quality",
    "bisection",
    "aspen",
    "c7x",
    "ablation",
    "centralized",
    "summary",
    "unidirectional",
    "chaos",
    "all",
];

/// Every recognized flag (the did-you-mean candidates for a typo).
const FLAGS: &[&str] = &[
    "--quick",
    "--out",
    "--workers",
    "--recovery",
    "--seed",
    "--campaigns",
    "--quality",
    "--help",
];

/// The most scenarios one `repro chaos` call runs: the report holds every
/// campaign's result, so a count far beyond any sweep only exhausts memory.
const MAX_CAMPAIGNS: usize = 1_000_000;

/// Accepted `--recovery` values.
const RECOVERY_VALUES: &[&str] = &["ospf", "f2tree", "frr", "lfa"];

/// A rejected command line: one line on stderr, exit status 2.
#[derive(Debug)]
enum CliError {
    UnknownFlag(String),
    UnknownTarget(String),
    MissingValue(&'static str),
    BadNumber {
        flag: &'static str,
        wants: &'static str,
        value: String,
    },
    BadChoice {
        flag: &'static str,
        accepted: &'static [&'static str],
        value: String,
    },
    NotWithChaos(&'static str),
    ChaosOnly(&'static str),
    OutDir(PathBuf, std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hint = |f: &mut fmt::Formatter<'_>, input: &str, candidates: &[&str], or_else| {
            match did_you_mean(input, candidates) {
                Some(hint) => write!(f, "; did you mean '{hint}'?"),
                None => f.write_str(or_else),
            }
        };
        const SEE_HELP: &str = " (run with --help for the list)";
        match self {
            CliError::UnknownFlag(flag) => {
                write!(f, "unknown flag '{flag}'")?;
                hint(f, flag, FLAGS, SEE_HELP)
            }
            CliError::UnknownTarget(target) => {
                write!(f, "unknown target '{target}'")?;
                hint(f, target, TARGETS, SEE_HELP)
            }
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadNumber { flag, wants, value } => {
                write!(f, "{flag} takes {wants}, got '{value}'")
            }
            CliError::BadChoice {
                flag,
                accepted,
                value,
            } => {
                write!(
                    f,
                    "{flag}: unknown value '{value}' (accepted: {})",
                    accepted.join(", ")
                )?;
                hint(f, value, accepted, "")
            }
            CliError::NotWithChaos(target) => {
                write!(f, "chaos runs alone; run '{target}' in its own repro call")
            }
            CliError::ChaosOnly(flag) => write!(f, "{flag} applies only to the chaos target"),
            CliError::OutDir(dir, e) => {
                write!(f, "--out: cannot create directory '{}': {e}", dir.display())
            }
        }
    }
}

/// The parsed command line.
struct Cli {
    quick: bool,
    quality: bool,
    out_dir: Option<PathBuf>,
    workers: Workers,
    recovery: RecoveryMode,
    seed: Option<u64>,
    campaigns: Option<usize>,
    targets: Vec<&'static str>,
}

/// Parses every argument strictly: nothing is skipped or defaulted over.
fn parse_cli(args: &[String]) -> Result<Cli, CliError> {
    fn bad_number(flag: &'static str, wants: &'static str, value: &str) -> CliError {
        let value = value.to_string();
        CliError::BadNumber { flag, wants, value }
    }
    fn number<T: std::str::FromStr>(flag: &'static str, value: &str) -> Result<T, CliError> {
        value
            .parse()
            .map_err(|_| bad_number(flag, "a non-negative integer", value))
    }
    let mut cli = Cli {
        quick: false,
        quality: false,
        out_dir: None,
        workers: Workers::auto(),
        recovery: RecoveryMode::default(),
        seed: None,
        campaigns: None,
        targets: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag| it.next().ok_or(CliError::MissingValue(flag));
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--quality" => cli.quality = true,
            "--out" => cli.out_dir = Some(PathBuf::from(value("--out")?)),
            "--workers" => {
                let v = value("--workers")?;
                let wants = "a positive integer up to 256";
                cli.workers = Workers::parse(v).ok_or_else(|| bad_number("--workers", wants, v))?;
            }
            "--recovery" => {
                let v = value("--recovery")?;
                cli.recovery = RecoveryMode::parse(v).ok_or_else(|| CliError::BadChoice {
                    flag: "--recovery",
                    accepted: RECOVERY_VALUES,
                    value: v.clone(),
                })?;
            }
            "--seed" => cli.seed = Some(number("--seed", value("--seed")?)?),
            "--campaigns" => {
                let v = value("--campaigns")?;
                let campaigns = number("--campaigns", v)?;
                if campaigns > MAX_CAMPAIGNS {
                    let wants = "a non-negative integer up to 1000000";
                    return Err(bad_number("--campaigns", wants, v));
                }
                cli.campaigns = Some(campaigns);
            }
            flag if flag.starts_with('-') => return Err(CliError::UnknownFlag(arg.clone())),
            word => match TARGETS.iter().find(|t| **t == word) {
                Some(target) => cli.targets.push(target),
                None => return Err(CliError::UnknownTarget(arg.clone())),
            },
        }
    }
    // Nothing given is dropped unread: chaos shares a call with no other
    // target, and its own flags come with it.
    let chaos_only = [
        ("--seed", cli.seed.is_some()),
        ("--campaigns", cli.campaigns.is_some()),
        ("--quality", cli.quality),
    ];
    if cli.targets.contains(&"chaos") {
        if let Some(other) = cli.targets.iter().find(|&&t| t != "chaos") {
            return Err(CliError::NotWithChaos(other));
        }
    } else if let Some((flag, _)) = chaos_only.into_iter().find(|&(_, given)| given) {
        return Err(CliError::ChaosOnly(flag));
    }
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::OutDir(dir.clone(), e))?;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let status = if args.iter().any(|a| a == "--help" || a == "-h") {
        out.write_all(USAGE.as_bytes()).map(|()| 0)
    } else {
        match parse_cli(&args) {
            Ok(cli) if cli.targets.contains(&"chaos") => run_chaos_cli(&cli, &mut out),
            Ok(cli) => run_targets(&cli, &mut out).map(|()| 0),
            Err(e) => {
                eprintln!("error: {e}");
                Ok(2)
            }
        }
    };
    // Every line goes through `out`; a reader that closed the pipe wants
    // none after it, so that ends the run quietly.
    match status.and_then(|status| out.flush().map(|()| status)) {
        Ok(status) => ExitCode::from(status),
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints every wanted paper target to `out`, in `USAGE` order.
fn run_targets(cli: &Cli, out: &mut impl Write) -> io::Result<()> {
    let targets = &cli.targets;
    let want = |name: &str| {
        if name == "fig6seeds" {
            // Opt-in only: 5 seeds × 4 (design, CF) full workload runs.
            return targets.contains(&name);
        }
        targets.is_empty() || targets.contains(&"all") || targets.contains(&name)
    };
    // What the scorecard reads besides the grid: each is computed once,
    // by the first wanted target that reads it.
    let table3 = LazyCell::new(run_table3);
    let fig7 = LazyCell::new(|| run_fig7_sweep(cli.workers));
    let c7_wide = LazyCell::new(run_c7_wide);
    let centralized = LazyCell::new(run_centralized_sweep);
    let aspen = LazyCell::new(run_aspen_baseline);

    if want("table1") {
        for n in [8u32, 16, 48, 128] {
            writeln!(out, "{}", format_table1(n, &run_table1(n)))?;
        }
    }
    if want("table2") {
        writeln!(out, "{}", format_table2(&run_table2(8)))?;
    }
    if want("table3") || want("fig2") {
        writeln!(out, "{}", format_table3(&*table3))?;
        writeln!(
            out,
            "Fig. 2 receiving throughput (each char = one 20ms bin):"
        )?;
        for r in &*table3 {
            let design = r.design.to_string();
            let udp = sparkline_values(&r.udp_throughput_mbps);
            writeln!(out, "  {design:<9} UDP |{udp}|")?;
            let tcp = sparkline_values(&r.tcp_throughput_mbps);
            writeln!(out, "  {design:<9} TCP |{tcp}|")?;
        }
        writeln!(out)?;
        if let Some(dir) = &cli.out_dir {
            artifacts::export_fig2(dir, &*table3).expect("write fig2 csv");
        }
    }
    if want("table4") {
        writeln!(out, "{}", format_table4())?;
    }
    // Fig. 4, Fig. 5, recovery, quality and the scorecard are views of one
    // condition grid; each cell a wanted view reads runs once.
    let views: Vec<View> = [
        ("fig4", View::Fig4(cli.recovery)),
        ("fig5", View::Fig5(cli.recovery)),
        ("recovery", View::Recovery),
        ("quality", View::Quality),
        ("summary", View::Summary),
    ]
    .into_iter()
    .filter_map(|(target, view)| want(target).then_some(view))
    .collect();
    let grid = ConditionGrid::run(&ConditionConfig::default(), &views, cli.workers);
    if want("fig4") {
        writeln!(out, "{}", format_fig4(&grid, cli.recovery))?;
        if let Some(dir) = &cli.out_dir {
            artifacts::export_fig4(dir, &grid, cli.recovery).expect("write fig4 csv");
        }
    }
    if want("fig5") {
        writeln!(out, "{}", format_fig5(&grid, cli.recovery))?;
        if let Some(dir) = &cli.out_dir {
            artifacts::export_fig5(dir, &grid, cli.recovery).expect("write fig5 csv");
        }
    }
    if want("recovery") {
        writeln!(out, "{}", format_recovery(&grid))?;
        writeln!(out, "frr beats ospf on: {}", frr_wins(&grid).join(" "))?;
        let cost = |mode| congestion_cost(&grid, mode).join(" ");
        let f2tree = cost(RecoveryMode::F2TreeRewiring);
        writeln!(out, "f2tree pays congestion on: {f2tree}")?;
        let frr = cost(RecoveryMode::PrecomputedFrr);
        writeln!(out, "frr pays congestion on: {frr}\n")?;
    }
    if want("quality") {
        writeln!(out, "{}", format_quality(&grid))?;
    }
    // Fig. 6 and its multi-seed statistics are views of one sweep: Fig. 6
    // shows its first seed, which runs alone when fig6seeds is not wanted.
    if want("fig6") || want("fig6seeds") {
        let cfg = if cli.quick {
            WorkloadConfig::quick()
        } else {
            WorkloadConfig::default()
        };
        let seeds: &[u64] = if want("fig6seeds") {
            &FIG6_SEEDS
        } else {
            &[cfg.seed]
        };
        let sweep = Fig6Sweep::run(&cfg, seeds, cli.workers);
        if want("fig6") {
            writeln!(out, "{}", format_fig6(sweep.fig6()))?;
            if let Some(dir) = &cli.out_dir {
                artifacts::export_fig6(dir, sweep.fig6()).expect("write fig6 csv");
            }
        }
        if want("fig6seeds") {
            writeln!(out, "{}", format_fig6_stats(&sweep.statistics()))?;
        }
    }
    if want("fig7") {
        writeln!(out, "{}", format_fig7(&fig7))?;
    }
    if want("bisection") {
        let rows = [Design::FatTree, Design::F2Tree].map(run_bisection);
        writeln!(out, "{}", format_bisection(&rows))?;
    }
    if want("aspen") {
        writeln!(out, "{}", format_aspen(&*aspen))?;
    }
    if want("c7x") {
        writeln!(out, "{}", format_c7_wide(&*c7_wide))?;
    }
    if want("ablation") {
        writeln!(out, "{}", format_ablation(&run_timer_ablation()))?;
    }
    if want("centralized") {
        writeln!(out, "{}", format_centralized(&centralized))?;
    }
    if want("summary") {
        let rows = scorecard(&table3, &grid, &fig7, &c7_wide, &centralized, &aspen);
        writeln!(out, "{}", format_summary(&rows))?;
    }
    if want("unidirectional") {
        writeln!(
            out,
            "Unidirectional agg->ToR failure (BFD detects both ways):"
        )?;
        for design in [Design::FatTree, Design::F2Tree] {
            let r = run_unidirectional(design);
            writeln!(out, "  {design}: loss {}us", r.connectivity_loss_us)?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// The closest candidate within edit distance 2, for typo hints.
fn did_you_mean<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|c| (levenshtein(input, c), *c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// Classic two-row Levenshtein edit distance.
#[expect(
    clippy::indexing_slicing,
    reason = "both rows have b.len()+1 slots and every index is in 0..=b.len() by the loop bounds"
)]
fn levenshtein(a: &str, b: &str) -> usize {
    let b_chars: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b_chars.len()).collect();
    let mut current = vec![0usize; b_chars.len() + 1];
    for (i, ca) in a.chars().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b_chars.iter().enumerate() {
            let substitution = prev[j] + usize::from(ca != cb);
            current[j + 1] = substitution.min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b_chars.len()]
}

/// The `repro chaos` subcommand: seeded invariant-oracle campaigns with
/// minimal-reproducer shrinking on failure. Returns the exit status.
fn run_chaos_cli(cli: &Cli, out: &mut impl Write) -> io::Result<u8> {
    let mut cfg = ChaosConfig::for_recovery(cli.recovery);
    if let Some(seed) = cli.seed {
        cfg.master_seed = seed;
    }
    if let Some(campaigns) = cli.campaigns {
        cfg.campaigns = campaigns;
    }
    cfg.engine.quality = cli.quality;
    let report = match run_chaos(&cfg, cli.workers) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("chaos: {e}");
            return Ok(2);
        }
    };
    out.write_all(report.render().as_bytes())?;
    if cfg.engine.quality {
        out.write_all(report.render_quality().as_bytes())?;
    }
    let Some(bad) = report.violating().next() else {
        return Ok(0);
    };
    eprintln!(
        "shrinking campaign #{} to a minimal reproducer...",
        bad.index
    );
    let minimal = shrink_scenario(&bad.spec, |s| {
        run_scenario(s, &cfg.engine).is_ok_and(|o| !o.violations.is_empty())
    });
    writeln!(
        out,
        "minimal reproducer ({} of {} incident(s)):",
        minimal.incidents.len(),
        bad.spec.incidents.len()
    )?;
    out.write_all(minimal.render().as_bytes())?;
    if let Some(dir) = &cli.out_dir {
        let path = dir.join(format!("chaos-minimal-{}.scenario", bad.index));
        match std::fs::write(&path, minimal.render()) {
            Ok(()) => writeln!(out, "wrote {}", path.display())?,
            Err(e) => eprintln!("chaos: failed to write {}: {e}", path.display()),
        }
    }
    Ok(1)
}
