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
//! non-numeric `--seed`, an uncreatable `--out` — is rejected with a
//! one-line message on stderr and exit status 2 before any work starts.
//!
//! `repro chaos` runs a deterministic failure-injection campaign under
//! the `dcn-chaos` invariant oracles instead of the paper artifacts:
//! `--campaigns M` scenarios (default 200) are generated from `--seed N`
//! (default 20150701), alternating designs, and run on the sweep worker
//! pool. With `--recovery frr` every cell runs F²Tree with the
//! precomputed fast-reroute map under the tightened (SPF-free) blackhole
//! bound. Exit status 0 means every invariant held; on a violation the
//! offending scenario is shrunk to a minimal reproducer, printed (and
//! written to `--out DIR` as a replayable `.scenario` file), and the exit
//! status is 1.

use std::fmt;
use std::path::PathBuf;

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
use f2tree_experiments::summary::{format_summary, run_summary};
use f2tree_experiments::table1::{format_table1, run_table1};
use f2tree_experiments::table2::{format_table2, run_table2};
use f2tree_experiments::testbed::{format_table3, run_table3};
use f2tree_experiments::workload::{
    format_fig6, format_fig6_stats, run_fig6, run_fig6_multiseed_sweep, WorkloadConfig,
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
  chaos                         invariant-oracle failure campaigns
  all                           everything except fig6seeds

flags:
  --quick                shrink fig6 workload 10x
  --out DIR              also write CSV/JSON artifacts into DIR
  --workers N            sweep worker count (positive integer;
                         output is byte-identical for every N)
  --recovery VALUE       recovery mode: ospf | f2tree | frr (alias: lfa)
  --seed N               chaos: master seed (default 20150701)
  --campaigns M          chaos: scenario count (default 200)
  --quality              chaos: score routing quality at every FIB epoch
                         and print the per-campaign traces
  -h, --help             this text
";

/// Every recognized target word.
const TARGETS: &[&str] = &[
    "table1", "table2", "table3", "fig2", "table4", "fig4", "fig5", "fig6", "fig6seeds", "fig7",
    "recovery", "quality", "bisection", "aspen", "c7x", "ablation", "centralized", "summary",
    "unidirectional", "chaos", "all",
];

/// Every recognized flag (the did-you-mean candidates for a typo).
const FLAGS: &[&str] = &[
    "--quick", "--out", "--workers", "--recovery", "--seed", "--campaigns", "--quality", "--help",
];

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
    fn number<T: std::str::FromStr>(flag: &'static str, value: &str) -> Result<T, CliError> {
        value.parse().map_err(|_| CliError::BadNumber {
            flag,
            wants: "a non-negative integer",
            value: value.to_string(),
        })
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
                cli.workers = Workers::parse(v).ok_or_else(|| CliError::BadNumber {
                    flag: "--workers",
                    wants: "a positive integer",
                    value: v.clone(),
                })?;
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
            "--campaigns" => cli.campaigns = Some(number("--campaigns", value("--campaigns")?)?),
            flag if flag.starts_with('-') => return Err(CliError::UnknownFlag(arg.clone())),
            word => match TARGETS.iter().find(|t| **t == word) {
                Some(target) => cli.targets.push(target),
                None => return Err(CliError::UnknownTarget(arg.clone())),
            },
        }
    }
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::OutDir(dir.clone(), e))?;
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let cli = parse_cli(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let targets = &cli.targets;

    if targets.contains(&"chaos") {
        run_chaos_cli(&cli);
        return;
    }

    let want = |name: &str| {
        if name == "fig6seeds" {
            // Opt-in only: 5 seeds × 4 (design, CF) full workload runs.
            return targets.contains(&name);
        }
        targets.is_empty() || targets.contains(&"all") || targets.contains(&name)
    };

    if want("table1") {
        for n in [8u32, 16, 48, 128] {
            println!("{}", format_table1(n, &run_table1(n)));
        }
    }
    if want("table2") {
        println!("{}", format_table2(&run_table2(8)));
    }
    if want("table3") || want("fig2") {
        let results = run_table3();
        println!("{}", format_table3(&results));
        println!("Fig. 2 receiving throughput (each char = one 20ms bin):");
        for r in &results {
            println!("  {:<9} UDP |{}|", r.design.to_string(), sparkline_values(&r.udp_throughput_mbps));
            println!("  {:<9} TCP |{}|", r.design.to_string(), sparkline_values(&r.tcp_throughput_mbps));
        }
        println!();
        if let Some(dir) = &cli.out_dir {
            artifacts::export_fig2(dir, &results).expect("write fig2 csv");
        }
    }
    if want("table4") {
        println!("{}", format_table4());
    }
    // Fig. 4, Fig. 5, recovery and quality are views of one condition
    // grid; each cell a wanted view reads runs once.
    let views: Vec<View> = [
        ("fig4", View::Fig4(cli.recovery)),
        ("fig5", View::Fig5(cli.recovery)),
        ("recovery", View::Recovery),
        ("quality", View::Quality),
    ]
    .into_iter()
    .filter_map(|(target, view)| want(target).then_some(view))
    .collect();
    let grid = ConditionGrid::run(&ConditionConfig::default(), &views, cli.workers);
    if want("fig4") {
        println!("{}", format_fig4(&grid, cli.recovery));
        if let Some(dir) = &cli.out_dir {
            artifacts::export_fig4(dir, &grid, cli.recovery).expect("write fig4 csv");
        }
    }
    if want("fig5") {
        println!("{}", format_fig5(&grid, cli.recovery));
        if let Some(dir) = &cli.out_dir {
            artifacts::export_fig5(dir, &grid, cli.recovery).expect("write fig5 csv");
        }
    }
    if want("recovery") {
        println!("{}", format_recovery(&grid));
        println!("frr beats ospf on: {}", frr_wins(&grid).join(" "));
        println!(
            "f2tree pays congestion on: {}",
            congestion_cost(&grid, RecoveryMode::F2TreeRewiring).join(" ")
        );
        println!(
            "frr pays congestion on: {}\n",
            congestion_cost(&grid, RecoveryMode::PrecomputedFrr).join(" ")
        );
    }
    if want("quality") {
        println!("{}", format_quality(&grid));
    }
    if want("fig6") {
        let cfg = if cli.quick {
            WorkloadConfig::quick()
        } else {
            WorkloadConfig::default()
        };
        let results = run_fig6(&cfg, cli.workers);
        println!("{}", format_fig6(&results));
        if let Some(dir) = &cli.out_dir {
            artifacts::export_fig6(dir, &results).expect("write fig6 csv");
        }
    }
    if want("fig6seeds") {
        let base = if cli.quick {
            WorkloadConfig::quick()
        } else {
            WorkloadConfig::default()
        };
        let stats = run_fig6_multiseed_sweep(&base, &[20150701, 42, 7, 1234, 99], cli.workers);
        println!("{}", format_fig6_stats(&stats));
    }
    if want("fig7") {
        println!("{}", format_fig7(&run_fig7_sweep(cli.workers)));
    }
    if want("bisection") {
        println!(
            "{}",
            format_bisection(&[
                run_bisection(Design::FatTree),
                run_bisection(Design::F2Tree)
            ])
        );
    }
    if want("aspen") {
        println!("{}", format_aspen(&run_aspen_baseline()));
    }
    if want("c7x") {
        println!("{}", format_c7_wide(&run_c7_wide()));
    }
    if want("ablation") {
        println!("{}", format_ablation(&run_timer_ablation()));
    }
    if want("centralized") {
        println!("{}", format_centralized(&run_centralized_sweep()));
    }
    if want("summary") {
        println!("{}", format_summary(&run_summary()));
    }
    if want("unidirectional") {
        println!("Unidirectional agg->ToR failure (BFD detects both ways):");
        for design in [Design::FatTree, Design::F2Tree] {
            let r = run_unidirectional(design);
            println!("  {design}: loss {}us", r.connectivity_loss_us);
        }
        println!();
    }
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
/// minimal-reproducer shrinking on failure.
fn run_chaos_cli(cli: &Cli) {
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
            std::process::exit(2);
        }
    };
    print!("{}", report.render());
    if cfg.engine.quality {
        print!("{}", report.render_quality());
    }
    if report.total_violations() == 0 {
        return;
    }
    let Some(bad) = report.violating().next() else {
        return;
    };
    eprintln!("shrinking campaign #{} to a minimal reproducer...", bad.index);
    let engine = cfg.engine.clone();
    let minimal = shrink_scenario(&bad.spec, |s| {
        run_scenario(s, &engine)
            .map(|o| !o.violations.is_empty())
            .unwrap_or(false)
    });
    println!(
        "minimal reproducer ({} of {} incident(s)):",
        minimal.incidents.len(),
        bad.spec.incidents.len()
    );
    print!("{}", minimal.render());
    if let Some(dir) = &cli.out_dir {
        let path = dir.join(format!("chaos-minimal-{}.scenario", bad.index));
        match std::fs::write(&path, minimal.render()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("chaos: failed to write {}: {e}", path.display()),
        }
    }
    std::process::exit(1);
}
