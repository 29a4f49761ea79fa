//! `f2bench` — the repo benchmark (see `bench/README.md`).
//!
//! ```text
//! f2bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!         [--smoke] [--out DIR] [--set I]
//! f2bench report DIR
//! f2bench compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! A workload run prints every metric by name and, as the last line of
//! standard output, one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use f2bench::harness::{self, RunResult, RunSpec, DEFAULT_SEED};
use f2bench::json::Json;
use f2bench::report;
use f2bench::span::trace_json;
use f2bench::workloads::Scale;

const USAGE: &str = "usage:
  f2bench --workload <recovery_k8|flap_k16|pa_k8|chaos_w2> [--seed N] [--seconds S]
          [--trace 0|1] [--smoke] [--out DIR] [--set I]
  f2bench report DIR
  f2bench compare A.json B.json [--benchmark BENCHMARK.json]";

/// Exit code of a run, report or comparison whose checks failed.
const EXIT_CHECK_FAILED: u8 = 1;
/// Exit code of a usage or I/O error.
const EXIT_USAGE: u8 = 2;

struct RunArgs {
    spec: RunSpec,
    out: Option<PathBuf>,
    set: u32,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut out = None;
    let mut set = 0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str, v: &str| format!("{flag}: '{v}' is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_owned()),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad("a whole number", v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds", v))?;
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("0 or 1", v)),
                }
            }
            "--smoke" => scale = Scale::Smoke,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--set" => {
                let v = value()?;
                set = v.parse().map_err(|_| bad("a whole number", v))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(RunArgs {
        spec: RunSpec {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            scale,
        },
        out,
        set,
    })
}

fn write_file(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Where a traced run leaves its trace when no `--out` is given: beside
/// the executable, which is inside the build directory of the checkout.
fn default_trace_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    Ok(exe
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf))
}

fn print_human(result: &RunResult) {
    let spec = &result.spec;
    // chaos_w2 depends on threads: say how many the host really has.
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# {} seed={} trace={} passes={} attempted={} failed={} available_parallelism={}",
        spec.workload,
        spec.seed,
        u8::from(spec.trace),
        result.passes,
        result.attempted,
        result.failed,
        parallelism
    );
    for r in &result.readings {
        println!(
            "{:<34} {:>16.6} {:<6} n={:<6} {}",
            r.def.name, r.value, r.def.unit, r.samples, r.def.moves
        );
    }
    println!(
        "{:<34} {:>16.6} {:<6}",
        "fail_share",
        result.fail_share(),
        "ratio"
    );
    if let Some(err) = result.paper_err_pct {
        println!("{:<34} {:>16.6} {:<6}", "paper_err_pct", err, "%");
    }
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs { spec, out, set } = parse_run_args(args)?;
    let result = harness::run(&spec)?;

    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = format!(
            "run_{}_set{set}_trace{}.json",
            spec.workload,
            u8::from(spec.trace)
        );
        write_file(&dir.join(name), &result.run_file(set))?;
    }
    if spec.trace {
        let dir = match &out {
            Some(dir) => dir.clone(),
            None => default_trace_dir()?,
        };
        let path = dir.join(format!("trace_{}.json", spec.workload));
        write_file(&path, &trace_json(&spec.workload, &result.spans))?;
        println!("# trace written to {}", path.display());
    }

    print_human(&result);
    println!("{}", result.contract_line().render());
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_CHECK_FAILED)
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_report(args: &[String]) -> Result<ExitCode, String> {
    let [dir] = args else {
        return Err("report takes one directory".into());
    };
    let dir = Path::new(dir);
    let doc = report::collect(dir)?;
    write_file(&dir.join("results.json"), &doc)?;
    let (text, all_correct) = report::render(&doc);
    print!("{text}");
    println!(
        "# results written to {}",
        dir.join("results.json").display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_CHECK_FAILED)
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let (files, benchmark) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--benchmark" => ([a, b], path.as_str()),
        _ => return Err("compare takes two result files".into()),
    };
    let bounds = report::bounds(&read_json(benchmark)?)?;
    let (text, regressed) = report::compare(&read_json(files[0])?, &read_json(files[1])?, &bounds);
    print!("{text}");
    Ok(if regressed {
        ExitCode::from(EXIT_CHECK_FAILED)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("report") => run_report(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some(_) => run_workload(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("f2bench: {message}\n{USAGE}");
        ExitCode::from(EXIT_USAGE)
    })
}
