//! Partition-aggregate workload under random failures (Fig. 6, scaled).
//!
//! Run with `cargo run --release --example partition_aggregate [--full]`.
//! The default is a 60s run with proportional workload; `--full` replays
//! the paper's 600s / 3000-request experiment.

use f2tree::Design;
use f2tree_experiments::workload::{format_fig6, run_workload, WorkloadConfig};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let base = if full {
        WorkloadConfig::default()
    } else {
        WorkloadConfig::quick()
    };
    println!(
        "running partition-aggregate: {}s horizon, {} requests, {} background flows",
        base.duration_s, base.requests, base.background_flows
    );
    let mut results = Vec::new();
    for concurrent in [1usize, 5] {
        let cfg = base.clone().with_concurrency(concurrent);
        for design in [Design::FatTree, Design::F2Tree] {
            let r = run_workload(design, &cfg);
            println!(
                "  {design} CF={concurrent}: miss={:.3}% unfinished={} failures={}",
                r.deadline_miss_ratio * 100.0,
                r.unfinished,
                r.failures_injected
            );
            results.push(r);
        }
    }
    println!();
    println!("{}", format_fig6(&results));
}
