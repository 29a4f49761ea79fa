//! Failure drill: replay every Table IV condition (C1-C7) on both designs
//! and print the Fig. 4 comparison.
//!
//! Run with `cargo run --example failure_drill [k]` (default k=8).

use dcn_routing::RecoveryMode;
use dcn_sweep::Workers;
use f2tree_experiments::conditions::{format_fig4, ConditionConfig, ConditionGrid, View};

fn main() {
    let k: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let config = ConditionConfig {
        k,
        ..ConditionConfig::default()
    };
    println!("running the C1-C7 drill on a {k}-port DCN...\n");
    let mode = RecoveryMode::default();
    let grid = ConditionGrid::run(&config, &[View::Fig4(mode)], Workers::auto());
    println!("{}", format_fig4(&grid, mode));
    println!("note: C7 is the Sec. II-C fourth condition where F2Tree degrades to fat tree.");
}
