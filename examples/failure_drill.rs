//! Failure drill: replay every Table IV condition (C1-C7) on both designs
//! and print the Fig. 4 comparison.
//!
//! Run with `cargo run --example failure_drill [k]` (default k=8).

use dcn_failure::Condition;
use f2tree::Design;
use f2tree_experiments::conditions::{format_fig4, run_condition, ConditionConfig};

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
    let mut results = Vec::new();
    for condition in Condition::ALL {
        if !condition.requires_across_links() {
            results.push(run_condition(Design::FatTree, condition, &config));
        }
        results.push(run_condition(Design::F2Tree, condition, &config));
    }
    println!("{}", format_fig4(&results));
    println!("note: C7 is the Sec. II-C fourth condition where F2Tree degrades to fat tree.");
}
