//! A tour of the beyond-the-paper extensions:
//!
//! 1. Wide across rings (4 ports) surviving the C7 condition (§II-C).
//! 2. Unidirectional failures (the paper's stated future work).
//! 3. The §V centralized-controller comparison.
//! 4. The recovery-timer ablation.
//!
//! Run with `cargo run --release --example extensions_tour`.

use f2tree::Design;
use f2tree_experiments::extensions::{
    format_ablation, format_c7_wide, format_centralized, run_c7_wide, run_centralized_sweep,
    run_timer_ablation, run_unidirectional,
};

fn main() {
    println!("1) Wide rings vs the C7 extreme condition\n");
    println!("{}", format_c7_wide(&run_c7_wide()));

    println!("2) Unidirectional agg->ToR failure\n");
    for design in [Design::FatTree, Design::F2Tree] {
        let r = run_unidirectional(design);
        println!(
            "   {design}: connectivity loss {}us",
            r.connectivity_loss_us
        );
    }
    println!();

    println!("3) Centralized routing DCNs (paper SV)\n");
    println!("{}", format_centralized(&run_centralized_sweep()));

    println!("4) Recovery-timer ablation\n");
    println!("{}", format_ablation(&run_timer_ablation()));
}
