//! Routing-quality sweep: topology × recovery mode × failure condition,
//! scored with the `dcn_metrics::quality` suite at three instants —
//! converged pre-failure, mid-failover, and settled post-reconvergence.
//!
//! This is the congestion companion to the `repro recovery` grid: where
//! that table shows fast reroute winning on recovery *time*, this one
//! prices what the repair paths *cost* — max fabric-edge load above the
//! healthy baseline while the control plane has not yet reconverged,
//! demand blackholed meanwhile, and the path diversity left to the pod
//! pairs. All values are fixed-point quantized; output is byte-stable
//! at any worker count.
//!
//! The grid is a view of the condition grid ([`View::Quality`]): every
//! cell, in grid order.
//!
//! [`View::Quality`]: crate::conditions::View::Quality

use dcn_metrics::quality::format_load;

use crate::conditions::ConditionGrid;

/// Renders the quality grid (the golden-fixture format).
pub fn format_quality(grid: &ConditionGrid) -> String {
    let mut out = String::new();
    out.push_str(
        "Routing quality under failure: max fabric-edge load and losses per snapshot\n\
         loads in multiples of one access link; healthy -> mid-failover -> settled\n\
         design   | mode   | cond | healthy | failover | settled | undeliv@fo | div min/p50/max\n\
         ---------+--------+------+---------+----------+---------+------------+----------------\n",
    );
    for r in &grid.cells {
        let div = r
            .failover
            .diversity
            .map_or("-".into(), |d| format!("{}/{}/{}", d.min, d.p50, d.max));
        out.push_str(&format!(
            "{:<8} | {:<6} | {:<4} | {:>7} | {:>8} | {:>7} | {:>10} | {:>15}\n",
            r.result.design.to_string(),
            r.recovery.name(),
            r.result.condition,
            format_load(r.healthy.max_load),
            format_load(r.failover.max_load),
            format_load(r.settled.max_load),
            format_load(r.failover.undeliverable),
            div,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::conditions::{grid_cells, run_cell, ConditionConfig};
    use dcn_failure::Condition;
    use dcn_routing::RecoveryMode;
    use f2tree::Design;

    #[test]
    fn grid_covers_fat_tree_and_all_three_modes() {
        let cells = grid_cells();
        assert_eq!(cells.len(), 5 + 3 * 7);
        assert!(cells.iter().all(|&(d, m, c)| d == Design::F2Tree
            || (m == RecoveryMode::OspfReconvergence && !c.requires_across_links())));
    }

    #[test]
    fn c1_prices_the_tradeoff() {
        let config = ConditionConfig::default();
        let run = |recovery| run_cell(Design::F2Tree, recovery, Condition::C1, &config);
        let ospf = run(RecoveryMode::OspfReconvergence);
        let f2 = run(RecoveryMode::F2TreeRewiring);

        // Same topology, same converged routing: identical baselines.
        assert_eq!(ospf.healthy, f2.healthy);
        // OSPF mid-failover: no repair path yet, demand blackholes.
        assert!(
            ospf.failover.undeliverable > 0,
            "ospf should blackhole mid-failover"
        );
        // F²Tree mid-failover: traffic flows, but the detour
        // concentrates load above the healthy baseline.
        assert_eq!(f2.failover.undeliverable, 0, "f2tree reroutes everything");
        assert!(
            f2.failover.max_load > f2.healthy.max_load,
            "the repair path costs congestion: {} !> {}",
            f2.failover.max_load,
            f2.healthy.max_load
        );
        // Both settle back to the baseline load shape after OSPF
        // removes the failed link from every FIB.
        assert_eq!(f2.settled.undeliverable, 0);
        assert_eq!(ospf.settled.undeliverable, 0);
    }
}
