//! Three-mode recovery comparison: plain OSPF reconvergence vs the
//! paper's F²Tree static rewiring vs the precomputed fast-reroute map,
//! all on the **same** rewired k=8 testbed and the same Fig. 4 failure
//! conditions.
//!
//! Holding the topology fixed isolates the recovery discipline as the
//! only independent variable: `ospf` ignores both the static backups and
//! the FRR map (the across links sit idle), `f2tree` installs the
//! design's static backup routes, and `frr` installs per-link repair
//! plans that use the across ring as remote-LFA relays. Expected shape:
//! OSPF pays detection + SPF scheduling + FIB update (~270 ms), F²Tree
//! pays detection only (~60 ms), FRR pays detection + FIB update
//! (~70 ms) — and C7, which severs the repair paths themselves, degrades
//! every mode to OSPF reconvergence.
//!
//! The comparison is a view of the condition grid ([`View::Recovery`]):
//! it reads the F²Tree cells, looked up by mode and condition.
//!
//! [`View::Recovery`]: crate::conditions::View::Recovery

use dcn_failure::Condition;
use dcn_metrics::quality::format_load;
use dcn_routing::RecoveryMode;
use f2tree::Design;

use crate::conditions::ConditionGrid;

/// Renders the comparison as one row per condition with the three modes
/// side by side (the golden-fixture format). Besides the recovery-time
/// columns, each mode reports its mid-failover max fabric load — the
/// congestion price of the repair paths while the control plane has not
/// yet reconverged.
pub fn format_recovery(grid: &ConditionGrid) -> String {
    let mut out = String::new();
    out.push_str(
        "Recovery-mode comparison on the rewired k=8 DCN (C1-C7)\n\
         loss = connectivity-loss duration in us; '-' = no loss observed\n\
         maxload = mid-failover max fabric-edge load (multiples of one access link)\n",
    );
    let healthy = grid.cell(Design::F2Tree, RecoveryMode::OspfReconvergence, Condition::C1)
        .map_or(0, |r| r.result.healthy_max_load);
    out.push_str(&format!(
        "healthy baseline max fabric-edge load: {}\n",
        format_load(healthy)
    ));
    out.push_str(
        "cond |  ospf loss | f2tree loss |   frr loss | ospf pkts | f2tree pkts | frr pkts \
         | ospf maxload | f2tree maxload | frr maxload\n\
         -----+------------+-------------+------------+-----------+-------------+----------\
         +--------------+----------------+------------\n",
    );
    for condition in Condition::ALL {
        let cell = |mode| grid.cell(Design::F2Tree, mode, condition);
        let loss = |mode| {
            cell(mode).map_or("?".into(), |r| {
                r.result
                    .connectivity_loss_us
                    .map_or("-".into(), |v| v.to_string())
            })
        };
        let pkts = |mode| cell(mode).map_or("?".into(), |r| r.result.packets_lost.to_string());
        let maxload = |mode| {
            cell(mode).map_or("?".into(), |r| {
                format_load(r.result.post_failover_max_load)
            })
        };
        out.push_str(&format!(
            "{:<4} | {:>10} | {:>11} | {:>10} | {:>9} | {:>11} | {:>8} | {:>12} | {:>14} | {:>11}\n",
            condition.to_string(),
            loss(RecoveryMode::OspfReconvergence),
            loss(RecoveryMode::F2TreeRewiring),
            loss(RecoveryMode::PrecomputedFrr),
            pkts(RecoveryMode::OspfReconvergence),
            pkts(RecoveryMode::F2TreeRewiring),
            pkts(RecoveryMode::PrecomputedFrr),
            maxload(RecoveryMode::OspfReconvergence),
            maxload(RecoveryMode::F2TreeRewiring),
            maxload(RecoveryMode::PrecomputedFrr),
        ));
    }
    out
}

/// The conditions on which `mode`'s mid-failover max fabric load
/// strictly exceeds its healthy baseline — where the fast repair paths
/// measurably concentrate load while buying their recovery-time win.
pub fn congestion_cost(grid: &ConditionGrid, mode: RecoveryMode) -> Vec<String> {
    Condition::ALL
        .into_iter()
        .filter(|&c| {
            grid.cell(Design::F2Tree, mode, c)
                .is_some_and(|r| r.result.post_failover_max_load > r.result.healthy_max_load)
        })
        .map(|c| c.to_string())
        .collect()
}

/// The conditions on which FRR's loss window is strictly smaller than
/// OSPF's (the PR's acceptance criterion expects all of C1–C6; C7 severs
/// the repair paths and legitimately degrades to reconvergence).
pub fn frr_wins(grid: &ConditionGrid) -> Vec<String> {
    let loss = |mode, c| {
        let cell = grid.cell(Design::F2Tree, mode, c);
        cell.and_then(|r| r.result.connectivity_loss_us)
    };
    Condition::ALL
        .into_iter()
        .filter(|&c| {
            matches!(
                (
                    loss(RecoveryMode::PrecomputedFrr, c),
                    loss(RecoveryMode::OspfReconvergence, c),
                ),
                (Some(frr), Some(ospf)) if frr < ospf
            )
        })
        .map(|c| c.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::conditions::{grid_cells, run_condition, ConditionConfig, View};

    #[test]
    fn grid_is_modes_times_conditions_baseline_first() {
        let cells: Vec<_> = grid_cells()
            .into_iter()
            .filter(|&(d, m, c)| View::Recovery.reads(d, m, c))
            .map(|(_, m, c)| (m, c))
            .collect();
        assert_eq!(cells.len(), 3 * 7);
        assert_eq!(cells[0].0, RecoveryMode::OspfReconvergence);
        assert_eq!(cells[7].0, RecoveryMode::F2TreeRewiring);
        assert_eq!(cells[14].0, RecoveryMode::PrecomputedFrr);
    }

    #[test]
    fn three_modes_order_as_the_paper_predicts_on_c1() {
        let config = ConditionConfig::default();
        let loss = |recovery| {
            run_condition(
                Design::F2Tree,
                Condition::C1,
                &ConditionConfig { recovery, ..config },
            )
            .connectivity_loss_us
            .expect("probe recovers")
        };
        let ospf = loss(RecoveryMode::OspfReconvergence);
        let f2 = loss(RecoveryMode::F2TreeRewiring);
        let frr = loss(RecoveryMode::PrecomputedFrr);
        // F²Tree (detection only) ≤ FRR (detection + FIB update) « OSPF
        // (detection + SPF schedule + FIB update).
        assert!(f2 <= frr, "f2 {f2}us vs frr {frr}us");
        assert!(frr < ospf, "frr {frr}us vs ospf {ospf}us");
        assert!((58_000..=65_000).contains(&f2), "f2 {f2}us");
        assert!((65_000..=80_000).contains(&frr), "frr {frr}us");
        assert!((260_000..=310_000).contains(&ospf), "ospf {ospf}us");
    }
}
