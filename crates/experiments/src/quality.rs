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

use dcn_failure::Condition;
use dcn_metrics::quality::{format_load, QualityReport};
use dcn_routing::RecoveryMode;
use dcn_sweep::{ExperimentSpec, Workers};
use f2tree::Design;
use serde::{Deserialize, Serialize};

use crate::conditions::{run_condition_bed, ConditionConfig};

/// One (design, recovery mode, condition) cell's quality trajectory.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QualityCellResult {
    /// Which design the cell ran on.
    pub design: Design,
    /// Recovery discipline the routers ran.
    pub recovery: RecoveryMode,
    /// Condition label ("C1".."C7").
    pub condition: String,
    /// Converged pre-failure score.
    pub healthy: QualityReport,
    /// Mid-failover score (fast reroute active, OSPF not yet done).
    pub failover: QualityReport,
    /// Post-reconvergence score at the horizon.
    pub settled: QualityReport,
}

/// The sweep grid: the plain fat tree under its only discipline (OSPF)
/// on C1–C5, and the rewired F²Tree design under all three disciplines
/// on C1–C7.
pub fn quality_cells() -> Vec<(Design, RecoveryMode, Condition)> {
    let mut cells = Vec::new();
    for condition in Condition::ALL {
        if !condition.requires_across_links() {
            cells.push((Design::FatTree, RecoveryMode::OspfReconvergence, condition));
        }
    }
    for mode in RecoveryMode::ALL {
        for condition in Condition::ALL {
            cells.push((Design::F2Tree, mode, condition));
        }
    }
    cells
}

/// Runs one quality cell: the shared condition run gives the first two
/// snapshots, the bed it leaves at the horizon the third.
fn run_quality_cell(
    design: Design,
    recovery: RecoveryMode,
    condition: Condition,
    config: &ConditionConfig,
) -> QualityCellResult {
    let cell_config = ConditionConfig {
        recovery,
        ..*config
    };
    let run = run_condition_bed(design, condition, &cell_config);
    QualityCellResult {
        design,
        recovery,
        condition: condition.to_string(),
        healthy: run.healthy,
        failover: run.failover,
        settled: QualityReport::compute(&run.bed.net.quality_input()),
    }
}

/// Runs the quality sweep on an explicit worker count via the sweep
/// engine; output is byte-identical for every `workers` value.
pub fn run_quality_sweep(config: &ConditionConfig, workers: Workers) -> Vec<QualityCellResult> {
    ExperimentSpec::new("quality")
        .cells(quality_cells())
        .workers(workers)
        .build()
        .run(|ctx| {
            let (design, recovery, condition) = *ctx.cell();
            run_quality_cell(design, recovery, condition, config)
        })
}

/// Renders the quality grid (the golden-fixture format).
pub fn format_quality(results: &[QualityCellResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "Routing quality under failure: max fabric-edge load and losses per snapshot\n\
         loads in multiples of one access link; healthy -> mid-failover -> settled\n\
         design   | mode   | cond | healthy | failover | settled | undeliv@fo | div min/p50/max\n\
         ---------+--------+------+---------+----------+---------+------------+----------------\n",
    );
    for r in results {
        let div = r
            .failover
            .diversity
            .map_or("-".into(), |d| format!("{}/{}/{}", d.min, d.p50, d.max));
        out.push_str(&format!(
            "{:<8} | {:<6} | {:<4} | {:>7} | {:>8} | {:>7} | {:>10} | {:>15}\n",
            r.design.to_string(),
            r.recovery.name(),
            r.condition,
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
    use super::*;

    #[test]
    fn grid_covers_fat_tree_and_all_three_modes() {
        let cells = quality_cells();
        assert_eq!(cells.len(), 5 + 3 * 7);
        assert!(cells
            .iter()
            .all(|&(d, m, c)| d == Design::F2Tree
                || (m == RecoveryMode::OspfReconvergence && !c.requires_across_links())));
    }

    #[test]
    fn c1_prices_the_tradeoff() {
        let config = ConditionConfig::default();
        let run = |recovery| run_quality_cell(Design::F2Tree, recovery, Condition::C1, &config);
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
