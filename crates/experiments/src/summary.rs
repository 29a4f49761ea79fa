//! The paper-vs-measured scorecard (`repro summary`).
//!
//! Reads the headline numbers off the results the experiments' own
//! targets compute, compares each against the paper's, and grades the
//! *shape* (who wins and by roughly what factor) — the standard this
//! reproduction holds itself to, since the substrate is a simulator
//! rather than the authors' testbed.

use dcn_failure::Condition;
use dcn_routing::RecoveryMode;
use f2tree::Design;
use serde::{Deserialize, Serialize};

use crate::conditions::ConditionGrid;
use crate::extensions::{AspenResult, C7WideResult, CentralizedResult};
use crate::fig7::{Fabric, Fig7Result};
use crate::table1::f2tree_node_deficit;
use crate::testbed::TestbedResult;

/// One scorecard row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SummaryRow {
    /// Which paper artifact the number belongs to.
    pub artifact: &'static str,
    /// What is measured.
    pub metric: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit label for display.
    pub unit: &'static str,
    /// Tolerance as a fraction of the paper's value considered
    /// shape-preserving for this metric.
    pub tolerance: f64,
}

impl SummaryRow {
    /// Whether the measurement lands within the row's tolerance band.
    pub fn holds(&self) -> bool {
        if self.paper == 0.0 {
            return self.measured.abs() <= self.tolerance;
        }
        ((self.measured - self.paper) / self.paper).abs() <= self.tolerance
    }
}

/// Builds the scorecard from Table III's pair, the condition grid's
/// F²Tree C1 and C7 cells under rewiring ([`crate::conditions::View::Summary`]),
/// the Fig. 7 grid, the wide-ring pair, the controller sweep and the
/// Aspen pair. (Fig. 6 is excluded — its absolute ratios depend on
/// unpublished failure parameters; see EXPERIMENTS.md.) A number missing
/// from its result measures 0 and so shows as drift.
pub fn scorecard(
    table3: &[TestbedResult; 2],
    grid: &ConditionGrid,
    fig7: &[Fig7Result],
    c7_wide: &[C7WideResult; 2],
    centralized: &[CentralizedResult],
    aspen: &[AspenResult; 2],
) -> Vec<SummaryRow> {
    let mut rows = Vec::new();

    // Table III / Fig. 2.
    let [fat, f2] = table3;
    rows.push(SummaryRow {
        artifact: "Table III",
        metric: "fat tree connectivity loss",
        paper: 272_847.0,
        measured: fat.connectivity_loss_us as f64,
        unit: "us",
        tolerance: 0.05,
    });
    rows.push(SummaryRow {
        artifact: "Table III",
        metric: "F2Tree connectivity loss",
        paper: 60_619.0,
        measured: f2.connectivity_loss_us as f64,
        unit: "us",
        tolerance: 0.05,
    });
    rows.push(SummaryRow {
        artifact: "Table III",
        metric: "loss-duration reduction",
        paper: 0.78,
        measured: 1.0 - f2.connectivity_loss_us as f64 / fat.connectivity_loss_us as f64,
        unit: "fraction",
        tolerance: 0.05,
    });
    rows.push(SummaryRow {
        artifact: "Table III",
        metric: "packet-loss reduction",
        paper: 0.76,
        measured: 1.0 - f2.packets_lost as f64 / fat.packets_lost as f64,
        unit: "fraction",
        tolerance: 0.08,
    });
    rows.push(SummaryRow {
        artifact: "Table III",
        metric: "fat tree TCP collapse",
        paper: 700_000.0,
        measured: fat.throughput_collapse_us as f64,
        unit: "us",
        tolerance: 0.20,
    });
    rows.push(SummaryRow {
        artifact: "Table III",
        metric: "F2Tree TCP collapse",
        paper: 220_000.0,
        measured: f2.throughput_collapse_us as f64,
        unit: "us",
        tolerance: 0.15,
    });

    // Fig. 4 / Fig. 5 representative cells.
    let cell = |c| grid.cell(Design::F2Tree, RecoveryMode::F2TreeRewiring, c);
    let loss = |c| cell(c).and_then(|r| r.result.connectivity_loss_us);
    let c1 = loss(Condition::C1).unwrap_or(0);
    rows.push(loss_row("Fig. 4", "F2Tree C1 loss", DETECTION, c1));
    let c7 = loss(Condition::C7).unwrap_or(0);
    let metric = "F2Tree C7 loss (degrades to fat tree)";
    rows.push(loss_row("Fig. 4", metric, RECONVERGENCE, c7));
    let reroute_delay = cell(Condition::C1)
        .and_then(|r| r.result.delay_series.iter().find(|&&(t, _)| t == 200))
        .and_then(|&(_, d)| d)
        .unwrap_or(0.0);
    rows.push(SummaryRow {
        artifact: "Fig. 5",
        metric: "fast-reroute delay (one extra hop)",
        paper: 117.0,
        measured: reroute_delay,
        unit: "us",
        tolerance: 0.05,
    });

    // Table I's §II-D cost claim.
    rows.push(SummaryRow {
        artifact: "Table I",
        metric: "node deficit at N=128",
        paper: 0.02,
        measured: f2tree_node_deficit(128),
        unit: "fraction",
        tolerance: 0.60, // the paper says "about 2%"; exact is 3.1%
    });

    // Fig. 7.
    for (fabric, metric) in [
        (Fabric::LeafSpine, "F2 Leaf-Spine loss"),
        (Fabric::Vl2, "F2 VL2 loss"),
    ] {
        let f2 = fig7
            .iter()
            .find(|r| (r.fabric, r.design) == (fabric, Design::F2Tree));
        let f2 = f2.map_or(0, |r| r.connectivity_loss_us);
        rows.push(loss_row("Fig. 7", metric, DETECTION, f2));
    }

    // Extensions (the paper's own predictions).
    let wide = c7_wide.iter().find(|r| r.across_ports == 4);
    let wide = wide.map_or(0, |r| r.connectivity_loss_us);
    let metric = "C7 loss with 4 across ports";
    rows.push(loss_row("SII-C extension", metric, DETECTION, wide));
    let central = centralized
        .iter()
        .find(|r| (r.design, r.compute_ms) == (Design::F2Tree, 200));
    let central = central.map_or(0, |r| r.connectivity_loss_us);
    let metric = "F2Tree loss under 200ms-compute controller";
    rows.push(loss_row("SV centralized", metric, DETECTION, central));

    // The Aspen baseline's partial coverage (§VI: "Aspen Tree only has
    // immediate backup links for downward links in the fault-tolerant
    // layer, which may still incur a substantial time for recovery from
    // downward failures at other layers").
    let [top, bottom] = aspen.each_ref().map(|r| r.connectivity_loss_us);
    let metric = "agg-core failure (fault-tolerant layer)";
    rows.push(loss_row("SVI Aspen", metric, DETECTION, top));
    let metric = "agg-ToR failure (unprotected layer)";
    rows.push(loss_row("SVI Aspen", metric, RECONVERGENCE, bottom));

    rows
}

/// The paper's two recovery regimes as (connectivity loss in µs,
/// tolerance): bounded by failure detection, and by the control plane's
/// reconvergence.
const DETECTION: (f64, f64) = (60_000.0, 0.05);
const RECONVERGENCE: (f64, f64) = (270_000.0, 0.08);

/// A row grading a measured connectivity loss against one regime.
fn loss_row(
    artifact: &'static str,
    metric: &'static str,
    (paper, tolerance): (f64, f64),
    measured_us: u64,
) -> SummaryRow {
    SummaryRow {
        artifact,
        metric,
        paper,
        measured: measured_us as f64,
        unit: "us",
        tolerance,
    }
}

/// Renders the scorecard.
pub fn format_summary(rows: &[SummaryRow]) -> String {
    let mut out = String::from(
        "Paper-vs-measured scorecard\n\
         artifact        | metric                                    | paper      | measured   | verdict\n\
         ----------------+-------------------------------------------+------------+------------+--------\n",
    );
    let mut held = 0;
    for r in rows {
        if r.holds() {
            held += 1;
        }
        out.push_str(&format!(
            "{:<15} | {:<41} | {:>10.3} | {:>10.3} | {}\n",
            r.artifact,
            r.metric,
            r.paper,
            r.measured,
            if r.holds() { "ok" } else { "DRIFT" }
        ));
    }
    out.push_str(&format!("\n{held}/{} rows within tolerance\n", rows.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::{ConditionConfig, View};
    use crate::extensions::{run_aspen_baseline, run_c7_wide, run_centralized_sweep};
    use crate::fig7::run_fig7_sweep;
    use crate::testbed::run_table3;
    use dcn_sweep::Workers;

    /// The scorecard over what `repro summary` runs for it.
    fn summary_from_its_targets() -> Vec<SummaryRow> {
        let grid = ConditionGrid::run(
            &ConditionConfig::default(),
            &[View::Summary],
            Workers::auto(),
        );
        scorecard(
            &run_table3(),
            &grid,
            &run_fig7_sweep(Workers::auto()),
            &run_c7_wide(),
            &run_centralized_sweep(),
            &run_aspen_baseline(),
        )
    }

    #[test]
    fn every_scorecard_row_holds() {
        let rows = summary_from_its_targets();
        assert!(rows.len() >= 12);
        for r in &rows {
            assert!(
                r.holds(),
                "{} / {}: paper {} vs measured {} ({})",
                r.artifact,
                r.metric,
                r.paper,
                r.measured,
                r.unit
            );
        }
    }

    #[test]
    fn holds_handles_zero_paper_values() {
        let row = SummaryRow {
            artifact: "x",
            metric: "y",
            paper: 0.0,
            measured: 0.0,
            unit: "",
            tolerance: 0.01,
        };
        assert!(row.holds());
    }
}
