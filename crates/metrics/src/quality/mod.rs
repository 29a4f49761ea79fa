//! Routing-quality scoring: congestion risk of the installed FIBs.
//!
//! The paper scores recovery *time*; Gliksberg et al. (arXiv:2211.13101,
//! arXiv:2211.11817) show that fault-resilient fat-tree routings also
//! differ sharply in *quality* under degradation, and rank them by
//! expected link load. This family prices what each recovery mode's
//! repaired paths cost in congestion, per FIB epoch:
//!
//! - [`LinkLoads`] — per-directed-edge expected load propagated through
//!   the ECMP next-hop DAGs under uniform all-pairs host demand
//!   ([`load`]).
//! - [`LoadSummary`] — max / p50 / p90 / p99 link oversubscription over
//!   the fabric edges ([`oversub`]).
//! - [`DiversitySummary`] — edge-disjoint path counts per pod pair via
//!   unit-capacity max-flow on the next-hop DAG ([`diversity`]).
//!
//! Everything downstream of the f64 propagation is quantized to a
//! 2^20 fixed-point grid ([`LOAD_SCALE`]) and rendered with integer
//! math, so reports are byte-stable across platforms and worker
//! counts. The inputs arrive as a plain dense-index [`QualityInput`]
//! (built by the emulator's extraction seam) so this crate stays
//! independent of the emulator.

pub mod dag;
pub mod diversity;
pub mod load;
pub mod oversub;

use std::fmt;

pub use dag::{NextHopDag, QualityInput};
pub use diversity::{pod_pair_diversity, DiversitySummary};
pub use load::LinkLoads;
pub use oversub::LoadSummary;

/// Fixed-point scale for quantized link loads: 1.0 units of demand
/// maps to `LOAD_SCALE`. 2^20 keeps three rendered decimal digits
/// exact while leaving ~44 bits of headroom for summed loads.
pub const LOAD_SCALE: u64 = 1 << 20;

/// Quantizes an f64 load onto the [`LOAD_SCALE`] grid.
///
/// Exact ECMP loads are rationals whose denominators divide
/// (hosts−1)·∏(ECMP degrees); with the odd (hosts−1) factor they never
/// land exactly halfway between two grid points, so the f64 rounding
/// here agrees between DAG propagation and brute-force path
/// enumeration (the differential test relies on this).
pub fn quantize(load: f64) -> u64 {
    let scaled = load * LOAD_SCALE as f64;
    if scaled <= 0.0 {
        0
    } else {
        scaled.round() as u64
    }
}

/// Renders a quantized load as a decimal with three fractional digits,
/// using only integer arithmetic (byte-stable; no float formatting).
pub fn format_load(q: u64) -> String {
    let whole = q / LOAD_SCALE;
    let frac = (q % LOAD_SCALE) * 1000 / LOAD_SCALE;
    format!("{whole}.{frac:03}")
}

/// One routing-quality snapshot of an installed FIB state.
///
/// All fields are quantized ([`LOAD_SCALE`]) so the report is `Eq` and
/// byte-stably renderable. `max_load` is over fabric edges only — with
/// uniform all-pairs demand every host access link carries exactly 1.0
/// per direction, so fabric loads read directly as oversubscription
/// multiples of an access link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct QualityReport {
    /// Maximum quantized expected load over fabric edges.
    pub max_load: u64,
    /// Oversubscription summary over fabric edges (`None` if the
    /// topology has no fabric edges).
    pub oversub: Option<LoadSummary>,
    /// Edge-disjoint path diversity over pod pairs (`None` if fewer
    /// than one pair was scored).
    pub diversity: Option<DiversitySummary>,
    /// Quantized total demand delivered to destination ToRs.
    pub delivered: u64,
    /// Quantized total demand lost to dead edges, missing routes, or
    /// transient forwarding loops.
    pub undeliverable: u64,
}

impl QualityReport {
    /// Scores one FIB-epoch snapshot: propagates expected load,
    /// summarizes fabric-edge oversubscription, and counts
    /// edge-disjoint paths per pod pair.
    pub fn compute(input: &QualityInput) -> Self {
        let loads = LinkLoads::propagate(input);
        let fabric: Vec<u64> = input
            .fabric_edges
            .iter()
            .map(|&e| loads.per_edge.get(e).map_or(0, |&l| quantize(l)))
            .collect();
        let oversub = LoadSummary::of(&fabric);
        let max_load = oversub.map(|s| s.max).unwrap_or(0);
        let diversity = DiversitySummary::of(&pod_pair_diversity(input));

        QualityReport {
            max_load,
            oversub,
            diversity,
            delivered: quantize(loads.delivered),
            undeliverable: quantize(loads.undeliverable),
        }
    }
}

impl fmt::Display for QualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "max {}", format_load(self.max_load))?;
        match &self.oversub {
            Some(s) => write!(f, " oversub[{s}]")?,
            None => write!(f, " oversub[-]")?,
        }
        match &self.diversity {
            Some(d) => write!(f, " div[{d}]")?,
            None => write!(f, " div[-]")?,
        }
        write!(
            f,
            " delivered {} undeliv {}",
            format_load(self.delivered),
            format_load(self.undeliverable)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_rounds_to_grid() {
        assert_eq!(quantize(0.0), 0);
        assert_eq!(quantize(1.0), LOAD_SCALE);
        assert_eq!(quantize(-0.5), 0);
        assert_eq!(quantize(2.5), 5 * LOAD_SCALE / 2);
    }

    #[test]
    fn format_load_three_digits() {
        assert_eq!(format_load(0), "0.000");
        assert_eq!(format_load(LOAD_SCALE), "1.000");
        assert_eq!(format_load(LOAD_SCALE / 2), "0.500");
        assert_eq!(format_load(LOAD_SCALE / 4), "0.250");
        assert_eq!(format_load(3 * LOAD_SCALE / 2), "1.500");
        // 1/3 quantized: 349525/2^20 -> .333
        assert_eq!(format_load(quantize(1.0 / 3.0)), "0.333");
    }

    #[test]
    fn report_on_tiny_dag() {
        // Two ToRs joined by one bidirectional fabric edge pair:
        // node 0 -> node 1 (edge 0), node 1 -> node 0 (edge 1).
        let mut input = QualityInput {
            nodes: 2,
            edges: 2,
            edge_alive: vec![true, true],
            edge_head: vec![1, 0],
            fabric_edges: vec![0, 1],
            pod_pairs: vec![(0, 1, 0), (1, 0, 1)],
            dags: Vec::new(),
            hops: Vec::new(),
        };
        input.push_dag(1, vec![(0, 1.0)], [(0, [0])]);
        input.push_dag(0, vec![(1, 1.0)], [(1, [1])]);
        let report = QualityReport::compute(&input);
        assert_eq!(report.max_load, LOAD_SCALE);
        assert_eq!(report.delivered, 2 * LOAD_SCALE);
        assert_eq!(report.undeliverable, 0);
        let div = report.diversity.expect("two pairs scored");
        assert_eq!(div.min, 1);
        assert_eq!(div.max, 1);
        assert_eq!(
            report.to_string(),
            "max 1.000 oversub[n=2 max 1.000 p50 1.000 p90 1.000 p99 1.000] \
             div[n=2 min 1 p50 1 max 1] delivered 2.000 undeliv 0.000"
        );
    }
}
