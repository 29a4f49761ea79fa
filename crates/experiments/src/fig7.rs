//! Fig. 7 (§V): the F²Tree scheme on Leaf-Spine and VL2.
//!
//! For each fabric the runner fails the downward link on the probe's path
//! (spine→leaf for Leaf-Spine, agg→ToR for VL2) and compares recovery
//! with and without the F² rewiring + backup routes. The original fabric
//! comes up through [`TestBed::from_topology`], the rewired one — the
//! [`F2TreeNetwork`](f2tree::F2TreeNetwork) of [`f2_leaf_spine`] or
//! [`f2_vl2`] — through [`TestBed::from_f2tree`], which installs its
//! ring's backup routes; the cell then runs through
//! `extensions::probe_loss`, like the extension targets.

use dcn_emu::EmuConfig;
use dcn_net::{LeafSpine, NodeId, Protocol, Vl2};
use dcn_sim::SimTime;
use dcn_sweep::{ExperimentSpec, Workers};
use f2tree::{f2_leaf_spine, f2_vl2, Design, TestBed, TestBedError};
use serde::{Deserialize, Serialize};

use crate::extensions::probe_loss;

/// The fabrics of Fig. 7.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fabric {
    /// Two-layer Leaf-Spine (Fig. 7(a)).
    LeafSpine,
    /// VL2 (Fig. 7(b)).
    Vl2,
}

impl std::fmt::Display for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fabric::LeafSpine => write!(f, "Leaf-Spine"),
            Fabric::Vl2 => write!(f, "VL2"),
        }
    }
}

/// Leaf-Spine dimensions: 6 leaves under 4 spines.
const LEAVES: u32 = 6;
const SPINES: u32 = 4;
/// VL2 aggregate (d_A) and intermediate (d_I) switch degrees.
const D_A: u32 = 6;
const D_I: u32 = 6;

/// One Fig. 7 measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Which fabric.
    pub fabric: Fabric,
    /// Plain or F²-rewired.
    pub design: Design,
    /// Duration of connectivity loss in µs.
    pub connectivity_loss_us: u64,
    /// UDP packets lost.
    pub packets_lost: u64,
}

/// `fabric` as built, or F²-rewired, through the testbed's two doors.
fn testbed(fabric: Fabric, design: Design) -> Result<TestBed, TestBedError> {
    let config = EmuConfig::default();
    match (fabric, design) {
        (Fabric::LeafSpine, Design::FatTree) => {
            TestBed::from_topology(LeafSpine::new(LEAVES, SPINES)?.build(), config)
        }
        (Fabric::Vl2, Design::FatTree) => {
            TestBed::from_topology(Vl2::new(D_A, D_I)?.build(), config)
        }
        (Fabric::LeafSpine, Design::F2Tree) => {
            TestBed::from_f2tree(f2_leaf_spine(LEAVES, SPINES)?, config)
        }
        (Fabric::Vl2, Design::F2Tree) => TestBed::from_f2tree(f2_vl2(D_A, D_I)?, config),
    }
}

/// Runs one Fig. 7 cell: the probe's last downward link fails.
pub fn run_fig7_cell(fabric: Fabric, design: Design) -> Fig7Result {
    let mut bed = testbed(fabric, design).expect("Fig. 7's fabrics build");
    // Only F²-VL2 has an aggregation ring. Its dest ToR is dual-homed, and
    // the paper's Fig. 7(b) scheme locally repairs the failure of the home
    // whose ring-rightward neighbor is the *other* home — that is the
    // depicted case we reproduce, so the probe is pinned through it (see
    // DESIGN.md for the secondary-home caveat). Elsewhere it takes the
    // first port's path.
    let pinned = |bed: &mut TestBed, src, dst| {
        let topo = bed.topology();
        let via = bed.agg_rings.first().map(|ring| {
            let dest_tor = topo.host_tor(dst).expect("dst attaches to a ToR");
            let home = topo
                .upward_links(dest_tor)
                .iter()
                .map(|&l| topo.link(l).other_end(dest_tor))
                .find(|&agg| {
                    ring.right(agg, 1)
                        .and_then(|(r, _)| topo.link_between(r, dest_tor))
                        .is_some()
                });
            home.expect("one home's right neighbor is the other home")
        });
        let through_via =
            |path: &[NodeId]| matches!(*path, [.., upper, _, _] if via.is_none_or(|v| v == upper));
        let sport = bed.source_port(src, dst, Protocol::Udp, through_via);
        let sport = sport.unwrap_or_else(|| panic!("no source port routes the probe via {via:?}"));
        bed.net
            .add_udp_probe_with_port(src, dst, sport, SimTime::ZERO)
    };
    let fail = |bed: &mut TestBed, probe, at| {
        let path = bed.net.trace_path(probe);
        let &[.., via, dest_tor, _dst] = path.as_slice() else {
            panic!("the probe crosses the fabric");
        };
        let link = bed.topology().link_between(via, dest_tor);
        bed.net.fail_link_at(at, link.expect("path link exists"));
    };
    let (loss, packets_lost) = probe_loss(&mut bed, pinned, 2000, fail);
    Fig7Result {
        fabric,
        design,
        connectivity_loss_us: loss.as_micros(),
        packets_lost,
    }
}

/// Runs the Fig. 7 grid (Leaf-Spine and VL2, each plain and F²-rewired)
/// on an explicit worker count via the sweep engine. Output order is the
/// plan order — fabric-major, original before F² — for every `workers`
/// value.
pub fn run_fig7_sweep(workers: Workers) -> Vec<Fig7Result> {
    let mut cells = Vec::new();
    for fabric in [Fabric::LeafSpine, Fabric::Vl2] {
        for design in [Design::FatTree, Design::F2Tree] {
            cells.push((fabric, design));
        }
    }
    ExperimentSpec::new("fig7")
        .cells(cells)
        .workers(workers)
        .build()
        .run(|ctx| {
            let (fabric, design) = *ctx.cell();
            run_fig7_cell(fabric, design)
        })
}

/// Renders the Fig. 7 comparison as text.
pub fn format_fig7(results: &[Fig7Result]) -> String {
    let mut out = String::from(
        "Fig. 7: F2Tree scheme on other multi-rooted topologies\n\
         fabric     | design    | loss (us) | pkts lost\n\
         -----------+-----------+-----------+----------\n",
    );
    for r in results {
        let design = match r.design {
            Design::FatTree => "original".to_string(),
            Design::F2Tree => "F2-rewired".to_string(),
        };
        out.push_str(&format!(
            "{:<10} | {:<9} | {:>9} | {:>9}\n",
            r.fabric.to_string(),
            design,
            r.connectivity_loss_us,
            r.packets_lost
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_spine_f2_rewiring_cuts_recovery_to_detection_time() {
        let plain = run_fig7_cell(Fabric::LeafSpine, Design::FatTree);
        let f2 = run_fig7_cell(Fabric::LeafSpine, Design::F2Tree);
        assert!(
            (265_000..=295_000).contains(&plain.connectivity_loss_us),
            "plain leaf-spine waits for OSPF: {}",
            plain.connectivity_loss_us
        );
        assert!(
            (58_000..=66_000).contains(&f2.connectivity_loss_us),
            "F2 leaf-spine fast-reroutes: {}",
            f2.connectivity_loss_us
        );
    }

    #[test]
    fn vl2_f2_rewiring_cuts_recovery_to_detection_time() {
        let plain = run_fig7_cell(Fabric::Vl2, Design::FatTree);
        let f2 = run_fig7_cell(Fabric::Vl2, Design::F2Tree);
        assert!(
            plain.connectivity_loss_us > 200_000,
            "plain VL2 waits for the control plane: {}",
            plain.connectivity_loss_us
        );
        assert!(
            (58_000..=66_000).contains(&f2.connectivity_loss_us),
            "F2 VL2 fast-reroutes: {}",
            f2.connectivity_loss_us
        );
    }

    #[test]
    fn all_four_cells_run() {
        let results = run_fig7_sweep(Workers::auto());
        assert_eq!(results.len(), 4);
        let text = format_fig7(&results);
        assert!(text.contains("Leaf-Spine"));
        assert!(text.contains("VL2"));
    }

    /// The whole grid through the worker pool: an explicit pool of 1 or 2
    /// renders the bytes one worker per core renders.
    #[test]
    fn sweep_output_does_not_depend_on_the_worker_count() {
        let text = format_fig7(&run_fig7_sweep(Workers::auto()));
        for workers in [1, 2] {
            let swept = run_fig7_sweep(Workers::new(workers));
            assert_eq!(format_fig7(&swept), text, "{workers} worker(s)");
        }
    }
}
