//! Fig. 7 (§V): the F²Tree scheme on Leaf-Spine and VL2.
//!
//! For each fabric the runner fails the downward link on the probe's path
//! (spine→leaf for Leaf-Spine, agg→ToR for VL2) and compares recovery
//! with and without the F² rewiring + backup routes.

use dcn_emu::{EmuConfig, FlowId, Network};
use dcn_net::{LeafSpine, NodeId, PodRing, Protocol, Vl2};
use dcn_sim::SimTime;
use dcn_sweep::{ExperimentSpec, Workers};
use f2tree::{f2_leaf_spine, f2_vl2, ring_backup_routes, Design};
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

fn build_network(fabric: Fabric, design: Design) -> (Network, Option<PodRing>) {
    let (topo, ring) = match (fabric, design) {
        (Fabric::LeafSpine, Design::FatTree) => (
            LeafSpine::new(LEAVES, SPINES).expect("valid dims").build(),
            None,
        ),
        (Fabric::Vl2, Design::FatTree) => (Vl2::new(D_A, D_I).expect("valid dims").build(), None),
        (_, Design::F2Tree) => {
            let f2 = match fabric {
                Fabric::LeafSpine => f2_leaf_spine(LEAVES, SPINES),
                Fabric::Vl2 => f2_vl2(D_A, D_I),
            }
            .expect("valid dims");
            (f2.topology, Some(f2.ring))
        }
    };
    let mut net = Network::new(topo, EmuConfig::default()).expect("addressable");
    if let Some(ring) = &ring {
        net.install_static_routes(
            ring_backup_routes(ring)
                .into_iter()
                .flat_map(|(n, rs)| rs.into_iter().map(move |r| (n, r))),
        );
    }
    (net, ring)
}

/// Adds a UDP probe whose path's penultimate switch is `via`, or any
/// (source-port search over the ECMP hash, first port first).
fn add_probe_via(net: &mut Network, src: NodeId, dst: NodeId, via: Option<NodeId>) -> FlowId {
    for sport in 41_000..44_000u16 {
        let key = net.flow_key_with_port(src, dst, sport, Protocol::Udp);
        let path = net.trace(key, src, dst);
        if matches!(*path.as_slice(), [.., upper, _, _] if via.is_none_or(|v| v == upper)) {
            return net.add_udp_probe_with_port(src, dst, sport, SimTime::ZERO);
        }
    }
    panic!("no source port routes the probe via {via:?}");
}

/// Runs one Fig. 7 cell: the probe's last downward link fails.
pub fn run_fig7_cell(fabric: Fabric, design: Design) -> Fig7Result {
    let (mut net, ring) = build_network(fabric, design);
    // For VL2's F² variant the dest ToR is dual-homed, and the paper's
    // Fig. 7(b) scheme locally repairs the failure of the home whose
    // ring-rightward neighbor is the *other* home — that is the depicted
    // case we reproduce, so the probe is pinned through it (see DESIGN.md
    // for the secondary-home caveat). Elsewhere it takes the first
    // port's path.
    let pinned = |net: &mut Network, src, dst| {
        let topo = net.topology();
        let via = match (&ring, fabric) {
            (Some(ring), Fabric::Vl2) => {
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
                Some(home.expect("one home's right neighbor is the other home"))
            }
            _ => None,
        };
        add_probe_via(net, src, dst, via)
    };
    let fail = |net: &mut Network, probe, at| {
        let path = net.trace_path(probe);
        let &[.., via, dest_tor, _dst] = path.as_slice() else {
            panic!("the probe crosses the fabric");
        };
        let link = net.topology().link_between(via, dest_tor);
        net.fail_link_at(at, link.expect("path link exists"));
    };
    let (loss, packets_lost) = probe_loss(&mut net, |n| n, pinned, 2000, fail);
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
