//! Disconnected switch graphs: a fabric that lost random fabric links and
//! whole agg or core switches — pods cut into islands, a spine gone —
//! still builds into a `Network` in every recovery mode and runs a
//! transfer, a UDP probe and a routing-quality snapshot without a panic.
//! Whatever cannot be routed is dropped and counted, not a crash.

use dcn_emu::{EmuConfig, Network};
use dcn_metrics::quality::QualityReport;
use dcn_net::{FatTree, Layer, Topology};
use dcn_routing::RecoveryMode;
use dcn_sim::{SimDuration, SimTime};
use f2tree::{Design, F2TreeNetwork, TestBed};
use proptest::prelude::*;

const MODES: [RecoveryMode; 3] = [
    RecoveryMode::OspfReconvergence,
    RecoveryMode::F2TreeRewiring,
    RecoveryMode::PrecomputedFrr,
];

/// Removes, for each `(pick, switch)` draw, one live fabric link or (when
/// `switch` is set) one live agg or core switch with all its links.
fn damage(topo: &mut Topology, draws: &[(u64, bool)]) {
    for &(pick, switch) in draws {
        if switch {
            let spines: Vec<_> = [Layer::Agg, Layer::Core]
                .into_iter()
                .flat_map(|l| topo.layer_switches(l))
                .collect();
            if let Some(&node) = spines.get(pick as usize % spines.len().max(1)) {
                topo.remove_node(node).expect("a live switch");
            }
        } else {
            let fabric: Vec<_> = topo
                .links()
                .filter(|l| {
                    topo.node(l.a()).kind().is_switch() && topo.node(l.b()).kind().is_switch()
                })
                .map(|l| l.id())
                .collect();
            if let Some(&link) = fabric.get(pick as usize % fabric.len().max(1)) {
                topo.remove_link(link).expect("a live link");
            }
        }
    }
}

/// Builds the damaged fabric in `mode`, as `TestBed` builds a whole one.
fn build(design: Design, k: u32, draws: &[(u64, bool)], mode: RecoveryMode) -> Network {
    let config = EmuConfig::builder().recovery(mode).build();
    match design {
        Design::FatTree => {
            let mut topo = FatTree::new(k).expect("even k").hosts_per_tor(1).build();
            damage(&mut topo, draws);
            Network::new(topo, config).expect("every host keeps its rack")
        }
        Design::F2Tree => {
            let mut f2 = F2TreeNetwork::build_with_hosts(k, 1).expect("even k");
            damage(&mut f2.topology, draws);
            TestBed::from_f2tree(f2, config)
                .expect("every host keeps its rack")
                .net
        }
    }
}

/// A transfer and a probe between far-apart hosts, then a snapshot.
fn exercise(mut net: Network) {
    let hosts = net.topology().hosts().to_vec();
    let (first, last) = (hosts[0], hosts[hosts.len() - 1]);
    net.add_transfer(first, last, 64 * 1024, SimTime::ZERO);
    net.add_udp_probe(last, hosts[hosts.len() / 2], SimTime::ZERO);
    net.run_until(SimTime::ZERO + SimDuration::from_millis(50));
    assert!(net.events_processed() > 0);
    QualityReport::compute(&net.quality_input());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn damaged_fabrics_build_and_run_in_every_mode(
        draws in prop::collection::vec((any::<u64>(), any::<bool>()), 1..12),
    ) {
        for design in [Design::FatTree, Design::F2Tree] {
            for k in [4, 6] {
                for mode in MODES {
                    exercise(build(design, k, &draws, mode));
                }
            }
        }
    }
}

/// The named shapes: every pod's ToR–agg links gone (each rack an island)
/// and every core switch gone (pods cut off from each other).
#[test]
fn islands_and_a_missing_spine_run_in_every_mode() {
    for design in [Design::FatTree, Design::F2Tree] {
        for mode in MODES {
            let config = EmuConfig::builder().recovery(mode).build();
            let islands = |topo: &mut Topology| {
                let uplinks: Vec<_> = topo
                    .links()
                    .filter(|l| {
                        let layer = |n| topo.node(n).layer();
                        layer(l.a()) == Some(Layer::Tor) && layer(l.b()) == Some(Layer::Agg)
                            || layer(l.a()) == Some(Layer::Agg) && layer(l.b()) == Some(Layer::Tor)
                    })
                    .map(|l| l.id())
                    .collect();
                for link in uplinks {
                    topo.remove_link(link).expect("a live link");
                }
            };
            let spineless = |topo: &mut Topology| {
                let cores: Vec<_> = topo.layer_switches(Layer::Core).collect();
                for core in cores {
                    topo.remove_node(core).expect("a live switch");
                }
            };
            for cut in [&islands as &dyn Fn(&mut Topology), &spineless] {
                let net = match design {
                    Design::FatTree => {
                        let mut topo = FatTree::new(4).expect("even k").hosts_per_tor(1).build();
                        cut(&mut topo);
                        Network::new(topo, config.clone()).expect("every host keeps its rack")
                    }
                    Design::F2Tree => {
                        let mut f2 = F2TreeNetwork::build_with_hosts(4, 1).expect("even k");
                        cut(&mut f2.topology);
                        TestBed::from_f2tree(f2, config.clone())
                            .expect("every host keeps its rack")
                            .net
                    }
                };
                exercise(net);
            }
        }
    }
}
