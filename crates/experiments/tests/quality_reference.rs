//! Differential test of the routing-quality snapshot and kernels on the
//! paper's k = 8 fabrics. The FIBs are read a second time the way the
//! snapshot read them before its rows went dense — one
//! `live_next_hops` list per (destination rack, switch), in a map — and
//! scored by the reference ordered-map propagation and `BTreeMap`
//! Edmonds–Karp (`crates/metrics/tests/reference`). On the fat tree and
//! F²Tree, healthy and at the mid-failover instant of every condition
//! (C6/C7 only where across links exist), under each recovery mode, the
//! product's rows must list the same hops, its per-edge loads must match
//! bit for bit, and every pod pair must count the same disjoint paths.

#[path = "../../metrics/tests/reference/mod.rs"]
mod reference;

use std::collections::BTreeMap;

use dcn_emu::Network;
use dcn_failure::Condition;
use dcn_metrics::quality::{pod_pair_diversity, LinkLoads};
use dcn_net::{Layer, NodeId};
use dcn_routing::RecoveryMode;
use dcn_sim::{Direction, SimTime};
use f2tree::{Design, TestBed};
use f2tree_experiments::conditions::{mid_failover_offset, ConditionConfig};
use reference::{reference_diversity, reference_propagate, RefDag, RefInput};

/// The extraction as the map-of-lists snapshot did it.
fn reference_extract(net: &Network) -> RefInput {
    let topo = net.topology();
    let edges = topo.link_slots() * 2;
    let mut edge_alive = vec![false; edges];
    for link in topo.links() {
        let state = net.link_state(link.id());
        edge_alive[link.id().index() * 2] = state.is_dir_up(Direction::AToB);
        edge_alive[link.id().index() * 2 + 1] = state.is_dir_up(Direction::BToA);
    }
    let mut rack_hosts: BTreeMap<NodeId, u32> = BTreeMap::new();
    for &host in topo.hosts() {
        if let Some(tor) = topo.host_tor(host) {
            *rack_hosts.entry(tor).or_insert(0) += 1;
        }
    }
    let total_hosts: u32 = rack_hosts.values().sum();
    let unit = 1.0 / (total_hosts - 1) as f64;
    let switches: Vec<NodeId> = topo
        .layer_switches(Layer::Tor)
        .chain(topo.layer_switches(Layer::Agg))
        .chain(topo.layer_switches(Layer::Core))
        .collect();

    let mut dags = Vec::new();
    let mut dag_of_tor: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (&dst_tor, &dst_hosts) in &rack_hosts {
        let dst_addr = net.plan().subnet_of(dst_tor).expect("rack subnet").nth(2);
        let mut next_hops = BTreeMap::new();
        for &sw in switches.iter().filter(|&&sw| sw != dst_tor) {
            let hops: Vec<(usize, usize)> = net
                .router(sw)
                .expect("every switch routes")
                .live_next_hops(dst_addr)
                .into_iter()
                .filter(|h| topo.node(h.node).kind().is_switch())
                .map(|h| {
                    let dir = usize::from(topo.link(h.link).a() != sw);
                    (h.link.index() * 2 + dir, h.node.index())
                })
                .collect();
            if !hops.is_empty() {
                next_hops.insert(sw.index(), hops);
            }
        }
        let inject = rack_hosts
            .iter()
            .filter(|&(&src_tor, _)| src_tor != dst_tor)
            .map(|(&src_tor, &src_hosts)| {
                (src_tor.index(), src_hosts as f64 * dst_hosts as f64 * unit)
            })
            .collect();
        dag_of_tor.insert(dst_tor, dags.len());
        dags.push(RefDag {
            dst: dst_tor.index(),
            inject,
            next_hops,
        });
    }

    let reps: Vec<NodeId> = topo
        .pods(Layer::Tor)
        .iter()
        .filter_map(|pod| pod.iter().copied().find(|t| dag_of_tor.contains_key(t)))
        .collect();
    let mut pod_pairs = Vec::new();
    for &src in &reps {
        for &dst in reps.iter().filter(|&&dst| dst != src) {
            pod_pairs.push((src.index(), dst.index(), dag_of_tor[&dst]));
        }
    }
    RefInput {
        edges,
        edge_alive,
        pod_pairs,
        dags,
    }
}

fn assert_matches_reference(net: &Network, label: &str) {
    let input = net.quality_input();
    let want = reference_extract(net);
    assert_eq!(input.edge_alive, want.edge_alive, "{label}: edge liveness");
    assert_eq!(input.pod_pairs, want.pod_pairs, "{label}: pod pairs");
    assert_eq!(
        input.dags.len(),
        want.dags.len(),
        "{label}: one DAG per rack"
    );
    for (dag, reference) in input.dags.iter().zip(&want.dags) {
        assert_eq!(
            (dag.dst, &dag.inject),
            (reference.dst, &reference.inject),
            "{label}"
        );
        for u in 0..input.nodes {
            let got: Vec<(usize, usize)> = input
                .hops_of(dag, u)
                .iter()
                .map(|&e| (e as usize, input.edge_head[e as usize] as usize))
                .collect();
            let listed = reference.next_hops.get(&u).cloned().unwrap_or_default();
            assert_eq!(got, listed, "{label}: node {u}'s row toward {}", dag.dst);
        }
    }

    let bits = |loads: &LinkLoads| -> Vec<u64> {
        let totals = [loads.delivered, loads.undeliverable, loads.injected];
        loads
            .per_edge
            .iter()
            .chain(&totals)
            .map(|x| x.to_bits())
            .collect()
    };
    let loads = LinkLoads::propagate(&input);
    assert_eq!(
        bits(&loads),
        bits(&reference_propagate(&want)),
        "{label}: per-edge loads"
    );
    let counts = pod_pair_diversity(&input);
    assert_eq!(
        counts.len(),
        input.pod_pairs.len(),
        "{label}: every pair scored"
    );
    assert_eq!(
        counts,
        reference_diversity(&want),
        "{label}: disjoint-path counts"
    );
}

#[test]
fn dense_snapshot_matches_the_reference_on_k8_conditions() {
    let config = ConditionConfig::default();
    let fail_at = SimTime::ZERO + dcn_sim::SimDuration::from_millis(config.fail_at_ms);
    let cells = [
        (Design::FatTree, RecoveryMode::OspfReconvergence),
        (Design::F2Tree, RecoveryMode::F2TreeRewiring),
        (Design::F2Tree, RecoveryMode::PrecomputedFrr),
        (Design::F2Tree, RecoveryMode::OspfReconvergence),
    ];
    for (design, mode) in cells {
        let emu = ConditionConfig {
            recovery: mode,
            ..config
        }
        .emu_config();
        let healthy = TestBed::build_with_config(design, config.k, config.hosts_per_tor, emu)
            .expect("k = 8 builds");
        assert_matches_reference(&healthy.net, &format!("{design} {mode} healthy"));
        for condition in Condition::ALL {
            if condition.requires_across_links() && design == Design::FatTree {
                continue;
            }
            let mut bed = TestBed::build_with_config(design, config.k, config.hosts_per_tor, emu)
                .expect("k = 8 builds");
            let (udp, _) = bed.add_aligned_probes(SimTime::ZERO);
            let anatomy = bed.path_anatomy(udp);
            for link in bed.scenario_links(&anatomy, condition) {
                bed.net.fail_link_at(fail_at, link);
            }
            bed.net.run_until(fail_at + mid_failover_offset());
            assert_matches_reference(
                &bed.net,
                &format!("{design} {mode} {condition:?} mid-failover"),
            );
        }
    }
}
