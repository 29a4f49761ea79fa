//! SPF never computes a cyclic next-hop graph, no matter which links die.
//!
//! This is the SPF-level half of the chaos loop-freedom oracle (the
//! protocol-level half — FIB walks after emulated convergence — lives in
//! `convergence.rs` and `crates/chaos`): for *any* failed-link subset, the
//! union of all ECMP next hops that `compute_routes` emits toward a given
//! prefix must form a DAG over the surviving topology. A cycle here would
//! mean even perfectly synchronized routers forward in circles.

use dcn_net::{FatTree, Ipv4Addr, Layer, LeafSpine, LinkId, NodeId, Prefix, Topology};
use dcn_routing::{compute_routes, Adjacency, Lsa, Lsdb};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The global LSDB of a fully converged control plane: one LSA per
/// switch, advertising exactly the adjacencies that survive `dead`.
fn converged_lsdb(topo: &Topology, dead: &[LinkId]) -> Lsdb {
    let mut lsdb = Lsdb::new();
    for node in topo.nodes().filter(|n| n.kind().is_switch()) {
        let neighbors: Vec<Adjacency> = topo
            .neighbors(node.id())
            .filter(|(link, _)| !dead.contains(link))
            .filter(|(_, peer)| topo.node(*peer).kind().is_switch())
            .map(|(link, neighbor)| Adjacency { neighbor, link })
            .collect();
        let prefixes = if node.layer() == Some(Layer::Tor) {
            vec![Prefix::truncating(
                Ipv4Addr::new(10, 11, node.id().as_u32() as u8, 0),
                24,
            )]
        } else {
            Vec::new()
        };
        lsdb.install(Lsa {
            origin: node.id(),
            seq: 1,
            neighbors,
            prefixes,
        });
    }
    lsdb
}

/// DFS three-color cycle detection over `edges`.
fn has_cycle(edges: &BTreeMap<NodeId, Vec<NodeId>>) -> bool {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color: BTreeMap<NodeId, u8> = edges.keys().map(|&n| (n, WHITE)).collect();
    fn visit(
        n: NodeId,
        edges: &BTreeMap<NodeId, Vec<NodeId>>,
        color: &mut BTreeMap<NodeId, u8>,
    ) -> bool {
        color.insert(n, GRAY);
        for &next in edges.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            match color.get(&next).copied().unwrap_or(WHITE) {
                GRAY => return true,
                WHITE => {
                    if visit(next, edges, color) {
                        return true;
                    }
                }
                _ => {}
            }
        }
        color.insert(n, BLACK);
        false
    }
    let nodes: Vec<NodeId> = color.keys().copied().collect();
    for n in nodes {
        if color[&n] == WHITE && visit(n, edges, &mut color) {
            return true;
        }
    }
    false
}

/// Checks the property on one topology for one dead-link subset.
fn assert_acyclic_next_hops(topo: &Topology, dead: &[LinkId]) {
    let lsdb = converged_lsdb(topo, dead);
    let switches: Vec<NodeId> = topo
        .nodes()
        .filter(|n| n.kind().is_switch())
        .map(|n| n.id())
        .collect();

    // Per destination prefix, the union of every router's ECMP next hops.
    let mut per_prefix: BTreeMap<Prefix, BTreeMap<NodeId, Vec<NodeId>>> = BTreeMap::new();
    for &node in &switches {
        for route in compute_routes(&lsdb, node) {
            let entry = per_prefix.entry(route.prefix).or_default();
            entry
                .entry(node)
                .or_default()
                .extend(route.next_hops.iter().map(|h| h.node));
        }
    }

    for (prefix, edges) in &per_prefix {
        assert!(
            !has_cycle(edges),
            "next-hop cycle toward {prefix} with dead links {dead:?}"
        );
    }
}

fn dead_subset(topo: &Topology, mask: u64, max: usize) -> Vec<LinkId> {
    topo.links()
        .map(|l| l.id())
        .enumerate()
        .filter(|&(i, _)| (mask >> (i % 64)) & 1 == 1)
        .map(|(_, l)| l)
        .take(max)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fat tree k=4: any subset of up to 8 failed links leaves the SPF
    /// next-hop graph acyclic for every advertised prefix.
    #[test]
    fn fat_tree_spf_next_hops_never_cycle(mask: u64) {
        let topo = FatTree::new(4).unwrap().hosts_per_tor(0).build();
        let dead = dead_subset(&topo, mask, 8);
        assert_acyclic_next_hops(&topo, &dead);
    }

    /// Leaf-spine: same property on the two-tier topology.
    #[test]
    fn leaf_spine_spf_next_hops_never_cycle(mask: u64) {
        let topo = LeafSpine::new(4, 3).unwrap().build();
        let dead = dead_subset(&topo, mask, 6);
        assert_acyclic_next_hops(&topo, &dead);
    }
}

/// Degenerate damage is handled too: with *every* link dead, SPF emits no
/// routes at all rather than stale ones.
#[test]
fn total_damage_yields_no_routes() {
    let topo = FatTree::new(4).unwrap().hosts_per_tor(0).build();
    let dead: Vec<LinkId> = topo.links().map(|l| l.id()).collect();
    let lsdb = converged_lsdb(&topo, &dead);
    for node in topo.nodes().filter(|n| n.kind().is_switch()) {
        let routes = compute_routes(&lsdb, node.id());
        // Only the router's own prefixes (if any) may remain.
        for r in &routes {
            assert!(r.next_hops.is_empty() || r.metric == 0, "stale route {r:?}");
        }
    }
}
