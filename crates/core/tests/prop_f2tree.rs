//! Property-based tests of the F²Tree rewiring invariants across sizes.

use dcn_net::scalability::F2TreeDimensions;
use dcn_net::{Layer, LinkClass};
use f2tree::{layer_backup_summary, network_backup_routes, F2TreeNetwork};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At every even k, the rewired network matches Table I, stays
    /// connected, respects port budgets, and gives every aggregation and
    /// core switch exactly two across links.
    #[test]
    fn rewiring_invariants(k in (2u32..=8).prop_map(|h| h * 2)) {
        let net = F2TreeNetwork::build(k).unwrap();
        let topo = &net.topology;
        let dims = F2TreeDimensions::for_ports(k);
        prop_assert_eq!(topo.switch_count() as u64, dims.switches());
        prop_assert_eq!(topo.host_count() as u64, dims.nodes());
        prop_assert!(topo.is_connected());
        for node in topo.nodes().filter(|n| n.kind().is_switch()) {
            prop_assert!(topo.degree(node.id()) <= k as usize);
            let across = topo.across_links(node.id()).len();
            match node.layer().unwrap() {
                Layer::Tor => prop_assert_eq!(across, 0),
                Layer::Agg | Layer::Core => prop_assert_eq!(across, 2),
            }
        }
    }

    /// Backup routes always point over across links at ring neighbors,
    /// with the rightward prefix strictly longer than the leftward.
    #[test]
    fn backup_route_invariants(k in (2u32..=8).prop_map(|h| h * 2)) {
        let net = F2TreeNetwork::build(k).unwrap();
        for (owner, routes) in network_backup_routes(&net) {
            let [right, left] = &routes[..] else {
                panic!("two backup routes per switch, got {}", routes.len());
            };
            prop_assert!(right.prefix.len() > left.prefix.len());
            for route in [right, left] {
                prop_assert_eq!(route.next_hops.len(), 1);
                let hop = route.next_hops[0];
                let link = net.topology.link(hop.link);
                prop_assert_eq!(link.class(), LinkClass::Across);
                prop_assert_eq!(link.other_end(owner), hop.node);
            }
            let ring = net.ring_of(owner).expect("owner is in a ring");
            prop_assert_eq!(Some(right.next_hops[0].node), ring.right(owner, 1).map(|(n, _)| n));
            prop_assert_eq!(Some(left.next_hops[0].node), ring.left(owner, 1).map(|(n, _)| n));
        }
    }

    /// The §II-A counts hold at every size: downward links gain exactly 2
    /// immediate backups; upward links have N/2.
    #[test]
    fn backup_counts_match_the_paper(k in (2u32..=8).prop_map(|h| h * 2)) {
        let net = F2TreeNetwork::build(k).unwrap();
        let s = layer_backup_summary(&net.topology, Layer::Agg);
        prop_assert_eq!(s.downward_min, 2);
        prop_assert_eq!(s.upward_min, (k / 2) as usize);
    }

    /// Removing any one ring entirely still leaves the fabric connected
    /// (across links are pure redundancy, not articulation edges).
    #[test]
    fn across_links_are_pure_redundancy(
        k in (2u32..=6).prop_map(|h| h * 2),
        pick: prop::sample::Index,
    ) {
        let net = F2TreeNetwork::build(k).unwrap();
        let mut topo = net.topology.clone();
        let rings: Vec<_> = net.agg_rings.iter().chain(net.core_rings.iter()).collect();
        let ring = rings[pick.index(rings.len())];
        for &link in ring.chords.iter().flatten() {
            topo.remove_link(link).unwrap();
        }
        prop_assert!(topo.is_connected());
    }
}
