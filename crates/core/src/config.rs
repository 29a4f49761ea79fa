//! Backup static-route configuration (paper §II-B, Table II; §II-C).
//!
//! Each ring member gets one static route per across link, deliberately
//! with *different* prefix lengths: its rightward links first (distance 1,
//! 2, …), then its leftward ones, each route one bit shorter than the one
//! before, starting at the DCN prefix. On the paper's two-port ring that
//! is exactly Table II's pair:
//!
//! * the **DCN prefix** (`10.11.0.0/16`) via the **rightward** across
//!   link, and
//! * the shorter **covering prefix** (`10.10.0.0/15`) via the
//!   **leftward** across link.
//!
//! All are shorter than any OSPF-learned /24 rack subnet, so they sit
//! inert in the FIB until every longer match is locally dead — and the
//! length asymmetry makes rerouted packets flow *rightward* around the
//! ring, avoiding the two-adjacent-failure loop of Fig. 3(b). The routes
//! are local-only (never redistributed), which in this model simply means
//! they are installed with [`RouteOrigin::Static`] and never appear in
//! LSAs.

use dcn_net::{NodeId, PodRing, Prefix, DCN_PREFIX};
use dcn_routing::{NextHop, Route, RouteOrigin};

use crate::rewire::F2TreeNetwork;

/// The backup routes for one switch, longest prefix first.
pub type SwitchBackup = (NodeId, Vec<Route>);

/// Generates the `2 · reach` backup routes of every member of `ring`:
/// rightward chords first (distance 1 first), then leftward, from the DCN
/// prefix down one bit per route. The prefix runs out at /1, so a ring
/// reaching further than 8 gets only its first 16 routes;
/// [`rewire_fat_tree`](crate::rewire_fat_tree) never builds one.
pub fn ring_backup_routes(ring: &PodRing) -> Vec<SwitchBackup> {
    let reach = ring.reach();
    ring.members
        .iter()
        .map(|&member| {
            let rightward = (1..=reach).filter_map(|d| ring.right(member, d));
            let leftward = (1..=reach).filter_map(|d| ring.left(member, d));
            let routes = rightward
                .chain(leftward)
                .zip((1..=DCN_PREFIX.len()).rev())
                .map(|((node, link), len)| {
                    Route::new(
                        Prefix::truncating(DCN_PREFIX.addr(), len),
                        RouteOrigin::Static,
                        0,
                        vec![NextHop { node, link }],
                    )
                })
                .collect();
            (member, routes)
        })
        .collect()
}

/// Generates the full backup configuration for an F²Tree network: the
/// static routes of every aggregation and core switch (on the paper's
/// design, Table II's last two rows, replicated everywhere).
pub fn network_backup_routes(network: &F2TreeNetwork) -> Vec<SwitchBackup> {
    network
        .agg_rings
        .iter()
        .chain(network.core_rings.iter())
        .flat_map(ring_backup_routes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{Layer, LinkId};

    #[test]
    fn every_agg_and_core_switch_gets_exactly_two_backups() {
        let net = F2TreeNetwork::build(8).unwrap();
        let backups = network_backup_routes(&net);
        let expected =
            net.topology.layer_switches(Layer::Agg).count()
                + net.topology.layer_switches(Layer::Core).count();
        assert_eq!(backups.len(), expected);
        for (_, routes) in &backups {
            assert_eq!(routes.len(), 2);
            for route in routes {
                assert_eq!(route.origin, RouteOrigin::Static);
                assert_eq!(route.next_hops.len(), 1);
            }
        }
    }

    #[test]
    fn rightward_route_has_the_longer_prefix() {
        // Table II: the /16 goes right, the /15 goes left.
        let net = F2TreeNetwork::build(8).unwrap();
        for (_, routes) in network_backup_routes(&net) {
            assert_eq!(routes[0].prefix.to_string(), "10.11.0.0/16");
            assert_eq!(routes[1].prefix.to_string(), "10.10.0.0/15");
        }
    }

    #[test]
    fn next_hops_follow_the_ring_direction() {
        let net = F2TreeNetwork::build(8).unwrap();
        let ring = &net.agg_rings[0];
        for (member, routes) in ring_backup_routes(ring) {
            let hop = |(node, link)| NextHop { node, link };
            assert_eq!(Some(routes[0].next_hops[0]), ring.right(member, 1).map(hop));
            assert_eq!(Some(routes[1].next_hops[0]), ring.left(member, 1).map(hop));
        }
    }

    #[test]
    fn two_member_ring_uses_distinct_parallel_links() {
        // The k=4 testbed: rings of two switches joined by two parallel
        // links; right and left must use different links or the C6
        // fallback breaks.
        let net = F2TreeNetwork::build_with_hosts(4, 1).unwrap();
        for ring in net.agg_rings.iter().chain(net.core_rings.iter()) {
            for (_, routes) in ring_backup_routes(ring) {
                assert_ne!(routes[0].next_hops[0].link, routes[1].next_hops[0].link);
            }
        }
    }

    #[test]
    fn backup_links_are_across_links() {
        let net = F2TreeNetwork::build(6).unwrap();
        let across: std::collections::HashSet<LinkId> =
            net.across_links().into_iter().collect();
        for (_, routes) in network_backup_routes(&net) {
            for route in routes {
                assert!(across.contains(&route.next_hops[0].link));
            }
        }
    }
}
