//! Protocol-level convergence: after any set of link failures and a full
//! LSA exchange, every router's OSPF routes agree with a global
//! shortest-path oracle computed on the surviving topology.

use dcn_net::{FatTree, FlowKey, Ipv4Addr, Layer, LinkId, NodeId, Protocol, Topology};
use dcn_routing::{compute_routes, Adjacency, Lsa, RouterConfig, RouterProcess, SpfTable};
use dcn_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Builds one router per switch of a k=4 fat tree, with ToRs advertising
/// synthetic /24s, and returns (topology, routers by node).
fn build_routers() -> (Topology, HashMap<NodeId, RouterProcess>) {
    let topo = FatTree::new(4).unwrap().hosts_per_tor(0).build();
    let mut routers = HashMap::new();
    for node in topo.nodes().filter(|n| n.kind().is_switch()) {
        let interfaces: Vec<Adjacency> = topo
            .neighbors(node.id())
            .map(|(link, neighbor)| Adjacency { neighbor, link })
            .collect();
        let prefixes = if node.layer() == Some(Layer::Tor) {
            vec![dcn_net::Prefix::truncating(
                Ipv4Addr::new(10, 11, node.id().as_u32() as u8, 0),
                24,
            )]
        } else {
            Vec::new()
        };
        routers.insert(
            node.id(),
            RouterProcess::new(node.id(), RouterConfig::default(), interfaces, prefixes),
        );
    }
    (topo, routers)
}

/// Synchronously runs the control plane to convergence: detections, then
/// repeated full LSA exchange until no database changes, then SPF+install
/// everywhere.
fn converge(topo: &Topology, routers: &mut HashMap<NodeId, RouterProcess>, dead: &[LinkId]) {
    let now = SimTime::ZERO + SimDuration::from_millis(100);
    let mut scratch = Vec::new();
    // Detections at both endpoints.
    for &link in dead {
        let (a, b) = topo.link(link).endpoints();
        for node in [a, b] {
            if let Some(r) = routers.get_mut(&node) {
                r.on_link_detected(now, link, false, &mut scratch);
            }
        }
    }
    // Flood to fixpoint: collect every router's current LSA, give it to
    // everyone (ideal flooding — the emulator tests cover packetized
    // flooding).
    let lsas: Vec<Arc<Lsa>> = routers.values_mut().map(|r| r.originate_lsa()).collect();
    let switch_ids: Vec<NodeId> = routers.keys().copied().collect();
    for node in &switch_ids {
        let router = routers.get_mut(node).unwrap();
        for lsa in &lsas {
            if lsa.origin != *node {
                scratch.clear();
                router.on_lsa(now, lsa.clone(), topo.neighbors(*node).next().unwrap().0, &mut scratch);
            }
        }
    }
    // SPF + immediate install, every run reading one shared table.
    let mut table = SpfTable::default();
    for node in &switch_ids {
        let router = routers.get_mut(node).unwrap();
        scratch.clear();
        router.on_spf_timer(now + SimDuration::from_millis(200), &mut table, &mut scratch);
        for action in scratch.drain(..) {
            if let dcn_routing::RouterAction::Install {
                generation, delta, ..
            } = action
            {
                router.on_install(generation, delta);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After convergence on any failed-link subset, each router's routes
    /// equal the oracle: SPF over the global surviving LSDB.
    #[test]
    fn every_router_agrees_with_the_global_oracle(dead_mask: u32) {
        let (topo, mut routers) = build_routers();
        let fabric: Vec<LinkId> = topo.links().map(|l| l.id()).collect();
        let dead: Vec<LinkId> = fabric
            .iter()
            .enumerate()
            .filter(|&(i, _)| (dead_mask >> (i % 32)) & 1 == 1)
            .map(|(_, &l)| l)
            .take(6) // bounded damage keeps most destinations reachable
            .collect();

        converge(&topo, &mut routers, &dead);

        // Oracle LSDB: every router's post-convergence self-LSA.
        let mut oracle = dcn_routing::Lsdb::new();
        for router in routers.values() {
            oracle.install(router.lsdb().get(router.node()).unwrap().clone());
        }

        for (node, router) in &routers {
            let want = compute_routes(&oracle, *node);
            let have: Vec<_> = router
                .fib()
                .routes()
                .filter(|r| r.origin == dcn_routing::RouteOrigin::Ospf)
                .collect();
            prop_assert_eq!(
                have.len(),
                want.len(),
                "route count at {} with dead {:?}",
                node,
                &dead
            );
            for (h, w) in have.iter().zip(want.iter()) {
                prop_assert_eq!(h.prefix, w.prefix, "prefix order at {}", node);
                prop_assert_eq!(&h.next_hops, &w.next_hops, "hops for {} at {}", h.prefix, node);
                prop_assert_eq!(h.metric, w.metric, "metric for {} at {}", h.prefix, node);
            }
        }
    }

    /// Forwarding after convergence is loop-free: walking FIBs hop by hop
    /// from any switch reaches an advertised destination or runs out of
    /// routes — it never cycles.
    #[test]
    fn converged_forwarding_is_loop_free(dead_mask: u32, dst_pick: prop::sample::Index) {
        let (topo, mut routers) = build_routers();
        let fabric: Vec<LinkId> = topo.links().map(|l| l.id()).collect();
        let dead: Vec<LinkId> = fabric
            .iter()
            .enumerate()
            .filter(|&(i, _)| (dead_mask >> (i % 32)) & 1 == 1)
            .map(|(_, &l)| l)
            .take(6)
            .collect();
        converge(&topo, &mut routers, &dead);

        let tors: Vec<NodeId> = topo.layer_switches(Layer::Tor).collect();
        let dst_tor = tors[dst_pick.index(tors.len())];
        let dst = Ipv4Addr::new(10, 11, dst_tor.as_u32() as u8, 5);
        let flow = FlowKey::new(Ipv4Addr::new(10, 12, 0, 1), dst, 7, 9, Protocol::Udp);

        for &start in routers.keys() {
            let mut current = start;
            let mut hops = 0;
            loop {
                if current == dst_tor {
                    break; // delivered
                }
                match routers[&current].forward(&flow) {
                    Some(hop) => current = hop.node,
                    None => break, // unreachable after damage — fine
                }
                hops += 1;
                prop_assert!(
                    hops <= topo.switch_count(),
                    "loop from {} toward {} with dead {:?}",
                    start,
                    dst_tor,
                    &dead
                );
            }
        }
    }
}
