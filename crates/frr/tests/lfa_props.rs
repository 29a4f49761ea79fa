//! Property suite for the precomputed failure map (ISSUE 8 satellite):
//!
//! 1. every next hop of every repair route in the map's plans satisfies
//!    the LFA loop-freedom inequality `dist(N, D) < dist(N, S) + dist(S, D)`
//!    at the distance the route's metric names, and
//! 2. under every single-link failure, the post-failure forwarding graph
//!    toward each destination — primary ECMP hops with dead-hop pruning,
//!    plus the map's repair hops where every primary died — is acyclic.
//!
//! Sampled over fat-tree, leaf-spine, and VL2 topologies × failed links,
//! plus exhaustive sweeps on fixed instances (including an across-ring
//! cell, so the remote-LFA tier is covered too).

use std::collections::{BTreeMap, BTreeSet};

use dcn_frr::{compute_distances, compute_failure_map, OspfDistances};
use dcn_net::{
    assign_addresses, FatTree, Layer, LeafSpine, LinkClass, LinkId, NodeId, PodId, Prefix,
    Topology, Vl2,
};
use dcn_routing::{FibOp, FrrPlan, NextHop};
use proptest::prelude::*;

/// Builds one of the three sampled topology families.
fn build_topology(family: usize, a: u32, b: u32) -> Topology {
    match family {
        0 => FatTree::new(4 + 2 * (a % 2))
            .unwrap()
            .hosts_per_tor(1)
            .build(),
        1 => LeafSpine::new(2 + a % 4, 2 + b % 3)
            .unwrap()
            .hosts_per_leaf(1)
            .build(),
        _ => Vl2::new(4 + 2 * (a % 2), 4)
            .unwrap()
            .hosts_per_tor(1)
            .build(),
    }
}

fn switch_origins(topo: &mut Topology) -> BTreeMap<NodeId, Vec<Prefix>> {
    let plan = assign_addresses(topo).unwrap();
    topo.nodes()
        .filter(|n| n.kind().is_switch())
        .map(|n| n.id())
        .map(|id| (id, plan.subnet_of(id).into_iter().collect()))
        .collect()
}

/// Switch-to-switch links (the ones whose failure the map covers).
fn fabric_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|l| topo.node(l.a()).kind().is_switch() && topo.node(l.b()).kind().is_switch())
        .map(|l| l.id())
        .collect()
}

/// The map's per-switch plans.
type Plans = BTreeMap<NodeId, FrrPlan>;

/// The destination prefixes and the plans that repair routes to them.
type Repairs<'a> = (&'a BTreeMap<NodeId, Vec<Prefix>>, &'a Plans);

/// The repair next hops `plans` hold at `s` toward `origin` for the
/// failure of `failed`: every prefix of one origin carries the same
/// hops, so its first prefix stands for all.
fn repair<'a>(
    plans: &'a Plans,
    origins: &BTreeMap<NodeId, Vec<Prefix>>,
    s: NodeId,
    failed: LinkId,
    origin: NodeId,
) -> Option<&'a [NextHop]> {
    let prefix = origins.get(&origin)?.first()?;
    let delta = plans.get(&s)?.get(&failed)?;
    delta.ops.iter().find_map(|op| match op {
        FibOp::Insert(r) if r.prefix == *prefix => Some(&*r.next_hops),
        _ => None,
    })
}

/// Asserts the loop-freedom inequality for every repair route's next
/// hops, each at the distance `metric − 1` the route was written with;
/// the route's prefix names its origin through `origins`.
fn assert_inequality(
    topo: &Topology,
    passive: &BTreeSet<LinkId>,
    origins: &BTreeMap<NodeId, Vec<Prefix>>,
    plans: &Plans,
) {
    let dist = compute_distances(topo, passive);
    let origin_of: BTreeMap<Prefix, NodeId> = origins
        .iter()
        .flat_map(|(&origin, prefixes)| prefixes.iter().map(move |&p| (p, origin)))
        .collect();
    for (&s, plan) in plans {
        for (&failed, delta) in plan {
            for op in &delta.ops {
                let FibOp::Insert(route) = op else {
                    panic!("a repair plan only installs, got {op:?}");
                };
                let origin = origin_of[&route.prefix];
                assert!(!route.next_hops.is_empty());
                for hop in route.next_hops.iter() {
                    assert_ne!(hop.link, failed, "alternate must avoid the failed link");
                    let d_nd = dist.get(hop.node, origin).expect("alternate reaches D");
                    let d_ns = dist.get(hop.node, s).expect("alternate reaches S");
                    let d_sd = dist.get(s, origin).expect("S reaches D pre-failure");
                    assert_eq!(d_nd, route.metric - 1, "the metric is one past dist(N, D)");
                    assert!(
                        d_nd < d_ns + d_sd,
                        "LFA inequality violated at {s}→{origin} via {}: \
                         dist(N,D)={d_nd} !< dist(N,S)={d_ns} + dist(S,D)={d_sd}",
                        hop.node,
                    );
                }
            }
        }
    }
}

/// Post-failure forwarding successors of `x` toward `origin` when
/// `failed` is down: live primary ECMP hops, else the precomputed repair
/// hops, else none (blackhole — legal, but must not loop).
fn successors(
    topo: &Topology,
    passive: &BTreeSet<LinkId>,
    dist: &OspfDistances,
    (origins, plans): Repairs<'_>,
    x: NodeId,
    origin: NodeId,
    failed: LinkId,
) -> Vec<NodeId> {
    if x == origin {
        return Vec::new();
    }
    let Some(d_x) = dist.get(x, origin) else {
        return Vec::new();
    };
    let mut live = Vec::new();
    let mut any_primary = false;
    for (link, nbr) in topo.neighbors(x) {
        if passive.contains(&link) || !topo.node(nbr).kind().is_switch() {
            continue;
        }
        if dist.get(nbr, origin).map(|d| d + 1) == Some(d_x) {
            any_primary = true;
            if link != failed {
                live.push(nbr);
            }
        }
    }
    if !live.is_empty() || !any_primary {
        return live;
    }
    match repair(plans, origins, x, failed, origin) {
        Some(hops) => hops.iter().map(|h| h.node).collect(),
        None => Vec::new(),
    }
}

/// DFS three-coloring: panics on any directed cycle toward `origin`.
fn assert_acyclic_toward(
    topo: &Topology,
    passive: &BTreeSet<LinkId>,
    dist: &OspfDistances,
    repairs: Repairs<'_>,
    origin: NodeId,
    failed: LinkId,
) {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; topo.node_slots()];
    for start in topo.nodes().filter(|n| n.kind().is_switch()) {
        if color[start.id().index()] != WHITE {
            continue;
        }
        // Iterative DFS with an explicit stack of (node, next-child).
        let mut stack = vec![(start.id(), 0usize)];
        color[start.id().index()] = GRAY;
        while let Some(&mut (at, ref mut child)) = stack.last_mut() {
            let succ = successors(topo, passive, dist, repairs, at, origin, failed);
            if *child >= succ.len() {
                color[at.index()] = BLACK;
                stack.pop();
                continue;
            }
            let next = succ[*child];
            *child += 1;
            match color[next.index()] {
                WHITE => {
                    color[next.index()] = GRAY;
                    stack.push((next, 0));
                }
                GRAY => panic!(
                    "forwarding loop toward {origin} after failing {failed}: \
                     {next} is on the active DFS path from {at}"
                ),
                _ => {}
            }
        }
    }
}

fn check_every_destination(
    topo: &Topology,
    passive: &BTreeSet<LinkId>,
    origins: &BTreeMap<NodeId, Vec<Prefix>>,
    plans: &Plans,
    failed: LinkId,
) {
    let dist = compute_distances(topo, passive);
    for (&origin, prefixes) in origins {
        if prefixes.is_empty() {
            continue;
        }
        assert_acyclic_toward(topo, passive, &dist, (origins, plans), origin, failed);
    }
}

proptest! {
    /// Sampled topologies × failed links: inequality + acyclicity.
    #[test]
    fn sampled_single_link_failures_stay_loop_free(
        family in 0usize..3,
        a in 0u32..8,
        b in 0u32..8,
        link_pick: u64,
    ) {
        let mut topo = build_topology(family, a, b);
        let origins = switch_origins(&mut topo);
        let passive = BTreeSet::new();
        let plans = compute_failure_map(&topo, &passive, &origins).into_plans();
        assert_inequality(&topo, &passive, &origins, &plans);
        let links = fabric_links(&topo);
        prop_assert!(!links.is_empty());
        let failed = links[(link_pick % links.len() as u64) as usize];
        check_every_destination(&topo, &passive, &origins, &plans, failed);
    }
}

#[test]
fn fat_tree_k4_exhaustive_all_links() {
    let mut topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
    let origins = switch_origins(&mut topo);
    let passive = BTreeSet::new();
    let plans = compute_failure_map(&topo, &passive, &origins).into_plans();
    assert_inequality(&topo, &passive, &origins, &plans);
    for failed in fabric_links(&topo) {
        check_every_destination(&topo, &passive, &origins, &plans, failed);
    }
}

/// An F²Tree-style agg ring (three pods of paired aggs over ToRs, ring
/// of passive across links) exercises the remote-LFA tier end to end:
/// every agg→ToR downlink failure must be repaired via the ring and stay
/// loop-free, for every destination and failed link.
#[test]
fn across_ring_exhaustive_remote_lfa_loop_free() {
    let mut topo = Topology::new("ring", None);
    let mut tors = Vec::new();
    let mut aggs = Vec::new();
    for pod in 0..3u32 {
        let t0 = topo.add_switch(format!("t{pod}0"), Layer::Tor, PodId::new(pod), 0);
        let t1 = topo.add_switch(format!("t{pod}1"), Layer::Tor, PodId::new(pod), 1);
        let a0 = topo.add_switch(format!("a{pod}0"), Layer::Agg, PodId::new(pod), 0);
        let a1 = topo.add_switch(format!("a{pod}1"), Layer::Agg, PodId::new(pod), 1);
        for &tor in &[t0, t1] {
            for &agg in &[a0, a1] {
                topo.add_link(agg, tor, LinkClass::Vertical).unwrap();
            }
            let host = topo.add_host(format!("h{tor}"));
            topo.add_link(tor, host, LinkClass::HostAccess).unwrap();
        }
        tors.extend([t0, t1]);
        aggs.extend([a0, a1]);
    }
    // A spine joins the pods (so inter-pod routes exist) …
    let spine = topo.add_switch("c0", Layer::Core, PodId::new(0), 0);
    for &agg in &aggs {
        topo.add_link(spine, agg, LinkClass::Vertical).unwrap();
    }
    // … and the across ring pairs the aggs of each pod (the rewiring).
    let mut passive = BTreeSet::new();
    for pair in aggs.chunks(2) {
        passive.insert(topo.add_link(pair[0], pair[1], LinkClass::Across).unwrap());
    }
    let origins = switch_origins(&mut topo);
    let map = compute_failure_map(&topo, &passive, &origins);
    // The ring must repair every agg→ToR downlink (the uncovered class
    // on plain fat trees).
    assert!(map.stats().remote_lfa > 0);
    let plans = map.into_plans();
    assert_inequality(&topo, &passive, &origins, &plans);
    for (pod, pair) in aggs.chunks(2).enumerate() {
        for &agg in pair {
            for &tor in &tors[2 * pod..2 * pod + 2] {
                let failed = topo.link_between(agg, tor).unwrap();
                assert!(
                    repair(&plans, &origins, agg, failed, tor).is_some(),
                    "across ring must cover {agg}→{tor}"
                );
            }
        }
    }
    for failed in fabric_links(&topo) {
        check_every_destination(&topo, &passive, &origins, &plans, failed);
    }
}
