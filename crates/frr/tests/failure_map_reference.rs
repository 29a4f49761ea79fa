//! The failure-map reference oracle: `compute_failure_map` — which
//! decides each (switch, destination) once and reads distances from one
//! flat matrix — must equal the loop nest it replaced, value for value.
//!
//! The [`reference`] module is `compute_failure_map` + `compute_distances`
//! as `dcn-frr` shipped them before, kept verbatim as test-only code (its
//! `FailureMap` has public fields, nothing else differs). It shares
//! nothing with the crate but the value types, so agreement under random
//! damage is evidence about the new loop, not about a common helper.

use std::collections::{BTreeMap, BTreeSet};

use dcn_frr::{compute_distances, compute_failure_map};
use dcn_net::{
    assign_addresses, FatTree, Layer, LinkClass, LinkId, NodeId, PodId, Prefix, Topology,
};
use f2tree::F2TreeNetwork;
use proptest::prelude::*;

mod reference {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    use dcn_frr::{Alternate, AlternateKind, FrrStats};
    use dcn_net::{LinkId, NodeId, Prefix, Topology};
    use dcn_routing::{FibDelta, FibOp, FrrPlan, NextHop, Route, RouteOrigin};

    /// The pre-matrix `OspfDistances`: one `node_slots`-wide row per node
    /// slot, hosts included.
    pub struct OspfDistances {
        dist: Vec<Vec<u32>>,
    }

    impl OspfDistances {
        pub fn get(&self, from: NodeId, to: NodeId) -> Option<u32> {
            let d = *self.dist.get(from.index())?.get(to.index())?;
            (d != u32::MAX).then_some(d)
        }
    }

    /// What the old `FailureMap` held, with its fields in the open.
    pub struct FailureMap {
        pub plans: BTreeMap<NodeId, FrrPlan>,
        pub alternates: BTreeMap<(NodeId, LinkId, NodeId), Alternate>,
        pub stats: FrrStats,
    }

    /// The pre-CSR `compute_distances`: one `VecDeque` BFS per switch
    /// over `Topology::neighbors`, probing the ordered passive set.
    pub fn compute_distances(topo: &Topology, passive: &BTreeSet<LinkId>) -> OspfDistances {
        let slots = topo.node_slots();
        let mut dist = vec![vec![u32::MAX; slots]; slots];
        for src in topo.nodes().filter(|n| n.kind().is_switch()) {
            let src = src.id();
            let row = &mut dist[src.index()];
            row[src.index()] = 0;
            let mut queue = VecDeque::from([src]);
            while let Some(at) = queue.pop_front() {
                let next = row[at.index()] + 1;
                for (link, nbr) in topo.neighbors(at) {
                    if passive.contains(&link) || !topo.node(nbr).kind().is_switch() {
                        continue;
                    }
                    if row[nbr.index()] == u32::MAX {
                        row[nbr.index()] = next;
                        queue.push_back(nbr);
                    }
                }
            }
        }
        OspfDistances { dist }
    }

    /// The pre-PR-24 `compute_failure_map`: switch × failed link × origin
    /// × adjacent, primaries recomputed for every failed link.
    pub fn compute_failure_map(
        topo: &Topology,
        passive: &BTreeSet<LinkId>,
        origins: &BTreeMap<NodeId, Vec<Prefix>>,
    ) -> FailureMap {
        let dist = compute_distances(topo, passive);
        let mut plans: BTreeMap<NodeId, FrrPlan> = BTreeMap::new();
        let mut alternates = BTreeMap::new();
        let mut stats = FrrStats::default();

        let switches: Vec<NodeId> = topo
            .nodes()
            .filter(|n| n.kind().is_switch())
            .map(|n| n.id())
            .collect();
        for &s in &switches {
            // Adjacent switch links, deduplicated (a multigraph lists
            // parallel links separately) and ordered for determinism.
            let mut adjacent: Vec<(LinkId, NodeId)> = topo
                .neighbors(s)
                .filter(|&(_, n)| topo.node(n).kind().is_switch())
                .collect();
            adjacent.sort();
            // Per failed link, the repair routes keyed by prefix.
            let mut repairs: BTreeMap<LinkId, BTreeMap<Prefix, Route>> = BTreeMap::new();
            for &(failed, _) in &adjacent {
                if passive.contains(&failed) {
                    // Passive links carry no OSPF primaries; their failure
                    // needs no repair route anywhere.
                    continue;
                }
                for (&origin, prefixes) in origins {
                    if origin == s || prefixes.is_empty() {
                        continue;
                    }
                    let Some(d_s) = dist.get(s, origin) else {
                        continue;
                    };
                    // Primary ECMP hops: non-passive neighbors one step
                    // closer to the origin.
                    let mut uses_failed = false;
                    let mut survivor = false;
                    for &(link, nbr) in &adjacent {
                        if passive.contains(&link) {
                            continue;
                        }
                        if dist.get(nbr, origin).map(|d| d + 1) == Some(d_s) {
                            if link == failed {
                                uses_failed = true;
                            } else {
                                survivor = true;
                            }
                        }
                    }
                    if !uses_failed {
                        continue; // this failure does not affect this origin
                    }
                    if survivor {
                        stats.ecmp_survivor += 1;
                        continue; // dead-hop pruning reroutes in place
                    }
                    // Tiers 2–3: any adjacent switch (OSPF or across) that
                    // passes the loop-freedom inequality, nearest tier wins.
                    let mut best: Option<(u32, Vec<(NextHop, AlternateKind)>)> = None;
                    for &(link, nbr) in &adjacent {
                        if link == failed {
                            continue;
                        }
                        let (Some(d_nd), Some(d_ns)) = (dist.get(nbr, origin), dist.get(nbr, s))
                        else {
                            continue;
                        };
                        if d_nd >= d_ns + d_s {
                            continue; // fails the inequality: may loop via S
                        }
                        let kind = if passive.contains(&link) {
                            AlternateKind::RemoteLfa
                        } else {
                            AlternateKind::Lfa
                        };
                        let hop = (NextHop { node: nbr, link }, kind);
                        match &mut best {
                            Some((d, hops)) if *d == d_nd => hops.push(hop),
                            Some((d, hops)) if *d > d_nd => {
                                *d = d_nd;
                                *hops = vec![hop];
                            }
                            None => best = Some((d_nd, vec![hop])),
                            _ => {}
                        }
                    }
                    let Some((distance, hops)) = best else {
                        stats.uncovered += 1;
                        continue;
                    };
                    let kind = if hops.iter().any(|(_, k)| *k == AlternateKind::Lfa) {
                        stats.lfa += 1;
                        AlternateKind::Lfa
                    } else {
                        stats.remote_lfa += 1;
                        AlternateKind::RemoteLfa
                    };
                    let next_hops: Vec<NextHop> = hops.into_iter().map(|(h, _)| h).collect();
                    alternates.insert(
                        (s, failed, origin),
                        Alternate {
                            next_hops: next_hops.clone(),
                            distance,
                            kind,
                        },
                    );
                    let routes = repairs.entry(failed).or_default();
                    for &prefix in prefixes {
                        routes.insert(
                            prefix,
                            Route::new(prefix, RouteOrigin::Frr, distance + 1, next_hops.clone()),
                        );
                    }
                }
            }
            if repairs.is_empty() {
                continue;
            }
            let plan: FrrPlan = repairs
                .into_iter()
                .map(|(link, routes)| {
                    let ops = routes.into_values().map(FibOp::Insert).collect();
                    (
                        link,
                        FibDelta {
                            origin: RouteOrigin::Frr,
                            ops,
                        },
                    )
                })
                .collect();
            plans.insert(s, plan);
        }

        FailureMap {
            plans,
            alternates,
            stats,
        }
    }
}

/// A fat tree or an F²Tree (across links passive, as the emulator marks
/// them) with `k` ports, addressed; every switch is an `origins` key —
/// ToRs with their rack subnet, the rest with no prefix.
fn fabric(f2: bool, k: u32) -> (Topology, BTreeSet<LinkId>, BTreeMap<NodeId, Vec<Prefix>>) {
    let mut topo = if f2 {
        F2TreeNetwork::build_with_hosts(k, 1).unwrap().topology
    } else {
        FatTree::new(k).unwrap().hosts_per_tor(1).build()
    };
    let plan = assign_addresses(&mut topo).unwrap();
    let passive = topo
        .links()
        .filter(|l| l.class() == LinkClass::Across)
        .map(|l| l.id())
        .collect();
    let origins = topo
        .nodes()
        .filter(|n| n.kind().is_switch())
        .map(|n| (n.id(), plan.subnet_of(n.id()).into_iter().collect()))
        .collect();
    (topo, passive, origins)
}

/// Live switch-to-switch links.
fn fabric_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|l| topo.node(l.a()).kind().is_switch() && topo.node(l.b()).kind().is_switch())
        .map(|l| l.id())
        .collect()
}

/// Equal plans for every node slot, equal alternates, equal counters,
/// and equal distances between every pair of node slots (hosts and
/// removed slots included: both sides must say `None`).
fn assert_same_map(
    topo: &Topology,
    passive: &BTreeSet<LinkId>,
    origins: &BTreeMap<NodeId, Vec<Prefix>>,
) {
    let got = compute_failure_map(topo, passive, origins);
    let want = reference::compute_failure_map(topo, passive, origins);
    assert_eq!(got.stats(), want.stats);
    assert_eq!(
        got.alternates().collect::<Vec<_>>(),
        want.alternates.iter().collect::<Vec<_>>()
    );
    let slots = (0..topo.node_slots() as u32).map(NodeId::new);
    for node in slots.clone() {
        assert_eq!(got.plan(node), want.plans.get(&node), "plan of {node}");
    }
    assert_eq!(got.into_plans(), want.plans);

    let got = compute_distances(topo, passive);
    let want = reference::compute_distances(topo, passive);
    for from in slots.clone() {
        for to in slots.clone() {
            assert_eq!(got.get(from, to), want.get(from, to), "{from} → {to}");
        }
    }
    let beyond = NodeId::new(topo.node_slots() as u32);
    assert_eq!(got.get(beyond, beyond), None);
}

#[test]
fn intact_fabrics_match_the_reference() {
    for k in [4, 6, 8] {
        for f2 in [false, true] {
            let (topo, passive, origins) = fabric(f2, k);
            assert_same_map(&topo, &passive, &origins);
            // The F²Tree map is not vacuous: the ring repairs downlinks.
            let stats = compute_failure_map(&topo, &passive, &origins).stats();
            assert!(stats.ecmp_survivor > 0 && stats.total() > stats.ecmp_survivor);
            assert_eq!(stats.remote_lfa > 0, f2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random damage: links removed, random links marked passive (on top
    /// of, or instead of, the across rings), one switch's prefix also
    /// advertised by another (the later origin's repair wins the prefix),
    /// and passive ids the topology never allocated.
    #[test]
    fn damaged_fabrics_match_the_reference(
        f2: bool,
        k in (2u32..5).prop_map(|half| 2 * half),
        keep_across_passive: bool,
        removed in prop::collection::vec(any::<u64>(), 0..8),
        marked in prop::collection::vec(any::<u64>(), 0..12),
        twin in (any::<u64>(), any::<u64>()),
    ) {
        let (mut topo, mut passive, mut origins) = fabric(f2, k);
        if !keep_across_passive {
            passive.clear();
        }
        let links = fabric_links(&topo);
        for pick in marked {
            passive.insert(links[(pick % links.len() as u64) as usize]);
        }
        passive.insert(LinkId::new(topo.link_slots() as u32 + 7));
        for pick in removed {
            // Picking a link twice is fine: the second removal is refused.
            let _ = topo.remove_link(links[(pick % links.len() as u64) as usize]);
        }
        let keys: Vec<NodeId> = origins.keys().copied().collect();
        let from = keys[(twin.0 % keys.len() as u64) as usize];
        let to = keys[(twin.1 % keys.len() as u64) as usize];
        let copied = origins[&from].clone();
        origins.get_mut(&to).unwrap().extend(copied);
        assert_same_map(&topo, &passive, &origins);
    }
}

/// Release-only (`./ci.sh` runs it): the benchmark's scale. The old loop
/// nest is ~40 ms per map here in release and minutes in a debug build.
#[test]
#[ignore = "k = 16 reference maps; run with --release -- --ignored"]
fn k16_fabrics_match_the_reference() {
    for f2 in [false, true] {
        let (mut topo, passive, origins) = fabric(f2, 16);
        assert_same_map(&topo, &passive, &origins);
        let links = fabric_links(&topo);
        for link in links.iter().step_by(97) {
            topo.remove_link(*link).unwrap();
        }
        assert_same_map(&topo, &passive, &origins);
    }
}

// ----------------------------------------------------------------------
// Degenerate inputs: an empty map, never a panic.
// ----------------------------------------------------------------------

fn assert_empty(map: &dcn_frr::FailureMap) {
    assert_eq!(map.stats().total(), 0);
    assert_eq!(map.alternates().count(), 0);
}

#[test]
fn no_origins_is_an_empty_map() {
    let (topo, passive, _) = fabric(true, 4);
    let map = compute_failure_map(&topo, &passive, &BTreeMap::new());
    assert_empty(&map);
    assert!(map.into_plans().is_empty());
    // Keys without a prefix are no destinations either.
    let (topo, passive, mut origins) = fabric(true, 4);
    origins.values_mut().for_each(Vec::clear);
    assert_empty(&compute_failure_map(&topo, &passive, &origins));
    assert_same_map(&topo, &passive, &origins);
}

#[test]
fn every_link_passive_is_an_empty_map() {
    let (topo, _, origins) = fabric(false, 4);
    let passive: BTreeSet<LinkId> = topo.links().map(|l| l.id()).collect();
    let map = compute_failure_map(&topo, &passive, &origins);
    assert_empty(&map);
    let dist = compute_distances(&topo, &passive);
    let tors: Vec<NodeId> = topo.layer_switches(Layer::Tor).collect();
    assert_eq!(dist.get(tors[0], tors[0]), Some(0));
    assert_eq!(dist.get(tors[0], tors[1]), None);
    assert_same_map(&topo, &passive, &origins);
}

#[test]
fn a_tor_with_every_uplink_removed_has_no_plan_and_is_no_destination() {
    let (mut topo, passive, origins) = fabric(true, 6);
    let tor = topo.layer_switches(Layer::Tor).next().unwrap();
    let uplinks: Vec<LinkId> = topo
        .neighbors(tor)
        .filter(|&(_, n)| topo.node(n).kind().is_switch())
        .map(|(l, _)| l)
        .collect();
    assert!(!uplinks.is_empty());
    for link in uplinks {
        topo.remove_link(link).unwrap();
    }
    let map = compute_failure_map(&topo, &passive, &origins);
    assert!(map.plan(tor).is_none());
    assert!(map.alternates().all(|(&(s, _, d), _)| s != tor && d != tor));
    assert!(map.stats().total() > 0, "the rest of the fabric is still mapped");
    assert_same_map(&topo, &passive, &origins);
}

#[test]
fn an_origin_that_is_not_a_switch_is_skipped() {
    let (topo, passive, origins) = fabric(true, 4);
    let baseline = compute_failure_map(&topo, &passive, &origins).stats();
    let prefix: Prefix = "10.99.0.0/24".parse().unwrap();
    let mut odd = origins.clone();
    odd.insert(topo.hosts()[0], vec![prefix]);
    odd.insert(NodeId::new(topo.node_slots() as u32 + 3), vec![prefix]);
    let removed = {
        // A slot the rewiring retired (F²Tree drops two pods).
        let live: BTreeSet<NodeId> = topo.nodes().map(|n| n.id()).collect();
        (0..topo.node_slots() as u32)
            .map(NodeId::new)
            .find(|n| !live.contains(n))
            .expect("the rewiring tombstones nodes")
    };
    odd.insert(removed, vec![prefix]);
    assert_eq!(compute_failure_map(&topo, &passive, &odd).stats(), baseline);
    assert_same_map(&topo, &passive, &odd);

    // And alone, they map to nothing at all — on a bare cell too.
    let mut cell = Topology::new("cell", None);
    let t = cell.add_switch("t", Layer::Tor, PodId::new(0), 0);
    let a = cell.add_switch("a", Layer::Agg, PodId::new(0), 0);
    let h = cell.add_host("h");
    cell.add_link(a, t, LinkClass::Vertical).unwrap();
    cell.add_link(t, h, LinkClass::HostAccess).unwrap();
    let only_host = BTreeMap::from([(h, vec![prefix])]);
    assert_empty(&compute_failure_map(&cell, &BTreeSet::new(), &only_host));
    assert_empty(&compute_failure_map(
        &Topology::new("void", None),
        &BTreeSet::new(),
        &only_host,
    ));
}
