//! The SPF reference oracle: `compute_routes` — a dense unit-cost BFS —
//! must equal a textbook ECMP Dijkstra, route for route, at every root.
//!
//! The [`reference`] module is the `BTreeMap`/`BinaryHeap` Dijkstra and
//! the two-sided `two_way` check that `dcn-routing` shipped before the
//! BFS kernel replaced them, kept verbatim as test-only code. It shares
//! nothing with the kernel but [`Lsdb::get`]/[`Lsdb::iter`], so agreement
//! under arbitrary damage is evidence about the kernel, not about a
//! common helper.

use dcn_net::{FatTree, Ipv4Addr, Layer, LeafSpine, LinkId, NodeId, Prefix, Topology, Vl2};
use dcn_routing::{compute_routes, Adjacency, Lsa, Lsdb};
use f2tree::F2TreeNetwork;
use proptest::prelude::*;

mod reference {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    use dcn_net::{LinkId, NodeId};
    use dcn_routing::{Lsdb, NextHop, Route, RouteOrigin};

    /// The pre-BFS `compute_routes`.
    pub fn compute_routes(lsdb: &Lsdb, root: NodeId) -> Vec<Route> {
        let tree = shortest_paths(lsdb, root);
        let mut routes = Vec::new();
        for lsa in lsdb.iter() {
            if lsa.origin == root || lsa.prefixes.is_empty() {
                continue;
            }
            if let Some(reached) = tree.get(&lsa.origin) {
                for &prefix in &lsa.prefixes {
                    routes.push(Route::new(
                        prefix,
                        RouteOrigin::Ospf,
                        reached.dist,
                        reached.next_hops.clone(),
                    ));
                }
            }
        }
        routes.sort_by_key(|a| a.prefix);
        routes
    }

    /// Distance and ECMP first hops for one reachable node.
    struct Reached {
        dist: u32,
        next_hops: Vec<NextHop>,
    }

    /// Whether the (directed) adjacency `from → to` over `link` is
    /// advertised by **both** endpoints.
    fn two_way(lsdb: &Lsdb, from: NodeId, to: NodeId, link: LinkId) -> bool {
        let fwd = lsdb.get(from).is_some_and(|l| {
            l.neighbors
                .iter()
                .any(|a| a.neighbor == to && a.link == link)
        });
        let rev = lsdb.get(to).is_some_and(|l| {
            l.neighbors
                .iter()
                .any(|a| a.neighbor == from && a.link == link)
        });
        fwd && rev
    }

    /// ECMP Dijkstra from `root` over the two-way-checked adjacency.
    fn shortest_paths(lsdb: &Lsdb, root: NodeId) -> BTreeMap<NodeId, Reached> {
        let mut dist: BTreeMap<NodeId, u32> = BTreeMap::new();
        // Shortest-path predecessors per node: the `(upstream, first
        // link)` pairs of every tying relaxation.
        let mut preds: BTreeMap<NodeId, Vec<(NodeId, LinkId)>> = BTreeMap::new();
        let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();

        dist.insert(root, 0);
        heap.push(Reverse((0, root)));

        while let Some(Reverse((d, u))) = heap.pop() {
            if dist.get(&u).copied() != Some(d) {
                continue; // stale heap entry
            }
            let Some(lsa) = lsdb.get(u) else { continue };
            for adj in &lsa.neighbors {
                if !two_way(lsdb, u, adj.neighbor, adj.link) {
                    continue;
                }
                let v = adj.neighbor;
                let nd = d + 1;
                match dist.get(&v).copied() {
                    Some(existing) if existing < nd => {}
                    Some(existing) if existing == nd => {
                        preds.entry(v).or_default().push((u, adj.link));
                    }
                    _ => {
                        dist.insert(v, nd);
                        // A strictly shorter path invalidates predecessors
                        // recorded at the old (longer) distance.
                        let p = preds.entry(v).or_default();
                        p.clear();
                        p.push((u, adj.link));
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
        }

        // Settle first-hop sets in increasing-distance order, so every
        // predecessor's set is complete before its downstream union.
        let mut order: Vec<(u32, NodeId)> = dist.iter().map(|(&n, &d)| (d, n)).collect();
        order.sort_unstable();
        let mut hops: BTreeMap<NodeId, Vec<NextHop>> = BTreeMap::new();
        let mut set: Vec<NextHop> = Vec::new();
        for &(_, n) in &order {
            if n == root {
                continue;
            }
            set.clear();
            for &(u, link) in preds.get(&n).into_iter().flatten() {
                if u == root {
                    set.push(NextHop { node: n, link });
                } else if let Some(h) = hops.get(&u) {
                    set.extend_from_slice(h);
                }
            }
            set.sort();
            set.dedup();
            hops.insert(n, std::mem::take(&mut set));
        }

        dist.into_iter()
            .filter(|&(n, _)| n != root)
            .map(|(n, d)| {
                let next_hops = hops.remove(&n).unwrap_or_default();
                (n, Reached { dist: d, next_hops })
            })
            .collect()
    }
}

/// A synthetic /24 per advertising node (unique while ids stay < 65 536).
fn prefix_of(node: NodeId) -> Prefix {
    let id = node.as_u32();
    Prefix::truncating(Ipv4Addr::new(10, (id >> 8) as u8, id as u8, 0), 24)
}

/// The converged control plane of `topo`: one LSA per switch, ToRs
/// advertising a prefix, `passive` links never advertised.
fn fabric(topo: &Topology, passive: &[LinkId]) -> Vec<Lsa> {
    topo.nodes()
        .filter(|n| n.kind().is_switch())
        .map(|node| Lsa {
            origin: node.id(),
            seq: 1,
            neighbors: topo
                .neighbors(node.id())
                .filter(|(link, peer)| {
                    topo.node(*peer).kind().is_switch() && !passive.contains(link)
                })
                .map(|(link, neighbor)| Adjacency { neighbor, link })
                .collect(),
            prefixes: if node.layer() == Some(Layer::Tor) {
                vec![prefix_of(node.id())]
            } else {
                Vec::new()
            },
        })
        .collect()
}

/// F²Tree at port count `k`; across links advertised or OSPF-passive.
fn f2tree_fabric(k: u32, across_passive: bool) -> Vec<Lsa> {
    let f2 = F2TreeNetwork::build_with_hosts(k, 0).unwrap();
    let passive = if across_passive {
        f2.across_links()
    } else {
        Vec::new()
    };
    fabric(&f2.topology, &passive)
}

/// A hub (node 0) with `leaves` spokes and three sinks behind the
/// leaves: sink `j` hangs off every `(j + 1)`-th leaf. From the hub, a
/// sink's first-hop mask has a bit per attached leaf, so 70 and 130
/// leaves push masks across the 64- and 128-bit word boundaries; every
/// node advertises a prefix.
fn star(leaves: u32) -> Vec<Lsa> {
    let mut neighbors: Vec<Vec<Adjacency>> = vec![Vec::new(); leaves as usize + 4];
    let mut next_link = 0;
    let mut join = |a: u32, b: u32| {
        let link = LinkId::new(next_link);
        next_link += 1;
        for (from, to) in [(a, b), (b, a)] {
            neighbors[from as usize].push(Adjacency {
                neighbor: NodeId::new(to),
                link,
            });
        }
    };
    for leaf in 1..=leaves {
        join(0, leaf);
        for sink in 0..3 {
            if leaf % (sink + 1) == 0 {
                join(leaf, leaves + 1 + sink);
            }
        }
    }
    (0u32..)
        .zip(neighbors)
        .map(|(id, neighbors)| Lsa {
            origin: NodeId::new(id),
            seq: 1,
            neighbors,
            prefixes: vec![prefix_of(NodeId::new(id))],
        })
        .collect()
}

fn fixtures() -> Vec<(&'static str, Vec<Lsa>)> {
    let fat = |k| fabric(&FatTree::new(k).unwrap().hosts_per_tor(0).build(), &[]);
    vec![
        ("fat-tree k=4", fat(4)),
        ("fat-tree k=6", fat(6)),
        ("fat-tree k=8", fat(8)),
        (
            "leaf-spine 8x4",
            fabric(
                &LeafSpine::new(8, 4).unwrap().hosts_per_leaf(0).build(),
                &[],
            ),
        ),
        (
            "vl2 8/4",
            fabric(&Vl2::new(8, 4).unwrap().hosts_per_tor(0).build(), &[]),
        ),
        ("f2tree k=4, across passive", f2tree_fabric(4, true)),
        ("f2tree k=8, across passive", f2tree_fabric(8, true)),
        // Across links advertised: the k=4 rings are parallel link pairs.
        ("f2tree k=4, across advertised", f2tree_fabric(4, false)),
        ("star 70", star(70)),
        ("star 130", star(130)),
    ]
}

/// One act of damage, addressed by position so the same value applies to
/// any fixture.
#[derive(Clone, Debug)]
enum Damage {
    /// Both endpoints stop advertising the picked adjacency.
    Withdraw(prop::sample::Index, prop::sample::Index),
    /// Only the picked LSA drops the adjacency; the far end still names
    /// it (its re-issued LSA has not arrived, or never will).
    WithdrawOneSided(prop::sample::Index, prop::sample::Index),
    /// The picked node's LSA is missing altogether, while its neighbours
    /// keep naming it.
    Forget(prop::sample::Index),
}

fn damage() -> impl Strategy<Value = Damage> {
    use prop::sample::Index;
    (0u8..6, any::<Index>(), any::<Index>()).prop_map(|(kind, n, a)| match kind {
        0..=2 => Damage::Withdraw(n, a),
        3..=4 => Damage::WithdrawOneSided(n, a),
        _ => Damage::Forget(n),
    })
}

/// Applies `damage` to `lsas` and installs the survivors.
fn damaged_lsdb(mut lsas: Vec<Lsa>, damage: &[Damage]) -> Lsdb {
    let mut forgotten = Vec::new();
    for act in damage {
        match act {
            Damage::Withdraw(n, a) | Damage::WithdrawOneSided(n, a) => {
                let at = n.index(lsas.len());
                if lsas[at].neighbors.is_empty() {
                    continue;
                }
                let pick = a.index(lsas[at].neighbors.len());
                let gone = lsas[at].neighbors.remove(pick);
                if let Damage::Withdraw(..) = act {
                    let origin = lsas[at].origin;
                    if let Some(far) = lsas.iter_mut().find(|l| l.origin == gone.neighbor) {
                        far.neighbors
                            .retain(|b| !(b.neighbor == origin && b.link == gone.link));
                    }
                }
            }
            Damage::Forget(n) => forgotten.push(lsas[n.index(lsas.len())].origin),
        }
    }
    let mut lsdb = Lsdb::new();
    for lsa in lsas {
        if !forgotten.contains(&lsa.origin) {
            lsdb.install(lsa);
        }
    }
    lsdb
}

/// Exact `Vec<Route>` equality at `roots`.
fn assert_matches_reference(lsdb: &Lsdb, roots: &[NodeId], context: &str) {
    for &root in roots {
        assert_eq!(
            compute_routes(lsdb, root),
            reference::compute_routes(lsdb, root),
            "{context}, root {root}"
        );
    }
}

/// The fixtures hold what their names promise (so the property below
/// really covers those shapes).
#[test]
fn fixtures_cover_parallel_links_and_wide_masks() {
    let all = fixtures();
    let named = |name: &str| &all.iter().find(|(n, _)| *n == name).unwrap().1;
    let parallel = named("f2tree k=4, across advertised").iter().any(|lsa| {
        lsa.neighbors.iter().any(|a| {
            lsa.neighbors
                .iter()
                .any(|b| b.neighbor == a.neighbor && b.link != a.link)
        })
    });
    assert!(parallel, "across rings at k=4 are parallel link pairs");
    for (name, leaves) in [("star 70", 70), ("star 130", 130)] {
        let lsdb = damaged_lsdb(named(name).clone(), &[]);
        let routes = compute_routes(&lsdb, NodeId::new(0));
        let widest = routes.iter().map(|r| r.next_hops.len()).max();
        assert_eq!(widest, Some(leaves), "{name}: sink 0 is behind every leaf");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every fixture, every root — including forgotten nodes and one id
    /// no LSA ever named — under the same arbitrary damage.
    #[test]
    fn dense_bfs_equals_reference_dijkstra(
        damage in prop::collection::vec(damage(), 0..12),
    ) {
        for (name, lsas) in fixtures() {
            let mut roots: Vec<NodeId> = lsas.iter().map(|l| l.origin).collect();
            roots.push(NodeId::new(roots.iter().map(|r| r.as_u32()).max().unwrap() + 7));
            let lsdb = damaged_lsdb(lsas, &damage);
            assert_matches_reference(&lsdb, &roots, name);
        }
    }
}

/// Whole-fabric equivalence at the benchmark's largest size: every root
/// × every single fabric-link failure on the k = 16 F²Tree LSDB (across
/// links passive). ~420 k root computations per side, so release-only
/// and `#[ignore]`d; `ci.sh` runs it right after the test suite. Link
/// failures are spread over the available cores.
#[test]
#[ignore = "minutes in release, far longer in debug; run by ci.sh"]
fn k16_every_root_every_single_link_failure() {
    let lsas = f2tree_fabric(16, true);
    let roots: Vec<NodeId> = lsas.iter().map(|l| l.origin).collect();
    let healthy = damaged_lsdb(lsas.clone(), &[]);
    assert_matches_reference(&healthy, &roots, "k=16 healthy");

    // Each link once, from its lower-numbered end.
    let failures: Vec<(usize, Adjacency)> = lsas
        .iter()
        .enumerate()
        .flat_map(|(at, lsa)| lsa.neighbors.iter().map(move |a| (at, *a)))
        .filter(|(at, a)| lsas[*at].origin < a.neighbor)
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    std::thread::scope(|scope| {
        for share in failures.chunks(failures.len().div_ceil(workers)) {
            let (healthy, lsas, roots) = (&healthy, &lsas, &roots);
            scope.spawn(move || {
                for &(at, gone) in share {
                    // Both ends re-originate without the link, exactly
                    // as detection would; everything else stays shared.
                    let mut lsdb = healthy.clone();
                    let near = lsas[at].origin;
                    for (origin, peer) in [(near, gone.neighbor), (gone.neighbor, near)] {
                        let old = healthy.get(origin).unwrap();
                        lsdb.install(Lsa {
                            seq: old.seq + 1,
                            neighbors: old
                                .neighbors
                                .iter()
                                .filter(|a| !(a.neighbor == peer && a.link == gone.link))
                                .copied()
                                .collect(),
                            ..old.clone()
                        });
                    }
                    assert_matches_reference(&lsdb, roots, &format!("k=16 minus {}", gone.link));
                }
            });
        }
    });
}
