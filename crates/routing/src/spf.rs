//! Shortest-path-first calculation with ECMP next-hop accumulation.
//!
//! A textbook Dijkstra over the two-way-checked LSDB adjacency, but with
//! full equal-cost next-hop sets: when two paths to a node tie, the
//! first-hop sets are unioned. All links have unit cost (paper footnote 4).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use dcn_net::{LinkId, NodeId};

use crate::lsdb::Lsdb;
use crate::route::{NextHop, Route, RouteOrigin};

/// Computes the OSPF route set for `root` from `lsdb`.
///
/// Returns one route per remote advertised prefix, with the full ECMP
/// next-hop set at the shortest distance. The root's own prefixes are
/// omitted (they are connected routes).
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reached {
    /// Hop-count distance from the root.
    pub dist: u32,
    /// All equal-cost first hops from the root.
    pub next_hops: Vec<NextHop>,
}

/// Runs ECMP Dijkstra from `root` over the two-way-checked adjacency.
///
/// The maps are `BTreeMap`s on purpose: route computation feeds FIB
/// installation order, and hash-iteration order would leak host-process
/// randomness into the simulated trace.
pub fn shortest_paths(lsdb: &Lsdb, root: NodeId) -> BTreeMap<NodeId, Reached> {
    let mut dist: BTreeMap<NodeId, u32> = BTreeMap::new();
    // Shortest-path predecessors per node: the `(upstream, first link)`
    // pairs of every tying relaxation. First-hop sets are derived from
    // these *after* the heap loop — copying full first-hop sets around
    // per relaxed edge would make the inner loop allocate O(E) times.
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
            if !lsdb.two_way(u, adj.neighbor, adj.link) {
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
    // predecessor's set is complete before its downstream union. Nodes
    // adjacent to the root contribute their own incoming link; deeper
    // nodes inherit the union of their predecessors' sets.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsdb::{Adjacency, Lsa};
    use dcn_net::{LinkId, Prefix};

    fn adj(n: u32, l: u32) -> Adjacency {
        Adjacency {
            neighbor: NodeId::new(n),
            link: LinkId::new(l),
        }
    }

    /// A diamond: 0 -(l0)- 1 -(l2)- 3, 0 -(l1)- 2 -(l3)- 3; 3 advertises
    /// a prefix.
    fn diamond() -> Lsdb {
        let mut db = Lsdb::new();
        db.install(Lsa {
            origin: NodeId::new(0),
            seq: 1,
            neighbors: vec![adj(1, 0), adj(2, 1)],
            prefixes: vec![],
        });
        db.install(Lsa {
            origin: NodeId::new(1),
            seq: 1,
            neighbors: vec![adj(0, 0), adj(3, 2)],
            prefixes: vec![],
        });
        db.install(Lsa {
            origin: NodeId::new(2),
            seq: 1,
            neighbors: vec![adj(0, 1), adj(3, 3)],
            prefixes: vec![],
        });
        db.install(Lsa {
            origin: NodeId::new(3),
            seq: 1,
            neighbors: vec![adj(1, 2), adj(2, 3)],
            prefixes: vec!["10.11.0.0/24".parse::<Prefix>().unwrap()],
        });
        db
    }

    #[test]
    fn ecmp_over_the_diamond() {
        let tree = shortest_paths(&diamond(), NodeId::new(0));
        let to3 = &tree[&NodeId::new(3)];
        assert_eq!(to3.dist, 2);
        assert_eq!(to3.next_hops.len(), 2, "both diamond arms are ECMP");
    }

    #[test]
    fn routes_carry_prefixes_with_metric() {
        let routes = compute_routes(&diamond(), NodeId::new(0));
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].prefix.to_string(), "10.11.0.0/24");
        assert_eq!(routes[0].metric, 2);
        assert_eq!(routes[0].next_hops.len(), 2);
        assert_eq!(routes[0].origin, RouteOrigin::Ospf);
    }

    #[test]
    fn own_prefixes_are_omitted() {
        let routes = compute_routes(&diamond(), NodeId::new(3));
        assert!(routes.is_empty());
    }

    #[test]
    fn one_way_adjacency_is_not_used() {
        let mut db = diamond();
        // Node 1 stops advertising its link to 3 (e.g. detected failure).
        db.install(Lsa {
            origin: NodeId::new(1),
            seq: 2,
            neighbors: vec![adj(0, 0)],
            prefixes: vec![],
        });
        let routes = compute_routes(&db, NodeId::new(0));
        assert_eq!(routes[0].next_hops.len(), 1, "only the 2-arm remains");
        assert_eq!(routes[0].next_hops[0].node, NodeId::new(2));
    }

    #[test]
    fn disconnected_destination_has_no_route() {
        let mut db = diamond();
        db.install(Lsa {
            origin: NodeId::new(1),
            seq: 2,
            neighbors: vec![adj(0, 0)],
            prefixes: vec![],
        });
        db.install(Lsa {
            origin: NodeId::new(2),
            seq: 2,
            neighbors: vec![adj(0, 1)],
            prefixes: vec![],
        });
        assert!(compute_routes(&db, NodeId::new(0)).is_empty());
    }

    #[test]
    fn parallel_links_both_become_next_hops() {
        // Two parallel links between 0 and 1 (the k=4 F2Tree agg ring).
        let mut db = Lsdb::new();
        db.install(Lsa {
            origin: NodeId::new(0),
            seq: 1,
            neighbors: vec![adj(1, 0), adj(1, 1)],
            prefixes: vec![],
        });
        db.install(Lsa {
            origin: NodeId::new(1),
            seq: 1,
            neighbors: vec![adj(0, 0), adj(0, 1)],
            prefixes: vec!["10.11.1.0/24".parse::<Prefix>().unwrap()],
        });
        let routes = compute_routes(&db, NodeId::new(0));
        assert_eq!(routes[0].next_hops.len(), 2);
        assert_eq!(routes[0].metric, 1);
    }
}
