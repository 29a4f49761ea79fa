//! Shortest-path-first calculation with ECMP next-hop accumulation.
//!
//! Every link has the same cost (paper footnote 4 — [`Adjacency`] has no
//! cost field), so Dijkstra degenerates to a level-order breadth-first
//! search: a node's distance is final the first time it is seen, and
//! every tying predecessor sits exactly one level above it. That makes
//! the full recompute exact with no priority queue, and cheap enough
//! that no per-router SPF state is kept between runs.
//!
//! All state is dense arrays indexed by `NodeId::index()`. A node's ECMP
//! first-hop set is a bit mask over the root's usable interfaces; ties
//! union masks with `|=`, and a mask is complete when its node is
//! dequeued because BFS settles level *d* before it expands level
//! *d + 1*.
//!
//! [`Adjacency`]: crate::Adjacency

use dcn_net::{LinkId, NodeId};

use crate::lsdb::Lsdb;
use crate::route::{NextHop, Route, RouteOrigin};

const UNREACHED: u32 = u32::MAX;

/// Computes the OSPF route set for `root` from `lsdb`.
///
/// Returns one route per remote advertised prefix, with the full ECMP
/// next-hop set at the shortest distance. The root's own prefixes are
/// omitted (they are connected routes). An adjacency is used only when
/// **both** endpoints advertise it over the same link — OSPF's two-way
/// check, which keeps SPF off half-dead links.
pub fn compute_routes(lsdb: &Lsdb, root: NodeId) -> Vec<Route> {
    // The root's usable interfaces, sorted: bit `i` of a first-hop mask
    // stands for `ifaces[i]`, so masks read out in next-hop order.
    let mut ifaces: Vec<NextHop> = lsdb
        .get(root)
        .into_iter()
        .flat_map(|lsa| &lsa.neighbors)
        .filter(|a| a.neighbor != root && advertises(lsdb, a.neighbor, root, a.link))
        .map(|a| NextHop {
            node: a.neighbor,
            link: a.link,
        })
        .collect();
    ifaces.sort_unstable();
    ifaces.dedup();
    if ifaces.is_empty() {
        return Vec::new();
    }

    // Bound invariant for every `.get()` below: a node enters `queue`
    // only after `advertises` found its LSA, and every stored origin's
    // index is below `lsdb.index_bound()`.
    let n = lsdb.index_bound();
    let words = ifaces.len().div_ceil(64);
    let mut dist = vec![UNREACHED; n];
    let mut masks = vec![0u64; n * words];
    let mut queue: Vec<NodeId> = Vec::with_capacity(lsdb.len());
    // Where `v`'s first-hop mask lives in `masks`.
    let span = move |v: NodeId| v.index() * words..(v.index() + 1) * words;

    if let Some(d) = dist.get_mut(root.index()) {
        *d = 0;
    }
    for (i, hop) in ifaces.iter().enumerate() {
        let v = hop.node.index();
        if let Some(d) = dist.get_mut(v).filter(|d| **d == UNREACHED) {
            *d = 1;
            queue.push(hop.node);
        }
        if let Some(word) = masks.get_mut(v * words + i / 64) {
            *word |= 1 << (i % 64);
        }
    }

    let mut via = vec![0u64; words];
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let (Some(lsa), Some(&du), Some(mask)) =
            (lsdb.get(u), dist.get(u.index()), masks.get(span(u)))
        else {
            continue;
        };
        via.copy_from_slice(mask);
        for adj in &lsa.neighbors {
            let v = adj.neighbor;
            // Distance first: edges back up the tree (half of a fat
            // tree's) are rejected without scanning the far LSA.
            let Some(dv) = dist.get_mut(v.index()) else {
                continue; // beyond the table: `v` has no LSA
            };
            let tie = *dv == du + 1;
            if !(tie || *dv == UNREACHED) || !advertises(lsdb, v, u, adj.link) {
                continue;
            }
            if !tie {
                *dv = du + 1;
                queue.push(v);
            }
            if let Some(mask) = masks.get_mut(span(v)) {
                for (word, bits) in mask.iter_mut().zip(&via) {
                    *word |= bits;
                }
            }
        }
    }

    let mut routes = Vec::new();
    let mut hops: Vec<NextHop> = Vec::with_capacity(ifaces.len());
    for lsa in lsdb.iter() {
        if lsa.origin == root || lsa.prefixes.is_empty() {
            continue;
        }
        let Some(&metric) = dist.get(lsa.origin.index()).filter(|d| **d != UNREACHED) else {
            continue;
        };
        let mask = masks.get(span(lsa.origin)).unwrap_or_default();
        hops.clear();
        hops.extend(
            ifaces
                .iter()
                .enumerate()
                .filter(|(i, _)| mask.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1))
                .map(|(_, hop)| *hop),
        );
        for &prefix in &lsa.prefixes {
            routes.push(Route::new(prefix, RouteOrigin::Ospf, metric, hops.clone()));
        }
    }
    routes.sort_by_key(|a| a.prefix);
    routes
}

/// Whether `from`'s stored LSA lists `to` over `link` — the far half of
/// the two-way check (the near half holds by construction: the caller is
/// walking the near end's own adjacency list).
fn advertises(lsdb: &Lsdb, from: NodeId, to: NodeId, link: LinkId) -> bool {
    lsdb.get(from).is_some_and(|lsa| {
        lsa.neighbors
            .iter()
            .any(|a| a.neighbor == to && a.link == link)
    })
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
        let routes = compute_routes(&diamond(), NodeId::new(0));
        let to3 = &routes[0];
        assert_eq!(to3.metric, 2);
        let arms: Vec<u32> = to3.next_hops.iter().map(|h| h.node.as_u32()).collect();
        assert_eq!(arms, [1, 2], "both diamond arms are ECMP");
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

    /// Node 1 and node 2 (which advertises a prefix) with the given
    /// adjacency lists.
    fn pair(one: Vec<Adjacency>, two: Vec<Adjacency>, two_seq: u64, db: &mut Lsdb) {
        db.install(Lsa {
            origin: NodeId::new(1),
            seq: 1,
            neighbors: one,
            prefixes: vec![],
        });
        db.install(Lsa {
            origin: NodeId::new(2),
            seq: two_seq,
            neighbors: two,
            prefixes: vec!["10.11.2.0/24".parse::<Prefix>().unwrap()],
        });
    }

    #[test]
    fn adjacency_needs_both_ends_to_advertise_it() {
        let mut db = Lsdb::new();
        pair(vec![adj(2, 7)], vec![], 1, &mut db);
        assert!(compute_routes(&db, NodeId::new(1)).is_empty());
        pair(vec![adj(2, 7)], vec![adj(1, 7)], 2, &mut db);
        assert_eq!(compute_routes(&db, NodeId::new(1)).len(), 1);
        // A newer LSA from 2 that drops the adjacency breaks two-way.
        pair(vec![adj(2, 7)], vec![], 3, &mut db);
        assert!(compute_routes(&db, NodeId::new(1)).is_empty());
    }

    #[test]
    fn parallel_links_are_two_way_checked_per_link() {
        let mut db = Lsdb::new();
        pair(vec![adj(2, 7), adj(2, 8)], vec![adj(1, 7)], 1, &mut db);
        let routes = compute_routes(&db, NodeId::new(1));
        let links: Vec<LinkId> = routes[0].next_hops.iter().map(|h| h.link).collect();
        assert_eq!(
            links,
            [LinkId::new(7)],
            "link 8 is advertised by one end only"
        );
    }
}
