//! Shortest-path-first calculation with ECMP next-hop accumulation.
//!
//! Every link has the same cost (paper footnote 4 — [`Adjacency`] has no
//! cost field), so Dijkstra degenerates to a level-order breadth-first
//! search: a node's distance is final the first time it is seen, and
//! every tying predecessor sits exactly one level above it. That makes
//! the full recompute exact with no priority queue, and no router keeps
//! SPF state between runs.
//!
//! All state is dense arrays indexed by `NodeId::index()`. A node's ECMP
//! first-hop set is a bit mask over the root's usable interfaces; ties
//! union masks with `|=`, and a mask is complete when its node is
//! dequeued because BFS settles level *d* before it expands level
//! *d + 1*. That tree feeds two emitters: [`compute_routes`] writes the
//! whole table, `emit_delta` merges the tree into the route set a router
//! last emitted and writes only what changed. `emit_delta` reads its tree
//! out of an [`SpfTable`] instead of searching: per-network state, one
//! BFS per prefix origin for each LSDB snapshot the routers hold. Both
//! emitters write each distinct next-hop set once and share it among
//! the routes that have it.
//!
//! [`Adjacency`]: crate::Adjacency

use std::fmt;
use std::sync::Arc;

use dcn_net::{LinkId, NodeId, Prefix};

use crate::fib::{FibDelta, FibOp};
use crate::lsdb::{Lsa, Lsdb};
use crate::route::{NextHop, Route, RouteOrigin};

const UNREACHED: u32 = u32::MAX;
const FAR: u16 = u16::MAX; // `UNREACHED` in an `SpfTable`

/// Computes the OSPF route set for `root` from `lsdb`.
///
/// Returns one route per remote advertised prefix, with the full ECMP
/// next-hop set at the shortest distance. The root's own prefixes are
/// omitted (they are connected routes). An adjacency is used only when
/// **both** endpoints advertise it over the same link — OSPF's two-way
/// check, which keeps SPF off half-dead links.
pub fn compute_routes(lsdb: &Lsdb, root: NodeId) -> Vec<Route> {
    let tree = SpfTree::build(lsdb, root);
    let listed = tree.listed(lsdb);
    let mut sets = Sets::default();
    listed.into_iter().map(|want| tree.route(want, &mut sets)).collect()
}

/// Runs SPF for `root` and merges its result into `emitted` — the
/// prefix-sorted route set the previous run left behind — returning the
/// delta between the two. Equal, op for op, to [`FibDelta::diff`] of
/// `emitted` against [`compute_routes`] keyed by prefix (removes and
/// patches in ascending prefix order, then inserts in ascending prefix
/// order), without building the table: a prefix whose route did not
/// change costs one comparison against the tree and allocates nothing.
/// The tree comes out of `table`, rebuilt first unless it holds `lsdb`.
pub(crate) fn emit_delta(
    lsdb: &Lsdb,
    root: NodeId,
    table: &mut SpfTable,
    emitted: &mut Vec<Route>,
) -> FibDelta {
    table.serve(lsdb);
    let tree = SpfTree::from_table(table, root);
    // Of two origins advertising one prefix the later stands last in the
    // list — the one a table keyed by prefix keeps.
    let listed = tree.listed(lsdb);
    let mut desired = listed
        .iter()
        .enumerate()
        .filter(|&(i, want)| listed.get(i + 1).map(|next| next.0) != Some(want.0))
        .map(|(_, want)| *want)
        .peekable();

    let mut ops = Vec::new();
    let mut inserts = Vec::new();
    let mut sets = Sets::holding(emitted);
    emitted.retain_mut(|have| {
        while let Some(want) = desired.next_if(|want| want.0 < have.prefix) {
            inserts.push(tree.route(want, &mut sets));
        }
        let Some((_, metric, mask)) = desired.next_if(|want| want.0 == have.prefix) else {
            ops.push(FibOp::Remove(have.prefix));
            return false;
        };
        let same = have.origin == RouteOrigin::Ospf
            && have.metric == metric
            && have.next_hops.iter().copied().eq(tree.hops(mask));
        if !same {
            *have = tree.route((have.prefix, metric, mask), &mut sets);
            ops.push(FibOp::Patch {
                prefix: have.prefix,
                metric,
                next_hops: have.next_hops.clone(),
            });
        }
        true
    });
    inserts.extend(desired.map(|want| tree.route(want, &mut sets)));
    if !inserts.is_empty() {
        // Two sorted runs with disjoint prefixes: the merge sort's best case.
        emitted.extend(inserts.iter().cloned());
        emitted.sort_by_key(|r| r.prefix);
        ops.extend(inserts.into_iter().map(FibOp::Insert));
    }
    FibDelta {
        origin: RouteOrigin::Ospf,
        ops,
    }
}

/// A route before it is written: prefix, metric, first-hop mask.
type Listed<'a> = (Prefix, u32, &'a [u64]);

/// The next-hop sets a run hands out, one allocation per distinct set. A
/// fat-tree router has about k/2 + 1 of them, so scans find them.
#[derive(Default)]
struct Sets<'a> {
    /// The sets the run has written, by first-hop mask.
    written: Vec<(&'a [u64], Arc<[NextHop]>)>,
    /// The router's sets before the run, so that a set outlives the run
    /// that wrote it: a route whose metric alone changed keeps its set.
    held: Vec<Arc<[NextHop]>>,
}

impl<'a> Sets<'a> {
    fn holding(routes: &[Route]) -> Self {
        let mut held: Vec<Arc<[NextHop]>> = Vec::new();
        for set in routes.iter().map(|r| &r.next_hops) {
            if !held.iter().any(|have| Arc::ptr_eq(have, set)) {
                held.push(Arc::clone(set));
            }
        }
        Sets { written: Vec::new(), held }
    }

    /// The set `mask` stands for; its members, `hops`, are read on the
    /// run's first sight of the mask.
    fn share(&mut self, mask: &'a [u64], hops: impl Iterator<Item = NextHop>) -> Arc<[NextHop]> {
        if let Some((_, set)) = self.written.iter().find(|(seen, _)| *seen == mask) {
            return Arc::clone(set);
        }
        let hops: Vec<NextHop> = hops.collect();
        let set = match self.held.iter().find(|set| ***set == *hops) {
            Some(set) => Arc::clone(set),
            None => Arc::from(hops),
        };
        self.written.push((mask, Arc::clone(&set)));
        set
    }
}

/// One SPF run's shortest-path tree: the distance of every node from the
/// root and the set of root interfaces that start a shortest path to it —
/// all an emitter needs to write routes.
struct SpfTree {
    /// The root's usable interfaces, sorted: bit `i` of a first-hop mask
    /// stands for `ifaces[i]`, so masks read out in next-hop order.
    ifaces: Vec<NextHop>,
    root: NodeId,
    /// `u64` words per mask.
    words: usize,
    dist: Vec<u32>,
    masks: Vec<u64>,
}

impl SpfTree {
    fn build(lsdb: &Lsdb, root: NodeId) -> SpfTree {
        let ifaces = usable(lsdb, root);
        let words = ifaces.len().div_ceil(64);

        // Bound invariant for every `.get()` below: a node enters `queue`
        // only after `advertises` found its LSA, and every stored origin's
        // index is below `lsdb.index_bound()`.
        let n = lsdb.index_bound();
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
        SpfTree {
            ifaces,
            root,
            words,
            dist,
            masks,
        }
    }

    /// The tree of `root` as `table` knows it, for the prefix origins
    /// [`Self::listed`] reads: the metric is the origin's distance `m` to
    /// the root, and the root's interface to `n` starts a shortest path to
    /// it iff dist(origin, n) = m − 1 (the adjacency is two-way).
    fn from_table(table: &SpfTable, root: NodeId) -> SpfTree {
        let ifaces = table.adjacent(root).to_vec();
        let (n, words) = (table.snapshot.len(), ifaces.len().div_ceil(64));
        let mut dist = vec![UNREACHED; n];
        let mut masks = vec![0u64; n * words];
        for (origin, row) in table.origins.iter().zip(table.dist.chunks(n.max(1))) {
            // 0: the root's own prefixes, connected routes.
            let Some(&m) = row.get(root.index()).filter(|&&m| m != FAR && m != 0) else {
                continue;
            };
            let at = origin.index();
            let span = at * words..(at + 1) * words;
            if let (Some(d), Some(mask)) = (dist.get_mut(at), masks.get_mut(span)) {
                *d = u32::from(m);
                for (i, hop) in ifaces.iter().enumerate() {
                    if let Some(word) = mask.get_mut(i / 64) {
                        *word |= u64::from(row.get(hop.node.index()) == Some(&(m - 1))) << (i % 64);
                    }
                }
            }
        }
        SpfTree {
            ifaces,
            root,
            words,
            dist,
            masks,
        }
    }

    /// Every route the LSDB gives rise to, in table order: by prefix, and
    /// within one prefix in LSDB (origin) order — the sort is stable.
    /// The root's own LSA (connected routes), LSAs without prefixes and
    /// unreachable origins list nothing.
    fn listed<'a>(&'a self, lsdb: &'a Lsdb) -> Vec<Listed<'a>> {
        let mut listed: Vec<Listed<'a>> = lsdb
            .iter()
            .filter(|lsa| lsa.origin != self.root)
            .filter_map(|lsa| {
                let at = lsa.origin.index();
                let metric = *self.dist.get(at).filter(|d| **d != UNREACHED)?;
                let mask = self.masks.get(at * self.words..(at + 1) * self.words)?;
                Some(lsa.prefixes.iter().map(move |&prefix| (prefix, metric, mask)))
            })
            .flatten()
            .collect();
        listed.sort_by_key(|&(prefix, ..)| prefix);
        listed
    }

    /// Writes one listed route out, its next-hop set taken from `sets`.
    fn route<'a>(&self, (prefix, metric, mask): Listed<'a>, sets: &mut Sets<'a>) -> Route {
        Route {
            prefix,
            origin: RouteOrigin::Ospf,
            metric,
            next_hops: sets.share(mask, self.hops(mask)),
        }
    }

    /// The next hops a first-hop mask stands for, in next-hop order.
    fn hops<'a>(&'a self, mask: &'a [u64]) -> impl Iterator<Item = NextHop> + 'a {
        self.ifaces
            .iter()
            .enumerate()
            .filter(move |(i, _)| mask.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1))
            .map(|(_, hop)| *hop)
    }
}

/// One LSDB snapshot's shortest paths, shared by every router holding it:
/// the two-way-checked adjacency in compressed sparse rows and, by one BFS
/// per origin that advertises a prefix, its hop distance to every node —
/// all an SPF run needs to emit a router's routes without a search of its
/// own. A `Network` owns one (empty by default; the first run builds it)
/// and hands it to every run: a converged fabric's routers hold one LSDB.
///
/// **Identity rule.** The table serves an LSDB only if every slot holds
/// the very `Arc<Lsa>` it was built from ([`Arc::ptr_eq`]), and rebuilds
/// from it otherwise (an LSA one router has and another has not yet, the
/// same content in another allocation). It keeps those `Arc`s, so no
/// address it compares can be freed and reused by another LSA. Distances
/// are `u16`: a node more than 65 534 hops out counts as unreachable.
#[derive(Default)]
pub struct SpfTable {
    /// The LSDB slots the table was built from.
    snapshot: Vec<Option<Arc<Lsa>>>,
    /// Node `u`'s [`usable`] interfaces: `adjacent[start[u]..start[u + 1]]`.
    start: Vec<usize>,
    adjacent: Vec<NextHop>,
    /// The prefix origins in LSDB order; origin `i`'s distance to node `v`
    /// is `dist[i * snapshot.len() + v]`.
    origins: Vec<NodeId>,
    dist: Vec<u16>,
    builds: u64,
}

impl SpfTable {
    /// How often the table was built: every other run read it as it stood.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Makes the table describe `lsdb`: kept when every slot is the `Arc`
    /// it was built from, rebuilt otherwise.
    fn serve(&mut self, lsdb: &Lsdb) {
        let slots = lsdb.slots();
        let same = self.snapshot.len() == slots.len()
            && self.snapshot.iter().zip(slots).all(|pair| match pair {
                (Some(have), Some(want)) => Arc::ptr_eq(have, want),
                (have, want) => have.is_none() && want.is_none(),
            });
        if same {
            return;
        }
        self.builds += 1;
        self.snapshot.clear();
        self.snapshot.extend_from_slice(lsdb.slots());
        self.start.clear();
        self.start.push(0);
        self.adjacent.clear();
        self.origins.clear();
        for lsa in &self.snapshot {
            if let Some(lsa) = lsa {
                self.adjacent.extend(usable(lsdb, lsa.origin));
                if !lsa.prefixes.is_empty() {
                    self.origins.push(lsa.origin);
                }
            }
            self.start.push(self.adjacent.len());
        }
        let n = self.snapshot.len();
        let mut dist = std::mem::take(&mut self.dist);
        dist.clear();
        dist.resize(self.origins.len() * n, FAR);
        let mut queue = Vec::with_capacity(n);
        for (&origin, row) in self.origins.iter().zip(dist.chunks_mut(n.max(1))) {
            queue.clear();
            queue.push(origin);
            if let Some(d) = row.get_mut(origin.index()) {
                *d = 0;
            }
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                let Some(next) = row.get(u.index()).map(|d| d + 1).filter(|d| *d != FAR) else {
                    continue; // 65 534 hops out: the rest stays unreached
                };
                for hop in self.adjacent(u) {
                    if let Some(d) = row.get_mut(hop.node.index()).filter(|d| **d == FAR) {
                        *d = next;
                        queue.push(hop.node);
                    }
                }
            }
        }
        self.dist = dist;
    }

    /// `u`'s usable interfaces, sorted.
    fn adjacent(&self, u: NodeId) -> &[NextHop] {
        match self.start.get(u.index()..u.index() + 2) {
            Some(&[from, to]) => self.adjacent.get(from..to).unwrap_or_default(),
            _ => &[],
        }
    }
}

impl fmt::Debug for SpfTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpfTable({} slots, {} builds)", self.snapshot.len(), self.builds)
    }
}

/// `u`'s usable interfaces, sorted: two-way checked, self-loops and repeats dropped.
fn usable(lsdb: &Lsdb, u: NodeId) -> Vec<NextHop> {
    let mut ifaces: Vec<NextHop> = lsdb
        .get(u)
        .into_iter()
        .flat_map(|lsa| &lsa.neighbors)
        .filter(|a| a.neighbor != u && advertises(lsdb, a.neighbor, u, a.link))
        .map(|a| NextHop {
            node: a.neighbor,
            link: a.link,
        })
        .collect();
    ifaces.sort_unstable();
    ifaces.dedup();
    ifaces
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
