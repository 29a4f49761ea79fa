//! Shortest-path-first calculation with ECMP next-hop accumulation.
//!
//! Every link has the same cost (paper footnote 4 — [`Adjacency`] has no
//! cost field), so Dijkstra degenerates to a level-order breadth-first
//! search: a node's distance is final the first time it is seen, and
//! every tying predecessor sits exactly one level above it. That makes
//! the full recompute exact with no priority queue. What a router keeps
//! between runs is the route set it emitted and the table build it read
//! that set out of ([`Emitted`]).
//!
//! All state is dense arrays indexed by `NodeId::index()`. A node's ECMP
//! first-hop set is a bit mask over the root's usable interfaces; ties
//! union masks with `|=`, and a mask is complete when its node is
//! dequeued because BFS settles level *d* before it expands level
//! *d + 1*. That tree feeds [`compute_routes`], which writes the whole
//! table. `emit_delta` searches nothing: it reads each origin's metric and
//! mask out of an [`SpfTable`] — per-network state, one BFS per prefix
//! origin for each LSDB snapshot the routers hold — merges them into the
//! route set a router last emitted and writes only what changed. The
//! table stamps each row with the build it last changed at, so a run
//! re-derives only the origins whose rows changed since the router's
//! last one. Both emitters write each distinct next-hop set once and
//! share it among the routes that have it.
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
    let mut sets = Sets::default();
    tree.listed(lsdb)
        .into_iter()
        .map(|(prefix, want)| route(&tree.ifaces, prefix, want, &mut sets))
        .collect()
}

/// What a router's SPF runs leave behind: the route set the last one
/// emitted, sorted by prefix, and the table build it was read out of.
#[derive(Default)]
pub(crate) struct Emitted {
    routes: Vec<Route>,
    /// The table's identity and its build count at that run; `None`
    /// before the first.
    from: Option<(Arc<()>, u64)>,
}

/// Runs SPF for `root` and merges its result into `emitted`, returning
/// the delta between the two. Equal, op for op, to [`FibDelta::diff`] of
/// the emitted routes against [`compute_routes`] keyed by prefix (removes
/// and changed routes in ascending prefix order, then new routes in
/// ascending prefix order), without building the table: a prefix whose
/// route did not change costs one comparison against the table at most
/// and allocates nothing. The metrics and masks come out of `table`,
/// rebuilt first unless it holds `lsdb`, and only for the origins whose
/// rows changed since the build `emitted` was read out of — all of them
/// when that build is another table's, the shape changed since, or the
/// root's own interfaces did ([`SpfTable::unchanged_since`]).
pub(crate) fn emit_delta(
    lsdb: &Lsdb,
    root: NodeId,
    table: &mut SpfTable,
    emitted: &mut Emitted,
) -> FibDelta {
    table.serve(lsdb);
    // `Some(b)`: every route but those of origins stamped after build `b`
    // is as the table has it; `None`: no route is known to be.
    let since = table.unchanged_since(emitted.from.as_ref(), root);
    match &mut emitted.from {
        Some((id, build)) if Arc::ptr_eq(id, &table.identity) => *build = table.builds,
        from => *from = Some((Arc::clone(&table.identity), table.builds)),
    }
    let ifaces = table.adjacent(root);
    let words = ifaces.len().div_ceil(64);
    let n = table.snapshot.len();
    // Each origin to re-derive, with its metric — none when it is
    // unreached or the root (connected routes) — and its first-hop mask at
    // `masks[j * words..]`: interface (v, l) starts a shortest path to the
    // origin iff dist(origin, v) = m − 1 (the adjacency is two-way).
    let stale = |changed: &u64| since.is_none_or(|build| *changed > build);
    let count = table.row_changed.iter().filter(|c| stale(c)).count();
    let mut metrics = Vec::with_capacity(count);
    let mut masks = Vec::with_capacity(count * words);
    let rows = table.dist.chunks(n.max(1)).zip(&table.row_changed);
    for (&origin, (row, changed)) in table.origins.iter().zip(rows) {
        if !stale(changed) {
            continue;
        }
        let metric = row
            .get(root.index())
            .copied()
            .filter(|&m| m != FAR && m != 0);
        let at = masks.len();
        masks.resize(at + words, 0);
        if let Some(m) = metric {
            for (i, hop) in ifaces.iter().enumerate() {
                if let Some(word) = masks.get_mut(at + i / 64) {
                    *word |= u64::from(row.get(hop.node.index()) == Some(&(m - 1))) << (i % 64);
                }
            }
        }
        metrics.push((origin, metric.map(u32::from)));
    }
    // Of two origins advertising one prefix the later reached one stands
    // last in its run — the one a table keyed by prefix keeps.
    let mut listed: Vec<(Prefix, Option<Want<'_>>)> = Vec::with_capacity(count);
    for (j, &(origin, metric)) in metrics.iter().enumerate() {
        let mask = masks.get(j * words..(j + 1) * words).unwrap_or_default();
        let prefixes = lsdb.get(origin).into_iter().flat_map(|lsa| &lsa.prefixes);
        listed.extend(prefixes.map(|&prefix| (prefix, metric.map(|m| (m, mask)))));
    }
    listed.sort_by_key(|&(prefix, want)| (prefix, want.is_some()));
    let mut desired = listed
        .iter()
        .enumerate()
        .filter(|&(i, want)| listed.get(i + 1).map(|next| next.0) != Some(want.0))
        .map(|(_, want)| *want)
        .peekable();

    let mut ops = Vec::new();
    let mut inserts = Vec::new();
    // A run that writes no route needs none of the router's sets.
    let held: &[Route] = if listed.is_empty() {
        &[]
    } else {
        &emitted.routes
    };
    let mut sets = Sets::holding(held);
    emitted.routes.retain_mut(|have| {
        while let Some((prefix, want)) = desired.next_if(|want| want.0 < have.prefix) {
            inserts.extend(want.map(|want| route(ifaces, prefix, want, &mut sets)));
        }
        match desired.next_if(|want| want.0 == have.prefix) {
            // An origin whose row did not change.
            None if since.is_some() => true,
            // No origin, or an unreached one, advertises the prefix.
            None | Some((_, None)) => {
                ops.push(FibOp::Remove(have.prefix));
                false
            }
            Some((prefix, Some(want @ (metric, mask)))) => {
                let same = have.origin == RouteOrigin::Ospf
                    && have.metric == metric
                    && have.next_hops.iter().copied().eq(hops(ifaces, mask));
                if !same {
                    *have = route(ifaces, prefix, want, &mut sets);
                    ops.push(FibOp::Insert(have.clone()));
                }
                true
            }
        }
    });
    for (prefix, want) in desired {
        inserts.extend(want.map(|want| route(ifaces, prefix, want, &mut sets)));
    }
    if !inserts.is_empty() {
        // Two sorted runs with disjoint prefixes: the merge sort's best case.
        emitted.routes.extend(inserts.iter().cloned());
        emitted.routes.sort_by_key(|r| r.prefix);
        ops.extend(inserts.into_iter().map(FibOp::Insert));
    }
    FibDelta {
        origin: RouteOrigin::Ospf,
        ops,
    }
}

/// A route's metric and first-hop mask, before it is written.
type Want<'a> = (u32, &'a [u64]);

/// Writes one route out, its next-hop set taken from `sets`.
fn route<'a>(
    ifaces: &[NextHop],
    prefix: Prefix,
    (metric, mask): Want<'a>,
    sets: &mut Sets<'a>,
) -> Route {
    Route {
        prefix,
        origin: RouteOrigin::Ospf,
        metric,
        next_hops: sets.share(mask, hops(ifaces, mask)),
    }
}

/// The next hops a first-hop mask over `ifaces` stands for, in next-hop
/// order.
fn hops<'a>(ifaces: &'a [NextHop], mask: &'a [u64]) -> impl Iterator<Item = NextHop> + 'a {
    ifaces
        .iter()
        .enumerate()
        .filter(move |(i, _)| mask.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1))
        .map(|(_, hop)| *hop)
}

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
        Sets {
            written: Vec::new(),
            held,
        }
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

    /// Every route the LSDB gives rise to, in table order: by prefix, and
    /// within one prefix in LSDB (origin) order — the sort is stable.
    /// The root's own LSA (connected routes), LSAs without prefixes and
    /// unreachable origins list nothing.
    fn listed<'a>(&'a self, lsdb: &'a Lsdb) -> Vec<(Prefix, Want<'a>)> {
        let mut listed: Vec<(Prefix, Want<'a>)> = lsdb
            .iter()
            .filter(|lsa| lsa.origin != self.root)
            .filter_map(|lsa| {
                let at = lsa.origin.index();
                let metric = *self.dist.get(at).filter(|d| **d != UNREACHED)?;
                let mask = self.masks.get(at * self.words..(at + 1) * self.words)?;
                Some(
                    lsa.prefixes
                        .iter()
                        .map(move |&prefix| (prefix, (metric, mask))),
                )
            })
            .flatten()
            .collect();
        listed.sort_by_key(|&(prefix, ..)| prefix);
        listed
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
///
/// **Row stamps.** A rebuild stamps each origin's distance row and each
/// node's interface list with the build it last differed from the build
/// before at, and a change of shape — the node count, an origin's prefix
/// list, one prefix advertised twice — stamps all of them. A row stamped
/// at or before build `b` has held the same values since `b`, so a run
/// that last read this table at `b` re-derives only the origins stamped
/// after it.
#[derive(Default)]
pub struct SpfTable {
    /// The table's identity: a stamp taken from another table names
    /// another allocation, however many builds that table has had.
    identity: Arc<()>,
    /// The LSDB slots the table was built from.
    snapshot: Vec<Option<Arc<Lsa>>>,
    /// Node `u`'s [`usable`] interfaces: `adjacent[start[u]..start[u + 1]]`.
    start: Vec<usize>,
    adjacent: Vec<NextHop>,
    /// Per node: the build its `adjacent` row last changed at.
    adjacent_changed: Vec<u64>,
    /// The prefix origins in LSDB order; origin `i`'s distance to node `v`
    /// is `dist[i * snapshot.len() + v]`.
    origins: Vec<NodeId>,
    dist: Vec<u16>,
    /// Per origin: the build its `dist` row last changed at.
    row_changed: Vec<u64>,
    /// The build the shape last changed at.
    reshaped: u64,
    builds: u64,
}

impl SpfTable {
    /// How often the table was built: every other run read it as it stood.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Makes the table describe `lsdb`: kept when every slot is the `Arc`
    /// it was built from, rebuilt otherwise, each row searched into one
    /// scratch row and stamped if it differs from the row it replaces.
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
        let build = self.builds;
        fn prefixes(slot: &Option<Arc<Lsa>>) -> &[Prefix] {
            slot.as_deref().map_or(&[], |lsa| &lsa.prefixes)
        }
        if self.snapshot.len() != slots.len()
            || self
                .snapshot
                .iter()
                .zip(slots)
                .any(|(have, want)| prefixes(have) != prefixes(want))
            || advertised_twice(lsdb)
        {
            self.reshaped = build;
        }
        let reshaped = self.reshaped == build;
        self.snapshot.clear();
        self.snapshot.extend_from_slice(slots);
        let n = self.snapshot.len();

        let mut start = Vec::with_capacity(n + 1);
        let mut adjacent = Vec::with_capacity(self.adjacent.len());
        start.push(0);
        self.adjacent_changed.resize(n, build);
        self.origins.clear();
        let nodes = self.snapshot.iter().zip(&mut self.adjacent_changed);
        for (u, (lsa, changed)) in nodes.enumerate() {
            let from = adjacent.len();
            if let Some(lsa) = lsa {
                adjacent.extend(usable(lsdb, lsa.origin));
                if !lsa.prefixes.is_empty() {
                    self.origins.push(lsa.origin);
                }
            }
            if reshaped || adjacent.get(from..) != Some(csr_row(&self.start, &self.adjacent, u)) {
                *changed = build;
            }
            start.push(adjacent.len());
        }
        self.start = start;
        self.adjacent = adjacent;

        let mut dist = std::mem::take(&mut self.dist);
        dist.resize(self.origins.len() * n, FAR);
        self.row_changed.resize(self.origins.len(), build);
        let mut row = vec![FAR; n];
        let mut queue = Vec::with_capacity(n);
        let rows = dist.chunks_mut(n.max(1)).zip(&mut self.row_changed);
        for (&origin, (have, changed)) in self.origins.iter().zip(rows) {
            row.fill(FAR);
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
                for hop in csr_row(&self.start, &self.adjacent, u.index()) {
                    if let Some(d) = row.get_mut(hop.node.index()).filter(|d| **d == FAR) {
                        *d = next;
                        queue.push(hop.node);
                    }
                }
            }
            if reshaped || *have != *row {
                have.copy_from_slice(&row);
                *changed = build;
            }
        }
        self.dist = dist;
    }

    /// The build `from` names, if every route it left whose origin's row
    /// has not changed since is still what the table makes of it at
    /// `root`: `from` is this table's, and neither the shape nor `root`'s
    /// interfaces changed after it.
    fn unchanged_since(&self, from: Option<&(Arc<()>, u64)>, root: NodeId) -> Option<u64> {
        let (identity, build) = from?;
        let ifaces = self.adjacent_changed.get(root.index())?;
        (Arc::ptr_eq(identity, &self.identity) && self.reshaped <= *build && ifaces <= build)
            .then_some(*build)
    }

    /// `u`'s usable interfaces, sorted.
    fn adjacent(&self, u: NodeId) -> &[NextHop] {
        csr_row(&self.start, &self.adjacent, u.index())
    }
}

/// Row `u` of the compressed sparse rows `adjacent[start[u]..start[u + 1]]`.
fn csr_row<'a>(start: &[usize], adjacent: &'a [NextHop], u: usize) -> &'a [NextHop] {
    match start.get(u..u + 2) {
        Some(&[from, to]) => adjacent.get(from..to).unwrap_or_default(),
        _ => &[],
    }
}

/// Whether one prefix is advertised twice: which route it gets then hangs
/// on more than one row.
fn advertised_twice(lsdb: &Lsdb) -> bool {
    let mut prefixes: Vec<Prefix> = lsdb
        .iter()
        .flat_map(|lsa| lsa.prefixes.iter().copied())
        .collect();
    prefixes.sort_unstable();
    prefixes
        .windows(2)
        .any(|pair| matches!(pair, [a, b] if a == b))
}

impl fmt::Debug for SpfTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SpfTable({} slots, {} builds)",
            self.snapshot.len(),
            self.builds
        )
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
    use dcn_net::{Ipv4Addr, LinkId, Prefix};

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

    /// Root 0 over nodes 1 and 2 to three origins, 3, 4 and 5, each
    /// attached to both: 3 over links 2 and 3, 4 over 4 and 5, 5 over 6
    /// and 7. `dropped` is a link neither end advertises.
    fn two_tier(db: &mut Lsdb, seq: u64, dropped: Option<u32>) {
        let links: [(u32, u32, u32); 8] = [
            (0, 1, 0),
            (0, 2, 1),
            (3, 1, 2),
            (3, 2, 3),
            (4, 1, 4),
            (4, 2, 5),
            (5, 1, 6),
            (5, 2, 7),
        ];
        for node in 0..6 {
            let neighbors = links
                .iter()
                .filter(|&&(.., l)| Some(l) != dropped)
                .filter_map(|&(a, b, l)| match node {
                    _ if node == a => Some(adj(b, l)),
                    _ if node == b => Some(adj(a, l)),
                    _ => None,
                })
                .collect();
            let prefixes = match node {
                3.. => vec![Prefix::truncating(Ipv4Addr::new(10, 11, node as u8, 0), 24)],
                _ => vec![],
            };
            db.install(Lsa {
                origin: NodeId::new(node),
                seq,
                neighbors,
                prefixes,
            });
        }
    }

    /// Link 3 (3–2) fails: only origin 3's distances change (its
    /// distance to node 2, 1 → 3), so the run rewrites its route alone and
    /// every other route keeps its next-hop allocation.
    #[test]
    fn a_run_rewrites_only_the_routes_of_changed_rows() {
        let root = NodeId::new(0);
        let (mut db, mut table, mut emitted) =
            (Lsdb::new(), SpfTable::default(), Emitted::default());
        two_tier(&mut db, 1, None);
        emit_delta(&db, root, &mut table, &mut emitted);
        let before = emitted.routes.clone();
        assert_eq!(before, compute_routes(&db, root));

        two_tier(&mut db, 2, Some(3));
        let delta = emit_delta(&db, root, &mut table, &mut emitted);
        let stamped: Vec<NodeId> = table
            .origins
            .iter()
            .zip(&table.row_changed)
            .filter(|&(_, &build)| build == table.builds())
            .map(|(&origin, _)| origin)
            .collect();
        assert_eq!(stamped, [NodeId::new(3)], "one row changed");
        let after = compute_routes(&db, root);
        assert_eq!(emitted.routes, after);
        assert_eq!(delta.ops, [FibOp::Insert(after[0].clone())]);
        assert_eq!(after[0].next_hops.len(), 1, "only the 1-arm is left");
        for (old, new) in before.iter().zip(&emitted.routes).skip(1) {
            assert_eq!(old.prefix, new.prefix);
            assert!(
                Arc::ptr_eq(&old.next_hops, &new.next_hops),
                "{} rewritten",
                new.prefix
            );
        }
    }
}
