//! # dcn-frr — precomputed fast-reroute failure maps
//!
//! The paper's baseline recovery waits for OSPF (detection → flood → SPF
//! throttle → FIB update, ~270 ms on the testbed); F²Tree shortens it by
//! pre-installing static backup routes over rewired across links. Modern
//! fabrics go one step further and *precompute* failover state per link,
//! so recovery is bounded by detection delay alone (ROADMAP item 2;
//! Bankhamer et al., arXiv:2108.02136; Schweiger et al., arXiv:2111.14123).
//! This crate builds that state: for every (switch, adjacent-link) pair,
//! a repair [`FibDelta`] of loop-free alternate next hops, installed by
//! [`dcn_routing::RouterProcess`] the moment link-down detection fires
//! (`RecoveryMode::PrecomputedFrr`).
//!
//! ## The alternate tiers
//!
//! For a switch `S`, a failed adjacent link `L`, and a destination origin
//! `D` whose *every* primary (OSPF ECMP) next hop at `S` crosses `L`:
//!
//! 1. **ECMP survivor** — if some primary hop avoids `L`, no repair is
//!    needed at all: the FIB's dead-hop pruning reroutes in-place at
//!    lookup time. The map records the pair as protected and emits
//!    nothing.
//! 2. **LFA** — a non-passive neighbor `N` satisfying the loop-freedom
//!    inequality `dist(N, D) < dist(N, S) + dist(S, D)` (RFC 5286). All
//!    distances are OSPF-graph distances, because every *other* switch
//!    keeps forwarding along pre-failure shortest paths during the FRR
//!    transient.
//! 3. **Remote LFA** — when no OSPF neighbor qualifies, a PQ-node
//!    reachable through an OSPF-passive across link. F²Tree's rewiring
//!    makes the nearest PQ node a *direct physical neighbor* (ring
//!    neighbors at the same layer), so the RFC 7490 tunnel degenerates to
//!    a one-hop relay and needs no encapsulation: the repair next hop is
//!    the across port itself, and the same inequality (with the true
//!    OSPF distance `dist(N, S)`, typically 2 via a shared lower-layer
//!    switch) proves the relay's onward shortest paths avoid `S`.
//!
//! Uncovered pairs (no neighbor passes the inequality — e.g. a fat
//! tree's agg→ToR downlink, where every other neighbor routes back
//! through the failure) are left to OSPF reconvergence and counted in
//! [`FrrStats`]. This set is *closed*: any TREE-style edge-disjoint
//! failover tree (arXiv:2111.14123) escapes it only by carrying state the
//! plain longest-prefix-match FIB cannot hold (in-packet marks or
//! inbound-port match), so the per-destination failover structure this
//! crate builds — the union of chosen alternates, a DAG by the argument
//! below — is the local-FRR-expressible fragment of such a tree.
//!
//! ## Why the transient is loop-free
//!
//! Under a single link failure, at most one switch per destination
//! deviates from pre-failure shortest paths: if `L = (S, E)` and `S`
//! routes `D` over `L`, then `dist(S, D) = dist(E, D) + 1`, which
//! excludes the converse at `E`. The packet leaves `S` toward an
//! alternate `N` whose inequality guarantees every `N → D` shortest path
//! avoids `S`; all subsequent hops strictly decrease `dist(·, D)`. So
//! the post-failure forwarding graph toward each destination is acyclic —
//! exactly what `tests/lfa_props.rs` asserts over fat-tree, leaf-spine,
//! and VL2 topologies.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use dcn_net::{LinkId, NodeId, Prefix, Topology};
use dcn_routing::{FibDelta, FibOp, FrrPlan, NextHop, Route, RouteOrigin};

/// All-pairs OSPF-graph distances between switches (unit link costs,
/// passive links excluded — the metric every router's SPF agrees on).
pub struct OspfDistances {
    /// `switch_of[node.index()]`: the node's row and column in `dist`;
    /// [`NOT_A_SWITCH`] for hosts and removed slots, which have neither.
    switch_of: Vec<u32>,
    /// One flat `switches × switches` matrix, row = source; `u32::MAX`
    /// when unreachable (partitions).
    dist: Vec<u32>,
    switches: usize,
}

const NOT_A_SWITCH: u32 = u32::MAX;
const UNREACHED: u32 = u32::MAX;

impl OspfDistances {
    /// The distance from `from` to `to`, if reachable over non-passive
    /// switch-to-switch links.
    pub fn get(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let d = *self.row(self.switch(from)?).get(self.switch(to)?)?;
        (d != UNREACHED).then_some(d)
    }

    /// `node`'s row/column number, if it is a live switch.
    fn switch(&self, node: NodeId) -> Option<usize> {
        let s = *self.switch_of.get(node.index())?;
        (s != NOT_A_SWITCH).then_some(s as usize)
    }

    /// The distances from switch number `s` to every switch number
    /// ([`UNREACHED`] where there is no path).
    fn row(&self, s: usize) -> &[u32] {
        self.dist
            .get(s * self.switches..(s + 1) * self.switches)
            .unwrap_or_default()
    }
}

impl fmt::Debug for OspfDistances {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OspfDistances")
            .field("switches", &self.switches)
            .finish()
    }
}

/// Computes [`OspfDistances`] for `topo` with the given passive link set
/// (BFS per switch; unit costs match the emulator's SPF metric).
pub fn compute_distances(topo: &Topology, passive: &BTreeSet<LinkId>) -> OspfDistances {
    let mut switch_of = vec![NOT_A_SWITCH; topo.node_slots()];
    let mut ids: Vec<NodeId> = Vec::new();
    for node in topo.nodes().filter(|n| n.kind().is_switch()) {
        if let Some(slot) = switch_of.get_mut(node.id().index()) {
            *slot = ids.len() as u32;
            ids.push(node.id());
        }
    }
    let switches = ids.len();

    // The usable adjacencies in compressed sparse rows: switch number
    // `s`'s neighbors are `targets[starts[s]..starts[s + 1]]`.
    let mut starts = Vec::with_capacity(switches + 1);
    let mut targets: Vec<u32> = Vec::new();
    for &id in &ids {
        starts.push(targets.len());
        targets.extend(
            topo.neighbors(id)
                .filter(|(link, _)| !passive.contains(link))
                .filter_map(|(_, nbr)| switch_of.get(nbr.index()).copied())
                .filter(|&nbr| nbr != NOT_A_SWITCH),
        );
    }
    starts.push(targets.len());

    let mut dist = vec![UNREACHED; switches * switches];
    let mut queue: Vec<u32> = Vec::with_capacity(switches);
    // (A chunk size of 0 panics; without switches there is no row anyway.)
    for (src, row) in dist.chunks_exact_mut(switches.max(1)).enumerate() {
        queue.clear();
        queue.push(src as u32);
        if let Some(d) = row.get_mut(src) {
            *d = 0;
        }
        let mut head = 0;
        while let Some(&at) = queue.get(head) {
            head += 1;
            let at = at as usize;
            let (Some(&d_at), Some(&from), Some(&to)) =
                (row.get(at), starts.get(at), starts.get(at + 1))
            else {
                continue;
            };
            for &nbr in targets.get(from..to).unwrap_or_default() {
                if let Some(d) = row.get_mut(nbr as usize).filter(|d| **d == UNREACHED) {
                    *d = d_at + 1;
                    queue.push(nbr);
                }
            }
        }
    }
    OspfDistances {
        switch_of,
        dist,
        switches,
    }
}

/// Which tier produced an alternate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlternateKind {
    /// A non-passive (OSPF-visible) neighbor passing the loop-freedom
    /// inequality.
    Lfa,
    /// A PQ node behind an OSPF-passive across link — the one-hop
    /// remote-LFA relay F²Tree's rewiring provides.
    RemoteLfa,
}

impl fmt::Display for AlternateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlternateKind::Lfa => "lfa",
            AlternateKind::RemoteLfa => "rlfa",
        })
    }
}

/// A precomputed loop-free alternate for one (switch, failed link,
/// destination origin) triple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alternate {
    /// The repair next hops (every qualifying neighbor at the nearest
    /// distance tier; ties become an ECMP set).
    pub next_hops: Vec<NextHop>,
    /// `dist(N, D)` of the chosen tier.
    pub distance: u32,
    /// Which tier qualified ([`AlternateKind::Lfa`] wins the label when
    /// the tier mixes both).
    pub kind: AlternateKind,
}

/// Aggregate coverage counters over (switch, failed link, destination
/// origin) triples whose primary path uses the link.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FrrStats {
    /// Triples where some primary ECMP hop survives the failure (no
    /// repair route needed).
    pub ecmp_survivor: usize,
    /// Triples repaired by an OSPF-visible LFA neighbor.
    pub lfa: usize,
    /// Triples repaired through a passive across link (remote LFA).
    pub remote_lfa: usize,
    /// Triples with no loop-free alternate (left to OSPF reconvergence).
    pub uncovered: usize,
}

impl FrrStats {
    /// Triples protected without waiting for SPF.
    pub fn protected(&self) -> usize {
        self.ecmp_survivor + self.lfa + self.remote_lfa
    }

    /// Triples affected by some single-link failure at all.
    pub fn total(&self) -> usize {
        self.protected() + self.uncovered
    }
}

/// The per-topology failure map: for every (switch, adjacent link) pair,
/// the repair [`FibDelta`] to install when that link is detected dead.
pub struct FailureMap {
    plans: BTreeMap<NodeId, FrrPlan>,
    alternates: BTreeMap<(NodeId, LinkId, NodeId), Alternate>,
    stats: FrrStats,
}

impl FailureMap {
    /// The repair plan for one switch (empty map if it never needs one).
    pub fn plan(&self, node: NodeId) -> Option<&FrrPlan> {
        self.plans.get(&node)
    }

    /// Consumes the map into per-switch plans for
    /// [`dcn_routing::RouterProcess::set_frr_plan`].
    pub fn into_plans(self) -> BTreeMap<NodeId, FrrPlan> {
        self.plans
    }

    /// The alternate chosen for (switch, failed link, destination
    /// origin), if that triple needed and found one.
    pub fn alternate(&self, node: NodeId, link: LinkId, origin: NodeId) -> Option<&Alternate> {
        self.alternates.get(&(node, link, origin))
    }

    /// Every precomputed alternate, in deterministic key order.
    pub fn alternates(
        &self,
    ) -> impl Iterator<Item = (&(NodeId, LinkId, NodeId), &Alternate)> + '_ {
        self.alternates.iter()
    }

    /// Coverage counters.
    pub fn stats(&self) -> FrrStats {
        self.stats
    }
}

impl fmt::Debug for FailureMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FailureMap")
            .field("switches", &self.plans.len())
            .field("alternates", &self.alternates.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Precomputes the failure map for `topo`.
///
/// * `passive` — OSPF-passive links (F²Tree across links): excluded from
///   distances and primary paths, *eligible* as remote-LFA relays.
/// * `origins` — destination prefixes per advertising switch (a ToR's
///   rack subnet), exactly as the routers advertise them.
///
/// The computation is deterministic: iteration follows `BTreeMap`/id
/// order everywhere, so equal inputs yield byte-equal plans.
pub fn compute_failure_map(
    topo: &Topology,
    passive: &BTreeSet<LinkId>,
    origins: &BTreeMap<NodeId, Vec<Prefix>>,
) -> FailureMap {
    let dist = compute_distances(topo, passive);
    let mut plans: BTreeMap<NodeId, FrrPlan> = BTreeMap::new();
    let mut alternates = BTreeMap::new();
    let mut stats = FrrStats::default();

    // The destinations a switch can hold a primary path to: live switches
    // (anything else has no distance row) advertising at least one prefix.
    let targets: Vec<(NodeId, usize, &[Prefix])> = origins
        .iter()
        .filter(|(_, prefixes)| !prefixes.is_empty())
        .filter_map(|(&origin, prefixes)| Some((origin, dist.switch(origin)?, prefixes.as_slice())))
        .collect();

    /// One adjacent switch link of the switch under work.
    struct Port<'a> {
        hop: NextHop,
        passive: bool,
        /// `dist(neighbor, ·)` by switch number.
        row: &'a [u32],
    }

    for node in topo.nodes().filter(|n| n.kind().is_switch()) {
        let s = node.id();
        let Some(si) = dist.switch(s) else { continue };
        let from_s = dist.row(si);
        // Adjacent switch links (a multigraph lists parallel links
        // separately), ordered for determinism.
        let mut adjacent: Vec<Port<'_>> = topo
            .neighbors(s)
            .filter_map(|(link, nbr)| {
                Some(Port {
                    hop: NextHop { node: nbr, link },
                    passive: passive.contains(&link),
                    row: dist.row(dist.switch(nbr)?),
                })
            })
            .collect();
        adjacent.sort_by_key(|port| port.hop.link);
        // Per failed link, the repair routes keyed by prefix.
        let mut repairs: BTreeMap<LinkId, BTreeMap<Prefix, Route>> = BTreeMap::new();
        // The switch's repair sets, one allocation each, and the buffer
        // an alternate's hops are sorted into to find theirs.
        let mut sets: Vec<Arc<[NextHop]>> = Vec::new();
        let mut set: Vec<NextHop> = Vec::new();
        for &(origin, oi, prefixes) in &targets {
            if origin == s {
                continue;
            }
            let Some(&d_s) = from_s.get(oi).filter(|d| **d != UNREACHED) else {
                continue;
            };
            // Primary ECMP hops: non-passive neighbors one step closer to
            // the origin. They depend on (S, D) only, so they are counted
            // once and not once per failed link. Passive links carry no
            // primaries; their failure needs no repair route anywhere.
            let mut primaries = adjacent.iter().filter(|port| {
                !port.passive && port.row.get(oi).and_then(|d| d.checked_add(1)) == Some(d_s)
            });
            let Some(failed) = primaries.next() else {
                continue;
            };
            let others = primaries.count();
            if others > 0 {
                // Whichever primary fails, another survives: dead-hop
                // pruning reroutes in place. One triple per primary link.
                stats.ecmp_survivor += 1 + others;
                continue;
            }
            // `failed` is the sole primary — the one adjacent link whose
            // failure cuts S off from D. Tiers 2–3: any adjacent switch
            // (OSPF or across) that passes the loop-freedom inequality,
            // nearest tier wins.
            let failed = failed.hop.link;
            let mut best: Option<(u32, Vec<(NextHop, AlternateKind)>)> = None;
            for port in adjacent.iter().filter(|port| port.hop.link != failed) {
                let (Some(&d_nd), Some(&d_ns)) = (port.row.get(oi), port.row.get(si)) else {
                    continue;
                };
                if d_nd == UNREACHED || d_ns == UNREACHED || d_nd >= d_ns + d_s {
                    continue; // fails the inequality: may loop via S
                }
                let kind = if port.passive {
                    AlternateKind::RemoteLfa
                } else {
                    AlternateKind::Lfa
                };
                let hop = (port.hop, kind);
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
            set.clone_from(&next_hops);
            set.sort();
            set.dedup();
            let shared = match sets.iter().find(|have| ***have == *set) {
                Some(have) => Arc::clone(have),
                None => {
                    let new: Arc<[NextHop]> = Arc::from(set.as_slice());
                    sets.push(Arc::clone(&new));
                    new
                }
            };
            alternates.insert((s, failed, origin), Alternate { next_hops, distance, kind });
            let routes = repairs.entry(failed).or_default();
            for &prefix in prefixes {
                let route = Route {
                    prefix,
                    origin: RouteOrigin::Frr,
                    metric: distance + 1,
                    next_hops: Arc::clone(&shared),
                };
                routes.insert(prefix, route);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{assign_addresses, FatTree, Layer, LinkClass, PodId};

    fn origins_of(topo: &mut Topology) -> BTreeMap<NodeId, Vec<Prefix>> {
        let plan = assign_addresses(topo).unwrap();
        topo.nodes()
            .filter(|n| n.kind().is_switch())
            .map(|n| n.id())
            .map(|id| (id, plan.subnet_of(id).into_iter().collect()))
            .collect()
    }

    #[test]
    fn fat_tree_tor_uplink_failures_are_ecmp_survivors() {
        let mut topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let origins = origins_of(&mut topo);
        let map = compute_failure_map(&topo, &BTreeSet::new(), &origins);
        let stats = map.stats();
        // A k=4 fat tree has no across links and no LFAs at all: every
        // protected triple is an ECMP survivor, every downward-only path
        // (agg→ToR, core→agg) is uncovered. This is the paper's premise:
        // plain fat trees need either reconvergence or rewiring.
        assert!(stats.ecmp_survivor > 0);
        assert_eq!(stats.lfa, 0);
        assert_eq!(stats.remote_lfa, 0);
        assert!(stats.uncovered > 0);
        assert!(map.plans.is_empty());
    }

    #[test]
    fn across_ring_provides_remote_lfa_coverage() {
        // A minimal F²Tree-style cell: two aggs over two ToRs, with a
        // passive across link joining the aggs (the 2-link rewiring).
        //
        //   a0 ── t0 ── a1        a0 ══ a1   (across, passive)
        //   a0 ── t1 ── a1
        let mut topo = Topology::new("cell", None);
        let t0 = topo.add_switch("t0", Layer::Tor, PodId::new(0), 0);
        let t1 = topo.add_switch("t1", Layer::Tor, PodId::new(0), 1);
        let a0 = topo.add_switch("a0", Layer::Agg, PodId::new(0), 0);
        let a1 = topo.add_switch("a1", Layer::Agg, PodId::new(0), 1);
        for tor in [t0, t1] {
            for agg in [a0, a1] {
                topo.add_link(agg, tor, LinkClass::Vertical).unwrap();
            }
        }
        let across = topo.add_link(a0, a1, LinkClass::Across).unwrap();
        let passive = BTreeSet::from([across]);
        let prefix: Prefix = "10.0.0.0/24".parse().unwrap();
        let origins = BTreeMap::from([(t0, vec![prefix])]);
        let map = compute_failure_map(&topo, &passive, &origins);

        // a0's downlink to t0 has no OSPF alternate (t1 and the LSDB
        // route back through the failure), but the across relay a1 is a
        // PQ node: dist(a1, t0)=1 < dist(a1, a0)=2 + dist(a0, t0)=1.
        let failed = topo.link_between(a0, t0).unwrap();
        let alt = map.alternate(a0, failed, t0).expect("across covers a0");
        assert_eq!(alt.kind, AlternateKind::RemoteLfa);
        assert_eq!(alt.next_hops, vec![NextHop { node: a1, link: across }]);
        // And the emitted plan carries it as a ready-to-install delta.
        let plan = map.plan(a0).unwrap();
        let delta = plan.get(&failed).unwrap();
        assert_eq!(delta.origin, RouteOrigin::Frr);
        assert_eq!(delta.ops.len(), 1);
        // Without the across link, the same failure is uncovered.
        let bare = compute_failure_map(&topo, &passive, &origins);
        assert_eq!(bare.stats().remote_lfa, map.stats().remote_lfa);
        let mut no_across = Topology::new("bare", None);
        let bt0 = no_across.add_switch("t0", Layer::Tor, PodId::new(0), 0);
        let bt1 = no_across.add_switch("t1", Layer::Tor, PodId::new(0), 1);
        let ba0 = no_across.add_switch("a0", Layer::Agg, PodId::new(0), 0);
        let ba1 = no_across.add_switch("a1", Layer::Agg, PodId::new(0), 1);
        for tor in [bt0, bt1] {
            for agg in [ba0, ba1] {
                no_across.add_link(agg, tor, LinkClass::Vertical).unwrap();
            }
        }
        let origins = BTreeMap::from([(bt0, vec![prefix])]);
        let map = compute_failure_map(&no_across, &BTreeSet::new(), &origins);
        assert!(map.alternate(ba0, no_across.link_between(ba0, bt0).unwrap(), bt0).is_none());
        assert!(map.stats().uncovered > 0);
    }

    #[test]
    fn map_is_deterministic() {
        let mut topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let origins = origins_of(&mut topo);
        let a = compute_failure_map(&topo, &BTreeSet::new(), &origins);
        let b = compute_failure_map(&topo, &BTreeSet::new(), &origins);
        assert_eq!(a.stats(), b.stats());
        let pa: Vec<_> = a.alternates().collect();
        let pb: Vec<_> = b.alternates().collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn distances_match_hand_counts() {
        let mut topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let _ = origins_of(&mut topo);
        let dist = compute_distances(&topo, &BTreeSet::new());
        let tors: Vec<NodeId> = topo.layer_switches(Layer::Tor).collect();
        // Same-pod ToRs: up to shared agg and back down = 2. Different
        // pods: via core = 4.
        assert_eq!(dist.get(tors[0], tors[1]), Some(2));
        assert_eq!(dist.get(tors[0], tors[2]), Some(4));
        assert_eq!(dist.get(tors[0], tors[0]), Some(0));
        let host = topo.hosts()[0];
        assert_eq!(dist.get(tors[0], host), None);
    }
}
