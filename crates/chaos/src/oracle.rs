//! Runtime invariant oracles.
//!
//! The oracles watch an emulated [`Network`] while a failure schedule plays
//! out and report [`Violation`]s. Four invariant families (DESIGN.md §9):
//!
//! 1. **Loop-freedom at quiescence** — once every link is repaired and the
//!    control plane has drained, walking any monitored flow's forwarding
//!    chain must terminate at the destination. Transient micro-loops
//!    *during* reconvergence (the paper's own F²Tree design admits a
//!    documented two-node ping-pong between backup routes, condition C7)
//!    are not instant violations; they are counted as broken-connectivity
//!    time and bounded like blackholes.
//! 2. **Bounded blackholes** — any interval during which a monitored flow
//!    has no working forwarding chain must end within the protocol-timer
//!    budget: `slack + N × (detection + max_spf_hold_observed +
//!    fib_update)` where `N` is the number of physical link events
//!    overlapping the interval. Intervals during which source and
//!    destination were disconnected in the dynamic-routing graph (live,
//!    OSPF-active links — see [`routably_connected`]) are exempt: no
//!    amount of reconvergence can forward across a cut the routing
//!    protocol cannot see around.
//! 3. **FIB/LSDB consistency at quiescence** — each router's OSPF FIB
//!    entries must equal a fresh SPF over its own LSDB, and all LSDBs must
//!    be identical (the latter only if flooding was never partitioned:
//!    this model has no OSPF database exchange on adjacency-up).
//! 4. **TCP conservation** — for every tracked transfer, at all times
//!    `acked ≤ delivered ≤ total`, and after quiescence every transfer
//!    completes with exactly `total` bytes delivered (no duplicated or
//!    lost-forever segments).

use std::fmt;

use dcn_emu::{Hop, Network, WalkOutcome};
use dcn_net::{FlowKey, LinkId, NodeId};
use dcn_routing::{compute_routes, Lsa, RecoveryMode, Route, RouteOrigin};
use dcn_sim::{timers, SimDuration, SimTime};

use crate::engine::EngineConfig;

/// Fixed slack added to every blackhole bound: covers LSA flood
/// propagation/processing across the fabric and the event-granularity of
/// window sampling. One detection delay, the largest non-SPF term in the
/// budget.
const SLACK: SimDuration = timers::DETECTION_DELAY;

/// Which invariant a [`Violation`] broke.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A forwarding walk cycled after the network should have quiesced.
    PersistentLoop,
    /// A monitored flow was black-holed longer than the timer budget.
    BlackholeBound,
    /// A router's FIB disagrees with SPF over its own LSDB at quiescence.
    FibMismatch,
    /// Router LSDBs differ at quiescence despite an unpartitioned flood.
    LsdbDivergence,
    /// TCP conservation broke (`acked > delivered` or `delivered > total`).
    TcpConservation,
    /// A tracked transfer never completed despite full repair and drain.
    IncompleteTransfer,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::PersistentLoop => "persistent-loop",
            ViolationKind::BlackholeBound => "blackhole-bound",
            ViolationKind::FibMismatch => "fib-mismatch",
            ViolationKind::LsdbDivergence => "lsdb-divergence",
            ViolationKind::TcpConservation => "tcp-conservation",
            ViolationKind::IncompleteTransfer => "incomplete-transfer",
        };
        f.write_str(s)
    }
}

/// One oracle violation, with enough context to read the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Simulation time of detection.
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.kind, self.detail)
    }
}

/// What one [`Network::walk`] read: each hop it took, each router it
/// consulted with that router's
/// [`forwarding_version`](dcn_routing::RouterProcess::forwarding_version),
/// and where it ended. Nothing else a walk reads changes during a run, so
/// while every router reads the same version and every link taken is up
/// but the dead one it ended on, a new walk would retrace the same hops
/// to the same outcome.
#[derive(Default)]
pub(crate) struct Trail {
    hops: Vec<Hop>,
    routers: Vec<(NodeId, u64)>,
    outcome: Option<WalkOutcome>,
}

impl Trail {
    /// [`Network::walk`]: the last walk's outcome while its trail holds,
    /// else a new walk, recorded.
    pub fn walk(&mut self, net: &Network, key: &FlowKey, src: NodeId, dst: NodeId) -> WalkOutcome {
        let version = |node| net.router(node).map(|r| r.forwarding_version());
        if let Some(outcome) = self.outcome {
            let as_walked = |hop: &Hop| {
                net.link_state(hop.link).is_up() != (outcome == WalkOutcome::DeadLink(hop.link))
            };
            if self.routers.iter().all(|&(n, v)| version(n) == Some(v))
                && self.hops.iter().all(as_walked)
            {
                debug_assert_eq!(
                    outcome,
                    net.walk(key, src, dst, &mut Vec::new()),
                    "stale walk of {key:?}"
                );
                return outcome;
            }
        }
        let outcome = net.walk(key, src, dst, &mut self.hops);
        // The routers left on the way, and the one that had no route.
        let stuck = match outcome {
            WalkOutcome::NoRoute(node) => Some(node),
            _ => None,
        };
        let consulted = self.hops.iter().map(|hop| hop.node).chain(stuck);
        self.routers.clear();
        self.routers
            .extend(consulted.filter_map(|node| Some((node, version(node)?))));
        self.outcome = Some(outcome);
        outcome
    }
}

/// Whether `src` can reach `dst` through the **dynamic-routing graph**:
/// physically-up links that OSPF actually routes over (non-passive).
///
/// This is the blackhole-exemption predicate. F²Tree's across-links are
/// OSPF-passive — they carry pre-installed static backup routes but are
/// invisible to SPF — so a failure combination whose only surviving paths
/// cross passive links can leave converged OSPF with *no* route even
/// though the network is physically connected (e.g. one uplink of the
/// source ToR plus the far ToR–agg link in the destination pod). No
/// amount of reconvergence heals that; the paper's bounded-recovery claim
/// covers only failures the routing system can route around.
pub fn routably_connected(net: &Network, src: NodeId, dst: NodeId) -> bool {
    // A link is OSPF-active unless a router endpoint marks it passive.
    // Host links have one non-router endpoint and are always usable
    // (directly connected routes).
    let usable = |link, a, b| {
        [a, b]
            .into_iter()
            .all(|n| net.router(n).is_none_or(|r| !r.is_passive(link)))
    };
    search(net, src, usable, |node| node == dst)
}

/// Whether the OSPF flood graph (switch-to-switch, non-passive, physically
/// up links) is connected. When it is not, LSDBs legitimately diverge and
/// stay diverged after repair — this model, like early OSPF, has no
/// database exchange on adjacency restoration.
pub fn flood_graph_connected(net: &Network, switches: &[NodeId]) -> bool {
    let Some(&start) = switches.first() else {
        return true;
    };
    let floods =
        |link, a, b| net.router(b).is_some() && net.router(a).is_some_and(|r| !r.is_passive(link));
    let mut seen = 0;
    search(net, start, floods, |_| {
        seen += 1;
        seen == switches.len()
    })
}

/// Breadth-first search from `start` over physically-up links that
/// `usable(link, from, to)` admits; answers `true` as soon as `stop`
/// accepts a visited node, `false` once every reachable node was visited.
fn search(
    net: &Network,
    start: NodeId,
    usable: impl Fn(LinkId, NodeId, NodeId) -> bool,
    mut stop: impl FnMut(NodeId) -> bool,
) -> bool {
    let topo = net.topology();
    let mut visited = vec![false; topo.node_slots()];
    // Marks `node` visited; whether it was new.
    let mut visit = |node: NodeId| {
        visited
            .get_mut(node.index())
            .is_some_and(|v| !std::mem::replace(v, true))
    };
    visit(start);
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(node) = queue.pop_front() {
        if stop(node) {
            return true;
        }
        for (link, neighbor) in topo.neighbors(node) {
            if net.link_state(link).is_up() && usable(link, node, neighbor) && visit(neighbor) {
                queue.push_back(neighbor);
            }
        }
    }
    false
}

/// The per-window blackhole budget: `slack + n_events × (detection +
/// max_hold + fib_update)`, with `n_events` clamped to at least one.
///
/// Derivation (DESIGN.md §9): each physical event overlapping the window
/// costs at most one detection delay before the adjacent routers notice,
/// one SPF scheduling delay — which under churn is the *observed* throttle
/// hold, not the 200 ms initial value — and one FIB-update delay before
/// new routes take effect. Flood propagation and event-sampling
/// granularity are covered by `slack`, one detection delay.
///
/// When the engine runs [`RecoveryMode::PrecomputedFrr`] the SPF terms
/// vanish: the repair route was precomputed, so per event the flow waits
/// only for detection plus one FIB update —
/// `slack + n_events × (detection + fib_update)` — no matter how long the
/// throttled SPF is held. This is the tightened bound the FRR campaigns
/// exist to enforce.
pub fn blackhole_bound(cfg: &EngineConfig, n_events: u64, max_hold: SimDuration) -> SimDuration {
    let per_event = if cfg.recovery == RecoveryMode::PrecomputedFrr {
        timers::DETECTION_DELAY + timers::FIB_UPDATE_DELAY
    } else {
        timers::DETECTION_DELAY + max_hold.max(timers::SPF_INITIAL_DELAY) + timers::FIB_UPDATE_DELAY
    };
    SLACK + per_event * n_events.max(1)
}

/// Compares a router's OSPF FIB entries with a fresh SPF over its LSDB
/// as sorted `(prefix, metric, next_hops)` sets; on a mismatch, renders
/// both as line sets and returns the divergence.
pub fn fib_spf_divergence(net: &Network, node: NodeId) -> Option<String> {
    let router = net.router(node)?;
    let computed = compute_routes(router.lsdb(), node);
    let expected = sorted_ospf_routes(computed.iter());
    let actual = sorted_ospf_routes(router.fib().routes());
    if expected == actual {
        return None;
    }
    let (expected, actual) = (sorted_route_lines(&expected), sorted_route_lines(&actual));
    let missing: Vec<_> = expected.iter().filter(|l| !actual.contains(l)).collect();
    let extra: Vec<_> = actual.iter().filter(|l| !expected.contains(l)).collect();
    Some(format!(
        "{node}: {} FIB route(s) missing vs SPF {missing:?}, {} extra {extra:?}",
        missing.len(),
        extra.len()
    ))
}

fn sorted_ospf_routes<'a>(routes: impl Iterator<Item = &'a Route>) -> Vec<&'a Route> {
    let mut routes: Vec<&Route> = routes.filter(|r| r.origin == RouteOrigin::Ospf).collect();
    routes.sort_unstable_by_key(|r| (r.prefix, r.metric, &r.next_hops));
    routes
}

fn sorted_route_lines(routes: &[&Route]) -> Vec<String> {
    let mut lines: Vec<String> = routes
        .iter()
        .map(|r| format!("{} metric={} hops={:?}", r.prefix, r.metric, r.next_hops))
        .collect();
    lines.sort();
    lines
}

/// Whether two routers hold the same LSDB: the same origins, each at the
/// same sequence number with the same adjacency and prefix sets (in any
/// order). LSAs are shared `Arc`s, so converged routers mostly compare
/// equal by address.
pub fn same_lsdb(net: &Network, a: NodeId, b: NodeId) -> bool {
    let lsas = |node| net.router(node).into_iter().flat_map(|r| r.lsdb().iter());
    let (mut left, mut right) = (lsas(a), lsas(b));
    loop {
        match (left.next(), right.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if same_lsa(x, y) => {}
            _ => return false,
        }
    }
}

fn same_lsa(x: &Lsa, y: &Lsa) -> bool {
    std::ptr::eq(x, y)
        || (x.origin == y.origin
            && x.seq == y.seq
            && same_set(&x.neighbors, &y.neighbors)
            && same_set(&x.prefixes, &y.prefixes))
}

fn same_set<T: Copy + Ord>(a: &[T], b: &[T]) -> bool {
    let sorted = |items: &[T]| {
        let mut items = items.to_vec();
        items.sort_unstable();
        items
    };
    a == b || sorted(a) == sorted(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{Ipv4Addr, Prefix};
    use dcn_routing::Adjacency;

    /// One LSA's line of the LSDB fingerprint `same_lsa` replaced.
    fn fingerprint(lsa: &Lsa) -> String {
        let mut adj: Vec<String> = lsa
            .neighbors
            .iter()
            .map(|a| format!("{}@{}", a.neighbor, a.link))
            .collect();
        adj.sort();
        let mut prefixes: Vec<String> = lsa.prefixes.iter().map(|p| p.to_string()).collect();
        prefixes.sort();
        let (origin, seq) = (lsa.origin, lsa.seq);
        format!("{origin} seq={seq} adj={adj:?} pfx={prefixes:?}\n")
    }

    #[test]
    fn same_lsa_is_what_the_rendered_fingerprint_compared() {
        let adj = |n: u32, l: u32| Adjacency {
            neighbor: NodeId::new(n),
            link: LinkId::new(l),
        };
        let rack = |third: u8| Prefix::new(Ipv4Addr::new(10, 11, third, 0), 24).unwrap();
        let base = Lsa {
            origin: NodeId::new(1),
            seq: 2,
            neighbors: vec![adj(2, 0), adj(3, 1), adj(12, 7)],
            prefixes: vec![rack(0), rack(1)],
        };
        let edited = |edit: &dyn Fn(&mut Lsa)| {
            let mut lsa = base.clone();
            edit(&mut lsa);
            lsa
        };
        let variants = [
            base.clone(),
            edited(&|l| l.neighbors.reverse()),
            edited(&|l| l.prefixes.reverse()),
            edited(&|l| l.seq = 3),
            edited(&|l| l.origin = NodeId::new(4)),
            edited(&|l| l.neighbors.truncate(2)),
            edited(&|l| l.neighbors = vec![adj(2, 0), adj(3, 1), adj(12, 8)]),
            edited(&|l| l.prefixes.truncate(1)),
            // Same length, same members, different multiplicities.
            edited(&|l| l.neighbors = vec![adj(2, 0), adj(2, 0), adj(3, 1)]),
            edited(&|l| l.neighbors = vec![adj(2, 0), adj(3, 1), adj(3, 1)]),
        ];
        for x in &variants {
            for y in &variants {
                let same = fingerprint(x) == fingerprint(y);
                assert_eq!(same_lsa(x, y), same, "{x:?} vs {y:?}");
            }
        }
        let [base, reordered, _, newer, ..] = &variants;
        assert!(same_lsa(base, reordered) && !same_lsa(base, newer));
    }

    #[test]
    fn bound_scales_with_events_and_hold() {
        let cfg = EngineConfig::default();
        let one = blackhole_bound(&cfg, 1, SimDuration::ZERO);
        // slack (60ms) + detection (60ms) + initial SPF (200ms) + FIB (10ms).
        assert_eq!(one.as_millis(), 330);
        let two = blackhole_bound(&cfg, 2, SimDuration::ZERO);
        assert_eq!(two.as_millis(), 600);
        // Observed hold above the initial delay widens the budget.
        let held = blackhole_bound(&cfg, 1, SimDuration::from_millis(800));
        assert_eq!(held.as_millis(), 930);
        // Zero events is clamped to one.
        assert_eq!(blackhole_bound(&cfg, 0, SimDuration::ZERO), one);
    }

    #[test]
    fn frr_bound_drops_the_spf_terms() {
        let cfg = EngineConfig {
            recovery: RecoveryMode::PrecomputedFrr,
            ..EngineConfig::default()
        };
        // slack (60ms) + detection (60ms) + FIB (10ms): no SPF delay, and
        // an arbitrarily long observed throttle hold must not widen it.
        let one = blackhole_bound(&cfg, 1, timers::SPF_MAX_HOLD);
        assert_eq!(one.as_millis(), 130);
        assert_eq!(blackhole_bound(&cfg, 2, SimDuration::ZERO).as_millis(), 200);
        assert_eq!(blackhole_bound(&cfg, 0, SimDuration::ZERO), one);
    }
}
