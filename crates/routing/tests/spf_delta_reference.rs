//! The SPF-delta reference oracle: a `RouterProcess` emits each SPF run's
//! delta by merging the shortest-path tree into its prefix-sorted
//! emitted-route memory; that delta must equal, op for op and in order,
//! what the router computed before — `FibDelta::diff` between the two
//! successive `compute_routes` tables keyed by prefix.
//!
//! The reference is the old `run_spf` body verbatim (`by_prefix` +
//! `FibDelta::diff`), fed from the router's own LSDB after every step, so
//! it shares nothing with the merge but the tree kernel `compute_routes`
//! already has an oracle for (`spf_reference.rs`) — and nothing with the
//! `SpfTable` the router reads its tree from: `compute_routes` runs its
//! own BFS from the root. The fleet walks below have several routers
//! share one table while their LSDBs drift apart and back together.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

use dcn_net::{FatTree, Ipv4Addr, Layer, LinkId, NodeId, Prefix, Topology};
use dcn_routing::{
    compute_routes, Adjacency, FibDelta, FibOp, Lsa, Route, RouteOrigin, RouterAction,
    RouterConfig, RouterProcess, SpfTable,
};
use dcn_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Keys a route list by prefix (duplicate prefixes: last wins) — the old
/// `RouterProcess` helper.
fn by_prefix(routes: Vec<Route>) -> BTreeMap<Prefix, Route> {
    routes.into_iter().map(|r| (r.prefix, r)).collect()
}

const ROOT: NodeId = NodeId::new(0);
const NODES: u32 = 8;

/// A prefix-ordered list of one route per prefix, put in the order
/// `Fib::routes` lists: prefix length descending, then prefix.
fn lookup_order<R: Borrow<Route>>(mut routes: Vec<R>) -> Vec<R> {
    routes.sort_by_key(|r| (Reverse(r.borrow().prefix.len()), r.borrow().prefix));
    routes
}

/// The edge universe `(a, b, link)`: the root has four interfaces (two of
/// them parallel links to node 1), the rest is a small mesh with a
/// parallel pair, a pendant node and a long way round.
const EDGES: [(u32, u32, u32); 14] = [
    (0, 1, 0),
    (0, 1, 1),
    (0, 2, 2),
    (0, 3, 3),
    (1, 4, 4),
    (2, 4, 5),
    (2, 5, 6),
    (3, 5, 7),
    (4, 6, 8),
    (5, 6, 9),
    (5, 6, 10),
    (6, 7, 11),
    (3, 7, 12),
    (1, 2, 13),
];

/// Five prefixes for seven advertisers, so two LSAs naming one prefix is
/// the common case; one /16 covers the /24s (nesting is the FIB's
/// business, the delta treats it as one more key).
fn pool() -> Vec<Prefix> {
    [
        "10.11.0.0/24",
        "10.11.1.0/24",
        "10.11.2.0/24",
        "10.11.0.0/16",
        "10.12.0.0/24",
    ]
    .iter()
    .map(|p| p.parse().unwrap())
    .collect()
}

fn interfaces_of(node: u32) -> Vec<Adjacency> {
    EDGES
        .iter()
        .filter_map(|&(a, b, l)| match node {
            n if n == a => Some((b, l)),
            n if n == b => Some((a, l)),
            _ => None,
        })
        .map(|(n, l)| Adjacency {
            neighbor: NodeId::new(n),
            link: LinkId::new(l),
        })
        .collect()
}

/// A random LSA of `origin`: each incident edge advertised with
/// probability `keep`/8 (so one-way adjacencies abound), zero to three
/// pool prefixes, now and then the same prefix twice.
fn random_lsa(rng: &mut TestRng, origin: u32, seq: u64, keep: u64) -> Arc<Lsa> {
    let neighbors = interfaces_of(origin)
        .into_iter()
        .filter(|_| rng.next_below(8) < keep)
        .collect();
    let pool = pool();
    let prefixes = (0..rng.next_below(4))
        .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
        .collect();
    Arc::new(Lsa {
        origin: NodeId::new(origin),
        seq,
        neighbors,
        prefixes,
    })
}

/// `lsa`, advertising its origin's own prefix instead of pool prefixes
/// when `own` is set: then no prefix is advertised twice and no LSA
/// changes a prefix list, so the table's shape holds and a run re-derives
/// only the origins whose distances changed.
fn own_prefix(lsa: Arc<Lsa>, own: bool) -> Arc<Lsa> {
    if !own {
        return lsa;
    }
    let at = Ipv4Addr::new(10, 20, lsa.origin.as_u32() as u8, 0);
    Arc::new(Lsa {
        prefixes: vec![Prefix::truncating(at, 24)],
        ..Lsa::clone(&lsa)
    })
}

/// The router under test plus the reference's memory of the table the
/// last run (an SPF run or a controller push) left behind.
struct Harness {
    router: RouterProcess,
    /// Every remote origin advertises one prefix of its own ([`own_prefix`]).
    own_prefixes: bool,
    spf: SpfTable,
    table: BTreeMap<Prefix, Route>,
    now: SimTime,
    seq: u64,
    runs: usize,
    /// Ops the controller pushes emitted.
    pushed_ops: usize,
}

impl Harness {
    fn new(rng: &mut TestRng, own_prefixes: bool) -> Self {
        let mut router = RouterProcess::new(
            ROOT,
            RouterConfig::default(),
            interfaces_of(0),
            vec!["10.13.0.0/24".parse().unwrap()],
        );
        let own = router.originate_lsa();
        let lsas: Vec<Arc<Lsa>> = (1..NODES)
            .map(|o| own_prefix(random_lsa(rng, o, 1, 7), own_prefixes))
            .collect();
        let mut spf = SpfTable::default();
        router.bootstrap(lsas.into_iter().chain([own]), &mut spf);
        let mut harness = Harness {
            router,
            own_prefixes,
            spf,
            table: BTreeMap::new(),
            now: SimTime::ZERO,
            seq: 1,
            runs: 0,
            pushed_ops: 0,
        };
        // Bootstrap applied its delta itself: the FIB is the witness.
        harness.table = harness.current_table();
        harness.assert_fib_holds_the_table();
        harness
    }

    fn current_table(&self) -> BTreeMap<Prefix, Route> {
        by_prefix(compute_routes(self.router.lsdb(), ROOT))
    }

    fn assert_fib_holds_the_table(&self) {
        let have: Vec<&Route> = self
            .router
            .fib()
            .routes()
            .filter(|r| r.origin == RouteOrigin::Ospf)
            .collect();
        let want = lookup_order(self.table.values().collect());
        assert_eq!(have, want);
    }

    /// One SPF run: the emitted delta equals the reference diff, and
    /// applying it leaves the FIB holding the new table. Returns the
    /// number of ops emitted.
    fn spf(&mut self) -> usize {
        if self.router.throttle().scheduled().is_none() {
            // Nothing asked for a run: a refresh — node 7's LSA again,
            // under a newer sequence number — schedules one that finds
            // the LSDB's content unchanged.
            self.seq += 1;
            let last = NodeId::new(NODES - 1);
            let mut lsa = self.router.lsdb().get(last).expect("bootstrapped").clone();
            lsa.seq = self.seq;
            self.lsa(Arc::new(lsa));
        }
        self.now += SimDuration::from_millis(250);
        let mut actions = Vec::new();
        self.router
            .on_spf_timer(self.now, &mut self.spf, &mut actions);
        self.land(&actions)
    }

    /// Checks a run's one install against the reference diff and applies
    /// it: the FIB then holds the new table. Returns the number of ops.
    fn land(&mut self, actions: &[RouterAction]) -> usize {
        let [RouterAction::Install {
            generation, delta, ..
        }] = actions
        else {
            panic!("a run emits exactly one install, got {actions:?}");
        };
        let desired = self.current_table();
        let want = FibDelta::diff(RouteOrigin::Ospf, &self.table, &desired);
        assert_eq!(*delta, want, "run {} at seq {}", self.runs, self.seq);
        self.table = desired;
        self.runs += 1;
        self.router.on_install(*generation, delta.clone());
        self.assert_fib_holds_the_table();
        delta.ops.len()
    }

    fn lsa(&mut self, lsa: Arc<Lsa>) {
        let mut actions = Vec::new();
        self.router
            .on_lsa(self.now, lsa, LinkId::new(0), &mut actions);
    }

    fn random_step(&mut self, rng: &mut TestRng) {
        match rng.next_below(10) {
            0..=4 => {
                self.seq += 1;
                let origin = 1 + rng.next_below(u64::from(NODES) - 1) as u32;
                let keep = 2 + rng.next_below(7);
                let lsa = random_lsa(rng, origin, self.seq, keep);
                self.lsa(own_prefix(lsa, self.own_prefixes));
            }
            5 | 6 => {
                let link = LinkId::new(rng.next_below(4) as u32);
                let up = rng.next_below(2) == 0;
                let mut actions = Vec::new();
                self.router
                    .on_link_detected(self.now, link, up, &mut actions);
            }
            7 | 8 => {
                self.spf();
            }
            _ => {
                // A controller push between two distributed runs: the
                // router adopts a reported LSA set, some origins' LSAs
                // newly drawn, and its delta obeys the same law.
                let mut reports = Vec::new();
                for origin in 1..NODES {
                    if rng.next_below(2) == 0 {
                        self.seq += 1;
                        let keep = 2 + rng.next_below(7);
                        let lsa = random_lsa(rng, origin, self.seq, keep);
                        reports.push(own_prefix(lsa, self.own_prefixes));
                    }
                }
                self.now += SimDuration::from_millis(250);
                let mut actions = Vec::new();
                self.router
                    .on_controller_push(self.now, reports, &mut self.spf, &mut actions);
                self.pushed_ops += self.land(&actions);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_emitted_delta_is_the_diff_of_two_successive_tables(walk: u32, steps in 8usize..60) {
        let mut rng = TestRng::for_case(walk);
        let mut harness = Harness::new(&mut rng, false);
        for _ in 0..steps {
            harness.random_step(&mut rng);
        }
        harness.spf();
        // An unchanged LSDB emits the empty delta.
        prop_assert_eq!(harness.spf(), 0);
    }

    /// The same walk with one prefix per origin: most runs re-derive only
    /// the origins whose rows changed.
    #[test]
    fn every_delta_of_a_walk_with_one_prefix_per_origin_is_the_diff_of_two_successive_tables(
        walk: u32,
        steps in 8usize..60,
    ) {
        let mut rng = TestRng::for_case(walk);
        let mut harness = Harness::new(&mut rng, true);
        for _ in 0..steps {
            harness.random_step(&mut rng);
        }
        harness.spf();
        prop_assert_eq!(harness.spf(), 0);
    }
}

/// The walk above is not vacuous: over a fixed set of seeds it emits
/// removes, rewrites of a route the table holds and new routes, mixed in
/// one delta, in `diff`'s order, and its controller pushes change routes
/// too.
#[test]
fn the_random_walk_emits_every_kind_of_op() {
    let (mut removes, mut rewrites, mut inserts, mut mixed, mut pushed) = (0, 0, 0, 0, 0);
    for case in 0..64 {
        let mut rng = TestRng::for_case(case);
        let mut harness = Harness::new(&mut rng, false);
        for _ in 0..40 {
            let before = harness.table.clone();
            harness.random_step(&mut rng);
            let after = harness.current_table();
            let delta = FibDelta::diff(RouteOrigin::Ospf, &before, &after);
            let count = |f: &dyn Fn(&FibOp) -> bool| delta.ops.iter().filter(|op| f(op)).count();
            let held =
                |op: &FibOp| matches!(op, FibOp::Insert(r) if before.contains_key(&r.prefix));
            let r = count(&|op| matches!(op, FibOp::Remove(_)));
            let w = count(&held);
            let i = count(&|op| matches!(op, FibOp::Insert(_)) && !held(op));
            removes += r;
            rewrites += w;
            inserts += i;
            mixed += usize::from(r > 0 && w > 0 && i > 0);
        }
        harness.spf();
        pushed += harness.pushed_ops;
    }
    assert!(
        removes > 50 && rewrites > 50 && inserts > 50 && mixed > 0 && pushed > 50,
        "{removes} removes, {rewrites} rewrites, {inserts} inserts, {mixed} mixed, \
         {pushed} pushed"
    );
}

/// Two LSAs advertise one prefix: the table keeps the later origin's
/// route, and so does the delta — also when the earlier origin is the
/// nearer one, and when the later one becomes unreachable.
#[test]
fn of_two_origins_advertising_one_prefix_the_later_wins() {
    let mut rng = TestRng::for_case(0);
    let mut harness = Harness::new(&mut rng, false);
    let shared: Prefix = "10.11.9.0/24".parse().unwrap();
    let lsa = |origin: u32, seq, prefixes| {
        Arc::new(Lsa {
            origin: NodeId::new(origin),
            seq,
            neighbors: interfaces_of(origin),
            prefixes,
        })
    };
    for origin in 1..NODES {
        harness.lsa(lsa(origin, 10, vec![]));
    }
    harness.spf();
    assert!(harness.table.is_empty());

    // Node 1 (one hop) and node 6 (three hops) both advertise it.
    harness.lsa(lsa(1, 11, vec![shared]));
    harness.lsa(lsa(6, 11, vec![shared, shared]));
    harness.spf();
    assert_eq!(
        harness.table[&shared].metric, 3,
        "node 6 stands later in the LSDB"
    );

    // Node 6 drops off the graph: the prefix falls back to node 1 — one
    // insert that overwrites the route, not a remove + insert.
    harness.lsa(Arc::new(Lsa {
        origin: NodeId::new(6),
        seq: 12,
        neighbors: vec![],
        prefixes: vec![shared],
    }));
    harness.spf();
    assert_eq!(harness.table[&shared].metric, 1);
}

/// The router's own LSDB entry loses every interface: every route is
/// removed in one delta, and comes back in one when a link returns.
#[test]
fn a_router_that_loses_every_interface_removes_every_route() {
    let mut rng = TestRng::for_case(1);
    let mut harness = Harness::new(&mut rng, false);
    for origin in 1..NODES {
        let lsa = random_lsa(&mut rng, origin, 50, 8);
        harness.lsa(lsa);
    }
    harness.spf();
    let full = harness.table.len();
    assert!(full > 0);
    let mut actions = Vec::new();
    for link in 0..4 {
        harness
            .router
            .on_link_detected(harness.now, LinkId::new(link), false, &mut actions);
    }
    harness.spf();
    assert!(harness.table.is_empty());
    harness
        .router
        .on_link_detected(harness.now, LinkId::new(2), true, &mut actions);
    harness.spf();
    assert_eq!(harness.table.len(), full);
}

/// Routers run at these nodes and share one `SpfTable`; the router at
/// `SILENT` never originates, so no LSDB ever holds its LSA.
const FLEET: [u32; 5] = [0, 2, 3, 5, 7];
const SILENT: NodeId = NodeId::new(3);
/// The origins no router runs at: their LSAs come from the walk.
const REMOTE: [u32; 3] = [1, 4, 6];

/// Several routers reading one shared table, each with the reference's
/// memory of its last table.
struct Fleet {
    routers: Vec<RouterProcess>,
    tables: Vec<BTreeMap<Prefix, Route>>,
    spf: SpfTable,
    /// The newest LSA of every origin, the allocation it was issued in.
    latest: BTreeMap<NodeId, Arc<Lsa>>,
    now: SimTime,
    seq: u64,
}

impl Fleet {
    /// Every router warm-started from the same allocations: one build.
    fn new(rng: &mut TestRng) -> Self {
        let pool = pool();
        let mut routers: Vec<RouterProcess> = FLEET
            .iter()
            .map(|&n| {
                let prefixes = vec![pool[n as usize % pool.len()]];
                RouterProcess::new(
                    NodeId::new(n),
                    RouterConfig::default(),
                    interfaces_of(n),
                    prefixes,
                )
            })
            .collect();
        let mut latest = BTreeMap::new();
        for router in routers.iter_mut().filter(|r| r.node() != SILENT) {
            let lsa = router.originate_lsa();
            latest.insert(lsa.origin, lsa);
        }
        for origin in REMOTE {
            latest.insert(NodeId::new(origin), random_lsa(rng, origin, 1, 7));
        }
        let mut spf = SpfTable::default();
        for router in &mut routers {
            router.bootstrap(latest.values().cloned(), &mut spf);
        }
        assert_eq!(spf.builds(), 1, "one LSDB, one build");
        let tables = routers
            .iter()
            .map(|r| by_prefix(compute_routes(r.lsdb(), r.node())))
            .collect();
        let fleet = Fleet {
            routers,
            tables,
            spf,
            latest,
            now: SimTime::ZERO,
            seq: 1,
        };
        for at in 0..FLEET.len() {
            fleet.assert_fib_holds_the_table(at);
        }
        fleet
    }

    fn assert_fib_holds_the_table(&self, at: usize) {
        let have: Vec<&Route> = self.routers[at]
            .fib()
            .routes()
            .filter(|r| r.origin == RouteOrigin::Ospf)
            .collect();
        let want = lookup_order(self.tables[at].values().collect());
        assert_eq!(have, want, "router {}", self.routers[at].node());
    }

    fn deliver(&mut self, at: usize, lsa: Arc<Lsa>) {
        let mut actions = Vec::new();
        self.routers[at].on_lsa(self.now, lsa, LinkId::new(0), &mut actions);
    }

    /// `lsa` reaches a random half of the fleet now; the rest hear it at
    /// the next flood.
    fn hear(&mut self, rng: &mut TestRng, lsa: &Arc<Lsa>) {
        self.latest.insert(lsa.origin, Arc::clone(lsa));
        for at in 0..FLEET.len() {
            if rng.next_below(2) == 0 {
                self.deliver(at, Arc::clone(lsa));
            }
        }
    }

    /// Every router hears every newest LSA: the LSDBs converge, but for
    /// what a sequence number cannot settle (one content in several
    /// allocations, two contents under one number).
    fn flood(&mut self) {
        let latest: Vec<Arc<Lsa>> = self.latest.values().cloned().collect();
        for at in 0..FLEET.len() {
            for lsa in &latest {
                self.deliver(at, Arc::clone(lsa));
            }
        }
    }

    /// One SPF run at router `at` through the shared table: the emitted
    /// delta equals the reference diff, and applying it leaves the FIB
    /// holding the new table. Returns whether the run rebuilt the table.
    fn spf(&mut self, at: usize) -> bool {
        if self.routers[at].throttle().scheduled().is_none() {
            // Nothing asked for a run: a remote origin refreshes its LSA
            // (same content, newer sequence number) and everyone hears
            // the one allocation.
            self.seq += 1;
            let origin = NodeId::new(REMOTE[2]);
            let mut lsa = (*self.latest[&origin]).clone();
            lsa.seq = self.seq;
            self.latest.insert(origin, Arc::new(lsa));
            self.flood();
        }
        self.now += SimDuration::from_millis(250);
        let builds = self.spf.builds();
        let mut actions = Vec::new();
        self.routers[at].on_spf_timer(self.now, &mut self.spf, &mut actions);
        let [RouterAction::Install {
            generation, delta, ..
        }] = &actions[..]
        else {
            panic!("an SPF run emits exactly one install, got {actions:?}");
        };
        let router = &self.routers[at];
        let desired = by_prefix(compute_routes(router.lsdb(), router.node()));
        let want = FibDelta::diff(RouteOrigin::Ospf, &self.tables[at], &desired);
        assert_eq!(*delta, want, "router {} at seq {}", router.node(), self.seq);
        self.tables[at] = desired;
        self.routers[at].on_install(*generation, delta.clone());
        self.assert_fib_holds_the_table(at);
        self.spf.builds() > builds
    }

    /// Returns whether the step was an SPF run that rebuilt the table
    /// (`Some(true)`), one that read it as it stood (`Some(false)`), or
    /// no run at all.
    fn random_step(&mut self, rng: &mut TestRng) -> Option<bool> {
        match rng.next_below(12) {
            0..=2 => {
                self.seq += 1;
                let origin = REMOTE[rng.next_below(REMOTE.len() as u64) as usize];
                let keep = 2 + rng.next_below(7);
                let lsa = random_lsa(rng, origin, self.seq, keep);
                self.hear(rng, &lsa);
            }
            3 => {
                // A router (not the silent one) detects a change on one of
                // its links and re-originates.
                let at = rng.next_below(FLEET.len() as u64) as usize;
                if self.routers[at].node() == SILENT {
                    return None;
                }
                let links = interfaces_of(FLEET[at]);
                let link = links[rng.next_below(links.len() as u64) as usize].link;
                let mut actions = Vec::new();
                self.routers[at].on_link_detected(
                    self.now,
                    link,
                    rng.next_below(2) == 0,
                    &mut actions,
                );
                for action in actions {
                    if let RouterAction::FloodLsa { lsa, .. } = action {
                        self.hear(rng, &lsa);
                    }
                }
            }
            4 => self.flood(),
            5 => {
                // The same content, in a separate allocation per router.
                self.seq += 1;
                let origin = REMOTE[rng.next_below(REMOTE.len() as u64) as usize];
                let lsa = random_lsa(rng, origin, self.seq, 6);
                for at in 0..FLEET.len() {
                    self.deliver(at, Arc::new((*lsa).clone()));
                }
                self.latest.insert(lsa.origin, lsa);
            }
            6 => {
                // One (origin, sequence number), two contents: the even
                // routers hear one, the odd ones the other, for good.
                self.seq += 1;
                let origin = REMOTE[rng.next_below(REMOTE.len() as u64) as usize];
                let (even, odd) = (
                    random_lsa(rng, origin, self.seq, 8),
                    random_lsa(rng, origin, self.seq, 3),
                );
                for at in 0..FLEET.len() {
                    let lsa = if at % 2 == 0 { &even } else { &odd };
                    self.deliver(at, Arc::clone(lsa));
                }
                self.latest.insert(even.origin, even);
            }
            _ => {
                let at = rng.next_below(FLEET.len() as u64) as usize;
                return Some(self.spf(at));
            }
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Routers sharing one table, their LSDBs drifting apart (an LSA some
    /// have heard and others not, one content in several allocations, one
    /// sequence number with two contents, a router with no LSA of its
    /// own) and back together (floods): every delta is the reference's.
    #[test]
    fn routers_sharing_one_table_emit_the_reference_deltas(walk: u32, steps in 8usize..80) {
        let mut rng = TestRng::for_case(walk);
        let mut fleet = Fleet::new(&mut rng);
        for _ in 0..steps {
            fleet.random_step(&mut rng);
        }
        // Converged again — every remote origin re-issues in one
        // allocation and everyone hears everything — the first run
        // rebuilds at most once and the rest read that table.
        for origin in REMOTE {
            fleet.seq += 1;
            let lsa = random_lsa(&mut rng, origin, fleet.seq, 6);
            fleet.latest.insert(lsa.origin, lsa);
        }
        fleet.flood();
        let builds = fleet.spf.builds();
        for at in 0..FLEET.len() {
            fleet.spf(at);
        }
        prop_assert!(fleet.spf.builds() <= builds + 1);
    }
}

/// The fleet walk is not vacuous: over a fixed set of seeds its SPF runs
/// both read the table as it stood and rebuilt it, the silent router
/// included.
#[test]
fn the_fleet_walk_both_hits_and_rebuilds() {
    let (mut hits, mut misses) = (0, 0);
    for case in 0..64 {
        let mut rng = TestRng::for_case(case);
        let mut fleet = Fleet::new(&mut rng);
        for _ in 0..60 {
            match fleet.random_step(&mut rng) {
                Some(true) => misses += 1,
                Some(false) => hits += 1,
                None => {}
            }
        }
    }
    assert!(hits > 100 && misses > 100, "{hits} hits, {misses} misses");
}

/// A converged fleet warm-starts on one build, and after a refresh every
/// router's run reads the one table the first run built.
#[test]
fn a_converged_fleet_builds_the_table_once_per_snapshot() {
    let mut fleet = Fleet::new(&mut TestRng::for_case(2));
    let rebuilt: Vec<bool> = (0..FLEET.len()).map(|at| fleet.spf(at)).collect();
    assert_eq!(rebuilt, [true, false, false, false, false]);
    assert_eq!(fleet.spf.builds(), 2);
}

/// The same content in another allocation is another snapshot: the table
/// is rebuilt, never matched by value.
#[test]
fn the_same_content_in_another_allocation_is_rebuilt() {
    let mut fleet = Fleet::new(&mut TestRng::for_case(3));
    fleet.seq += 1;
    let lsa = Lsa {
        seq: fleet.seq,
        ..(*fleet.latest[&NodeId::new(4)]).clone()
    };
    for at in 0..FLEET.len() {
        fleet.deliver(at, Arc::new(lsa.clone()));
    }
    let rebuilt: Vec<bool> = [0, 1, 0, 1].iter().map(|&at| fleet.spf(at)).collect();
    assert_eq!(rebuilt, [true, true, true, true]);
}

/// One (origin, sequence number) with two contents: router 0 holds node
/// 4 with every link, router 2 holds it with none. Served by anything
/// but allocation, one of them would route through a node its LSDB says
/// is cut off.
#[test]
fn one_sequence_number_with_two_contents_never_shares_a_table() {
    let mut fleet = Fleet::new(&mut TestRng::for_case(4));
    let four = NodeId::new(4);
    fleet.seq += 1;
    let shared: Prefix = "10.11.9.0/24".parse().unwrap();
    let lsa = |neighbors| {
        Arc::new(Lsa {
            origin: four,
            seq: 50,
            neighbors,
            prefixes: vec![shared],
        })
    };
    let (linked, cut) = (lsa(interfaces_of(4)), lsa(Vec::new()));
    for at in 0..FLEET.len() {
        let lsa = if at % 2 == 0 { &linked } else { &cut };
        fleet.deliver(at, Arc::clone(lsa));
    }
    // Everyone else re-announces every link, so node 4 is two-way
    // reachable wherever its LSA names its links.
    for origin in REMOTE
        .iter()
        .chain(&FLEET)
        .filter(|&&o| o != 4 && NodeId::new(o) != SILENT)
    {
        fleet.seq += 1;
        let lsa = Arc::new(Lsa {
            origin: NodeId::new(*origin),
            seq: fleet.seq,
            neighbors: interfaces_of(*origin),
            prefixes: vec![],
        });
        fleet.latest.insert(lsa.origin, lsa);
    }
    fleet.flood();
    for at in [0, 1, 2, 3, 0, 3] {
        fleet.spf(at);
        let routed = fleet.tables[at].contains_key(&shared);
        let silent = fleet.routers[at].node() == SILENT;
        assert_eq!(
            routed,
            at % 2 == 0 && !silent,
            "router {}",
            fleet.routers[at].node()
        );
    }
}

/// The router with no LSA of its own has no usable interface: it reads
/// the shared table like everyone else and routes nothing.
#[test]
fn a_router_without_its_own_lsa_reads_the_table_and_routes_nothing() {
    let mut fleet = Fleet::new(&mut TestRng::for_case(5));
    let silent = FLEET
        .iter()
        .position(|&n| NodeId::new(n) == SILENT)
        .unwrap();
    assert!(fleet.tables[silent].is_empty());
    assert!(fleet.spf(0), "the refresh is a new snapshot");
    assert!(!fleet.spf(silent), "and the silent router holds it too");
    assert!(fleet.tables[silent].is_empty());
    assert!(!fleet.tables[0].is_empty());
}

/// A synthetic /24 per ToR (unique while ids stay < 65 536).
fn prefix_of(node: NodeId) -> Prefix {
    let id = node.as_u32();
    Prefix::truncating(Ipv4Addr::new(10, (id >> 8) as u8, id as u8, 0), 24)
}

/// One router per switch of `topo`, as the emulator builds them (ToRs
/// advertise a prefix, across links are passive), warm-started through
/// `spf`; slot `i` holds node `i`'s router.
fn fabric_routers(topo: &Topology, spf: &mut SpfTable) -> Vec<Option<RouterProcess>> {
    let mut routers: Vec<Option<RouterProcess>> = (0..topo.node_slots()).map(|_| None).collect();
    for node in topo.nodes().filter(|n| n.kind().is_switch()) {
        let id = node.id();
        let interfaces = topo
            .neighbors(id)
            .filter(|&(_, n)| topo.node(n).kind().is_switch())
            .map(|(link, neighbor)| Adjacency { neighbor, link })
            .collect();
        let prefixes = if node.layer() == Some(Layer::Tor) {
            vec![prefix_of(id)]
        } else {
            Vec::new()
        };
        let mut router = RouterProcess::new(id, RouterConfig::default(), interfaces, prefixes);
        router.set_passive(topo.across_links(id));
        routers[id.index()] = Some(router);
    }
    let lsas: Vec<Arc<Lsa>> = routers
        .iter_mut()
        .flatten()
        .map(RouterProcess::originate_lsa)
        .collect();
    for router in routers.iter_mut().flatten() {
        router.bootstrap(lsas.iter().cloned(), spf);
    }
    routers
}

/// Every router's OSPF routes are what `compute_routes` makes of its LSDB.
fn assert_every_fib_is_spf(routers: &[Option<RouterProcess>], context: &str) {
    for router in routers.iter().flatten() {
        let have: Vec<Route> = router
            .fib()
            .routes()
            .filter(|r| r.origin == RouteOrigin::Ospf)
            .cloned()
            .collect();
        let want = lookup_order(compute_routes(router.lsdb(), router.node()));
        assert_eq!(have, want, "{context}, router {}", router.node());
    }
}

/// Whole-fabric equivalence at the benchmark's largest size: on the k = 16
/// fat tree and F²Tree (across links passive), each single fabric-link
/// failure detected at both ends and flooded everywhere, then every
/// router's SPF run through one shared table — which must build once for
/// the warm start and once for the failure — leaves its FIB holding
/// exactly `compute_routes` of its LSDB; so does the repair after it,
/// detected, flooded and run the same way, a third build whose changed
/// rows change back. Release-only and `#[ignore]`d; `ci.sh` runs it
/// beside the other two k = 16 oracles. Link failures are spread over
/// the available cores.
#[test]
#[ignore = "a minute in release, far longer in debug; run by ci.sh"]
fn k16_every_router_every_single_link_failure_through_one_table() {
    let fat = FatTree::new(16).unwrap().hosts_per_tor(0).build();
    let f2 = f2tree::F2TreeNetwork::build_with_hosts(16, 0)
        .unwrap()
        .topology;
    for (name, topo) in [("fat tree", &fat), ("F2Tree", &f2)] {
        let mut spf = SpfTable::default();
        assert_every_fib_is_spf(&fabric_routers(topo, &mut spf), name);
        assert_eq!(spf.builds(), 1, "{name}: warm start");

        let links: Vec<LinkId> = topo
            .links()
            .filter(|l| {
                let (a, b) = l.endpoints();
                topo.node(a).kind().is_switch() && topo.node(b).kind().is_switch()
            })
            .map(|l| l.id())
            .collect();
        let workers = std::thread::available_parallelism().map_or(1, usize::from);
        std::thread::scope(|scope| {
            for share in links.chunks(links.len().div_ceil(workers)) {
                scope.spawn(move || {
                    for &link in share {
                        let mut spf = SpfTable::default();
                        let mut routers = fabric_routers(topo, &mut spf);
                        let mut snapshots = 1;
                        for (up, ms, event) in [(false, 100, "minus"), (true, 1_000, "repairing")] {
                            let context = format!("k=16 {name} {event} {link}");
                            let now = SimTime::ZERO + SimDuration::from_millis(ms);
                            let mut actions = Vec::new();
                            let (a, b) = topo.link(link).endpoints();
                            for end in [a, b] {
                                let router = routers[end.index()].as_mut().unwrap();
                                router.on_link_detected(now, link, up, &mut actions);
                            }
                            let floods: Vec<Arc<Lsa>> = actions
                                .drain(..)
                                .filter_map(|action| match action {
                                    RouterAction::FloodLsa { lsa, .. } => Some(lsa),
                                    _ => None,
                                })
                                .collect();
                            for router in routers.iter_mut().flatten() {
                                for lsa in &floods {
                                    router.on_lsa(now, Arc::clone(lsa), link, &mut actions);
                                }
                            }
                            for router in routers.iter_mut().flatten() {
                                // A passive link's failure stays local: no
                                // flood, no run, nothing to re-check.
                                let Some(at) = router.throttle().scheduled() else {
                                    assert!(floods.is_empty(), "{context}: unscheduled router");
                                    continue;
                                };
                                actions.clear();
                                router.on_spf_timer(at, &mut spf, &mut actions);
                                for action in actions.drain(..) {
                                    if let RouterAction::Install {
                                        generation, delta, ..
                                    } = action
                                    {
                                        router.on_install(generation, delta);
                                    }
                                }
                            }
                            snapshots += u64::from(!floods.is_empty());
                            assert_eq!(spf.builds(), snapshots, "{context}");
                            assert_every_fib_is_spf(&routers, &context);
                        }
                        assert!(
                            [1, 3].contains(&snapshots),
                            "k=16 {name} {link}: failure and repair flood alike"
                        );
                    }
                });
            }
        });
    }
}
