//! The SPF-delta reference oracle: a `RouterProcess` emits each SPF run's
//! delta by merging the shortest-path tree into its prefix-sorted
//! emitted-route memory; that delta must equal, op for op and in order,
//! what the router computed before — `FibDelta::diff` between the two
//! successive `compute_routes` tables keyed by prefix.
//!
//! The reference is the old `run_spf` body verbatim (`by_prefix` +
//! `FibDelta::diff`), fed from the router's own LSDB after every step, so
//! it shares nothing with the merge but the tree kernel `compute_routes`
//! already has an oracle for (`spf_reference.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use dcn_net::{LinkId, NodeId, Prefix};
use dcn_routing::{
    compute_routes, Adjacency, FibDelta, FibOp, Lsa, NextHop, Route, RouteOrigin, RouterAction,
    RouterConfig, RouterProcess,
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
    ["10.11.0.0/24", "10.11.1.0/24", "10.11.2.0/24", "10.11.0.0/16", "10.12.0.0/24"]
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

/// The router under test plus the reference's memory of the table the
/// last run (or `force_install`) left behind.
struct Harness {
    router: RouterProcess,
    table: BTreeMap<Prefix, Route>,
    now: SimTime,
    seq: u64,
    runs: usize,
}

impl Harness {
    fn new(rng: &mut TestRng) -> Self {
        let mut router = RouterProcess::new(
            ROOT,
            RouterConfig::default(),
            interfaces_of(0),
            vec!["10.13.0.0/24".parse().unwrap()],
        );
        let own = router.originate_lsa();
        let lsas: Vec<Arc<Lsa>> = (1..NODES).map(|o| random_lsa(rng, o, 1, 7)).collect();
        router.bootstrap(lsas.into_iter().chain([own]));
        let mut harness = Harness {
            router,
            table: BTreeMap::new(),
            now: SimTime::ZERO,
            seq: 1,
            runs: 0,
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
        // `Fib::routes` yields (address, length) order — `Prefix`'s own.
        let want: Vec<&Route> = self.table.values().collect();
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
        self.router.on_spf_timer(self.now, &mut actions);
        let [RouterAction::Install {
            generation, delta, ..
        }] = &actions[..]
        else {
            panic!("an SPF run emits exactly one install, got {actions:?}");
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
        self.router.on_lsa(self.now, lsa, LinkId::new(0), &mut actions);
    }

    fn random_step(&mut self, rng: &mut TestRng) {
        match rng.next_below(10) {
            0..=4 => {
                self.seq += 1;
                let origin = 1 + rng.next_below(u64::from(NODES) - 1) as u32;
                let keep = 2 + rng.next_below(7);
                let lsa = random_lsa(rng, origin, self.seq, keep);
                self.lsa(lsa);
            }
            5 | 6 => {
                let link = LinkId::new(rng.next_below(4) as u32);
                let up = rng.next_below(2) == 0;
                let mut actions = Vec::new();
                self.router.on_link_detected(self.now, link, up, &mut actions);
            }
            7 | 8 => {
                self.spf();
            }
            _ => {
                // A controller push between two distributed runs: the
                // next delta is taken against what it installed.
                let mut routes = compute_routes(self.router.lsdb(), ROOT);
                routes.retain(|_| rng.next_below(4) > 0);
                if let Some(first) = routes.first_mut() {
                    first.metric += 5;
                }
                routes.push(Route::new(
                    "10.14.0.0/24".parse().unwrap(),
                    RouteOrigin::Ospf,
                    9,
                    vec![NextHop {
                        node: NodeId::new(3),
                        link: LinkId::new(3),
                    }],
                ));
                self.router.force_install(routes.clone());
                self.table = by_prefix(routes);
                self.assert_fib_holds_the_table();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_emitted_delta_is_the_diff_of_two_successive_tables(walk: u32, steps in 8usize..60) {
        let mut rng = TestRng::for_case(walk);
        let mut harness = Harness::new(&mut rng);
        for _ in 0..steps {
            harness.random_step(&mut rng);
        }
        harness.spf();
        // An unchanged LSDB emits the empty delta.
        prop_assert_eq!(harness.spf(), 0);
    }
}

/// The walk above is not vacuous: over a fixed set of seeds it emits
/// removes, patches and inserts, mixed in one delta, in `diff`'s order.
#[test]
fn the_random_walk_emits_every_kind_of_op() {
    let (mut removes, mut patches, mut inserts, mut mixed) = (0, 0, 0, 0);
    for case in 0..64 {
        let mut rng = TestRng::for_case(case);
        let mut harness = Harness::new(&mut rng);
        for _ in 0..40 {
            let before = harness.table.clone();
            harness.random_step(&mut rng);
            let after = harness.current_table();
            let delta = FibDelta::diff(RouteOrigin::Ospf, &before, &after);
            let count = |f: fn(&FibOp) -> bool| delta.ops.iter().filter(|op| f(op)).count();
            let r = count(|op| matches!(op, FibOp::Remove(_)));
            let p = count(|op| matches!(op, FibOp::Patch { .. }));
            let i = count(|op| matches!(op, FibOp::Insert(_)));
            removes += r;
            patches += p;
            inserts += i;
            mixed += usize::from(r > 0 && p > 0 && i > 0);
        }
        harness.spf();
    }
    assert!(removes > 50 && patches > 50 && inserts > 50 && mixed > 0,
        "{removes} removes, {patches} patches, {inserts} inserts, {mixed} mixed");
}

/// Two LSAs advertise one prefix: the table keeps the later origin's
/// route, and so does the delta — also when the earlier origin is the
/// nearer one, and when the later one becomes unreachable.
#[test]
fn of_two_origins_advertising_one_prefix_the_later_wins() {
    let mut rng = TestRng::for_case(0);
    let mut harness = Harness::new(&mut rng);
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
    assert_eq!(harness.table[&shared].metric, 3, "node 6 stands later in the LSDB");

    // Node 6 drops off the graph: the prefix falls back to node 1 — a
    // patch, not a remove + insert.
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
    let mut harness = Harness::new(&mut rng);
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
