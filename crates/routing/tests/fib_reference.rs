//! The FIB reference oracle: the flat sorted-run [`Fib`] must answer every
//! lookup, and list its routes, exactly as the binary trie it replaced.
//!
//! The [`reference`] module is the boxed bit trie `dcn-routing` shipped
//! before the sorted-run table, kept verbatim as test-only code (the
//! `spf_reference.rs` precedent). It shares nothing with the table but
//! [`ecmp_select`] and [`FibDelta::diff`], so agreement under arbitrary
//! insert/remove/apply sequences is evidence about the table, not about
//! a common helper.

use dcn_net::{FlowKey, Ipv4Addr, LinkId, NodeId, Prefix, Protocol};
use dcn_routing::{Fib, FibDelta, FibOp, NextHop, Route, RouteOrigin};
use proptest::prelude::*;

#[allow(dead_code)] // verbatim: not every trie method has a caller here
mod reference {
    use std::collections::BTreeMap;
    use std::fmt;

    use dcn_net::{FlowKey, Ipv4Addr, LinkId, Prefix};
    use dcn_routing::{ecmp_select, FibDelta, FibOp, NextHop, Route, RouteOrigin};

    #[derive(Default)]
    struct TrieNode {
        children: [Option<Box<TrieNode>>; 2],
        routes: Vec<Route>, // sorted by origin preference
    }

    /// The pre-sorted-run `Fib`.
    pub struct Fib {
        root: TrieNode,
        salt: u64,
        route_count: usize,
    }

    impl Fib {
        /// Creates an empty FIB with a per-switch ECMP salt.
        pub fn new(salt: u64) -> Self {
            Fib {
                root: TrieNode::default(),
                salt,
                route_count: 0,
            }
        }

        /// Number of installed routes (all origins).
        pub fn len(&self) -> usize {
            self.route_count
        }

        /// Whether the FIB holds no routes.
        pub fn is_empty(&self) -> bool {
            self.route_count == 0
        }

        fn node_mut(&mut self, prefix: Prefix) -> &mut TrieNode {
            let bits = prefix.addr().to_u32();
            let mut node = &mut self.root;
            for depth in 0..prefix.len() {
                let bit = ((bits >> (31 - depth)) & 1) as usize;
                node = node.children[bit].get_or_insert_with(Box::default);
            }
            node
        }

        /// Installs a route, replacing any same-prefix route of the same
        /// origin.
        pub fn insert(&mut self, route: Route) {
            let node = self.node_mut(route.prefix);
            if let Some(existing) = node.routes.iter_mut().find(|r| r.origin == route.origin) {
                *existing = route;
            } else {
                node.routes.push(route);
                node.routes.sort_by_key(|r| r.origin);
                self.route_count += 1;
            }
        }

        /// Removes the route for `prefix` of the given origin, returning it.
        pub fn remove(&mut self, prefix: Prefix, origin: RouteOrigin) -> Option<Route> {
            let node = self.node_mut(prefix);
            let pos = node.routes.iter().position(|r| r.origin == origin)?;
            let removed = node.routes.remove(pos);
            self.route_count -= 1;
            Some(removed)
        }

        /// Applies a [`FibDelta`]: per-prefix inserts, removes, and in-place
        /// next-hop patches. Cost scales with the number of *changed*
        /// prefixes, not the FIB size.
        pub fn apply(&mut self, delta: FibDelta) {
            let origin = delta.origin;
            for op in delta.ops {
                match op {
                    FibOp::Insert(route) => {
                        debug_assert_eq!(route.origin, origin);
                        self.insert(route);
                    }
                    FibOp::Remove(prefix) => {
                        self.remove(prefix, origin);
                    }
                    FibOp::Patch {
                        prefix,
                        metric,
                        next_hops,
                    } => {
                        let node = self.node_mut(prefix);
                        if let Some(existing) =
                            node.routes.iter_mut().find(|r| r.origin == origin)
                        {
                            existing.metric = metric;
                            existing.next_hops = next_hops;
                        } else {
                            // Ops are absolute, so a patch against a missing
                            // entry upserts (tolerates replayed sequences).
                            self.insert(Route::new(prefix, origin, metric, next_hops.to_vec()));
                        }
                    }
                }
            }
        }

        /// The [`FibDelta`] that transforms this FIB's installed `origin`
        /// routes into exactly `desired` ([`FibDelta::diff`] against the live
        /// table). Walks the whole trie: it serves the installs that must
        /// supersede whatever is in flight (controller pushes, the FRR
        /// reconcile), not the per-SPF path.
        pub fn diff_origin(&self, origin: RouteOrigin, desired: &BTreeMap<Prefix, Route>) -> FibDelta {
            let current: BTreeMap<Prefix, &Route> = self
                .routes()
                .filter(|r| r.origin == origin)
                .map(|r| (r.prefix, r))
                .collect();
            FibDelta::diff(origin, &current, desired)
        }

        /// Looks up the forwarding decision for `flow`.
        ///
        /// `is_dead` reports whether an out-interface is locally detected down
        /// (the paper's BFD-like interface state). Matching prefixes are tried
        /// longest-first; within a prefix, origins in preference order; within
        /// a route, ECMP over the live next hops.
        pub fn lookup(&self, flow: &FlowKey, is_dead: impl Fn(LinkId) -> bool) -> Option<NextHop> {
            self.lookup_addr(flow.dst, flow, &is_dead)
        }

        /// Collects the chain of trie nodes matching `dst`, root to deepest.
        /// This backs the per-packet path, so it must not heap-allocate: the
        /// chain lives in a fixed stack array (root + 32 bits of prefix).
        fn prefix_chain(&self, dst: Ipv4Addr) -> ([Option<&TrieNode>; 33], usize) {
            let bits = dst.to_u32();
            let mut chain: [Option<&TrieNode>; 33] = [None; 33];
            let mut len = 0usize;
            let mut node = &self.root;
            if let Some(slot) = chain.get_mut(len) {
                *slot = Some(node);
                len += 1;
            }
            for depth in 0..32 {
                let bit = ((bits >> (31 - depth)) & 1) as usize;
                match &node.children[bit] {
                    Some(child) => {
                        node = child;
                        if let Some(slot) = chain.get_mut(len) {
                            *slot = Some(node);
                            len += 1;
                        }
                    }
                    None => break,
                }
            }
            (chain, len)
        }

        fn lookup_addr(
            &self,
            dst: Ipv4Addr,
            flow: &FlowKey,
            is_dead: &impl Fn(LinkId) -> bool,
        ) -> Option<NextHop> {
            let (chain, len) = self.prefix_chain(dst);
            // Longest prefix first; fall through when all next hops are dead.
            // ECMP selects among the live hops without materializing them:
            // count first, then take the selected one in a second pass.
            for node in chain.iter().take(len).rev().flatten() {
                for route in &node.routes {
                    let live = route.next_hops.iter().filter(|h| !is_dead(h.link)).count();
                    if live > 0 {
                        let idx = ecmp_select(flow, self.salt, live);
                        return route
                            .next_hops
                            .iter()
                            .filter(|h| !is_dead(h.link))
                            .nth(idx)
                            .copied();
                    }
                }
            }
            None
        }

        /// The complete live ECMP next-hop set the FIB splits `dst`-bound
        /// traffic over: the winning route under the exact [`Fib::lookup`]
        /// semantics (longest prefix first, origin preference within a
        /// prefix, fall-through past routes whose hops are all dead), with
        /// its locally dead members pruned.
        ///
        /// Where [`Fib::lookup`] hash-selects a single member per flow, the
        /// routing-quality metrics need every member — under ECMP a uniform
        /// flow population splits equally across the live set, so this is
        /// the per-destination next-hop DAG extraction seam. Not a per-packet
        /// path: it allocates, and runs only when a FIB epoch is observed.
        pub fn live_next_hops(
            &self,
            dst: Ipv4Addr,
            is_dead: impl Fn(LinkId) -> bool,
        ) -> Vec<NextHop> {
            let (chain, len) = self.prefix_chain(dst);
            for node in chain.iter().take(len).rev().flatten() {
                for route in &node.routes {
                    let live: Vec<NextHop> = route
                        .next_hops
                        .iter()
                        .filter(|h| !is_dead(h.link))
                        .copied()
                        .collect();
                    if !live.is_empty() {
                        return live;
                    }
                }
            }
            Vec::new()
        }

        /// Borrowing iterator over every installed route, in deterministic
        /// trie pre-order (parent prefixes before children, 0-bit subtree
        /// first). No routes are cloned; collect and sort if a display
        /// order (e.g. Table II's longest-first) is wanted.
        pub fn routes(&self) -> RoutesIter<'_> {
            RoutesIter {
                stack: vec![&self.root],
                current: [].iter(),
            }
        }
    }

    /// Borrowing pre-order iterator over a [`Fib`]'s routes (see
    /// [`Fib::routes`]).
    pub struct RoutesIter<'a> {
        stack: Vec<&'a TrieNode>,
        current: std::slice::Iter<'a, Route>,
    }

    impl<'a> Iterator for RoutesIter<'a> {
        type Item = &'a Route;

        fn next(&mut self) -> Option<&'a Route> {
            loop {
                if let Some(route) = self.current.next() {
                    return Some(route);
                }
                let node = self.stack.pop()?;
                // Push the 1-bit child first so the 0-bit subtree pops first,
                // keeping the historical deterministic dump order.
                for child in node.children.iter().rev().flatten() {
                    self.stack.push(child);
                }
                self.current = node.routes.iter();
            }
        }
    }

    impl fmt::Debug for RoutesIter<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("RoutesIter")
                .field("pending_nodes", &self.stack.len())
                .finish()
        }
    }

    impl fmt::Debug for Fib {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Fib")
                .field("routes", &self.route_count)
                .field("salt", &self.salt)
                .finish()
        }
    }
}

const ORIGINS: [RouteOrigin; 4] = [
    RouteOrigin::Connected,
    RouteOrigin::Static,
    RouteOrigin::Ospf,
    RouteOrigin::Frr,
];

/// The paper's nested chain around 10.11.0.0/24 (Table II), both ends of
/// the length range, and siblings that must *not* match.
fn nested_universe() -> Vec<Prefix> {
    [
        "0.0.0.0/0",
        "10.10.0.0/15",
        "10.11.0.0/16",
        "10.10.0.0/16",
        "10.11.0.0/24",
        "10.11.1.0/24",
        "10.11.4.0/24",
        "10.11.0.2/32",
        "10.11.0.3/32",
        "10.11.1.9/32",
        "255.255.255.255/32",
    ]
    .iter()
    .map(|p| p.parse().expect("valid prefix"))
    .collect()
}

/// Destinations inside, beside and outside the nested chain.
fn probe_destinations() -> Vec<Ipv4Addr> {
    vec![
        Ipv4Addr::new(10, 11, 0, 2),
        Ipv4Addr::new(10, 11, 0, 9),
        Ipv4Addr::new(10, 11, 1, 9),
        Ipv4Addr::new(10, 11, 200, 1),
        Ipv4Addr::new(10, 10, 3, 3),
        Ipv4Addr::new(10, 12, 0, 1),
        Ipv4Addr::new(203, 0, 113, 5),
        Ipv4Addr::new(255, 255, 255, 255),
        Ipv4Addr::new(0, 0, 0, 0),
    ]
}

/// Next hops over links 0..8, one per set bit of `mask`.
fn hops(mask: u8) -> Vec<NextHop> {
    (0..8u32)
        .filter(|bit| (mask >> bit) & 1 == 1)
        .map(|bit| NextHop {
            node: NodeId::new(100 + bit),
            link: LinkId::new(bit),
        })
        .collect()
}

/// A raw draw decoded into one route: three in four prefixes come from
/// the nested universe (so sequences collide on purpose), the rest from
/// anywhere at any length.
type RawRoute = (u32, u32, u8, u32, u8);

fn raw_route() -> impl Strategy<Value = RawRoute> {
    (any::<u32>(), any::<u32>(), 0u8..4, 0u32..4, 1u8..=255)
}

fn decode(raw: RawRoute) -> Route {
    let (pick, bits, origin, metric, hop_mask) = raw;
    let universe = nested_universe();
    let prefix = if pick % 4 == 0 {
        Prefix::truncating(Ipv4Addr::from_u32(bits), ((pick >> 2) % 33) as u8)
    } else {
        universe[(pick >> 2) as usize % universe.len()]
    };
    Route::new(prefix, ORIGINS[origin as usize], metric, hops(hop_mask))
}

/// Every observable of the two tables, side by side.
fn assert_same(flat: &Fib, trie: &reference::Fib, extra_dsts: &[Ipv4Addr], dead_masks: &[u8]) {
    assert_eq!(flat.len(), trie.len());
    assert_eq!(flat.is_empty(), trie.is_empty());
    let flat_routes: Vec<&Route> = flat.routes().collect();
    let trie_routes: Vec<&Route> = trie.routes().collect();
    assert_eq!(flat_routes, trie_routes, "routes() content and order");
    for &dst in probe_destinations().iter().chain(extra_dsts) {
        for &mask in dead_masks {
            let is_dead = |l: LinkId| (mask >> (l.index() % 8)) & 1 == 1;
            assert_eq!(
                flat.live_hops(dst, is_dead).collect::<Vec<_>>(),
                trie.live_next_hops(dst, is_dead),
                "live_hops({dst}) with dead mask {mask:#010b}"
            );
            for sport in [1u16, 2, 77] {
                let flow =
                    FlowKey::new(Ipv4Addr::new(10, 0, 0, 1), dst, sport, 5001, Protocol::Udp);
                assert_eq!(
                    flat.lookup(&flow, is_dead),
                    trie.lookup(&flow, is_dead),
                    "lookup({dst}, sport {sport}) with dead mask {mask:#010b}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random `insert` / `remove` / `apply(FibDelta)` sequences leave the
    /// two tables indistinguishable after every step.
    #[test]
    fn flat_table_equals_the_trie_under_random_mutation(
        steps in prop::collection::vec(
            (0u8..3, prop::collection::vec((0u8..3, raw_route()), 1..6)),
            1..40,
        ),
        dsts in prop::collection::vec(any::<u32>(), 0..3),
        masks in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let mut flat = Fib::new(9);
        let mut trie = reference::Fib::new(9);
        let extra: Vec<Ipv4Addr> = dsts.into_iter().map(Ipv4Addr::from_u32).collect();
        // Nothing dead, everything dead, and the drawn sets in between.
        let dead_masks: Vec<u8> = [0, 0xFF].into_iter().chain(masks).collect();
        for (kind, raws) in steps {
            let first = decode(raws[0].1);
            match kind {
                0 => {
                    flat.insert(first.clone());
                    trie.insert(first);
                }
                1 => prop_assert_eq!(
                    flat.remove(first.prefix, first.origin),
                    trie.remove(first.prefix, first.origin)
                ),
                _ => {
                    let origin = first.origin;
                    let ops: Vec<FibOp> = raws
                        .into_iter()
                        .map(|(op, raw)| {
                            let route = Route { origin, ..decode(raw) };
                            match op {
                                0 => FibOp::Insert(route),
                                1 => FibOp::Remove(route.prefix),
                                _ => FibOp::Patch {
                                    prefix: route.prefix,
                                    metric: route.metric,
                                    next_hops: route.next_hops,
                                },
                            }
                        })
                        .collect();
                    flat.apply(FibDelta { origin, ops: ops.clone() });
                    trie.apply(FibDelta { origin, ops });
                }
            }
            assert_same(&flat, &trie, &extra, &dead_masks);
        }
    }
}

/// Every level of the /0–/15–/16–/24–/32 chain carries several origins,
/// each on its own link; killing the links one by one in lookup order
/// walks the answer down the whole chain, one route at a time, in both
/// tables — within a prefix by origin preference, then to the
/// next-shorter prefix, and to nothing once every hop is dead.
#[test]
fn all_hops_dead_falls_through_at_every_level() {
    let dst = Ipv4Addr::new(10, 11, 0, 2);
    let chain: [(&str, &[RouteOrigin]); 5] = [
        ("10.11.0.2/32", &[RouteOrigin::Connected, RouteOrigin::Frr]),
        (
            "10.11.0.0/24",
            &[RouteOrigin::Static, RouteOrigin::Ospf, RouteOrigin::Frr],
        ),
        ("10.11.0.0/16", &[RouteOrigin::Static, RouteOrigin::Ospf]),
        ("10.10.0.0/15", &[RouteOrigin::Static]),
        ("0.0.0.0/0", &[RouteOrigin::Static, RouteOrigin::Ospf]),
    ];
    let mut in_lookup_order = Vec::new();
    for (prefix, origins) in chain {
        for &origin in origins {
            let link = in_lookup_order.len() as u32;
            in_lookup_order.push(Route::new(
                prefix.parse().expect("valid prefix"),
                origin,
                0,
                vec![NextHop {
                    node: NodeId::new(100 + link),
                    link: LinkId::new(link),
                }],
            ));
        }
    }
    let mut flat = Fib::new(3);
    let mut trie = reference::Fib::new(3);
    // Install shortest-first and least-preferred-first: order of arrival
    // must not matter.
    for route in in_lookup_order.iter().rev() {
        flat.insert(route.clone());
        trie.insert(route.clone());
    }
    // Siblings that never match `dst`.
    for sibling in ["10.11.1.0/24", "10.10.0.0/16", "10.11.0.3/32"] {
        let route = Route::new(
            sibling.parse().expect("valid prefix"),
            RouteOrigin::Connected,
            0,
            vec![NextHop {
                node: NodeId::new(99),
                link: LinkId::new(99),
            }],
        );
        flat.insert(route.clone());
        trie.insert(route);
    }
    let flow = FlowKey::new(Ipv4Addr::new(10, 0, 0, 1), dst, 7, 5001, Protocol::Udp);
    for killed in 0..=in_lookup_order.len() {
        let is_dead = |l: LinkId| l.index() < killed;
        let want = in_lookup_order.get(killed).map(|r| r.next_hops[0]);
        assert_eq!(flat.lookup(&flow, is_dead), want, "{killed} routes dead");
        assert_eq!(
            trie.lookup(&flow, is_dead),
            want,
            "{killed} routes dead (trie)"
        );
        let want_set: Vec<NextHop> = want.into_iter().collect();
        assert_eq!(flat.live_hops(dst, is_dead).collect::<Vec<_>>(), want_set);
        assert_eq!(trie.live_next_hops(dst, is_dead), want_set);
    }
}
