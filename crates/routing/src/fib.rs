//! The forwarding information base: a sorted-run LPM table with
//! fall-through.
//!
//! Routes sit in one `Vec` sorted by (prefix length descending, address,
//! origin preference) — lookup order — with an index of where each
//! populated length's run ends. A lookup is one binary search per
//! populated length, longest first: a fabric FIB holds three or four
//! lengths (/32 hosts, /24 racks, the /16 and /15 backups), so that is a
//! handful of probes into contiguous memory where a bit trie chased one
//! boxed node per address bit. The trie survives as the test oracle
//! (`tests/fib_reference.rs`).
//!
//! The F²Tree fast-reroute primitive lives here. A lookup walks matching
//! prefixes **longest first**; at each prefix it considers entries in
//! origin-preference order and ECMP-hashes over the next hops whose
//! out-interface is *locally alive*. If every next hop at a prefix is dead,
//! the lookup falls through to the next-shorter prefix — which is exactly
//! how a pre-installed shorter-prefix static backup route takes over the
//! instant the interface is marked down, with zero control-plane work
//! (paper §II-B, Table II).

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;

use dcn_net::{FlowKey, Ipv4Addr, LinkId, Prefix};

use crate::ecmp::ecmp_select;
use crate::route::{NextHop, Route, RouteOrigin};

/// One FIB mutation within a [`FibDelta`].
///
/// Every op is *absolute* — it carries the complete desired state for its
/// prefix (never a relative adjustment), so re-applying an op is
/// idempotent and a superseded delta's dropped ops can never corrupt
/// prefixes a newer delta already wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FibOp {
    /// Install this route (upsert: overwrites any same-prefix route of the
    /// delta's origin in place).
    Insert(Route),
    /// Remove the delta-origin route for this prefix, if present.
    Remove(Prefix),
}

/// A batch of per-prefix FIB mutations for one route origin — the only
/// currency [`Fib::apply`] accepts: connected and static routes, SPF runs
/// (a controller push among them) and precomputed repairs all install
/// through it.
///
/// # Ordering law
///
/// A router's SPF deltas form a sequence: each is the [`FibDelta::diff`]
/// against the route set the *previous* delta leaves behind (the router's
/// emitted-route memory), not against the live FIB — an earlier delta may
/// still be waiting out its FIB-update delay. They must therefore be
/// applied in generation order. The router guarantees this (it never
/// queues an install to land before one it queued earlier); the
/// generation guard in `RouterProcess::on_install` only drops exact
/// replays defensively.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FibDelta {
    /// The origin whose routes the ops mutate.
    pub origin: RouteOrigin,
    /// Mutations; ops touch disjoint prefixes, so their order is free.
    pub ops: Vec<FibOp>,
}

impl FibDelta {
    /// Whether the delta performs no mutations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The minimal delta that turns the `origin` route set `current` into
    /// exactly `desired`: removes and changed routes in `current`'s prefix
    /// order, then new routes in `desired`'s. Equal routes produce no op.
    pub fn diff<R: Borrow<Route>>(
        origin: RouteOrigin,
        current: &BTreeMap<Prefix, R>,
        desired: &BTreeMap<Prefix, Route>,
    ) -> Self {
        let mut ops = Vec::new();
        for (&prefix, cur) in current {
            match desired.get(&prefix) {
                None => ops.push(FibOp::Remove(prefix)),
                Some(want) if want == cur.borrow() => {}
                // Delta ops share their data: they outlive this borrow of
                // the desired map (FIB installs are delayed events), and a
                // next-hop set costs a reference count, not a copy.
                Some(want) => ops.push(FibOp::Insert(want.clone())),
            }
        }
        for (prefix, want) in desired {
            debug_assert_eq!(want.origin, origin);
            if !current.contains_key(prefix) {
                ops.push(FibOp::Insert(want.clone()));
            }
        }
        FibDelta { origin, ops }
    }
}

/// A per-switch forwarding table.
///
/// # Examples
///
/// Reproducing Table II's lookup behaviour: with the /24 OSPF route's next
/// hop dead, the /16 static backup (rightward across neighbor) takes over.
///
/// ```
/// use dcn_net::{FlowKey, Ipv4Addr, LinkId, NodeId, Protocol};
/// use dcn_routing::{Fib, FibDelta, FibOp, NextHop, Route, RouteOrigin};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fib = Fib::new(0);
/// let down = NextHop { node: NodeId::new(0), link: LinkId::new(0) };
/// let right = NextHop { node: NodeId::new(9), link: LinkId::new(1) };
/// for route in [
///     Route::new("10.11.0.0/24".parse()?, RouteOrigin::Ospf, 1, vec![down]),
///     Route::new("10.11.0.0/16".parse()?, RouteOrigin::Static, 0, vec![right]),
/// ] {
///     fib.apply(FibDelta { origin: route.origin, ops: vec![FibOp::Insert(route)] });
/// }
///
/// let flow = FlowKey::new(
///     Ipv4Addr::new(10, 11, 4, 2), Ipv4Addr::new(10, 11, 0, 2),
///     9, 9, Protocol::Udp);
///
/// // Healthy: the /24 wins.
/// let hop = fib.lookup(&flow, |_| false).unwrap();
/// assert_eq!(hop.node, NodeId::new(0));
/// // Downward interface dead: fall through to the /16 backup.
/// let hop = fib.lookup(&flow, |l| l == LinkId::new(0)).unwrap();
/// assert_eq!(hop.node, NodeId::new(9));
/// # Ok(())
/// # }
/// ```
pub struct Fib {
    /// Every route, sorted by (prefix length descending, address, origin
    /// preference): lookup order, with one contiguous run per length.
    routes: Vec<Route>,
    /// `(length, end)` per populated prefix length, longest first; a run
    /// starts where the previous one ends.
    runs: Vec<(u8, usize)>,
    salt: u64,
}

impl Fib {
    /// Creates an empty FIB with a per-switch ECMP salt.
    pub fn new(salt: u64) -> Self {
        Fib {
            routes: Vec::new(),
            runs: Vec::new(),
            salt,
        }
    }

    /// Number of installed routes (all origins).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the FIB holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Where the `origin` route for `prefix` is (`Ok`) or belongs (`Err`).
    fn position(&self, prefix: Prefix, origin: RouteOrigin) -> Result<usize, usize> {
        self.routes
            .binary_search_by_key(&(Reverse(prefix.len()), prefix, origin), |r| {
                (Reverse(r.prefix.len()), r.prefix, r.origin)
            })
    }

    /// Rebuilds the run index after routes were added or dropped.
    fn reindex(&mut self) {
        self.runs.clear();
        for (i, route) in self.routes.iter().enumerate() {
            match self.runs.last_mut() {
                Some((len, end)) if *len == route.prefix.len() => *end = i + 1,
                _ => self.runs.push((route.prefix.len(), i + 1)),
            }
        }
    }

    /// Applies a [`FibDelta`], op by op, each found by binary search —
    /// the only way a route enters or leaves the table.
    pub fn apply(&mut self, delta: FibDelta) {
        let origin = delta.origin;
        // Room for exactly the new routes, at once (grown one insert at a
        // time, a k = 16 ToR's 129 routes took 256 slots), and none for
        // overwrites: a bootstrapped table's capacity is its length, and
        // neither reconverging nor a later static route may double it.
        let added = delta.ops.iter().filter(
            |op| matches!(op, FibOp::Insert(route) if self.position(route.prefix, origin).is_err()),
        );
        self.routes.reserve_exact(added.count());
        for op in delta.ops {
            match op {
                FibOp::Insert(route) => {
                    debug_assert_eq!(route.origin, origin);
                    match self.position(route.prefix, origin) {
                        Ok(i) => {
                            if let Some(existing) = self.routes.get_mut(i) {
                                *existing = route;
                            }
                        }
                        Err(i) => self.routes.insert(i, route),
                    }
                }
                FibOp::Remove(prefix) => {
                    if let Ok(i) = self.position(prefix, origin) {
                        self.routes.remove(i);
                    }
                }
            }
        }
        self.reindex();
    }

    /// Looks up the forwarding decision for `flow`.
    ///
    /// `is_dead` reports whether an out-interface is locally detected down
    /// (the paper's BFD-like interface state). Matching prefixes are tried
    /// longest-first; within a prefix, origins in preference order; within
    /// a route, ECMP over the live next hops.
    pub fn lookup(&self, flow: &FlowKey, is_dead: impl Fn(LinkId) -> bool) -> Option<NextHop> {
        // ECMP selects among the live hops without materializing them:
        // count first, then take the selected one in a second pass.
        self.first_match(flow.dst, |route| {
            let live = route.next_hops.iter().filter(|h| !is_dead(h.link)).count();
            if live == 0 {
                return None;
            }
            let idx = ecmp_select(flow, self.salt, live);
            route
                .next_hops
                .iter()
                .filter(|h| !is_dead(h.link))
                .nth(idx)
                .copied()
        })
    }

    /// Offers the routes matching `dst` to `pick` in lookup order —
    /// longest prefix first, origin preference within a prefix — until it
    /// answers; a `None` falls through to the next route. One binary
    /// search per populated prefix length and no scratch storage: this
    /// backs the per-packet path.
    fn first_match<'a, T>(
        &'a self,
        dst: Ipv4Addr,
        mut pick: impl FnMut(&'a Route) -> Option<T>,
    ) -> Option<T> {
        let mut start = 0;
        for &(len, end) in &self.runs {
            let run = self.routes.get(start..end).unwrap_or_default();
            start = end;
            // One length per run, so prefixes order by address here.
            let want = Prefix::truncating(dst, len);
            let first = run.partition_point(|r| r.prefix < want);
            let hit = run
                .get(first..)
                .unwrap_or_default()
                .iter()
                .take_while(|r| r.prefix == want)
                .find_map(&mut pick);
            if hit.is_some() {
                return hit;
            }
        }
        None
    }

    /// The live ECMP next hops the FIB splits `dst`-bound traffic over:
    /// the winning route under the exact [`Fib::lookup`] semantics
    /// (longest prefix first, origin preference within a prefix,
    /// fall-through past routes whose hops are all dead), its locally dead
    /// members skipped.
    ///
    /// Where [`Fib::lookup`] hash-selects a single member per flow, the
    /// routing-quality metrics need every member — under ECMP a uniform
    /// flow population splits equally across the live set, so this is
    /// the per-destination next-hop DAG extraction seam. It borrows the
    /// route and allocates nothing.
    pub fn live_hops<'a>(
        &'a self,
        dst: Ipv4Addr,
        is_dead: impl Fn(LinkId) -> bool + 'a,
    ) -> impl Iterator<Item = NextHop> + 'a {
        let live = |route: &'a Route| route.next_hops.iter().any(|h| !is_dead(h.link));
        let route = self.first_match(dst, |route| live(route).then_some(route));
        route
            .into_iter()
            .flat_map(|route| route.next_hops.iter())
            .filter(move |h| !is_dead(h.link))
            .copied()
    }

    /// Borrowing iterator over every installed route, in lookup order:
    /// prefix length descending, then address, then origin preference —
    /// the order [`Fib::lookup`] tries them in, and Table II's. No route
    /// is cloned and nothing is sorted.
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter()
    }
}

impl fmt::Debug for Fib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fib")
            .field("routes", &self.routes.len())
            .field("salt", &self.salt)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{NodeId, Protocol};

    fn hop(n: u32, l: u32) -> NextHop {
        NextHop {
            node: NodeId::new(n),
            link: LinkId::new(l),
        }
    }

    fn flow_to(dst: Ipv4Addr, sport: u16) -> FlowKey {
        FlowKey::new(Ipv4Addr::new(10, 11, 4, 2), dst, sport, 5001, Protocol::Udp)
    }

    /// Installs `route` alone, as a one-op delta of its origin.
    fn put(fib: &mut Fib, route: Route) {
        fib.apply(FibDelta {
            origin: route.origin,
            ops: vec![FibOp::Insert(route)],
        });
    }

    /// Removes the `origin` route for `prefix`, as a one-op delta.
    fn drop_route(fib: &mut Fib, prefix: Prefix, origin: RouteOrigin) {
        fib.apply(FibDelta {
            origin,
            ops: vec![FibOp::Remove(prefix)],
        });
    }

    fn table2_fib() -> Fib {
        // S8's routing table from Table II of the paper.
        let mut fib = Fib::new(8);
        for (prefix, origin, metric, hops) in [
            // S0, downward
            ("10.11.0.0/24", RouteOrigin::Ospf, 1, vec![hop(0, 0)]),
            // S20/S21 upward ECMP
            (
                "10.11.4.0/24",
                RouteOrigin::Ospf,
                2,
                vec![hop(20, 5), hop(21, 6)],
            ),
            // right across neighbor S9
            ("10.11.0.0/16", RouteOrigin::Static, 0, vec![hop(9, 1)]),
            // left across neighbor S10
            ("10.10.0.0/15", RouteOrigin::Static, 0, vec![hop(10, 2)]),
        ] {
            put(
                &mut fib,
                Route::new(prefix.parse().unwrap(), origin, metric, hops),
            );
        }
        fib
    }

    #[test]
    fn healthy_lookup_uses_longest_prefix() {
        let fib = table2_fib();
        let h = fib
            .lookup(&flow_to(Ipv4Addr::new(10, 11, 0, 2), 1), |_| false)
            .unwrap();
        assert_eq!(h.node, NodeId::new(0));
    }

    #[test]
    fn downward_failure_falls_to_right_across_backup() {
        // Paper: upon detecting S8-S0 down, packets to D go via S9.
        let fib = table2_fib();
        let h = fib
            .lookup(&flow_to(Ipv4Addr::new(10, 11, 0, 2), 1), |l| {
                l == LinkId::new(0)
            })
            .unwrap();
        assert_eq!(h.node, NodeId::new(9));
    }

    #[test]
    fn right_across_also_dead_falls_to_left_backup() {
        // Paper condition 3: both the downward link and the right across
        // link are dead -> the shorter /15 via S10 is chosen.
        let fib = table2_fib();
        let h = fib
            .lookup(&flow_to(Ipv4Addr::new(10, 11, 0, 2), 1), |l| {
                l == LinkId::new(0) || l == LinkId::new(1)
            })
            .unwrap();
        assert_eq!(h.node, NodeId::new(10));
    }

    #[test]
    fn everything_dead_returns_none() {
        let fib = table2_fib();
        assert!(fib
            .lookup(&flow_to(Ipv4Addr::new(10, 11, 0, 2), 1), |_| true)
            .is_none());
    }

    #[test]
    fn ecmp_spreads_upward_flows_and_prunes_dead_members() {
        let fib = table2_fib();
        let dst = Ipv4Addr::new(10, 11, 4, 9);
        let mut seen = std::collections::HashSet::new();
        for sport in 0..200 {
            seen.insert(fib.lookup(&flow_to(dst, sport), |_| false).unwrap().node);
        }
        assert_eq!(seen.len(), 2, "both ECMP members used");
        // Kill one member: every flow lands on the survivor without
        // falling through to the backups (ECMP local repair).
        for sport in 0..200 {
            let h = fib
                .lookup(&flow_to(dst, sport), |l| l == LinkId::new(5))
                .unwrap();
            assert_eq!(h.node, NodeId::new(21));
        }
    }

    #[test]
    fn static_backups_do_not_shadow_longer_ospf_routes() {
        // The backup routes have shorter prefixes, so they never win while
        // an OSPF route's next hop is alive (paper §II-B).
        let fib = table2_fib();
        for sport in 0..50 {
            let h = fib
                .lookup(&flow_to(Ipv4Addr::new(10, 11, 0, 2), sport), |_| false)
                .unwrap();
            assert_eq!(h.node, NodeId::new(0));
        }
    }

    fn by_prefix(routes: Vec<Route>) -> BTreeMap<Prefix, Route> {
        routes.into_iter().map(|r| (r.prefix, r)).collect()
    }

    /// The installed routes of `origin`, keyed by prefix.
    fn installed(fib: &Fib, origin: RouteOrigin) -> BTreeMap<Prefix, Route> {
        by_prefix(
            fib.routes()
                .filter(|r| r.origin == origin)
                .cloned()
                .collect(),
        )
    }

    #[test]
    fn apply_diff_swaps_ospf_routes_only() {
        let mut fib = table2_fib();
        assert_eq!(fib.len(), 4);
        let delta = FibDelta::diff(
            RouteOrigin::Ospf,
            &installed(&fib, RouteOrigin::Ospf),
            &by_prefix(vec![Route::new(
                "10.11.0.0/24".parse().unwrap(),
                RouteOrigin::Ospf,
                3,
                vec![hop(9, 1)],
            )]),
        );
        fib.apply(delta);
        assert_eq!(fib.len(), 3); // 1 OSPF + 2 static
        let h = fib
            .lookup(&flow_to(Ipv4Addr::new(10, 11, 0, 2), 1), |_| false)
            .unwrap();
        assert_eq!(h.node, NodeId::new(9));
        // Statics survived.
        assert!(fib
            .routes()
            .any(|r| r.origin == RouteOrigin::Static && r.prefix.to_string() == "10.10.0.0/15"));
    }

    #[test]
    fn insert_same_prefix_same_origin_replaces() {
        let mut fib = Fib::new(0);
        let p: Prefix = "10.11.0.0/24".parse().unwrap();
        put(
            &mut fib,
            Route::new(p, RouteOrigin::Ospf, 1, vec![hop(1, 1)]),
        );
        put(
            &mut fib,
            Route::new(p, RouteOrigin::Ospf, 2, vec![hop(2, 2)]),
        );
        assert_eq!(fib.len(), 1);
        let f = flow_to(Ipv4Addr::new(10, 11, 0, 9), 1);
        assert_eq!(fib.lookup(&f, |_| false).unwrap().node, NodeId::new(2));
    }

    #[test]
    fn connected_beats_static_beats_ospf_at_equal_prefix() {
        let mut fib = Fib::new(0);
        let p: Prefix = "10.11.0.0/24".parse().unwrap();
        put(
            &mut fib,
            Route::new(p, RouteOrigin::Ospf, 1, vec![hop(3, 3)]),
        );
        put(
            &mut fib,
            Route::new(p, RouteOrigin::Connected, 0, vec![hop(1, 1)]),
        );
        put(
            &mut fib,
            Route::new(p, RouteOrigin::Static, 0, vec![hop(2, 2)]),
        );
        let f = flow_to(Ipv4Addr::new(10, 11, 0, 9), 1);
        assert_eq!(fib.lookup(&f, |_| false).unwrap().node, NodeId::new(1));
        // Connected hop dead -> static takes over at the same prefix.
        let h = fib.lookup(&f, |l| l == LinkId::new(1)).unwrap();
        assert_eq!(h.node, NodeId::new(2));
    }

    #[test]
    fn remove_deletes_exactly_one_origin() {
        let mut fib = table2_fib();
        let p: Prefix = "10.11.0.0/16".parse().unwrap();
        let mut want: Vec<Route> = fib.routes().filter(|r| r.prefix != p).cloned().collect();
        drop_route(&mut fib, p, RouteOrigin::Static);
        assert_eq!(fib.routes().cloned().collect::<Vec<_>>(), want);
        drop_route(&mut fib, p, RouteOrigin::Static);
        assert_eq!(fib.len(), 3);
        // An OSPF route beside a static one at its prefix: only it goes.
        let p24: Prefix = "10.11.0.0/24".parse().unwrap();
        let backup = Route::new(p24, RouteOrigin::Static, 0, vec![hop(9, 1)]);
        put(&mut fib, backup.clone());
        drop_route(&mut fib, p24, RouteOrigin::Ospf);
        want.retain(|r| r.prefix != p24);
        want.push(backup);
        want.sort_by_key(|r| (Reverse(r.prefix.len()), r.prefix, r.origin));
        assert_eq!(fib.routes().cloned().collect::<Vec<_>>(), want);
    }

    #[test]
    fn removing_an_absent_route_changes_nothing() {
        let mut fib = table2_fib();
        let before: Vec<Route> = fib.routes().cloned().collect();
        let dst = Ipv4Addr::new(10, 11, 0, 2);
        let hop_before = fib.lookup(&flow_to(dst, 1), |_| false);
        // A prefix nobody installed, at a length nobody populated, and an
        // installed prefix under an origin it does not have.
        drop_route(&mut fib, "10.11.7.0/24".parse().unwrap(), RouteOrigin::Ospf);
        drop_route(&mut fib, Prefix::host(dst), RouteOrigin::Connected);
        drop_route(
            &mut fib,
            "10.11.0.0/24".parse().unwrap(),
            RouteOrigin::Static,
        );
        drop_route(&mut fib, "10.12.0.0/16".parse().unwrap(), RouteOrigin::Ospf);
        assert_eq!(fib.len(), 4);
        assert_eq!(fib.routes().cloned().collect::<Vec<_>>(), before);
        assert_eq!(fib.lookup(&flow_to(dst, 1), |_| false), hop_before);
    }

    #[test]
    fn removing_every_route_returns_the_table_to_empty() {
        let mut fib = table2_fib();
        let installed: Vec<Route> = fib.routes().cloned().collect();
        for route in &installed {
            let len = fib.len();
            drop_route(&mut fib, route.prefix, route.origin);
            assert_eq!(fib.len(), len - 1);
            assert!(!fib.routes().any(|r| r == route));
        }
        assert!(fib.is_empty());
        assert_eq!(fib.routes().count(), 0);
        assert!(fib.runs.is_empty(), "no emptied prefix length lingers");
        let dst = Ipv4Addr::new(10, 11, 0, 2);
        assert!(fib.lookup(&flow_to(dst, 1), |_| false).is_none());
        assert!(fib.live_hops(dst, |_| false).next().is_none());
    }

    #[test]
    fn routes_iterates_every_route_without_cloning() {
        let fib = table2_fib();
        let mut lens: Vec<u8> = fib.routes().map(|r| r.prefix.len()).collect();
        assert_eq!(lens.len(), fib.len());
        lens.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(lens, vec![24, 24, 16, 15]);
    }

    #[test]
    fn apply_overwrites_in_place_and_adds_missing() {
        let mut fib = table2_fib();
        let p24: Prefix = "10.11.0.0/24".parse().unwrap();
        let p_new: Prefix = "10.11.9.0/24".parse().unwrap();
        fib.apply(FibDelta {
            origin: RouteOrigin::Ospf,
            ops: vec![
                FibOp::Insert(Route::new(p24, RouteOrigin::Ospf, 7, vec![hop(9, 1)])),
                FibOp::Remove("10.11.4.0/24".parse().unwrap()),
                FibOp::Insert(Route::new(p_new, RouteOrigin::Ospf, 2, vec![hop(20, 5)])),
            ],
        });
        assert_eq!(fib.len(), 4); // 4 - 1 removed + 1 added
        let rewritten = fib
            .routes()
            .find(|r| r.prefix == p24 && r.origin == RouteOrigin::Ospf)
            .unwrap();
        assert_eq!(rewritten.metric, 7);
        assert_eq!(rewritten.next_hops, vec![hop(9, 1)].into());
        assert!(!fib.routes().any(|r| r.prefix.to_string() == "10.11.4.0/24"));
        assert!(fib.routes().any(|r| r.prefix == p_new));
    }

    /// `apply` reserves room only for routes that are new to the table:
    /// overwrites leave the capacity alone, and additions grow it by no
    /// more than they need.
    #[test]
    fn apply_reserves_only_for_new_routes() {
        let mut fib = Fib::new(0);
        let prefixes: Vec<Prefix> = (0..40u8)
            .map(|i| Prefix::truncating(Ipv4Addr::new(10, 11, i, 0), 24))
            .collect();
        let delta = |metric: u32, prefixes: &[Prefix]| FibDelta {
            origin: RouteOrigin::Ospf,
            ops: prefixes
                .iter()
                .map(|&p| FibOp::Insert(Route::new(p, RouteOrigin::Ospf, metric, vec![hop(1, 1)])))
                .collect(),
        };
        fib.apply(delta(1, &prefixes));
        fib.routes.shrink_to_fit();
        let full = fib.routes.capacity();
        assert_eq!(full, prefixes.len());

        // Every op overwrites an installed route: not one slot more.
        fib.apply(delta(2, &prefixes));
        assert_eq!(fib.routes.capacity(), full);
        assert!(fib.routes().all(|r| r.metric == 2));

        // Three new prefixes beside three overwrites: room for three.
        let extra: Vec<Prefix> = (40..43u8)
            .map(|i| Prefix::truncating(Ipv4Addr::new(10, 11, i, 0), 24))
            .collect();
        let mixed: Vec<Prefix> = extra.iter().chain(&prefixes[..3]).copied().collect();
        fib.apply(delta(3, &mixed));
        assert_eq!(fib.len(), full + extra.len());
        assert!(fib.routes.capacity() <= full + extra.len());
    }

    #[test]
    fn diff_emits_minimal_ops_and_round_trips() {
        let fib = table2_fib();
        let current = installed(&fib, RouteOrigin::Ospf);
        // Same desired state -> empty delta.
        assert!(FibDelta::diff(RouteOrigin::Ospf, &current, &current).is_empty());

        // One changed, one dropped, one added -> exactly three ops, in
        // order (the change and the drop by current prefix, then the
        // addition), and applying them leaves exactly the desired OSPF
        // set beside the untouched statics.
        let changed = Route::new(
            "10.11.0.0/24".parse().unwrap(),
            RouteOrigin::Ospf,
            9,
            vec![hop(9, 1)],
        );
        let added = Route::new(
            "10.11.9.0/24".parse().unwrap(),
            RouteOrigin::Ospf,
            2,
            vec![hop(20, 5)],
        );
        let desired = vec![changed.clone(), added.clone()];
        let delta = FibDelta::diff(RouteOrigin::Ospf, &current, &by_prefix(desired.clone()));
        assert_eq!(
            delta.ops,
            vec![
                FibOp::Insert(changed),
                FibOp::Remove("10.11.4.0/24".parse().unwrap()),
                FibOp::Insert(added),
            ]
        );
        let statics: Vec<Route> = fib
            .routes()
            .filter(|r| r.origin == RouteOrigin::Static)
            .cloned()
            .collect();
        let mut via_delta = table2_fib();
        via_delta.apply(delta);
        let mut got: Vec<Route> = via_delta.routes().cloned().collect();
        got.sort_by_key(|r| (r.prefix, r.origin));
        let mut want: Vec<Route> = desired.into_iter().chain(statics).collect();
        want.sort_by_key(|r| (r.prefix, r.origin));
        assert_eq!(got, want);
    }

    #[test]
    fn default_route_catches_all() {
        let mut fib = Fib::new(0);
        put(
            &mut fib,
            Route::new(Prefix::DEFAULT, RouteOrigin::Static, 0, vec![hop(1, 1)]),
        );
        let f = flow_to(Ipv4Addr::new(203, 0, 113, 5), 1);
        assert_eq!(fib.lookup(&f, |_| false).unwrap().node, NodeId::new(1));
    }
}
