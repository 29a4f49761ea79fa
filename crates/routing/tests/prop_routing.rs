//! Property-based tests for the FIB and ECMP.

use dcn_net::{FlowKey, Ipv4Addr, LinkId, NodeId, Prefix, Protocol};
use dcn_routing::{ecmp_select, Fib, FibDelta, FibOp, NextHop, Route, RouteOrigin};
use proptest::prelude::*;

fn hop(n: u32) -> NextHop {
    NextHop {
        node: NodeId::new(n),
        link: LinkId::new(n),
    }
}

fn route_strategy() -> impl Strategy<Value = Route> {
    (any::<u32>(), 8u8..=28, 1u32..=6).prop_map(|(bits, len, hops)| {
        Route::new(
            Prefix::truncating(Ipv4Addr::from_bits(bits), len),
            RouteOrigin::Ospf,
            1,
            (0..hops).map(hop).collect(),
        )
    })
}

proptest! {
    /// The FIB always returns the longest matching prefix with a live
    /// next hop — checked against a brute-force reference.
    #[test]
    fn lookup_matches_bruteforce_lpm(
        routes in prop::collection::vec(route_strategy(), 1..40),
        dst: u32,
        sport: u16,
        dead_mask: u64,
    ) {
        let mut fib = Fib::new(9);
        for r in &routes {
            fib.apply(FibDelta { origin: r.origin, ops: vec![FibOp::Insert(r.clone())] });
        }
        let dst = Ipv4Addr::from_bits(dst);
        let flow = FlowKey::new(Ipv4Addr::new(10, 0, 0, 1), dst, sport, 80, Protocol::Udp);
        let is_dead = |l: LinkId| (dead_mask >> (l.index() % 64)) & 1 == 1;

        let got = fib.lookup(&flow, is_dead);

        // Reference: among deduped routes (same prefix+origin replaced by
        // the last insert), find the longest matching prefix with >= 1
        // live hop.
        let mut dedup: std::collections::HashMap<(Prefix, RouteOrigin), Route> =
            std::collections::HashMap::new();
        for r in &routes {
            dedup.insert((r.prefix, r.origin), r.clone());
        }
        let best = dedup
            .values()
            .filter(|r| r.prefix.contains(dst))
            .filter(|r| r.next_hops.iter().any(|h| !is_dead(h.link)))
            .max_by_key(|r| r.prefix.len());

        match (got, best) {
            (None, None) => {}
            (Some(h), Some(r)) => {
                // The returned hop must be a live member of the best route.
                prop_assert!(r.next_hops.contains(&h), "hop from the best route");
                prop_assert!(!is_dead(h.link), "hop is live");
            }
            (got, want) => prop_assert!(
                false,
                "mismatch: got {got:?}, expected from {want:?}"
            ),
        }
    }

    /// ECMP selection is stable per flow and uniformly in bounds.
    #[test]
    fn ecmp_select_is_stable_and_bounded(
        src: u32, dst: u32, sport: u16, dport: u16, salt: u64, n in 1usize..=64,
    ) {
        let flow = FlowKey::new(
            Ipv4Addr::from_bits(src),
            Ipv4Addr::from_bits(dst),
            sport,
            dport,
            Protocol::Tcp,
        );
        let a = ecmp_select(&flow, salt, n);
        let b = ecmp_select(&flow, salt, n);
        prop_assert_eq!(a, b);
        prop_assert!(a < n);
    }

    /// Killing ECMP members never makes an unreachable flow reachable,
    /// and reviving them never makes a reachable flow unreachable.
    #[test]
    fn dead_links_monotonically_shrink_reachability(
        routes in prop::collection::vec(route_strategy(), 1..20),
        dst: u32,
        dead_mask: u64,
    ) {
        let mut fib = Fib::new(3);
        for r in &routes {
            fib.apply(FibDelta { origin: r.origin, ops: vec![FibOp::Insert(r.clone())] });
        }
        let flow = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::from_bits(dst),
            1,
            2,
            Protocol::Udp,
        );
        let all_alive = fib.lookup(&flow, |_| false);
        let some_dead = fib.lookup(&flow, |l| (dead_mask >> (l.index() % 64)) & 1 == 1);
        let all_dead = fib.lookup(&flow, |_| true);
        prop_assert!(all_dead.is_none());
        if all_alive.is_none() {
            prop_assert!(some_dead.is_none());
        }
    }
}
