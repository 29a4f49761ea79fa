//! Routes and next hops.

use std::fmt;
use std::sync::Arc;

use dcn_net::{LinkId, NodeId, Prefix};

/// Where a route came from, ordered by administrative preference
/// (connected beats static beats OSPF beats FRR repair, mirroring real
/// admin distances 0 / 1 / 110 / 254).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteOrigin {
    /// Directly connected (a ToR's attached host, at /32).
    Connected,
    /// Statically configured (F²Tree's backup routes).
    Static,
    /// Learned from the link-state protocol.
    Ospf,
    /// Precomputed fast-reroute repair (LFA/remote-LFA alternates from
    /// `dcn-frr`'s failure map). Deliberately *least* preferred: a repair
    /// route at the same prefix as an OSPF route stays dormant while the
    /// OSPF next hops are alive, and activates through the FIB's
    /// within-prefix origin fall-through the moment detection marks them
    /// dead — the same mechanism F²Tree's shorter-prefix backups use,
    /// applied at equal prefix length.
    Frr,
}

impl RouteOrigin {
    /// Classic administrative distance, for display purposes.
    pub fn admin_distance(self) -> u8 {
        match self {
            RouteOrigin::Connected => 0,
            RouteOrigin::Static => 1,
            RouteOrigin::Ospf => 110,
            RouteOrigin::Frr => 254,
        }
    }
}

impl fmt::Display for RouteOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteOrigin::Connected => "connected",
            RouteOrigin::Static => "static",
            RouteOrigin::Ospf => "ospf",
            RouteOrigin::Frr => "frr",
        };
        f.write_str(s)
    }
}

/// One forwarding next hop: the neighbor and the port (link) to reach it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NextHop {
    /// The adjacent node packets are handed to.
    pub node: NodeId,
    /// The link (port) used to reach it.
    pub link: LinkId,
}

impl fmt::Display for NextHop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "via {} on {}", self.node, self.link)
    }
}

/// A routing entry: a prefix, its origin, and its ECMP next-hop set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Origin (administrative preference).
    pub origin: RouteOrigin,
    /// Path metric (hop count for OSPF; 0 for connected/static).
    pub metric: u32,
    /// Equal-cost next hops, sorted for determinism; one allocation
    /// shared by every route, delta and FIB entry written with the set.
    pub next_hops: Arc<[NextHop]>,
}

impl Route {
    /// Creates a route, sorting and deduplicating the next-hop set into
    /// an allocation of its own.
    pub fn new(
        prefix: Prefix,
        origin: RouteOrigin,
        metric: u32,
        mut next_hops: Vec<NextHop>,
    ) -> Self {
        next_hops.sort();
        next_hops.dedup();
        Route {
            prefix,
            origin,
            metric,
            next_hops: next_hops.into(),
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}/{}] -> {} hop(s)",
            self.prefix,
            self.origin,
            self.metric,
            self.next_hops.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_preference_order() {
        assert!(RouteOrigin::Connected < RouteOrigin::Static);
        assert!(RouteOrigin::Static < RouteOrigin::Ospf);
        assert!(RouteOrigin::Ospf < RouteOrigin::Frr);
        assert!(RouteOrigin::Connected.admin_distance() < RouteOrigin::Ospf.admin_distance());
        assert!(RouteOrigin::Ospf.admin_distance() < RouteOrigin::Frr.admin_distance());
    }

    #[test]
    fn route_new_normalizes_next_hops() {
        let p: Prefix = "10.11.0.0/24".parse().unwrap();
        let h1 = NextHop {
            node: NodeId::new(2),
            link: LinkId::new(9),
        };
        let h2 = NextHop {
            node: NodeId::new(1),
            link: LinkId::new(4),
        };
        let r = Route::new(p, RouteOrigin::Ospf, 2, vec![h1, h2, h1]);
        assert_eq!(r.next_hops, vec![h2, h1].into());
    }

    #[test]
    fn display_is_informative() {
        let p: Prefix = "10.11.0.0/16".parse().unwrap();
        let r = Route::new(p, RouteOrigin::Static, 0, vec![]);
        assert_eq!(r.to_string(), "10.11.0.0/16 [static/0] -> 0 hop(s)");
    }
}
