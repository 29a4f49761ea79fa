//! Production-DCN address assignment (paper §II-B, Fig. 3(d)).
//!
//! Per the paper's interview with a top cloud provider's operators:
//! switches bundle all ports into one layer-3 interface with a single IP
//! address, hosts in a rack share their ToR's /24 subnet, and each ToR
//! redistributes its subnet into the routing protocol. The whole DCN's
//! hosts live under one *DCN prefix* (`10.11.0.0/16` in the paper's
//! example), and F²Tree's second backup route uses the shorter *covering
//! prefix* (`10.10.0.0/15`).

use std::fmt;

use crate::addr::{Ipv4Addr, Prefix};
use crate::id::NodeId;
use crate::topology::{Layer, NodeKind, Topology};

/// The paper's example DCN prefix: all host subnets live under it.
pub const DCN_PREFIX: Prefix = Prefix::truncating(Ipv4Addr::new(10, 11, 0, 0), 16);

/// The paper's example covering prefix: one bit shorter, covering
/// [`DCN_PREFIX`].
pub const COVERING_PREFIX: Prefix = Prefix::truncating(Ipv4Addr::new(10, 10, 0, 0), 15);

/// Errors produced while assigning addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressingError {
    /// More ToRs than /24 subnets available under the DCN prefix.
    TooManyTors(usize),
    /// More switches at one layer than the scheme supports.
    TooManySwitches(Layer, usize),
    /// A rack had more hosts than fit in a /24.
    TooManyHostsInRack(NodeId, usize),
    /// A host is not attached by exactly one link to a ToR, so it has no
    /// rack subnet.
    HostOffRack(NodeId),
}

impl fmt::Display for AddressingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressingError::TooManyTors(n) => {
                write!(
                    f,
                    "{n} ToRs exceed the 256 /24 subnets under the DCN prefix"
                )
            }
            AddressingError::TooManySwitches(layer, n) => {
                write!(f, "{n} {layer} switches exceed the 256 supported")
            }
            AddressingError::TooManyHostsInRack(tor, n) => {
                write!(f, "rack under {tor} has {n} hosts, exceeding a /24")
            }
            AddressingError::HostOffRack(host) => {
                write!(f, "host {host} does not hang off exactly one ToR")
            }
        }
    }
}

impl std::error::Error for AddressingError {}

/// The address plan produced by [`assign_addresses`].
///
/// # Examples
///
/// ```
/// use dcn_net::{assign_addresses, FatTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut topo = FatTree::new(4)?.build();
/// let plan = assign_addresses(&mut topo)?;
/// assert_eq!(plan.dcn_prefix.to_string(), "10.11.0.0/16");
/// assert_eq!(plan.covering_prefix.to_string(), "10.10.0.0/15");
/// // Every rack subnet sits under the DCN prefix.
/// assert!(plan.rack_subnets.iter().all(|r| plan.dcn_prefix.covers(r.subnet)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AddressPlan {
    /// The prefix containing every host in the DCN (`10.11.0.0/16`).
    pub dcn_prefix: Prefix,
    /// The shorter prefix just covering the DCN prefix (`10.10.0.0/15`).
    pub covering_prefix: Prefix,
    /// Each ToR's rack subnet, redistributed into the routing protocol.
    pub rack_subnets: Vec<RackSubnet>,
}

/// One ToR's rack subnet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RackSubnet {
    /// The ToR that originates the subnet.
    pub tor: NodeId,
    /// The /24 covering the rack's hosts (and the ToR's own address).
    pub subnet: Prefix,
}

impl AddressPlan {
    /// The rack subnet originated by `tor`, if any.
    pub fn subnet_of(&self, tor: NodeId) -> Option<Prefix> {
        self.rack_subnets
            .iter()
            .find(|r| r.tor == tor)
            .map(|r| r.subnet)
    }
}

/// Assigns addresses to every live node following the paper's scheme:
///
/// * ToR `i` (in pod-major order) gets `10.11.i.1` inside rack subnet
///   `10.11.i.0/24`; its hosts get `10.11.i.2`, `10.11.i.3`, …
/// * Aggregation switch `j` gets `10.12.j.1`.
/// * Core switch `c` gets `10.13.c.1`.
///
/// # Errors
///
/// Returns an error if a layer has more than 256 switches or a rack more
/// than 254 hosts — beyond the paper's example scheme (such topologies are
/// analyzed, not packet-simulated) — or if a host does not hang off
/// exactly one ToR by exactly one link.
pub fn assign_addresses(topo: &mut Topology) -> Result<AddressPlan, AddressingError> {
    let tors: Vec<NodeId> = topo.layer_switches(Layer::Tor).collect();
    let aggs: Vec<NodeId> = topo.layer_switches(Layer::Agg).collect();
    let cores: Vec<NodeId> = topo.layer_switches(Layer::Core).collect();
    if tors.len() > 256 {
        return Err(AddressingError::TooManyTors(tors.len()));
    }
    if aggs.len() > 256 {
        return Err(AddressingError::TooManySwitches(Layer::Agg, aggs.len()));
    }
    if cores.len() > 256 {
        return Err(AddressingError::TooManySwitches(Layer::Core, cores.len()));
    }
    for &host in topo.hosts() {
        let mut uplinks = topo.neighbors(host);
        match (uplinks.next(), uplinks.next()) {
            (Some((_, tor)), None) if topo.node(tor).kind() == NodeKind::Switch(Layer::Tor) => {}
            _ => return Err(AddressingError::HostOffRack(host)),
        }
    }

    let mut rack_subnets = Vec::with_capacity(tors.len());
    for (i, &tor) in tors.iter().enumerate() {
        let subnet = Prefix::truncating(Ipv4Addr::new(10, 11, i as u8, 0), 24);
        topo.set_addr(tor, subnet.nth(1)).expect("tor is live");
        // Hosts attached to this ToR, in adjacency order.
        let hosts: Vec<NodeId> = topo
            .neighbors(tor)
            .map(|(_, n)| n)
            .filter(|&n| topo.node(n).kind() == NodeKind::Host)
            .collect();
        if hosts.len() > 254 {
            return Err(AddressingError::TooManyHostsInRack(tor, hosts.len()));
        }
        for (h, &host) in hosts.iter().enumerate() {
            topo.set_addr(host, subnet.nth(2 + h as u32))
                .expect("host is live");
        }
        rack_subnets.push(RackSubnet { tor, subnet });
    }
    for (j, &agg) in aggs.iter().enumerate() {
        topo.set_addr(agg, Ipv4Addr::new(10, 12, j as u8, 1))
            .expect("agg is live");
    }
    for (c, &core) in cores.iter().enumerate() {
        topo.set_addr(core, Ipv4Addr::new(10, 13, c as u8, 1))
            .expect("core is live");
    }

    Ok(AddressPlan {
        dcn_prefix: DCN_PREFIX,
        covering_prefix: COVERING_PREFIX,
        rack_subnets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::FatTree;

    #[test]
    fn constants_match_the_paper() {
        assert_eq!(DCN_PREFIX.to_string(), "10.11.0.0/16");
        assert_eq!(COVERING_PREFIX.to_string(), "10.10.0.0/15");
        assert!(COVERING_PREFIX.covers(DCN_PREFIX));
    }

    #[test]
    fn assigns_unique_addresses_to_all_live_nodes() {
        let mut topo = FatTree::new(4).unwrap().build();
        assign_addresses(&mut topo).unwrap();
        let mut addrs: Vec<Ipv4Addr> = topo.nodes().map(|n| n.addr()).collect();
        addrs.sort();
        let before = addrs.len();
        addrs.dedup();
        assert_eq!(before, addrs.len(), "addresses must be unique");
        assert!(addrs.iter().all(|&a| a != Ipv4Addr::UNSPECIFIED));
    }

    #[test]
    fn hosts_share_their_tor_subnet() {
        let mut topo = FatTree::new(4).unwrap().build();
        let plan = assign_addresses(&mut topo).unwrap();
        for host in topo.hosts().to_vec() {
            let tor = topo.host_tor(host).unwrap();
            let subnet = plan.subnet_of(tor).unwrap();
            assert!(subnet.contains(topo.node(host).addr()));
            assert!(subnet.contains(topo.node(tor).addr()));
        }
    }

    #[test]
    fn all_rack_subnets_under_dcn_prefix_and_disjoint() {
        let mut topo = FatTree::new(8).unwrap().build();
        let plan = assign_addresses(&mut topo).unwrap();
        for (i, a) in plan.rack_subnets.iter().enumerate() {
            assert!(plan.dcn_prefix.covers(a.subnet));
            assert!(plan.covering_prefix.covers(a.subnet));
            for b in &plan.rack_subnets[i + 1..] {
                assert!(!a.subnet.covers(b.subnet) && !b.subnet.covers(a.subnet));
            }
        }
    }

    #[test]
    fn switch_layers_use_distinct_octets() {
        let mut topo = FatTree::new(4).unwrap().build();
        assign_addresses(&mut topo).unwrap();
        for node in topo.nodes() {
            let [a, b, _, _] = node.addr().octets();
            assert_eq!(a, 10);
            match node.kind() {
                NodeKind::Host | NodeKind::Switch(Layer::Tor) => assert_eq!(b, 11),
                NodeKind::Switch(Layer::Agg) => assert_eq!(b, 12),
                NodeKind::Switch(Layer::Core) => assert_eq!(b, 13),
            }
        }
    }
}
