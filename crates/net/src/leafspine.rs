//! Two-layer Leaf-Spine builder (§V, Fig. 7(a) of the paper).
//!
//! Every leaf connects to every spine. Leaves play the ToR role and spines
//! the Core role in this crate's layer taxonomy. Like the original fat
//! tree, Leaf-Spine lacks immediate backup links for downward (spine→leaf)
//! links; the F²Tree rewiring adds a spine ring to fix that.

use crate::id::{NodeId, PodId};
use crate::topology::{Layer, LinkClass, Topology, TopologyError};

/// Builder for a two-layer Leaf-Spine fabric.
///
/// # Examples
///
/// ```
/// use dcn_net::LeafSpine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = LeafSpine::new(4, 4)?.build();
/// assert_eq!(topo.switch_count(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct LeafSpine {
    leaves: u32,
    spines: u32,
    hosts_per_leaf: u32,
    spare_spine_ports: u32,
}

impl LeafSpine {
    /// Creates a builder with `leaves` leaf and `spines` spine switches.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if either count is zero.
    pub fn new(leaves: u32, spines: u32) -> Result<Self, TopologyError> {
        if leaves == 0 || spines == 0 {
            return Err(TopologyError::InvalidParameter(format!(
                "leaf-spine requires nonzero switch counts, got {leaves} leaves / {spines} spines"
            )));
        }
        Ok(LeafSpine {
            leaves,
            spines,
            hosts_per_leaf: spines,
            spare_spine_ports: 0,
        })
    }

    /// Overrides the number of hosts per leaf (default: the spine count, so
    /// the fabric is non-oversubscribed).
    pub fn hosts_per_leaf(mut self, hosts: u32) -> Self {
        self.hosts_per_leaf = hosts;
        self
    }

    /// Reserves extra ports on each spine so an F²Tree rewiring can add
    /// across links without exceeding the port budget.
    pub fn spare_spine_ports(mut self, spare: u32) -> Self {
        self.spare_spine_ports = spare;
        self
    }

    /// Builds the topology.
    pub fn build(&self) -> Topology {
        let ports = (self.leaves + self.spare_spine_ports).max(self.spines + self.hosts_per_leaf);
        let mut topo = Topology::new(
            format!("leaf-spine-{}x{}", self.leaves, self.spines),
            Some(ports),
        );
        let pod = PodId::new(0);
        let leaves: Vec<NodeId> = (0..self.leaves)
            .map(|l| topo.add_switch(format!("leaf-{l}"), Layer::Tor, pod, l))
            .collect();
        let spines: Vec<NodeId> = (0..self.spines)
            .map(|s| topo.add_switch(format!("spine-{s}"), Layer::Core, pod, s))
            .collect();
        for &leaf in &leaves {
            for &spine in &spines {
                topo.add_link(leaf, spine, LinkClass::Vertical)
                    .expect("leaf-spine wiring fits the port budget");
            }
        }
        for (l, &leaf) in leaves.iter().enumerate() {
            for h in 0..self.hosts_per_leaf {
                let host = topo.add_host(format!("host-l{l}-h{h}"));
                topo.add_link(host, leaf, LinkClass::HostAccess)
                    .expect("leaf-spine wiring fits the port budget");
            }
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_bipartite_wiring() {
        let t = LeafSpine::new(3, 4).unwrap().build();
        let leaves: Vec<_> = t.layer_switches(Layer::Tor).collect();
        let spines: Vec<_> = t.layer_switches(Layer::Core).collect();
        assert_eq!(leaves.len(), 3);
        assert_eq!(spines.len(), 4);
        for &l in &leaves {
            for &s in &spines {
                assert!(t.link_between(l, s).is_some());
            }
        }
        assert!(t.is_connected());
    }

    #[test]
    fn downward_links_have_no_backup_structure() {
        // Spines only have downward links: the motivation for Fig. 7(a).
        let t = LeafSpine::new(4, 2).unwrap().build();
        for spine in t.layer_switches(Layer::Core) {
            assert!(t.upward_links(spine).is_empty());
            assert!(t.across_links(spine).is_empty());
            assert_eq!(t.downward_links(spine).len(), 4);
        }
    }

    #[test]
    fn hosts_default_to_non_oversubscribed() {
        let t = LeafSpine::new(3, 4).unwrap().build();
        assert_eq!(t.host_count(), 12);
        let t2 = LeafSpine::new(3, 4).unwrap().hosts_per_leaf(1).build();
        assert_eq!(t2.host_count(), 3);
    }

    #[test]
    fn rejects_zero_counts() {
        assert!(LeafSpine::new(0, 4).is_err());
        assert!(LeafSpine::new(4, 0).is_err());
    }
}
