//! Standard k-ary fat tree builder (Al-Fares et al., SIGCOMM 2008).
//!
//! A `k`-port, 3-layer fat tree has `k` pods; each pod holds `k/2` ToR and
//! `k/2` aggregation switches; `(k/2)²` core switches are arranged in `k/2`
//! groups of `k/2`, where every core in group `g` connects to aggregation
//! switch index `g` of every pod. This is the baseline topology the paper
//! compares F²Tree against (Fig. 1(a)); [`AspenTree`](crate::AspenTree)
//! is the same tree with duplicated agg–core links, built by the same
//! loops.

use crate::id::{NodeId, PodId};
use crate::topology::{Layer, LinkClass, Topology, TopologyError};

/// Builder for a standard `k`-ary fat tree.
///
/// # Examples
///
/// ```
/// use dcn_net::FatTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's emulation scale: an 8-port, 3-layer DCN.
/// let topo = FatTree::new(8)?.build();
/// assert_eq!(topo.switch_count(), 80);
/// assert_eq!(topo.host_count(), 128);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FatTree {
    k: u32,
    hosts_per_tor: u32,
}

impl FatTree {
    /// Creates a builder for a `k`-port fat tree.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] unless `k` is even and
    /// at least 4.
    pub fn new(k: u32) -> Result<Self, TopologyError> {
        if k < 4 || !k.is_multiple_of(2) {
            return Err(TopologyError::InvalidParameter(format!(
                "fat tree requires an even port count >= 4, got {k}"
            )));
        }
        Ok(FatTree {
            k,
            hosts_per_tor: k / 2,
        })
    }

    /// Overrides the number of hosts attached per ToR (default `k/2`).
    ///
    /// The testbed experiments attach a single host per ToR, like the
    /// paper's Fig. 1 VM testbed.
    pub fn hosts_per_tor(mut self, hosts: u32) -> Self {
        self.hosts_per_tor = hosts;
        self
    }

    /// The switch port count `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Builds the topology.
    pub fn build(&self) -> Topology {
        let name = format!("fat-tree-k{}", self.k);
        build_tree(self.k, 1, self.hosts_per_tor, name)
    }
}

/// Builds a `k`-port, 3-layer tree whose aggregation switches reach each
/// of their cores over `dup` parallel links: the fat tree at `dup = 1`,
/// the Aspen tree ⟨dup − 1, 0⟩ above it. The duplication spends ports,
/// so the tree keeps `k/dup` pods and core groups of `k/(2·dup)`; the
/// caller checks that `dup` divides both `k` and `k/2`.
///
/// Ids are laid out switches first (per pod ToRs then aggs, then the core
/// groups), then every ToR–agg link, every agg–core link, and last the
/// hosts pod-major, so `hosts()[0]` is the leftmost rack's first host.
pub(crate) fn build_tree(k: u32, dup: u32, hosts_per_tor: u32, name: String) -> Topology {
    let half = k / 2;
    let mut topo = Topology::new(name, Some(k));
    let mut tors: Vec<Vec<NodeId>> = Vec::new();
    let mut aggs: Vec<Vec<NodeId>> = Vec::new();
    for p in 0..k / dup {
        let pod = PodId::new(p);
        tors.push(
            (0..half)
                .map(|t| topo.add_switch(format!("tor-p{p}-t{t}"), Layer::Tor, pod, t))
                .collect(),
        );
        aggs.push(
            (0..half)
                .map(|a| topo.add_switch(format!("agg-p{p}-a{a}"), Layer::Agg, pod, a))
                .collect(),
        );
    }
    // Core group `g` serves aggregation index `g` of every pod.
    let cores: Vec<Vec<NodeId>> = (0..half)
        .map(|g| {
            (0..half / dup)
                .map(|c| topo.add_switch(format!("core-g{g}-c{c}"), Layer::Core, PodId::new(g), c))
                .collect()
        })
        .collect();

    let mut wire = |a, b| {
        topo.add_link(a, b, LinkClass::Vertical)
            .expect("tree wiring fits the port budget");
    };
    // ToR <-> Agg full bipartite within each pod.
    for (pod_tors, pod_aggs) in tors.iter().zip(&aggs) {
        for &tor in pod_tors {
            for &agg in pod_aggs {
                wire(tor, agg);
            }
        }
    }
    // Agg index a of every pod <-> every core of group a, `dup` times.
    for pod_aggs in &aggs {
        for (&agg, group) in pod_aggs.iter().zip(&cores) {
            for &core in group {
                for _ in 0..dup {
                    wire(agg, core);
                }
            }
        }
    }
    for (p, pod_tors) in tors.iter().enumerate() {
        for (t, &tor) in pod_tors.iter().enumerate() {
            for h in 0..hosts_per_tor {
                let host = topo.add_host(format!("host-p{p}-t{t}-h{h}"));
                topo.add_link(host, tor, LinkClass::HostAccess)
                    .expect("tree wiring fits the port budget");
            }
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_matches_paper_testbed_counts() {
        // Fig. 1(a): 8 ToR, 8 agg, 4 core.
        let t = FatTree::new(4).unwrap().build();
        assert_eq!(t.layer_switches(Layer::Tor).count(), 8);
        assert_eq!(t.layer_switches(Layer::Agg).count(), 8);
        assert_eq!(t.layer_switches(Layer::Core).count(), 4);
        assert_eq!(t.host_count(), 16);
        assert!(t.is_connected());
    }

    #[test]
    fn k8_matches_table1_formulas() {
        let k: u32 = 8;
        let t = FatTree::new(k).unwrap().build();
        assert_eq!(t.switch_count() as u32, 5 * k * k / 4);
        assert_eq!(t.host_count() as u32, k * k * k / 4);
    }

    #[test]
    fn every_switch_uses_exactly_k_ports() {
        let k = 6;
        let t = FatTree::new(k).unwrap().build();
        for node in t.nodes().filter(|n| n.kind().is_switch()) {
            assert_eq!(
                t.degree(node.id()),
                k as usize,
                "switch {} should use all {k} ports",
                node.name()
            );
        }
    }

    #[test]
    fn tor_connects_to_every_pod_agg() {
        let t = FatTree::new(4).unwrap().build();
        for (p, pod_tors) in t.pods(Layer::Tor).iter().enumerate() {
            for &tor in pod_tors {
                for &agg in &t.pods(Layer::Agg)[p] {
                    assert!(t.link_between(tor, agg).is_some());
                }
            }
        }
    }

    #[test]
    fn agg_index_connects_to_matching_core_group() {
        let t = FatTree::new(6).unwrap().build();
        for pod_aggs in t.pods(Layer::Agg) {
            for &agg in pod_aggs {
                let a = t.node(agg).pos_in_pod().unwrap() as usize;
                for &core in &t.pods(Layer::Core)[a] {
                    assert!(t.link_between(agg, core).is_some());
                }
            }
        }
    }

    #[test]
    fn no_intra_pod_links_between_same_layer_switches() {
        // The original fat tree has no across links; F2Tree adds them.
        let t = FatTree::new(8).unwrap().build();
        for node in t.nodes().filter(|n| n.kind().is_switch()) {
            assert!(t.across_links(node.id()).is_empty());
        }
    }

    #[test]
    fn hosts_per_tor_override() {
        let t = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        assert_eq!(t.host_count(), 8);
    }

    #[test]
    fn rejects_odd_or_tiny_k() {
        assert!(FatTree::new(3).is_err());
        assert!(FatTree::new(5).is_err());
        assert!(FatTree::new(2).is_err());
        assert!(FatTree::new(0).is_err());
    }
}
