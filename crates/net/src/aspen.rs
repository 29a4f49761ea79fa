//! Aspen tree ⟨f, 0⟩ builder (Walraed-Sullivan et al., CoNEXT 2013) —
//! the fault-tolerant baseline of Table I.
//!
//! An Aspen tree adds fault tolerance between the aggregation and core
//! layers by *duplicating* links: with fault-tolerance value `f`, each
//! aggregation switch connects to each of its core switches with `f + 1`
//! parallel links. The duplication consumes ports, shrinking the fabric
//! to `N/(f+1)` pods — Table I's `5N²/(4(f+1))` switches supporting
//! `N³/(4(f+1))` hosts. With `f = 0` that is the fat tree, and one
//! builder lays out both, in the fat tree's node and link order.
//!
//! The structural consequence the paper leans on: Aspen gains immediate
//! backup links **only** for links in the fault-tolerant (agg–core)
//! layer; agg→ToR downward links remain unprotected, so ToR-level
//! failures still pay the full control-plane convergence cost.

use crate::fattree::build_tree;
use crate::topology::{Topology, TopologyError};

/// Builder for an Aspen tree ⟨f, 0⟩.
///
/// # Examples
///
/// ```
/// use dcn_net::AspenTree;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // N=8, f=1: half the pods of a fat tree, double agg-core links.
/// let topo = AspenTree::new(8, 1)?.build();
/// assert_eq!(topo.switch_count() as u32, 5 * 8 * 8 / (4 * 2));
/// assert_eq!(topo.host_count() as u32, 8 * 8 * 8 / (4 * 2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct AspenTree {
    k: u32,
    f: u32,
}

impl AspenTree {
    /// Creates a builder for a `k`-port Aspen tree with agg–core fault
    /// tolerance `f ≥ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] unless `k` is even and
    /// at least 4, `f ≥ 1`, `(f+1)` divides `k`, and `(f+1)` divides
    /// `k/2` (so the per-group duplication is integral).
    pub fn new(k: u32, f: u32) -> Result<Self, TopologyError> {
        if k < 4 || !k.is_multiple_of(2) {
            return Err(TopologyError::InvalidParameter(format!(
                "Aspen tree requires an even port count >= 4, got {k}"
            )));
        }
        if f == 0 {
            return Err(TopologyError::InvalidParameter(
                "Aspen fault tolerance f must be >= 1 (f = 0 is a fat tree)".into(),
            ));
        }
        let c = f + 1;
        if !k.is_multiple_of(c) || !(k / 2).is_multiple_of(c) {
            return Err(TopologyError::InvalidParameter(format!(
                "f + 1 = {c} must divide both k = {k} and k/2"
            )));
        }
        Ok(AspenTree { k, f })
    }

    /// Builds the topology: the fat tree's wiring with every agg–core
    /// link laid `f + 1` times, `k/2` hosts per ToR.
    pub fn build(&self) -> Topology {
        let (k, f) = (self.k, self.f);
        build_tree(k, f + 1, k / 2, format!("aspen-k{k}-f{f}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layer, NodeId};

    #[test]
    fn counts_match_table1_closed_forms() {
        for (k, f) in [(8u32, 1u32), (12, 1), (12, 2), (16, 1), (16, 3)] {
            let c = f + 1;
            let topo = AspenTree::new(k, f).unwrap().build();
            assert_eq!(
                topo.switch_count() as u32,
                5 * k * k / (4 * c),
                "switches at k={k}, f={f}"
            );
            assert_eq!(
                topo.host_count() as u32,
                k * k * k / (4 * c),
                "hosts at k={k}, f={f}"
            );
            assert!(topo.is_connected());
        }
    }

    #[test]
    fn every_switch_uses_exactly_k_ports() {
        let topo = AspenTree::new(8, 1).unwrap().build();
        for node in topo.nodes().filter(|n| n.kind().is_switch()) {
            assert_eq!(topo.degree(node.id()), 8, "{}", node.name());
        }
    }

    #[test]
    fn agg_core_links_are_duplicated_f_plus_one_times() {
        let topo = AspenTree::new(8, 1).unwrap().build();
        for agg in topo.layer_switches(Layer::Agg) {
            let cores: std::collections::HashSet<NodeId> = topo
                .upward_links(agg)
                .iter()
                .map(|&l| topo.link(l).other_end(agg))
                .collect();
            for &core in &cores {
                assert_eq!(
                    topo.links_between(agg, core).len(),
                    2,
                    "f=1 gives 2 parallel links"
                );
            }
        }
    }

    #[test]
    fn tor_agg_links_remain_single() {
        // The structural gap the paper exploits: only the fault-tolerant
        // layer is protected.
        let topo = AspenTree::new(8, 1).unwrap().build();
        for tor in topo.layer_switches(Layer::Tor) {
            for &l in &topo.upward_links(tor) {
                let agg = topo.link(l).other_end(tor);
                assert_eq!(topo.links_between(tor, agg).len(), 1);
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(AspenTree::new(8, 0).is_err());
        assert!(AspenTree::new(8, 2).is_err()); // 3 does not divide 8
        assert!(AspenTree::new(6, 1).is_err()); // 2 divides 6 but not 3
        assert!(AspenTree::new(5, 1).is_err());
    }
}
