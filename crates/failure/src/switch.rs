//! Whole-switch failures (paper footnote 1).
//!
//! "We model all network failures as link failures for simplification.
//! For example, a whole switch failure is modeled as the failures of all
//! its links."

use dcn_net::{LinkId, NodeId, Topology};

/// All live links attached to `node` — failing them all is the paper's
/// model of a whole-switch failure.
pub fn switch_links(topo: &Topology, node: NodeId) -> Vec<LinkId> {
    topo.neighbors(node).map(|(l, _)| l).collect()
}

/// All switch-to-switch links: the candidates for random failure
/// injection (host access links are excluded, so no host is severed
/// outright).
pub fn fabric_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|l| {
            let (a, b) = l.endpoints();
            topo.node(a).kind().is_switch() && topo.node(b).kind().is_switch()
        })
        .map(|l| l.id())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FatTree, Layer};

    #[test]
    fn switch_failure_covers_every_attached_link() {
        let topo = FatTree::new(4).unwrap().build();
        let agg = topo.layer_switches(Layer::Agg).next().unwrap();
        let links = switch_links(&topo, agg);
        assert_eq!(links.len(), 4, "k=4 agg uses all 4 ports");
    }
}
