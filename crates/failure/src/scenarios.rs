//! The failure conditions of Table IV (C1–C7).
//!
//! Each condition is resolved against a concrete topology and the probe
//! flow's forwarding path: `Sx` is the aggregation switch on the flow's
//! downward path in the destination pod, and failures are picked relative
//! to it exactly as the paper describes (Fig. 3, Table IV).

use std::fmt;

use dcn_net::{LinkId, NodeId, PodRing, Topology};

/// The seven failure conditions of Table IV.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Condition {
    /// 1 link between ToR and aggregation switch (§II-C condition 1).
    C1,
    /// 1 link between core and aggregation switch (§II-C condition 1).
    C2,
    /// C1 + C2 combined (§II-C condition 1).
    C3,
    /// 2 adjacent ToR–agg links in the same pod (§II-C condition 2).
    C4,
    /// All ToR–agg links in the pod except the left across neighbor's
    /// (§II-C condition 2).
    C5,
    /// 1 ToR–agg link + the right across link (§II-C condition 3).
    C6,
    /// 2 ToR–agg links + 1 right across link (§II-C condition 4 — the
    /// tough case where F²Tree degrades to fat tree).
    C7,
}

impl Condition {
    /// All conditions, in Table IV order.
    pub const ALL: [Condition; 7] = [
        Condition::C1,
        Condition::C2,
        Condition::C3,
        Condition::C4,
        Condition::C5,
        Condition::C6,
        Condition::C7,
    ];

    /// The §II-C failure-condition class this scenario belongs to
    /// (the "Belong to which failure condition" column of Table IV).
    pub fn paper_condition(self) -> u8 {
        match self {
            Condition::C1 | Condition::C2 | Condition::C3 => 1,
            Condition::C4 | Condition::C5 => 2,
            Condition::C6 => 3,
            Condition::C7 => 4,
        }
    }

    /// Whether the scenario needs across links (C6/C7 are F²Tree-specific;
    /// the paper evaluates only F²Tree on them).
    pub fn requires_across_links(self) -> bool {
        matches!(self, Condition::C6 | Condition::C7)
    }

    /// The Table IV description.
    pub fn description(self) -> &'static str {
        match self {
            Condition::C1 => "1 link between ToR and aggregation switch",
            Condition::C2 => "1 link between core and aggregation switch",
            Condition::C3 => {
                "1 link between ToR and aggregation switch & 1 link between core and aggregation switch"
            }
            Condition::C4 => "2 adjacent links between ToR and aggregation switches in the same pod",
            Condition::C5 => {
                "all links between ToR and aggregation switches in the same pod except the one of the left across neighbor"
            }
            Condition::C6 => "1 link between ToR and aggregation switch & 1 right across link",
            Condition::C7 => "2 links between ToR and aggregation switches & 1 right across link",
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Errors while resolving a condition to concrete links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A required link does not exist between two nodes.
    MissingLink(NodeId, NodeId),
    /// The condition needs an across-link ring the topology lacks.
    MissingRing(Condition),
    /// The path aggregation switch is not in the destination pod ring.
    AggNotInRing(NodeId),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::MissingLink(a, b) => write!(f, "no link between {a} and {b}"),
            ScenarioError::MissingRing(c) => {
                write!(f, "condition {c} requires an across-link ring")
            }
            ScenarioError::AggNotInRing(n) => write!(f, "switch {n} is not a ring member"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The flow-relative context a condition is resolved against.
#[derive(Clone, Debug)]
pub struct ScenarioContext<'a> {
    /// The topology under test.
    pub topo: &'a Topology,
    /// The destination host's ToR.
    pub dest_tor: NodeId,
    /// `Sx`: the aggregation switch on the flow's downward path.
    pub path_agg: NodeId,
    /// The core switch on the flow's path (for C2/C3).
    pub path_core: NodeId,
    /// The destination pod's aggregation switches, in ring/pod order.
    pub pod_aggs: Vec<NodeId>,
    /// The destination pod's agg across-link ring (F²Tree only).
    pub agg_ring: Option<&'a PodRing>,
}

impl ScenarioContext<'_> {
    fn link(&self, a: NodeId, b: NodeId) -> Result<LinkId, ScenarioError> {
        self.topo
            .link_between(a, b)
            .ok_or(ScenarioError::MissingLink(a, b))
    }

    fn pos(&self, agg: NodeId) -> Result<usize, ScenarioError> {
        self.pod_aggs
            .iter()
            .position(|&a| a == agg)
            .ok_or(ScenarioError::AggNotInRing(agg))
    }

    fn right_of(&self, agg: NodeId) -> Result<NodeId, ScenarioError> {
        let i = self.pos(agg)?;
        Ok(self.pod_aggs[(i + 1) % self.pod_aggs.len()])
    }

    fn left_of(&self, agg: NodeId) -> Result<NodeId, ScenarioError> {
        let i = self.pos(agg)?;
        let n = self.pod_aggs.len();
        Ok(self.pod_aggs[(i + n - 1) % n])
    }

    fn right_across(&self, agg: NodeId, condition: Condition) -> Result<LinkId, ScenarioError> {
        let ring = self.agg_ring.ok_or(ScenarioError::MissingRing(condition))?;
        ring.right(agg, 1)
            .map(|(_, link)| link)
            .ok_or(ScenarioError::AggNotInRing(agg))
    }
}

/// Resolves a condition to the concrete set of links to fail.
///
/// # Errors
///
/// Returns an error if the topology lacks a required link, or if a
/// C6/C7 condition is requested without an across-link ring.
pub fn condition_links(
    ctx: &ScenarioContext<'_>,
    condition: Condition,
) -> Result<Vec<LinkId>, ScenarioError> {
    let sx = ctx.path_agg;
    let tor = ctx.dest_tor;
    match condition {
        Condition::C1 => Ok(vec![ctx.link(sx, tor)?]),
        Condition::C2 => Ok(vec![ctx.link(ctx.path_core, sx)?]),
        Condition::C3 => Ok(vec![ctx.link(sx, tor)?, ctx.link(ctx.path_core, sx)?]),
        Condition::C4 => {
            let right = ctx.right_of(sx)?;
            Ok(vec![ctx.link(sx, tor)?, ctx.link(right, tor)?])
        }
        Condition::C5 => {
            let spare = ctx.left_of(sx)?;
            let mut links = Vec::new();
            for &agg in &ctx.pod_aggs {
                if agg != spare {
                    links.push(ctx.link(agg, tor)?);
                }
            }
            Ok(links)
        }
        Condition::C6 => Ok(vec![
            ctx.link(sx, tor)?,
            ctx.right_across(sx, condition)?,
        ]),
        Condition::C7 => {
            let right = ctx.right_of(sx)?;
            Ok(vec![
                ctx.link(sx, tor)?,
                ctx.link(right, tor)?,
                ctx.right_across(right, condition)?,
            ])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FatTree, Layer};

    /// A plain fat tree context (no ring): pod 3's first agg is Sx.
    fn fat_ctx(topo: &Topology) -> ScenarioContext<'_> {
        let pod = 3usize;
        let pod_aggs = topo.pods(Layer::Agg)[pod].clone();
        let dest_tor = topo.pods(Layer::Tor)[pod][0];
        let path_agg = pod_aggs[0];
        // Any core attached to path_agg works for tests.
        let path_core = topo
            .neighbors(path_agg)
            .map(|(_, n)| n)
            .find(|&n| topo.node(n).layer() == Some(Layer::Core))
            .unwrap();
        ScenarioContext {
            topo,
            dest_tor,
            path_agg,
            path_core,
            pod_aggs,
            agg_ring: None,
        }
    }

    #[test]
    fn table_iv_mapping_to_paper_conditions() {
        assert_eq!(Condition::C1.paper_condition(), 1);
        assert_eq!(Condition::C2.paper_condition(), 1);
        assert_eq!(Condition::C3.paper_condition(), 1);
        assert_eq!(Condition::C4.paper_condition(), 2);
        assert_eq!(Condition::C5.paper_condition(), 2);
        assert_eq!(Condition::C6.paper_condition(), 3);
        assert_eq!(Condition::C7.paper_condition(), 4);
    }

    #[test]
    fn c1_fails_exactly_the_downward_path_link() {
        let topo = FatTree::new(8).unwrap().build();
        let ctx = fat_ctx(&topo);
        let links = condition_links(&ctx, Condition::C1).unwrap();
        assert_eq!(links.len(), 1);
        let link = topo.link(links[0]);
        let (a, b) = link.endpoints();
        assert!(
            (a == ctx.path_agg && b == ctx.dest_tor) || (b == ctx.path_agg && a == ctx.dest_tor)
        );
    }

    #[test]
    fn c3_is_the_union_of_c1_and_c2() {
        let topo = FatTree::new(8).unwrap().build();
        let ctx = fat_ctx(&topo);
        let c1 = condition_links(&ctx, Condition::C1).unwrap();
        let c2 = condition_links(&ctx, Condition::C2).unwrap();
        let c3 = condition_links(&ctx, Condition::C3).unwrap();
        assert_eq!(c3, [c1, c2].concat());
    }

    #[test]
    fn c4_fails_two_adjacent_downward_links() {
        let topo = FatTree::new(8).unwrap().build();
        let ctx = fat_ctx(&topo);
        let links = condition_links(&ctx, Condition::C4).unwrap();
        assert_eq!(links.len(), 2);
        assert_ne!(links[0], links[1]);
    }

    #[test]
    fn c5_spares_only_the_left_neighbor() {
        let topo = FatTree::new(8).unwrap().build();
        let ctx = fat_ctx(&topo);
        let links = condition_links(&ctx, Condition::C5).unwrap();
        // k=8 pod has 4 aggs; all but one lose their ToR link.
        assert_eq!(links.len(), 3);
        let spared = ctx.left_of(ctx.path_agg).unwrap();
        let spared_link = topo.link_between(spared, ctx.dest_tor).unwrap();
        assert!(!links.contains(&spared_link));
    }

    #[test]
    fn c6_and_c7_require_a_ring() {
        let topo = FatTree::new(8).unwrap().build();
        let ctx = fat_ctx(&topo);
        assert_eq!(
            condition_links(&ctx, Condition::C6),
            Err(ScenarioError::MissingRing(Condition::C6))
        );
        assert_eq!(
            condition_links(&ctx, Condition::C7),
            Err(ScenarioError::MissingRing(Condition::C7))
        );
        assert!(Condition::C6.requires_across_links());
        assert!(!Condition::C4.requires_across_links());
    }

    #[test]
    fn descriptions_are_nonempty_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in Condition::ALL {
            assert!(!c.description().is_empty());
            assert!(seen.insert(c.description()));
        }
    }
}
