//! The data-center topology graph.
//!
//! A [`Topology`] is a multigraph of hosts and layer-3 switches connected by
//! bidirectional links. It supports the mutation operations the F²Tree
//! rewiring recipe needs — removing links, retiring nodes, and adding
//! *across links* — while keeping layer/pod bookkeeping consistent so that
//! experiments can ask structural questions ("the leftmost host", "the
//! downward links of pod 3") without re-deriving them.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::Ipv4Addr;
use crate::id::{LinkId, NodeId, PodId};

/// The switching layer of a node in a multi-rooted tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Top-of-rack (leaf) switch; hosts attach here.
    Tor,
    /// Aggregation switch.
    Agg,
    /// Core (spine) switch.
    Core,
}

impl Layer {
    /// Height rank used to classify link direction (hosts are rank 0).
    pub fn rank(self) -> u8 {
        match self {
            Layer::Tor => 1,
            Layer::Agg => 2,
            Layer::Core => 3,
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::Tor => "tor",
            Layer::Agg => "agg",
            Layer::Core => "core",
        };
        f.write_str(s)
    }
}

/// Whether a node is an end host or a switch at some layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// An end host (server).
    Host,
    /// A layer-3 switch at the given layer.
    Switch(Layer),
}

impl NodeKind {
    /// Height rank of the node (hosts are 0).
    pub fn rank(self) -> u8 {
        match self {
            NodeKind::Host => 0,
            NodeKind::Switch(layer) => layer.rank(),
        }
    }

    /// Whether this node is a switch.
    pub fn is_switch(self) -> bool {
        matches!(self, NodeKind::Switch(_))
    }
}

/// Classification of a link by its role in the topology.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Host-to-ToR access link.
    HostAccess,
    /// Inter-layer link (ToR–Agg or Agg–Core).
    Vertical,
    /// Intra-pod across link added by the F²Tree rewiring.
    Across,
}

/// A node (host or switch) in the topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    name: String,
    /// Pod membership for switches (ToR/Agg: the tree pod; Core: the group
    /// of cores attached to the same aggregation index).
    pod: Option<PodId>,
    /// Ring position within the pod; determines leftward/rightward across
    /// neighbors in F²Tree.
    pos_in_pod: Option<u32>,
    /// The node's layer-3 interface address (switches bundle all ports into
    /// a single interface per the paper's production-DCN convention).
    addr: Ipv4Addr,
    removed: bool,
}

impl Node {
    /// The node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Host or switch (and at which layer).
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Human-readable name such as `agg-p2-a1`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pod membership, if the node belongs to a pod.
    pub fn pod(&self) -> Option<PodId> {
        self.pod
    }

    /// Ring position within the pod.
    pub fn pos_in_pod(&self) -> Option<u32> {
        self.pos_in_pod
    }

    /// The layer-3 interface address (unspecified until addressing runs).
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Whether the node has been retired by a rewiring transform.
    pub fn is_removed(&self) -> bool {
        self.removed
    }

    /// The node's layer, if it is a switch.
    pub fn layer(&self) -> Option<Layer> {
        match self.kind {
            NodeKind::Switch(layer) => Some(layer),
            NodeKind::Host => None,
        }
    }
}

/// A bidirectional link between two nodes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Link {
    id: LinkId,
    a: NodeId,
    b: NodeId,
    class: LinkClass,
    removed: bool,
}

impl Link {
    /// The link identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// One endpoint (construction order; no semantic meaning).
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The other endpoint.
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Both endpoints.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// The link's role classification.
    pub fn class(&self) -> LinkClass {
        self.class
    }

    /// Whether the link has been removed by a rewiring transform.
    pub fn is_removed(&self) -> bool {
        self.removed
    }

    /// Given one endpoint, returns the opposite endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this link.
    #[expect(clippy::panic, reason = "documented contract: callers pass an endpoint")]
    pub fn other_end(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else if node == self.b {
            self.a
        } else {
            panic!("{node} is not an endpoint of {}", self.id)
        }
    }
}

/// Errors produced by topology construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node id did not exist (or was removed).
    UnknownNode(NodeId),
    /// A link id did not exist (or was removed).
    UnknownLink(LinkId),
    /// An operation would exceed a switch's port budget.
    PortBudgetExceeded {
        /// The switch whose budget would be exceeded.
        node: NodeId,
        /// The port budget.
        ports: u32,
    },
    /// A builder parameter was invalid.
    InvalidParameter(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown or removed node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown or removed link {l}"),
            TopologyError::PortBudgetExceeded { node, ports } => {
                write!(f, "switch {node} exceeds its {ports}-port budget")
            }
            TopologyError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A multigraph of hosts and switches with layer/pod bookkeeping.
///
/// # Examples
///
/// ```
/// use dcn_net::{FatTree, Layer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = FatTree::new(4)?.build();
/// assert_eq!(topo.switch_count(), 20); // 8 ToR + 8 Agg + 4 Core
/// assert_eq!(topo.host_count(), 16);
/// assert_eq!(topo.layer_switches(Layer::Core).count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    name: String,
    ports_per_switch: Option<u32>,
    nodes: Vec<Node>,
    links: Vec<Link>,
    adj: Vec<Vec<(LinkId, NodeId)>>,
    tors: Vec<Vec<NodeId>>,
    aggs: Vec<Vec<NodeId>>,
    cores: Vec<Vec<NodeId>>,
    hosts: Vec<NodeId>,
}

impl Topology {
    /// Creates an empty topology.
    ///
    /// `ports_per_switch` enables port-budget enforcement when set; the
    /// builders in this crate always set it.
    pub fn new(name: impl Into<String>, ports_per_switch: Option<u32>) -> Self {
        Topology {
            name: name.into(),
            ports_per_switch,
            nodes: Vec::new(),
            links: Vec::new(),
            adj: Vec::new(),
            tors: Vec::new(),
            aggs: Vec::new(),
            cores: Vec::new(),
            hosts: Vec::new(),
        }
    }

    /// The topology's descriptive name (e.g. `"fat-tree-k8"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-switch port budget, if one is enforced.
    pub fn ports_per_switch(&self) -> Option<u32> {
        self.ports_per_switch
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a host node and returns its id.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind: NodeKind::Host,
            name: name.into(),
            pod: None,
            pos_in_pod: None,
            addr: Ipv4Addr::UNSPECIFIED,
            removed: false,
        });
        self.adj.push(Vec::new());
        self.hosts.push(id);
        id
    }

    /// Adds a switch node at `layer`, registered under `pod` at ring
    /// position `pos_in_pod`, and returns its id.
    pub fn add_switch(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        pod: PodId,
        pos_in_pod: u32,
    ) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind: NodeKind::Switch(layer),
            name: name.into(),
            pod: Some(pod),
            pos_in_pod: Some(pos_in_pod),
            addr: Ipv4Addr::UNSPECIFIED,
            removed: false,
        });
        self.adj.push(Vec::new());
        let registry = match layer {
            Layer::Tor => &mut self.tors,
            Layer::Agg => &mut self.aggs,
            Layer::Core => &mut self.cores,
        };
        let pod_idx = pod.index();
        if registry.len() <= pod_idx {
            registry.resize_with(pod_idx + 1, Vec::new);
        }
        registry[pod_idx].push(id);
        id
    }

    /// Adds a bidirectional link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown/removed, or if the
    /// link would exceed a switch's port budget.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        class: LinkClass,
    ) -> Result<LinkId, TopologyError> {
        self.check_alive(a)?;
        self.check_alive(b)?;
        if let Some(ports) = self.ports_per_switch {
            for node in [a, b] {
                if self.nodes[node.index()].kind.is_switch()
                    && self.adj[node.index()].len() as u32 >= ports
                {
                    return Err(TopologyError::PortBudgetExceeded { node, ports });
                }
            }
        }
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(Link {
            id,
            a,
            b,
            class,
            removed: false,
        });
        self.adj[a.index()].push((id, b));
        self.adj[b.index()].push((id, a));
        Ok(id)
    }

    /// Removes a link (tombstoned; its id stays allocated).
    ///
    /// # Errors
    ///
    /// Returns an error if the link is unknown or already removed.
    pub fn remove_link(&mut self, link: LinkId) -> Result<(), TopologyError> {
        let entry = self
            .links
            .get_mut(link.index())
            .filter(|l| !l.removed)
            .ok_or(TopologyError::UnknownLink(link))?;
        entry.removed = true;
        let (a, b) = (entry.a, entry.b);
        self.adj[a.index()].retain(|&(l, _)| l != link);
        self.adj[b.index()].retain(|&(l, _)| l != link);
        Ok(())
    }

    /// Retires a node and all links attached to it.
    ///
    /// # Errors
    ///
    /// Returns an error if the node is unknown or already removed.
    pub fn remove_node(&mut self, node: NodeId) -> Result<(), TopologyError> {
        self.check_alive(node)?;
        let attached: Vec<LinkId> = self.adj[node.index()].iter().map(|&(l, _)| l).collect();
        for link in attached {
            self.remove_link(link)?;
        }
        let entry = &mut self.nodes[node.index()];
        entry.removed = true;
        match entry.kind {
            NodeKind::Host => self.hosts.retain(|&h| h != node),
            NodeKind::Switch(layer) => {
                let registry = match layer {
                    Layer::Tor => &mut self.tors,
                    Layer::Agg => &mut self.aggs,
                    Layer::Core => &mut self.cores,
                };
                for pod in registry.iter_mut() {
                    pod.retain(|&s| s != node);
                }
            }
        }
        Ok(())
    }

    /// Renames the topology (used by rewiring transforms).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Sets a node's layer-3 interface address (used by the address plan).
    ///
    /// # Errors
    ///
    /// Returns an error if the node is unknown or removed.
    pub fn set_addr(&mut self, node: NodeId, addr: Ipv4Addr) -> Result<(), TopologyError> {
        self.check_alive(node)?;
        self.nodes[node.index()].addr = addr;
        Ok(())
    }

    fn check_alive(&self, node: NodeId) -> Result<(), TopologyError> {
        match self.nodes.get(node.index()) {
            Some(n) if !n.removed => Ok(()),
            _ => Err(TopologyError::UnknownNode(node)),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Total number of node slots ever allocated (including removed).
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of link slots ever allocated (including removed).
    pub fn link_slots(&self) -> usize {
        self.links.len()
    }

    /// Looks up a node (including removed ones, so traces stay resolvable).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up a link (including removed ones).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| !n.removed)
    }

    /// Live links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter().filter(|l| !l.removed)
    }

    /// Live neighbors of `node` as `(link, neighbor)` pairs.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (LinkId, NodeId)> + '_ {
        self.adj[node.index()].iter().copied()
    }

    /// Number of live links attached to `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node.index()].len()
    }

    /// All live links between `a` and `b` (multigraph-aware).
    pub fn links_between(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        self.adj[a.index()]
            .iter()
            .filter(|&&(_, n)| n == b)
            .map(|&(l, _)| l)
            .collect()
    }

    /// The first live link between `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adj[a.index()]
            .iter()
            .find(|&&(_, n)| n == b)
            .map(|&(l, _)| l)
    }

    /// Number of live hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of live switches.
    pub fn switch_count(&self) -> usize {
        self.nodes().filter(|n| n.kind.is_switch()).count()
    }

    /// Live hosts, in construction order (leftmost rack first).
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Live switches at `layer`, grouped by pod.
    pub fn pods(&self, layer: Layer) -> &[Vec<NodeId>] {
        match layer {
            Layer::Tor => &self.tors,
            Layer::Agg => &self.aggs,
            Layer::Core => &self.cores,
        }
    }

    /// Live switches at `layer`, across all pods.
    pub fn layer_switches(&self, layer: Layer) -> impl Iterator<Item = NodeId> + '_ {
        self.pods(layer).iter().flatten().copied()
    }

    /// Whether, from `node`'s perspective, the link heads downward (to a
    /// lower layer).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of `link`.
    pub fn is_downward(&self, link: LinkId, node: NodeId) -> bool {
        let other = self.links[link.index()].other_end(node);
        self.nodes[other.index()].kind.rank() < self.nodes[node.index()].kind.rank()
    }

    /// Whether, from `node`'s perspective, the link heads upward.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of `link`.
    pub fn is_upward(&self, link: LinkId, node: NodeId) -> bool {
        let other = self.links[link.index()].other_end(node);
        self.nodes[other.index()].kind.rank() > self.nodes[node.index()].kind.rank()
    }

    /// Downward live links of `node` (host-access links for a ToR count).
    pub fn downward_links(&self, node: NodeId) -> Vec<LinkId> {
        self.adj[node.index()]
            .iter()
            .filter(|&&(l, _)| self.is_downward(l, node))
            .map(|&(l, _)| l)
            .collect()
    }

    /// Upward live links of `node`.
    pub fn upward_links(&self, node: NodeId) -> Vec<LinkId> {
        self.adj[node.index()]
            .iter()
            .filter(|&&(l, _)| self.is_upward(l, node))
            .map(|&(l, _)| l)
            .collect()
    }

    /// Across (same-layer intra-pod) live links of `node`.
    pub fn across_links(&self, node: NodeId) -> Vec<LinkId> {
        self.adj[node.index()]
            .iter()
            .filter(|&&(l, _)| self.links[l.index()].class == LinkClass::Across)
            .map(|&(l, _)| l)
            .collect()
    }

    /// The ToR switch a host attaches to, if any.
    pub fn host_tor(&self, host: NodeId) -> Option<NodeId> {
        self.adj[host.index()]
            .iter()
            .map(|&(_, n)| n)
            .find(|&n| self.nodes[n.index()].kind == NodeKind::Switch(Layer::Tor))
    }

    /// Whether the live part of the graph is connected (over live nodes).
    pub fn is_connected(&self) -> bool {
        let live: Vec<NodeId> = self.nodes().map(Node::id).collect();
        let Some(&start) = live.first() else {
            return true;
        };
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut count = 0usize;
        while let Some(n) = stack.pop() {
            count += 1;
            for &(_, next) in &self.adj[n.index()] {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    stack.push(next);
                }
            }
        }
        count == live.len()
    }

    /// Finds a node by name.
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes().find(|n| n.name == name).map(Node::id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new("tiny", Some(4));
        let h = t.add_host("h0");
        let tor = t.add_switch("tor0", Layer::Tor, PodId::new(0), 0);
        let agg = t.add_switch("agg0", Layer::Agg, PodId::new(0), 0);
        t.add_link(h, tor, LinkClass::HostAccess).unwrap();
        t.add_link(tor, agg, LinkClass::Vertical).unwrap();
        (t, h, tor, agg)
    }

    #[test]
    fn add_and_query_nodes_links() {
        let (t, h, tor, agg) = tiny();
        assert_eq!(t.host_count(), 1);
        assert_eq!(t.switch_count(), 2);
        assert_eq!(t.degree(tor), 2);
        assert_eq!(t.host_tor(h), Some(tor));
        assert!(t.link_between(tor, agg).is_some());
        assert!(t.link_between(h, agg).is_none());
        assert!(t.is_connected());
    }

    #[test]
    fn direction_classification() {
        let (t, h, tor, agg) = tiny();
        let access = t.link_between(h, tor).unwrap();
        let vertical = t.link_between(tor, agg).unwrap();
        assert!(t.is_downward(access, tor));
        assert!(t.is_upward(access, h));
        assert!(t.is_upward(vertical, tor));
        assert!(t.is_downward(vertical, agg));
        assert_eq!(t.downward_links(agg), vec![vertical]);
        assert_eq!(t.upward_links(tor), vec![vertical]);
    }

    #[test]
    fn remove_link_updates_adjacency() {
        let (mut t, _, tor, agg) = tiny();
        let l = t.link_between(tor, agg).unwrap();
        t.remove_link(l).unwrap();
        assert!(t.link_between(tor, agg).is_none());
        assert_eq!(t.degree(agg), 0);
        assert!(t.link(l).is_removed());
        assert!(!t.is_connected());
        assert!(matches!(
            t.remove_link(l),
            Err(TopologyError::UnknownLink(_))
        ));
    }

    #[test]
    fn remove_node_retires_links_and_registry() {
        let (mut t, h, tor, _) = tiny();
        t.remove_node(tor).unwrap();
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.degree(h), 0);
        assert!(t.pods(Layer::Tor)[0].is_empty());
        assert!(matches!(
            t.add_link(h, tor, LinkClass::HostAccess),
            Err(TopologyError::UnknownNode(_))
        ));
    }

    #[test]
    fn port_budget_is_enforced_for_switches_only() {
        let mut t = Topology::new("budget", Some(2));
        let s = t.add_switch("s", Layer::Tor, PodId::new(0), 0);
        let h0 = t.add_host("h0");
        let h1 = t.add_host("h1");
        let h2 = t.add_host("h2");
        t.add_link(s, h0, LinkClass::HostAccess).unwrap();
        t.add_link(s, h1, LinkClass::HostAccess).unwrap();
        let err = t.add_link(s, h2, LinkClass::HostAccess).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::PortBudgetExceeded { ports: 2, .. }
        ));
        // Hosts have no port budget: attach h0 to another switch freely.
        let s2 = t.add_switch("s2", Layer::Tor, PodId::new(0), 1);
        t.add_link(s2, h0, LinkClass::HostAccess).unwrap();
    }

    #[test]
    fn multigraph_parallel_links() {
        let mut t = Topology::new("multi", Some(4));
        let a = t.add_switch("a", Layer::Agg, PodId::new(0), 0);
        let b = t.add_switch("b", Layer::Agg, PodId::new(0), 1);
        let l0 = t.add_link(a, b, LinkClass::Across).unwrap();
        let l1 = t.add_link(a, b, LinkClass::Across).unwrap();
        assert_ne!(l0, l1);
        assert_eq!(t.links_between(a, b).len(), 2);
        assert_eq!(t.across_links(a).len(), 2);
        t.remove_link(l0).unwrap();
        assert_eq!(t.links_between(a, b), vec![l1]);
    }

    #[test]
    fn find_by_name_and_other_end() {
        let (t, h, tor, _) = tiny();
        assert_eq!(t.find_by_name("tor0"), Some(tor));
        assert_eq!(t.find_by_name("nope"), None);
        let l = t.link_between(h, tor).unwrap();
        assert_eq!(t.link(l).other_end(h), tor);
        assert_eq!(t.link(l).other_end(tor), h);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_panics_for_non_endpoint() {
        let (t, _, tor, agg) = tiny();
        let l = t.link_between(tor, agg).unwrap();
        let _ = t.link(l).other_end(NodeId::new(99));
    }
}
