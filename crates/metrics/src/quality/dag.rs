//! Dense-index snapshot of the installed forwarding state.
//!
//! The emulator extracts one [`NextHopDag`] per destination ToR from
//! the routers' FIBs and hands the bundle to this crate as a
//! [`QualityInput`] of dense node and directed-edge indices. A DAG is
//! one flat array of per-node ranges into a pool of edge ids the whole
//! snapshot shares: a switch's row toward consecutive destinations
//! rarely changes (a ToR's uplinks serve every remote rack), so it is
//! stored once.

/// The ECMP next-hop DAG toward one destination, plus the demand
/// injected into it.
///
/// Node `u` splits `dst`-bound traffic equally over the directed edges
/// of its row ([`QualityInput::hops_of`]); each edge leads to its
/// [`QualityInput::edge_head`]. A node with an empty row, or past the
/// last row, blackholes its share. Edges listed here may be physically
/// dead but not yet locally detected — the propagation charges those
/// shares as undeliverable, mirroring real packet loss.
#[derive(Clone, Debug, PartialEq)]
pub struct NextHopDag {
    /// Destination node (a ToR); demand arriving here is delivered.
    pub dst: usize,
    /// `(source node, demand)` pairs injected into the DAG, in
    /// deterministic (source-index) order.
    pub inject: Vec<(usize, f64)>,
    /// Per node, the `start..end` of its row in [`QualityInput::hops`].
    pub rows: Vec<(u32, u32)>,
}

/// Everything the quality metrics need about one FIB-epoch snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct QualityInput {
    /// Number of node slots (indices in `0..nodes`).
    pub nodes: usize,
    /// Number of directed-edge slots (indices in `0..edges`).
    pub edges: usize,
    /// Physical liveness per directed edge (link up AND direction up).
    pub edge_alive: Vec<bool>,
    /// The node each directed edge leads to.
    pub edge_head: Vec<u32>,
    /// Directed edges counted as fabric capacity (ToR↔Agg, Agg↔Core,
    /// across links) — host access links are excluded, so fabric loads
    /// read directly as oversubscription multiples of an access link.
    pub fabric_edges: Vec<usize>,
    /// `(src node, dst node, dag index)` triples to score for
    /// edge-disjoint path diversity; one representative ToR per pod.
    pub pod_pairs: Vec<(usize, usize, usize)>,
    /// One DAG per destination ToR, in destination-index order.
    pub dags: Vec<NextHopDag>,
    /// The directed-edge ids every DAG's rows point into.
    pub hops: Vec<u32>,
}

impl QualityInput {
    /// Total demand injected across all DAGs.
    pub fn total_demand(&self) -> f64 {
        self.dags
            .iter()
            .flat_map(|d| d.inject.iter())
            .map(|&(_, amt)| amt)
            .sum()
    }

    /// Appends the DAG toward `dst` whose nodes split over `node_hops`,
    /// given as `(node, hops)`; nodes not given get empty rows, and a
    /// node given twice keeps its last row. A row equal to the same
    /// node's row in the previous DAG is not stored again.
    pub fn push_dag<H: IntoIterator<Item = u32>>(
        &mut self,
        dst: usize,
        inject: Vec<(usize, f64)>,
        node_hops: impl IntoIterator<Item = (usize, H)>,
    ) {
        let previous = self.dags.last().map_or(&[][..], |d| d.rows.as_slice());
        let mut rows = Vec::with_capacity(previous.len());
        for (node, hops) in node_hops {
            let start = self.hops.len();
            self.hops.extend(hops);
            let row = self.hops.get(start..).unwrap_or_default();
            let range = match previous.get(node) {
                Some(&(a, b)) if self.hops.get(a as usize..b as usize) == Some(row) => (a, b),
                _ => (start as u32, self.hops.len() as u32),
            };
            if range.0 as usize != start {
                self.hops.truncate(start);
            }
            if rows.len() <= node {
                rows.resize(node + 1, (0, 0));
            }
            if let Some(slot) = rows.get_mut(node) {
                *slot = range;
            }
        }
        self.dags.push(NextHopDag { dst, inject, rows });
    }

    /// The directed edges `node` splits `dag`'s traffic over (none at
    /// the destination, which absorbs it).
    pub fn hops_of(&self, dag: &NextHopDag, node: usize) -> &[u32] {
        match dag.rows.get(node) {
            Some(&(a, b)) if node != dag.dst => self.hops.get(a as usize..b as usize),
            _ => None,
        }
        .unwrap_or_default()
    }

    /// Where a hop over `edge` arrives, if the edge is physically alive
    /// (an edge with no head counts as dead).
    pub fn live_head(&self, edge: u32) -> Option<usize> {
        let edge = edge as usize;
        let alive = self.edge_alive.get(edge).copied().unwrap_or(false);
        alive
            .then(|| self.edge_head.get(edge).map(|&h| h as usize))
            .flatten()
    }

    /// Node slots every dense per-node array must cover: `nodes`, plus
    /// any larger index a DAG names as destination, source, row or head.
    pub(crate) fn slots(&self) -> usize {
        let heads = self.edge_head.iter().map(|&h| h as usize + 1);
        let named = self.dags.iter().flat_map(|d| {
            let sources = d.inject.iter().map(|&(src, _)| src + 1);
            sources.chain([d.dst + 1, d.rows.len()])
        });
        heads.chain(named).fold(self.nodes, usize::max)
    }
}
