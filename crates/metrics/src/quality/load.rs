//! Expected-load propagation through ECMP next-hop DAGs.
//!
//! Each destination's DAG carries the demand injected at source ToRs;
//! at every node the inflow plus local injection splits equally across
//! the live ECMP successor set (the FIB's behavior for a uniform flow
//! population). Propagation is a Kahn topological pass per DAG, so it
//! is linear in DAG size and — unlike per-flow simulation — exact.
//!
//! Mass balance is total: every unit injected is accounted as either
//! delivered at the destination or undeliverable (dead edge, missing
//! route, or a transient forwarding loop whose members never become
//! ready in the topological order). The conservation proptest pins
//! `injected == delivered + undeliverable` under arbitrary damage.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::dag::{NextHopDag, QualityInput};
use super::quantize;

/// Per-directed-edge expected load, plus the mass-balance totals.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkLoads {
    /// Expected load per directed edge, in units of demand.
    pub per_edge: Vec<f64>,
    /// Demand that reached its destination ToR.
    pub delivered: f64,
    /// Demand lost to dead edges, nodes with no next hop, or cycles.
    pub undeliverable: f64,
    /// Total demand injected (== delivered + undeliverable up to f64
    /// rounding).
    pub injected: f64,
}

impl LinkLoads {
    /// Propagates every DAG's injected demand and sums per-edge loads.
    pub fn propagate(input: &QualityInput) -> Self {
        let mut per_edge = vec![0.0f64; input.edges];
        let mut delivered = 0.0f64;
        let mut undeliverable = 0.0f64;
        let mut injected = 0.0f64;
        for dag in &input.dags {
            propagate_dag(
                dag,
                &input.edge_alive,
                input.nodes,
                &mut per_edge,
                &mut delivered,
                &mut undeliverable,
                &mut injected,
            );
        }
        LinkLoads {
            per_edge,
            delivered,
            undeliverable,
            injected,
        }
    }

    /// The per-edge loads quantized onto the fixed-point grid.
    pub fn quantized(&self) -> Vec<u64> {
        self.per_edge.iter().map(|&l| quantize(l)).collect()
    }
}

/// Kahn-topological propagation of one destination DAG.
///
/// Only nodes reachable from the inject sources over *alive* listed
/// edges participate; the destination never expands (its out-edges, if
/// any, are ignored). Shares assigned to dead listed edges are charged
/// undeliverable immediately. After the pass, any reachable node that
/// never became ready is part of a forwarding cycle — its inflow plus
/// injection is charged undeliverable too, keeping the balance total.
/// `ready` pops its smallest index first: every f64 sum forms in node order.
#[expect(
    clippy::indexing_slicing,
    reason = "the vectors are sized to the largest node index the DAG names"
)]
fn propagate_dag(
    dag: &NextHopDag,
    edge_alive: &[bool],
    nodes: usize,
    per_edge: &mut [f64],
    delivered: &mut f64,
    undeliverable: &mut f64,
    injected: &mut f64,
) {
    let alive = |e: usize| edge_alive.get(e).copied().unwrap_or(false);
    let hops_of = |u: usize| -> &[(usize, usize)] {
        if u == dag.dst {
            return &[];
        }
        dag.next_hops.get(&u).map(Vec::as_slice).unwrap_or(&[])
    };

    // A DAG may name nodes past `nodes` (a destination nothing reaches).
    let named = dag
        .next_hops
        .iter()
        .flat_map(|(&u, hops)| hops.iter().map(|&(_, succ)| succ).chain([u]));
    let sources = dag.inject.iter().map(|&(src, _)| src);
    let slots = named
        .chain(sources.clone())
        .fold(nodes.max(dag.dst + 1), |n, u| n.max(u + 1));

    // Injection per node (sources may repeat in principle; fold them).
    let mut inject = vec![0.0f64; slots];
    for &(src, amt) in &dag.inject {
        inject[src] += amt;
        *injected += amt;
    }

    // Reachable set over alive edges, destination terminal.
    let mut reach = vec![false; slots];
    let mut stack: Vec<usize> = sources.collect();
    while let Some(u) = stack.pop() {
        if std::mem::replace(&mut reach[u], true) {
            continue;
        }
        for &(edge, succ) in hops_of(u) {
            if alive(edge) && !reach[succ] {
                stack.push(succ);
            }
        }
    }
    let reached = || (0..slots).filter(|&u| reach[u]);

    // In-degrees over alive edges within the reachable set; a reached node
    // is done once its in-degree has come down to zero.
    let mut indeg = vec![0usize; slots];
    for u in reached() {
        for &(edge, succ) in hops_of(u) {
            if alive(edge) {
                indeg[succ] += 1;
            }
        }
    }

    let mut inflow = vec![0.0f64; slots];
    let mut ready: BinaryHeap<Reverse<usize>> =
        reached().filter(|&u| indeg[u] == 0).map(Reverse).collect();

    while let Some(Reverse(u)) = ready.pop() {
        let total = inflow[u] + inject[u];
        if u == dag.dst {
            *delivered += total;
            continue;
        }
        let hops = hops_of(u);
        if hops.is_empty() {
            *undeliverable += total;
            continue;
        }
        let share = total / hops.len() as f64;
        for &(edge, succ) in hops {
            if alive(edge) {
                if let Some(slot) = per_edge.get_mut(edge) {
                    *slot += share;
                }
                inflow[succ] += share;
                indeg[succ] -= 1;
                if indeg[succ] == 0 {
                    ready.push(Reverse(succ));
                }
            } else {
                // Listed but physically dead and not yet locally
                // detected: the FIB still sends this share here, and
                // the wire drops it.
                *undeliverable += share;
            }
        }
    }

    // Cycle members (reachable, never ready): their accumulated inflow
    // plus injection circulates until TTL death — undeliverable.
    for u in reached().filter(|&u| indeg[u] > 0) {
        *undeliverable += inflow[u] + inject[u];
    }
}

#[cfg(test)]
mod tests {
    use super::super::dag::{NextHopDag, QualityInput};
    use super::*;

    fn input(dags: Vec<NextHopDag>, edges: usize, dead: &[usize]) -> QualityInput {
        let mut edge_alive = vec![true; edges];
        for &e in dead {
            edge_alive[e] = false;
        }
        QualityInput {
            nodes: 8,
            edges,
            edge_alive,
            fabric_edges: (0..edges).collect(),
            pod_pairs: Vec::new(),
            dags,
        }
    }

    #[test]
    fn ecmp_splits_equally() {
        // 0 -> {1 (edge 0), 2 (edge 1)} -> 3 (edges 2, 3), dst 3.
        let dag = NextHopDag {
            dst: 3,
            inject: vec![(0, 1.0)],
            next_hops: [
                (0usize, vec![(0usize, 1usize), (1, 2)]),
                (1, vec![(2, 3)]),
                (2, vec![(3, 3)]),
            ]
            .into_iter()
            .collect(),
        };
        let loads = LinkLoads::propagate(&input(vec![dag], 4, &[]));
        assert_eq!(loads.per_edge, vec![0.5, 0.5, 0.5, 0.5]);
        assert_eq!(loads.delivered, 1.0);
        assert_eq!(loads.undeliverable, 0.0);
    }

    #[test]
    fn dead_listed_edge_is_undeliverable() {
        // Same diamond, but edge 1 (0 -> 2) physically dead while the
        // FIB still lists it: half the demand drops on the wire.
        let dag = NextHopDag {
            dst: 3,
            inject: vec![(0, 1.0)],
            next_hops: [
                (0usize, vec![(0usize, 1usize), (1, 2)]),
                (1, vec![(2, 3)]),
                (2, vec![(3, 3)]),
            ]
            .into_iter()
            .collect(),
        };
        let loads = LinkLoads::propagate(&input(vec![dag], 4, &[1]));
        assert_eq!(loads.per_edge, vec![0.5, 0.0, 0.5, 0.0]);
        assert_eq!(loads.delivered, 0.5);
        assert_eq!(loads.undeliverable, 0.5);
    }

    #[test]
    fn missing_route_blackholes() {
        // 0 -> 1 (edge 0), node 1 has no entry for dst 2.
        let dag = NextHopDag {
            dst: 2,
            inject: vec![(0, 1.0)],
            next_hops: [(0usize, vec![(0usize, 1usize)])].into_iter().collect(),
        };
        let loads = LinkLoads::propagate(&input(vec![dag], 1, &[]));
        assert_eq!(loads.per_edge, vec![1.0]);
        assert_eq!(loads.delivered, 0.0);
        assert_eq!(loads.undeliverable, 1.0);
    }

    #[test]
    fn cycle_mass_is_undeliverable() {
        // 0 -> 1 -> 2 -> 1 ping-pong: nothing delivered, balance total.
        let dag = NextHopDag {
            dst: 9,
            inject: vec![(0, 1.0)],
            next_hops: [
                (0usize, vec![(0usize, 1usize)]),
                (1, vec![(1, 2)]),
                (2, vec![(2, 1)]),
            ]
            .into_iter()
            .collect(),
        };
        let loads = LinkLoads::propagate(&input(vec![dag], 3, &[]));
        assert_eq!(loads.delivered, 0.0);
        assert!((loads.undeliverable - 1.0).abs() < 1e-12);
        assert_eq!(loads.injected, 1.0);
    }

    #[test]
    fn multiple_dags_sum_per_edge() {
        let fwd = NextHopDag {
            dst: 1,
            inject: vec![(0, 2.0)],
            next_hops: [(0usize, vec![(0usize, 1usize)])].into_iter().collect(),
        };
        let rev = NextHopDag {
            dst: 0,
            inject: vec![(1, 3.0)],
            next_hops: [(1usize, vec![(1usize, 0usize)])].into_iter().collect(),
        };
        let loads = LinkLoads::propagate(&input(vec![fwd, rev], 2, &[]));
        assert_eq!(loads.per_edge, vec![2.0, 3.0]);
        assert_eq!(loads.delivered, 5.0);
        assert_eq!(loads.injected, 5.0);
    }
}
