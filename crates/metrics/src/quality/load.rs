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

use super::dag::QualityInput;

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
    /// Propagates every DAG's injected demand and sums per-edge loads,
    /// one Kahn-topological pass per destination.
    ///
    /// Only nodes reachable from the inject sources over *alive* listed
    /// edges participate; the destination never expands. Shares assigned
    /// to dead listed edges are charged undeliverable immediately. After
    /// the pass, any reachable node that never became ready is part of a
    /// forwarding cycle — its inflow plus injection is charged
    /// undeliverable too, keeping the balance total. `ready` pops its
    /// smallest index first and the cycle sweep runs in index order:
    /// every f64 sum forms in node order. The per-node scratch is sized
    /// once and reused: a pass resets only the nodes it reached.
    #[expect(
        clippy::indexing_slicing,
        reason = "the vectors are sized to QualityInput::slots, which covers every node a DAG names"
    )]
    pub fn propagate(input: &QualityInput) -> Self {
        let mut loads = LinkLoads {
            per_edge: vec![0.0; input.edges],
            delivered: 0.0,
            undeliverable: 0.0,
            injected: 0.0,
        };
        let slots = input.slots();
        let (mut inject, mut inflow) = (vec![0.0f64; slots], vec![0.0f64; slots]);
        let (mut indeg, mut reach) = (vec![0u32; slots], vec![false; slots]);
        let mut reached: Vec<usize> = Vec::new();
        let mut ready = BinaryHeap::new();
        for dag in &input.dags {
            // Injection per node (sources may repeat; fold them), then the
            // reachable set over alive edges, destination terminal.
            for &(src, amt) in &dag.inject {
                inject[src] += amt;
                loads.injected += amt;
                if !std::mem::replace(&mut reach[src], true) {
                    reached.push(src);
                }
            }
            let mut next = 0;
            while let Some(&u) = reached.get(next) {
                next += 1;
                for succ in input
                    .hops_of(dag, u)
                    .iter()
                    .filter_map(|&e| input.live_head(e))
                {
                    if !std::mem::replace(&mut reach[succ], true) {
                        reached.push(succ);
                    }
                }
            }
            reached.sort_unstable();

            // In-degrees over alive edges within the reachable set; a
            // reached node is done once its in-degree comes down to zero.
            for &u in &reached {
                for succ in input
                    .hops_of(dag, u)
                    .iter()
                    .filter_map(|&e| input.live_head(e))
                {
                    indeg[succ] += 1;
                }
            }
            ready.extend(
                reached
                    .iter()
                    .filter(|&&u| indeg[u] == 0)
                    .map(|&u| Reverse(u)),
            );

            while let Some(Reverse(u)) = ready.pop() {
                let total = inflow[u] + inject[u];
                let hops = input.hops_of(dag, u);
                if u == dag.dst {
                    loads.delivered += total;
                    continue;
                } else if hops.is_empty() {
                    loads.undeliverable += total;
                    continue;
                }
                let share = total / hops.len() as f64;
                for &edge in hops {
                    let Some(succ) = input.live_head(edge) else {
                        // Listed but physically dead and not yet locally
                        // detected: the FIB still sends this share here,
                        // and the wire drops it.
                        loads.undeliverable += share;
                        continue;
                    };
                    if let Some(slot) = loads.per_edge.get_mut(edge as usize) {
                        *slot += share;
                    }
                    inflow[succ] += share;
                    indeg[succ] -= 1;
                    if indeg[succ] == 0 {
                        ready.push(Reverse(succ));
                    }
                }
            }

            // Cycle members (reachable, never ready): their inflow plus
            // injection circulates until TTL death — undeliverable. Then
            // clear what this pass touched.
            for u in reached.drain(..) {
                if indeg[u] > 0 {
                    loads.undeliverable += inflow[u] + inject[u];
                }
                (inject[u], inflow[u], indeg[u], reach[u]) = (0.0, 0.0, 0, false);
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::super::dag::QualityInput;
    use super::*;

    /// One DAG: destination, injection, and `(node, [edge])` rows.
    type Dag<'a> = (usize, Vec<(usize, f64)>, &'a [(usize, &'a [u32])]);

    /// An 8-node input whose edge `e` leads to `heads[e]`.
    fn input(dags: Vec<Dag<'_>>, heads: &[u32], dead: &[usize]) -> QualityInput {
        let mut edge_alive = vec![true; heads.len()];
        for &e in dead {
            edge_alive[e] = false;
        }
        let mut input = QualityInput {
            nodes: 8,
            edges: heads.len(),
            edge_alive,
            edge_head: heads.to_vec(),
            fabric_edges: (0..heads.len()).collect(),
            pod_pairs: Vec::new(),
            dags: Vec::new(),
            hops: Vec::new(),
        };
        for (dst, inject, rows) in dags {
            input.push_dag(
                dst,
                inject,
                rows.iter().map(|&(u, hops)| (u, hops.iter().copied())),
            );
        }
        input
    }

    /// 0 -> {1 (edge 0), 2 (edge 1)} -> 3 (edges 2, 3), dst 3.
    const DIAMOND: &[(usize, &[u32])] = &[(0, &[0, 1]), (1, &[2]), (2, &[3])];
    const DIAMOND_HEADS: &[u32] = &[1, 2, 3, 3];

    #[test]
    fn ecmp_splits_equally() {
        let dags = vec![(3, vec![(0, 1.0)], DIAMOND)];
        let loads = LinkLoads::propagate(&input(dags, DIAMOND_HEADS, &[]));
        assert_eq!(loads.per_edge, vec![0.5, 0.5, 0.5, 0.5]);
        assert_eq!(loads.delivered, 1.0);
        assert_eq!(loads.undeliverable, 0.0);
    }

    #[test]
    fn dead_listed_edge_is_undeliverable() {
        // Same diamond, but edge 1 (0 -> 2) physically dead while the
        // FIB still lists it: half the demand drops on the wire.
        let dags = vec![(3, vec![(0, 1.0)], DIAMOND)];
        let loads = LinkLoads::propagate(&input(dags, DIAMOND_HEADS, &[1]));
        assert_eq!(loads.per_edge, vec![0.5, 0.0, 0.5, 0.0]);
        assert_eq!(loads.delivered, 0.5);
        assert_eq!(loads.undeliverable, 0.5);
    }

    #[test]
    fn missing_route_blackholes() {
        // 0 -> 1 (edge 0), node 1 has no entry for dst 2.
        let dag: Dag<'_> = (2, vec![(0, 1.0)], &[(0, &[0])]);
        let loads = LinkLoads::propagate(&input(vec![dag], &[1], &[]));
        assert_eq!(loads.per_edge, vec![1.0]);
        assert_eq!(loads.delivered, 0.0);
        assert_eq!(loads.undeliverable, 1.0);
    }

    #[test]
    fn cycle_mass_is_undeliverable() {
        // 0 -> 1 -> 2 -> 1 ping-pong: nothing delivered, balance total.
        let rows: &[(usize, &[u32])] = &[(0, &[0]), (1, &[1]), (2, &[2])];
        let loads = LinkLoads::propagate(&input(vec![(9, vec![(0, 1.0)], rows)], &[1, 2, 1], &[]));
        assert_eq!(loads.delivered, 0.0);
        assert!((loads.undeliverable - 1.0).abs() < 1e-12);
        assert_eq!(loads.injected, 1.0);
    }

    #[test]
    fn multiple_dags_sum_per_edge() {
        let fwd: Dag<'_> = (1, vec![(0, 2.0)], &[(0, &[0])]);
        let rev: Dag<'_> = (0, vec![(1, 3.0)], &[(1, &[1])]);
        let loads = LinkLoads::propagate(&input(vec![fwd, rev], &[1, 0], &[]));
        assert_eq!(loads.per_edge, vec![2.0, 3.0]);
        assert_eq!(loads.delivered, 5.0);
        assert_eq!(loads.injected, 5.0);
    }

    #[test]
    fn a_row_repeated_by_the_next_dag_is_stored_once() {
        // Node 0 lists edge 0 toward both destinations; node 1 changes.
        let first: Dag<'_> = (2, vec![(0, 1.0)], &[(0, &[0]), (1, &[1])]);
        let second: Dag<'_> = (3, vec![(0, 1.0)], &[(0, &[0]), (1, &[2])]);
        let input = input(vec![first, second], &[1, 2, 3], &[]);
        assert_eq!(input.hops, [0, 1, 2]);
        assert_eq!(input.dags[1].rows, [(0, 1), (2, 3)]);
        let loads = LinkLoads::propagate(&input);
        assert_eq!(loads.per_edge, vec![2.0, 1.0, 1.0]);
        assert_eq!(loads.delivered, 2.0);
    }
}
