//! Reference oracles for the routing-quality kernels: the ordered-map
//! load propagation and the `BTreeMap` Edmonds–Karp the dense kernels
//! replaced, over the per-node `(edge, successor)` lists the snapshot
//! used to carry. Shared by `prop_quality_load.rs` and the k = 8
//! differential test in `crates/experiments/tests/quality_reference.rs`.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dcn_metrics::quality::{LinkLoads, QualityInput};

/// One destination's DAG as a map of per-node `(edge, successor)` lists.
#[derive(Clone, Debug, PartialEq)]
pub struct RefDag {
    pub dst: usize,
    pub inject: Vec<(usize, f64)>,
    pub next_hops: BTreeMap<usize, Vec<(usize, usize)>>,
}

/// A snapshot in the map-of-lists form.
#[derive(Clone, Debug, PartialEq)]
pub struct RefInput {
    pub edges: usize,
    pub edge_alive: Vec<bool>,
    pub pod_pairs: Vec<(usize, usize, usize)>,
    pub dags: Vec<RefDag>,
}

impl RefInput {
    /// The same snapshot in the product's dense form: each listed edge's
    /// successor becomes its `edge_head` (the lists must agree on it).
    pub fn to_dense(
        &self,
        nodes: usize,
        edge_head: Vec<u32>,
        fabric_edges: Vec<usize>,
    ) -> QualityInput {
        let mut input = QualityInput {
            nodes,
            edges: self.edges,
            edge_alive: self.edge_alive.clone(),
            edge_head,
            fabric_edges,
            pod_pairs: self.pod_pairs.clone(),
            dags: Vec::new(),
            hops: Vec::new(),
        };
        for dag in &self.dags {
            let rows = dag.next_hops.iter().map(|(&u, hops)| {
                for &(edge, succ) in hops {
                    if let Some(&head) = input.edge_head.get(edge) {
                        assert_eq!(head as usize, succ, "edge {edge} has one head");
                    }
                }
                (
                    u,
                    hops.iter()
                        .map(|&(edge, _)| edge as u32)
                        .collect::<Vec<_>>(),
                )
            });
            let rows: Vec<_> = rows.collect();
            input.push_dag(dag.dst, dag.inject.clone(), rows);
        }
        input
    }
}

/// The propagation as an ordered-map pass: six ordered maps/sets per
/// destination, `ready` popped smallest index first.
pub fn reference_propagate(input: &RefInput) -> LinkLoads {
    let mut loads = LinkLoads {
        per_edge: vec![0.0; input.edges],
        delivered: 0.0,
        undeliverable: 0.0,
        injected: 0.0,
    };
    for dag in &input.dags {
        let alive = |e: usize| input.edge_alive.get(e).copied().unwrap_or(false);
        let hops_of = |u: usize| -> &[(usize, usize)] {
            if u == dag.dst {
                return &[];
            }
            dag.next_hops.get(&u).map(Vec::as_slice).unwrap_or(&[])
        };
        let mut inject: BTreeMap<usize, f64> = BTreeMap::new();
        for &(src, amt) in &dag.inject {
            *inject.entry(src).or_insert(0.0) += amt;
            loads.injected += amt;
        }
        let mut reach: BTreeSet<usize> = BTreeSet::new();
        let mut stack: Vec<usize> = inject.keys().copied().collect();
        while let Some(u) = stack.pop() {
            if !reach.insert(u) {
                continue;
            }
            for &(edge, succ) in hops_of(u) {
                if alive(edge) && !reach.contains(&succ) {
                    stack.push(succ);
                }
            }
        }
        let mut indeg: BTreeMap<usize, usize> = reach.iter().map(|&u| (u, 0)).collect();
        for &u in &reach {
            for &(edge, succ) in hops_of(u) {
                if alive(edge) {
                    if let Some(d) = indeg.get_mut(&succ) {
                        *d += 1;
                    }
                }
            }
        }
        let mut inflow: BTreeMap<usize, f64> = BTreeMap::new();
        let mut ready: BTreeSet<usize> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&u, _)| u)
            .collect();
        let mut done: BTreeSet<usize> = BTreeSet::new();
        let mass = |inflow: &BTreeMap<usize, f64>, u: usize| {
            inflow.get(&u).copied().unwrap_or(0.0) + inject.get(&u).copied().unwrap_or(0.0)
        };
        while let Some(u) = ready.pop_first() {
            done.insert(u);
            let total = mass(&inflow, u);
            if u == dag.dst {
                loads.delivered += total;
                continue;
            }
            let hops = hops_of(u);
            if hops.is_empty() {
                loads.undeliverable += total;
                continue;
            }
            let share = total / hops.len() as f64;
            for &(edge, succ) in hops {
                if alive(edge) {
                    if let Some(slot) = loads.per_edge.get_mut(edge) {
                        *slot += share;
                    }
                    *inflow.entry(succ).or_insert(0.0) += share;
                    if let Some(d) = indeg.get_mut(&succ) {
                        *d -= 1;
                        if *d == 0 {
                            ready.insert(succ);
                        }
                    }
                } else {
                    loads.undeliverable += share;
                }
            }
        }
        for &u in reach.difference(&done) {
            loads.undeliverable += mass(&inflow, u);
        }
    }
    loads
}

/// Edge-disjoint path counts for the pod pairs whose DAG exists, in
/// `pod_pairs` order.
pub fn reference_diversity(input: &RefInput) -> Vec<u32> {
    input
        .pod_pairs
        .iter()
        .filter_map(|&(src, dst, dag)| {
            let dag = input.dags.get(dag)?;
            Some(reference_edge_disjoint_paths(
                dag,
                &input.edge_alive,
                src,
                dst,
            ))
        })
        .collect()
}

/// Maximum number of edge-disjoint `src -> dst` paths through the alive
/// edges of `dag`: Edmonds–Karp (BFS augmenting paths) over paired
/// forward/residual arcs in ordered maps, adjacency in sorted node order.
pub fn reference_edge_disjoint_paths(
    dag: &RefDag,
    edge_alive: &[bool],
    src: usize,
    dst: usize,
) -> u32 {
    if src == dst {
        return 0;
    }
    // Arc 2i is forward (cap 1), arc 2i+1 its residual (cap 0).
    let mut arcs: Vec<(usize, usize, u8)> = Vec::new(); // (to, pair base, cap)
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (&node, hops) in &dag.next_hops {
        if node == dag.dst {
            continue;
        }
        for &(edge, succ) in hops {
            if !edge_alive.get(edge).copied().unwrap_or(false) {
                continue;
            }
            let base = arcs.len();
            arcs.push((succ, base, 1));
            arcs.push((node, base, 0));
            adj.entry(node).or_default().push(base);
            adj.entry(succ).or_default().push(base + 1);
        }
    }

    let mut flow = 0u32;
    loop {
        let mut prev_arc: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(src);
        let mut seen: BTreeMap<usize, bool> = BTreeMap::new();
        seen.insert(src, true);
        let mut found = false;
        while let Some(u) = queue.pop_front() {
            if u == dst {
                found = true;
                break;
            }
            for &a in adj.get(&u).map(Vec::as_slice).unwrap_or(&[]) {
                let (to, _, cap) = match arcs.get(a) {
                    Some(&t) => t,
                    None => continue,
                };
                if cap > 0 && !seen.get(&to).copied().unwrap_or(false) {
                    seen.insert(to, true);
                    prev_arc.insert(to, a);
                    queue.push_back(to);
                }
            }
        }
        if !found {
            return flow;
        }
        let mut v = dst;
        while v != src {
            let a = match prev_arc.get(&v) {
                Some(&a) => a,
                None => return flow,
            };
            let partner = a ^ 1;
            if let Some(arc) = arcs.get_mut(a) {
                arc.2 -= 1;
            }
            if let Some(arc) = arcs.get_mut(partner) {
                arc.2 += 1;
                v = arc.0;
            } else {
                return flow;
            }
        }
        flow += 1;
    }
}
