//! `LinkLoads::propagate` runs its Kahn pass over dense per-node vectors;
//! it must conserve mass, and return bit for bit what the ordered-map pass
//! it replaced returned, on graphs no healthy fabric produces: dead edges,
//! forwarding cycles, repeated sources, and indices past `nodes` / `edges`.

use std::collections::{BTreeMap, BTreeSet};

use dcn_metrics::quality::{LinkLoads, NextHopDag, QualityInput};
use proptest::prelude::*;

/// The propagation as shipped before the dense scratch: six ordered
/// maps/sets per destination, `ready` popped smallest index first.
fn reference_propagate(input: &QualityInput) -> LinkLoads {
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

const NODES: usize = 8;
const EDGES: usize = 24;

/// One destination's graph: any node may point at any node (cycles, self
/// loops, out-edges at the destination), and node and edge indices run a
/// little past `NODES` / `EDGES`. Demands are sevenths, so sums round.
fn dag() -> impl Strategy<Value = NextHopDag> {
    let node = || 0..NODES + 3;
    let hops = || prop::collection::vec((0..EDGES + 2, node()), 0..4);
    (
        node(),
        prop::collection::vec((node(), 0u32..29), 0..5),
        prop::collection::vec((node(), hops()), 0..NODES + 3),
    )
        .prop_map(|(dst, inject, next_hops)| NextHopDag {
            dst,
            inject: inject
                .into_iter()
                .map(|(src, sevenths)| (src, f64::from(sevenths) / 7.0))
                .collect(),
            next_hops: next_hops.into_iter().collect(),
        })
}

fn input() -> impl Strategy<Value = QualityInput> {
    (
        prop::collection::vec(dag(), 1..4),
        prop::collection::vec(0u8..5, EDGES..EDGES + 1),
    )
        .prop_map(|(dags, wear)| QualityInput {
            nodes: NODES,
            edges: EDGES,
            edge_alive: wear.into_iter().map(|w| w > 0).collect(),
            fabric_edges: (0..EDGES).collect(),
            pod_pairs: Vec::new(),
            dags,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dense_propagation_conserves_mass_and_matches_the_ordered_map_pass(input in input()) {
        let loads = LinkLoads::propagate(&input);
        prop_assert!(
            (loads.injected - loads.delivered - loads.undeliverable).abs() < 1e-9,
            "mass leaked: {loads:?}"
        );
        prop_assert!((loads.injected - input.total_demand()).abs() < 1e-9);

        let bits = |l: &LinkLoads| -> Vec<u64> {
            let totals = [l.delivered, l.undeliverable, l.injected];
            l.per_edge.iter().chain(&totals).map(|x| x.to_bits()).collect()
        };
        let reference = reference_propagate(&input);
        prop_assert_eq!(bits(&loads), bits(&reference), "{:?} vs {:?}", loads, reference);
    }
}
