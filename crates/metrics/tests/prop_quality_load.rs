//! `LinkLoads::propagate` runs its Kahn pass, and `pod_pair_diversity`
//! its unit-capacity max-flow, over dense per-node arrays and a shared
//! pool of hop rows. Propagation must conserve mass and return bit for
//! bit what the ordered-map pass returns, and every pod pair must count
//! as many edge-disjoint paths as the `BTreeMap` Edmonds–Karp, on graphs
//! no healthy fabric produces: dead edges, forwarding cycles, repeated
//! sources, and indices past `nodes` / `edges` / `dags`.

mod reference;

use std::collections::BTreeMap;

use dcn_metrics::quality::{pod_pair_diversity, LinkLoads, QualityInput};
use proptest::prelude::*;
use reference::{reference_diversity, reference_propagate, RefDag, RefInput};

const NODES: usize = 8;
const EDGES: usize = 24;

/// One destination's graph as `(dst, inject, rows)`: any node may list
/// any edge (cycles, self loops, out-edges at the destination), and node
/// and edge indices run a little past `NODES` / `EDGES`. Demands are
/// sevenths, so sums round.
type Dag = (usize, Vec<(usize, f64)>, BTreeMap<usize, Vec<usize>>);

fn dag() -> impl Strategy<Value = Dag> {
    let node = || 0..NODES + 3;
    let hops = || prop::collection::vec(0..EDGES + 2, 0..4);
    (
        node(),
        prop::collection::vec((node(), 0u32..29), 0..5),
        prop::collection::vec((node(), hops()), 0..NODES + 3),
    )
        .prop_map(|(dst, inject, rows)| {
            let inject = inject
                .into_iter()
                .map(|(src, sevenths)| (src, f64::from(sevenths) / 7.0))
                .collect();
            (dst, inject, rows.into_iter().collect())
        })
}

/// The same snapshot in both forms: the reference's per-node
/// `(edge, successor)` lists and the product's dense rows.
fn inputs() -> impl Strategy<Value = (RefInput, QualityInput)> {
    (
        prop::collection::vec(dag(), 1..4),
        prop::collection::vec((0u8..5, 0..NODES as u32 + 3), EDGES..EDGES + 1),
        prop::collection::vec((0..NODES + 3, 0..NODES + 3, 0usize..4), 0..6),
    )
        .prop_map(|(dags, edges, pod_pairs)| {
            let edge_alive: Vec<bool> = edges.iter().map(|&(wear, _)| wear > 0).collect();
            let edge_head: Vec<u32> = edges.iter().map(|&(_, head)| head).collect();
            let succ = |e: usize| edge_head.get(e).map_or(usize::MAX, |&h| h as usize);
            let dags = dags
                .into_iter()
                .map(|(dst, inject, rows)| RefDag {
                    dst,
                    inject,
                    next_hops: rows
                        .into_iter()
                        .map(|(u, hops)| (u, hops.into_iter().map(|e| (e, succ(e))).collect()))
                        .collect(),
                })
                .collect();
            let reference = RefInput {
                edges: EDGES,
                edge_alive,
                pod_pairs,
                dags,
            };
            let dense = reference.to_dense(NODES, edge_head, (0..EDGES).collect());
            (reference, dense)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dense_propagation_conserves_mass_and_matches_the_ordered_map_pass(both in inputs()) {
        let (reference, input) = both;
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
        let want = reference_propagate(&reference);
        prop_assert_eq!(bits(&loads), bits(&want), "{:?} vs {:?}", loads, want);
    }

    #[test]
    fn unit_flow_diversity_matches_edmonds_karp(both in inputs()) {
        let (reference, input) = both;
        prop_assert_eq!(pod_pair_diversity(&input), reference_diversity(&reference));
    }
}
