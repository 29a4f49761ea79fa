//! Routing-quality differential and property tests.
//!
//! The differential test pits the production implementation (Kahn
//! propagation over the next-hop DAGs, `dcn_metrics::quality::load`)
//! against an independent brute force that enumerates *every* ECMP
//! path recursively, splitting demand at each hop. The two accumulate
//! floating-point error differently, but exact loads are rationals
//! whose denominators divide `(H-1)·∏(ECMP degrees)` — never exactly
//! halfway between two points of the 2^20 fixed-point grid — so after
//! quantization the per-edge vectors must be *byte-identical*, on all
//! three topologies, healthy and degraded.
//!
//! The proptests pin the two structural invariants the metric promises:
//! total mass balance (injected == delivered + undeliverable) under
//! arbitrary single-link damage at arbitrary observation times, and
//! load symmetry on an undamaged fat tree.

use dcn_emu::{EmuConfig, Network};
use dcn_metrics::quality::{quantize, LinkLoads, QualityInput, QualityReport};
use dcn_net::{FatTree, LeafSpine, LinkId, Topology, Vl2};
use dcn_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

fn fabric_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|l| topo.node(l.a()).kind().is_switch() && topo.node(l.b()).kind().is_switch())
        .map(|l| l.id())
        .collect()
}

/// Independent oracle: enumerate every ECMP path recursively, splitting
/// `amount` equally at each hop. Exponential in path count — fine at
/// k=4 — and deliberately shares no code with the Kahn propagation.
fn brute_force(input: &QualityInput) -> (Vec<f64>, f64, f64) {
    let mut per_edge = vec![0.0f64; input.edges];
    let mut delivered = 0.0f64;
    let mut undeliverable = 0.0f64;

    #[allow(clippy::too_many_arguments)]
    fn walk(
        input: &QualityInput,
        dag: usize,
        node: usize,
        amount: f64,
        depth: usize,
        per_edge: &mut [f64],
        delivered: &mut f64,
        undeliverable: &mut f64,
    ) {
        assert!(depth < 64, "unexpected forwarding cycle in converged state");
        let d = &input.dags[dag];
        if node == d.dst {
            *delivered += amount;
            return;
        }
        let hops = input.hops_of(d, node);
        if hops.is_empty() {
            *undeliverable += amount;
            return;
        }
        let share = amount / hops.len() as f64;
        for &edge in hops {
            let (edge, succ) = (edge as usize, input.edge_head[edge as usize] as usize);
            if input.edge_alive[edge] {
                per_edge[edge] += share;
                walk(
                    input,
                    dag,
                    succ,
                    share,
                    depth + 1,
                    per_edge,
                    delivered,
                    undeliverable,
                );
            } else {
                *undeliverable += share;
            }
        }
    }

    for (i, dag) in input.dags.iter().enumerate() {
        for &(src, amt) in &dag.inject {
            walk(
                input,
                i,
                src,
                amt,
                0,
                &mut per_edge,
                &mut delivered,
                &mut undeliverable,
            );
        }
    }
    (per_edge, delivered, undeliverable)
}

/// Byte-exact comparison of propagation vs brute force after
/// quantization, with mass-balance cross-checks on both sides.
fn assert_differential(net: &Network, label: &str) {
    let input = net.quality_input();
    let loads = LinkLoads::propagate(&input);
    let (bf_edges, bf_delivered, bf_undeliv) = brute_force(&input);

    let prop_q: Vec<u64> = loads.per_edge.iter().map(|&l| quantize(l)).collect();
    let bf_q: Vec<u64> = bf_edges.iter().map(|&l| quantize(l)).collect();
    assert_eq!(
        prop_q, bf_q,
        "{label}: propagation and brute force disagree on quantized per-edge loads"
    );
    assert_eq!(
        quantize(loads.delivered),
        quantize(bf_delivered),
        "{label}: delivered mass differs"
    );
    assert_eq!(
        quantize(loads.undeliverable),
        quantize(bf_undeliv),
        "{label}: undeliverable mass differs"
    );
    // Both sides conserve mass independently.
    assert!(
        (loads.injected - loads.delivered - loads.undeliverable).abs() < 1e-9,
        "{label}: propagation leaks mass"
    );
    assert!(
        (loads.injected - bf_delivered - bf_undeliv).abs() < 1e-9,
        "{label}: brute force leaks mass"
    );
}

/// Healthy + every-single-fabric-link-degraded differential on one
/// topology. Degraded states are observed after reconvergence (600 ms >
/// detect + SPF + FIB install), so the DAGs are cycle-free and the
/// brute force terminates.
fn differential_on(topo_fn: impl Fn() -> Topology, label: &str) {
    let net = Network::new(topo_fn(), EmuConfig::default()).expect("addressable");
    assert_differential(&net, label);

    let victims = fabric_links(net.topology());
    for victim in victims {
        let mut net = Network::new(topo_fn(), EmuConfig::default()).expect("addressable");
        net.fail_link_at(ms(1), victim);
        net.run_until(ms(600));
        assert_differential(&net, &format!("{label} minus {victim}"));
    }
}

#[test]
fn differential_fat_tree_k4() {
    differential_on(
        || FatTree::new(4).expect("k=4 valid").build(),
        "fat-tree k=4",
    );
}

#[test]
fn differential_leaf_spine_4x4() {
    differential_on(
        || LeafSpine::new(4, 4).expect("4x4 valid").build(),
        "leaf-spine 4x4",
    );
}

#[test]
fn differential_vl2_4x4() {
    differential_on(|| Vl2::new(4, 4).expect("4,4 valid").build(), "vl2 4x4");
}

/// A healthy fabric delivers everything and scores a sane report.
#[test]
fn healthy_fat_tree_report() {
    let net = Network::new(
        FatTree::new(4).expect("k=4 valid").build(),
        EmuConfig::default(),
    )
    .expect("addressable");
    let input = net.quality_input();
    let report = QualityReport::compute(&input);

    // 8 racks × 2 hosts: all demand delivered, none lost.
    assert_eq!(report.undeliverable, 0);
    assert_eq!(report.delivered, quantize(input.total_demand()));
    assert!(report.max_load > 0, "fabric carries load");
    // Rearchable k=4 pods offer 2 edge-disjoint paths between pods.
    let div = report.diversity.expect("pod pairs scored");
    assert_eq!(div.min, 2, "k=4 fat tree: two disjoint inter-pod paths");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mass balance holds at *any* observation time under arbitrary
    /// single-link damage — including mid-convergence states with
    /// transient loops or not-yet-detected dead interfaces.
    #[test]
    fn conservation_under_single_link_damage(
        pick: prop::sample::Index,
        observe_ms in 2u64..700,
    ) {
        let mut net = Network::new(
            FatTree::new(4).expect("k=4 valid").build(),
            EmuConfig::default(),
        ).expect("addressable");
        let links = fabric_links(net.topology());
        let victim = links[pick.index(links.len())];
        net.fail_link_at(ms(1), victim);
        net.run_until(ms(observe_ms));

        let input = net.quality_input();
        let loads = LinkLoads::propagate(&input);
        prop_assert!(
            (loads.injected - loads.delivered - loads.undeliverable).abs() < 1e-9,
            "mass leaked: injected {} delivered {} undeliverable {} ({victim} at {}ms)",
            loads.injected, loads.delivered, loads.undeliverable, observe_ms
        );
        prop_assert!(
            (loads.injected - input.total_demand()).abs() < 1e-9,
            "propagation injected a different total than the input carries"
        );

        // Fully converged states deliver everything again.
        if observe_ms >= 500 {
            prop_assert!(
                loads.undeliverable.abs() < 1e-9,
                "converged fabric still losing {} ({victim})",
                loads.undeliverable
            );
        }
    }

    /// An undamaged fat tree is symmetric: each link carries the same
    /// load in both directions, and every ToR uplink carries the same
    /// load as every other.
    #[test]
    fn load_symmetry_on_undamaged_fat_tree(hosts_per_tor in 1u32..=2) {
        let topo = FatTree::new(4)
            .expect("k=4 valid")
            .hosts_per_tor(hosts_per_tor)
            .build();
        let fabric = fabric_links(&topo);
        let net = Network::new(topo, EmuConfig::default()).expect("addressable");
        let loads = LinkLoads::propagate(&net.quality_input());
        let q: Vec<u64> = loads.per_edge.iter().map(|&l| quantize(l)).collect();

        for &link in &fabric {
            let fwd = q[link.index() * 2];
            let rev = q[link.index() * 2 + 1];
            prop_assert_eq!(fwd, rev, "asymmetric load on {}", link);
        }

        let topo = net.topology();
        let uplinks: Vec<u64> = fabric
            .iter()
            .filter(|&&l| {
                let link = topo.link(l);
                topo.is_upward(l, link.a()) && topo.node(link.a()).kind()
                    == dcn_net::NodeKind::Switch(dcn_net::Layer::Tor)
            })
            .map(|&l| q[l.index() * 2])
            .collect();
        prop_assert!(!uplinks.is_empty(), "fat tree has ToR uplinks");
        prop_assert!(
            uplinks.windows(2).all(|w| w[0] == w[1]),
            "unequal ToR uplink loads: {:?}",
            uplinks
        );
    }
}
