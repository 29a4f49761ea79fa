//! `TestBed` answers every scale with a typed result, never a panic: bad
//! port counts are `Topology` errors, fabrics beyond the addressing plan
//! are `Addressing` errors, and every small even fabric builds — racks
//! without hosts included, where the bed then names no probe endpoints.
//! The same holds for the other fabrics its two doors take: the Aspen
//! tree, Leaf-Spine and VL2 as built, and their rewired F² forms.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dcn_emu::EmuConfig;
use dcn_net::{AspenTree, LeafSpine, Vl2};
use f2tree::{f2_leaf_spine, f2_vl2, Design, TestBed, TestBedError};
use proptest::prelude::*;

const DESIGNS: [Design; 2] = [Design::FatTree, Design::F2Tree];

/// Runs `bring_up`, failing the test if it panics instead of answering.
fn answer(
    what: &str,
    bring_up: impl FnOnce() -> Result<TestBed, TestBedError>,
) -> Result<TestBed, TestBedError> {
    catch_unwind(AssertUnwindSafe(bring_up)).unwrap_or_else(|_| panic!("{what} panicked"))
}

fn build(design: Design, k: u32, hosts: u32) -> Result<TestBed, TestBedError> {
    answer(&format!("{design} k = {k}, {hosts} hosts per rack"), || {
        TestBed::build(design, k, hosts)
    })
}

/// Checks one case of the fabrics beyond the fat tree: the builder's
/// rejection surfaces as a `Topology` error, and a fabric that builds
/// carries `per_rack` hosts on every rack. Returns whether it built.
fn check(
    what: &str,
    per_rack: u32,
    bring_up: impl FnOnce() -> Result<TestBed, TestBedError>,
) -> bool {
    match answer(what, bring_up) {
        Ok(bed) => {
            let hosts = (per_rack as usize) * tors(&bed);
            assert_eq!(bed.topology().host_count(), hosts, "{what}");
            assert_eq!(bed.probe_endpoints().is_some(), hosts > 0, "{what}");
            true
        }
        Err(err) => {
            assert!(matches!(err, TestBedError::Topology(_)), "{what}: {err}");
            false
        }
    }
}

#[test]
fn bad_port_counts_are_topology_errors() {
    for design in DESIGNS {
        for k in [0, 1, 2, 3, 5, 7, 23] {
            for hosts in [0, 1] {
                let err = build(design, k, hosts).expect_err("no fabric at this k");
                assert!(
                    matches!(err, TestBedError::Topology(_)),
                    "{design} k = {k}, {hosts} hosts: {err}"
                );
            }
        }
    }
}

#[test]
fn fabrics_beyond_the_addressing_plan_are_addressing_errors() {
    for design in DESIGNS {
        for k in [24, 26] {
            let err = build(design, k, 1).expect_err("beyond the /16");
            assert!(
                matches!(err, TestBedError::Addressing(_)),
                "{design} k = {k}: {err}"
            );
        }
    }
    let fat = build(Design::FatTree, 24, 1).expect_err("beyond the /16");
    assert!(fat.to_string().contains("288 ToRs"), "{fat}");
    let f2 = build(Design::F2Tree, 24, 1).expect_err("beyond the /16");
    assert!(f2.to_string().contains("264 agg switches"), "{f2}");
}

#[test]
fn small_even_fabrics_build_with_and_without_hosts() {
    for design in DESIGNS {
        for k in [4, 6, 8] {
            for hosts in [0, 1, 2] {
                let bed = build(design, k, hosts)
                    .unwrap_or_else(|e| panic!("{design} k = {k}, {hosts} hosts: {e}"));
                assert_eq!(bed.topology().host_count(), (hosts as usize) * tors(&bed));
                // A bed without hosts has no probe endpoints, and says so.
                assert_eq!(bed.probe_endpoints().is_none(), hosts == 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any small port count and rack size gets an answer, never a panic:
    /// a bed exactly when `k` is even and at least 4, a `Topology` error
    /// otherwise, and probe endpoints exactly when the racks hold hosts.
    #[test]
    fn every_small_scale_gets_a_typed_answer(
        design in (0..DESIGNS.len()).prop_map(|i| DESIGNS[i]),
        k in 0u32..=12,
        hosts in 0u32..=3,
    ) {
        let what = format!("{design} k = {k}, {hosts} hosts per rack");
        let built = check(&what, hosts, || TestBed::build(design, k, hosts));
        prop_assert_eq!(built, k % 2 == 0 && k >= 4, "{}", what);
    }
}

fn tors(bed: &TestBed) -> usize {
    bed.topology().layer_switches(dcn_net::Layer::Tor).count()
}

#[test]
fn aspen_trees_build_or_fail_typed() {
    let mut built = 0;
    for k in [0, 1, 4, 5, 6, 8, 12] {
        for f in [0, 1, 2, 3, 5] {
            built += usize::from(check(&format!("Aspen k = {k}, f = {f}"), k / 2, || {
                let topo = AspenTree::new(k, f)?.build();
                TestBed::from_topology(topo, EmuConfig::default())
            }));
        }
    }
    // f + 1 divides k and k/2 at (4, 1), (6, 2), (8, 1), (8, 3), (12, 1),
    // (12, 2) and (12, 5).
    assert_eq!(built, 7);
}

#[test]
fn leaf_spine_and_vl2_build_or_fail_typed() {
    let mut built = 0;
    for hosts in [0, 1, 2] {
        for (leaves, spines) in [(0, 4), (4, 0), (1, 1), (3, 5), (8, 8)] {
            let what = format!("Leaf-Spine {leaves}x{spines}, {hosts} hosts per rack");
            built += usize::from(check(&what, hosts, || {
                let topo = LeafSpine::new(leaves, spines)?
                    .hosts_per_leaf(hosts)
                    .build();
                TestBed::from_topology(topo, EmuConfig::default())
            }));
        }
        for (d_a, d_i) in [(0, 4), (4, 0), (3, 4), (4, 5), (2, 4), (4, 4), (6, 8)] {
            let what = format!("VL2 d_a = {d_a}, d_i = {d_i}, {hosts} hosts per rack");
            built += usize::from(check(&what, hosts, || {
                let topo = Vl2::new(d_a, d_i)?.hosts_per_tor(hosts).build();
                TestBed::from_topology(topo, EmuConfig::default())
            }));
        }
    }
    // Three Leaf-Spines and two VL2s, at each host count.
    assert_eq!(built, 3 * 5);
}

#[test]
fn rewired_leaf_spine_and_vl2_build_or_fail_typed() {
    let mut built = 0;
    for (leaves, spines) in [(0, 4), (4, 0), (4, 1), (1, 2), (3, 5), (8, 8)] {
        // The spine count is also the default hosts per leaf.
        let what = format!("F2 Leaf-Spine {leaves}x{spines}");
        built += usize::from(check(&what, spines, || {
            TestBed::from_f2tree(f2_leaf_spine(leaves, spines)?, EmuConfig::default())
        }));
    }
    for (d_a, d_i) in [(0, 4), (4, 0), (3, 4), (4, 5), (2, 4), (4, 4), (6, 8)] {
        let what = format!("F2 VL2 d_a = {d_a}, d_i = {d_i}");
        built += usize::from(check(&what, 2, || {
            TestBed::from_f2tree(f2_vl2(d_a, d_i)?, EmuConfig::default())
        }));
    }
    // A spine ring needs two spines; VL2 needs even degrees of 4 or more.
    assert_eq!(built, 3 + 2);
}
