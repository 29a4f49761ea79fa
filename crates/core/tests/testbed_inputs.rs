//! `TestBed::build` answers every scale with a typed result, never a
//! panic: bad port counts are `Topology` errors, fabrics beyond the
//! addressing plan are `Addressing` errors, and every small even fabric
//! builds — racks without hosts included.

use std::panic::{catch_unwind, AssertUnwindSafe};

use f2tree::{Design, TestBed, TestBedError};

const DESIGNS: [Design; 2] = [Design::FatTree, Design::F2Tree];

fn build(design: Design, k: u32, hosts: u32) -> Result<TestBed, TestBedError> {
    catch_unwind(AssertUnwindSafe(|| TestBed::build(design, k, hosts)))
        .unwrap_or_else(|_| panic!("{design} k = {k}, {hosts} hosts per rack panicked"))
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
            }
        }
    }
}

fn tors(bed: &TestBed) -> usize {
    bed.topology()
        .layer_switches(dcn_net::Layer::Tor)
        .count()
}
