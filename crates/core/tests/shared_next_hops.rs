//! Next-hop sets are stored once per router: the routes an SPF run or a
//! failure map writes with equal ECMP sets hold one shared allocation
//! (`Arc::ptr_eq`), so a router keeps as many allocations as it has
//! distinct sets — a handful on a fat tree — however many routes it holds.
//!
//! Checked on the k = 8 fat tree and F²Tree under every recovery mode:
//! after bootstrap, again after a C1 failure once the routers' SPF runs
//! have patched their routes, and over every switch's FRR repair plan.

use std::sync::Arc;

use dcn_emu::EmuConfig;
use dcn_failure::Condition;
use dcn_net::NodeId;
use dcn_routing::{FibOp, NextHop, RecoveryMode, RouteOrigin};
use dcn_sim::SimTime;
use f2tree::{Design, TestBed};

const FAIL_AT: SimTime = SimTime::from_nanos(100_000_000); // 100 ms
/// Detection, SPF throttle, flooding and FIB update have all landed.
const PATCHED_BY: SimTime = SimTime::from_nanos(400_000_000); // 400 ms

const MODES: [RecoveryMode; 3] = [
    RecoveryMode::F2TreeRewiring,
    RecoveryMode::OspfReconvergence,
    RecoveryMode::PrecomputedFrr,
];

/// The number of distinct sets among `sets`, after checking that equal
/// sets are one allocation.
fn distinct_sets<'a>(
    what: &str,
    sets: impl IntoIterator<Item = &'a Arc<[NextHop]>>,
) -> usize {
    let mut seen: Vec<&Arc<[NextHop]>> = Vec::new();
    for set in sets {
        match seen.iter().find(|have| have[..] == set[..]) {
            Some(have) => assert!(Arc::ptr_eq(have, set), "{what}: {set:?} held twice"),
            None => seen.push(set),
        }
    }
    seen.len()
}

fn switches(bed: &TestBed) -> Vec<NodeId> {
    let topo = bed.topology();
    topo.nodes()
        .filter(|n| n.kind().is_switch())
        .map(|n| n.id())
        .collect()
}

/// Checks every router's OSPF routes and returns (routes, distinct sets)
/// summed over the fabric.
fn check_ospf(bed: &TestBed, when: &str) -> (usize, usize) {
    let (mut routes, mut sets) = (0, 0);
    for node in switches(bed) {
        let router = bed.net.router(node).expect("switches run routers");
        let ospf: Vec<_> = router
            .fib()
            .routes()
            .filter(|r| r.origin == RouteOrigin::Ospf)
            .collect();
        routes += ospf.len();
        sets += distinct_sets(
            &format!("{when}: {node}'s OSPF routes"),
            ospf.iter().map(|r| &r.next_hops),
        );
    }
    (routes, sets)
}

/// Every OSPF route in the fabric as (switch, prefix, metric, hops).
fn ospf_table(bed: &TestBed) -> Vec<String> {
    let mut table = Vec::new();
    for node in switches(bed) {
        let router = bed.net.router(node).expect("switches run routers");
        for r in router.fib().routes().filter(|r| r.origin == RouteOrigin::Ospf) {
            table.push(format!("{node} {} {} {:?}", r.prefix, r.metric, r.next_hops));
        }
    }
    table
}

fn bed(design: Design, recovery: RecoveryMode) -> TestBed {
    let config = EmuConfig::builder().recovery(recovery).build();
    TestBed::build_with_config(design, 8, 1, config).expect("k = 8 builds")
}

#[test]
fn equal_ospf_sets_are_one_allocation_after_bootstrap_and_after_c1() {
    for design in [Design::FatTree, Design::F2Tree] {
        for recovery in MODES {
            let case = format!("{design}/{recovery}");
            let mut bed = bed(design, recovery);
            let (routes, sets) = check_ospf(&bed, &format!("{case} bootstrap"));
            assert!(sets < routes / 4, "{case}: {sets} sets for {routes} routes");
            let before = ospf_table(&bed);

            let (udp, _) = bed.add_aligned_probes(SimTime::ZERO);
            let anatomy = bed.path_anatomy(udp);
            for link in bed.scenario_links(&anatomy, Condition::C1) {
                bed.net.fail_link_at(FAIL_AT, link);
            }
            bed.net.run_until(PATCHED_BY);
            assert_ne!(ospf_table(&bed), before, "{case}: no SPF run patched a route");
            check_ospf(&bed, &format!("{case} after C1"));
        }
    }
}

#[test]
fn equal_repair_sets_are_one_allocation_per_switch() {
    for design in [Design::FatTree, Design::F2Tree] {
        for recovery in MODES {
            let case = format!("{design}/{recovery}");
            let bed = bed(design, recovery);
            let (mut routes, mut sets) = (0, 0);
            for node in switches(&bed) {
                let plan = bed.net.router(node).expect("switches run routers").frr_plan();
                let repairs: Vec<_> = plan
                    .values()
                    .flat_map(|delta| &delta.ops)
                    .filter_map(|op| match op {
                        FibOp::Insert(route) => Some(&route.next_hops),
                        _ => None,
                    })
                    .collect();
                routes += repairs.len();
                sets += distinct_sets(&format!("{case}: {node}'s repair routes"), repairs);
            }
            // Only the FRR mode precomputes repairs, and only the F²Tree's
            // across links give every switch an alternate to share.
            if recovery == RecoveryMode::PrecomputedFrr && design == Design::F2Tree {
                assert!(sets < routes, "{case}: {sets} sets for {routes} repair routes");
            } else if recovery != RecoveryMode::PrecomputedFrr {
                assert_eq!(routes, 0, "{case} has no failure map");
            }
        }
    }
}
