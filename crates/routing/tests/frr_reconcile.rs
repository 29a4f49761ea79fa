//! FRR reconciliation equivalence (ISSUE 8 satellite): precomputed
//! fast-reroute is a *transient* overlay. After a failure is detected,
//! repaired around, and finally re-converged by OSPF, the cumulative FIB
//! must be **byte-identical** to a run that recovered with plain OSPF
//! reconvergence, and no `frr`-origin route may survive quiescence.
//!
//! The test fails a covered agg→ToR fabric link on the rewired k=4
//! testbed (never repairing it, so the converged state is the
//! interesting post-failure one, not the trivial initial one), steps the
//! emulator to quiescence while watching for the transient `frr` routes
//! (proving the repair actually activated — the equivalence would be
//! vacuous otherwise), then dumps every switch's full FIB.

use dcn_emu::EmuConfig;
use dcn_net::{Layer, LinkId};
use dcn_routing::{RecoveryMode, RouteOrigin};
use dcn_sim::SimTime;
use f2tree::{Design, TestBed};
use std::fmt::Write as _;

const FAIL_AT: SimTime = SimTime::from_nanos(100_000_000); // 100 ms
const QUIESCE_BY: SimTime = SimTime::from_nanos(30_000_000_000); // 30 s

/// The first agg→ToR fabric link of the rewired k=4 testbed — a link
/// the FRR failure map covers (ECMP survivor at the agg, across-ring
/// remote-LFA at the ToR side).
fn covered_link(bed: &TestBed) -> LinkId {
    let topo = bed.topology();
    let agg = topo
        .layer_switches(Layer::Agg)
        .next()
        .expect("k=4 has aggs");
    topo.downward_links(agg)
        .into_iter()
        .find(|&l| topo.node(topo.link(l).other_end(agg)).layer() == Some(Layer::Tor))
        .expect("agg has a ToR downlink")
}

/// Renders every switch FIB as sorted `node | prefix origin metric hops`
/// lines — the byte-exact equivalence artifact.
fn dump_fibs(bed: &TestBed) -> String {
    let mut lines = Vec::new();
    for node in bed.topology().nodes().filter(|n| n.kind().is_switch()) {
        let router = bed.net.router(node.id()).expect("switches run routers");
        for route in router.fib().routes() {
            let mut hops = String::new();
            for hop in route.next_hops.iter() {
                write!(hops, " {hop}").unwrap();
            }
            lines.push(format!(
                "{} | {} {} {}{}",
                node.name(),
                route.prefix,
                route.origin,
                route.metric,
                hops
            ));
        }
    }
    lines.sort();
    lines.join("\n")
}

/// True if any switch currently holds a `frr`-origin route.
fn any_frr_route(bed: &TestBed) -> bool {
    bed.topology()
        .nodes()
        .filter(|n| n.kind().is_switch())
        .any(|n| {
            bed.net
                .router(n.id())
                .is_some_and(|r| r.fib().routes().any(|route| route.origin == RouteOrigin::Frr))
        })
}

/// Runs one recovery mode to quiescence. Returns the final FIB dump and
/// whether an `frr` route was ever live.
fn run_to_quiescence(recovery: RecoveryMode) -> (String, bool) {
    let config = EmuConfig::builder().recovery(recovery).build();
    let mut bed =
        TestBed::build_with_config(Design::F2Tree, 4, 1, config).expect("k=4 testbed builds");
    let link = covered_link(&bed);
    bed.net.fail_link_at(FAIL_AT, link);

    let mut saw_frr = false;
    let mut last_epoch = bed.net.fib_epoch();
    while bed.net.step(QUIESCE_BY).is_some() {
        let epoch = bed.net.fib_epoch();
        if epoch != last_epoch {
            last_epoch = epoch;
            saw_frr |= any_frr_route(&bed);
        }
    }
    (dump_fibs(&bed), saw_frr)
}

#[test]
fn frr_reconciles_to_the_exact_ospf_fib() {
    let (ospf_fib, ospf_saw_frr) = run_to_quiescence(RecoveryMode::OspfReconvergence);
    let (frr_fib, frr_saw_frr) = run_to_quiescence(RecoveryMode::PrecomputedFrr);

    // Plain OSPF never holds an frr-origin route; the FRR run must have
    // activated one transiently (otherwise this test proves nothing) and
    // must hold none at quiescence.
    assert!(!ospf_saw_frr, "ospf run grew frr routes");
    assert!(frr_saw_frr, "frr repair never activated (vacuous)");
    assert!(
        !frr_fib.contains(" frr "),
        "frr route survived reconciliation:\n{frr_fib}"
    );

    // The reconciliation contract, byte for byte.
    assert_eq!(frr_fib, ospf_fib, "frr run converged to a different FIB");
}
