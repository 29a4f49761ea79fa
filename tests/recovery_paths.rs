//! Path-level verification of the §II-C failure-condition analysis:
//! the fast-reroute detours taken under C1–C7 match the paper's
//! case-by-case description exactly.

use dcn_failure::Condition;
use dcn_net::{Layer, NodeId};
use dcn_sim::{SimDuration, SimTime};
use f2tree::{Design, TestBed};

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

const FAIL_AT: u64 = 100;
/// Mid fast-reroute: after the 60ms detection, before the ~310ms
/// convergence.
const DURING_REROUTE: u64 = 200;

struct Drill {
    bed: TestBed,
    probe: dcn_emu::FlowId,
    sx: NodeId,
    dest_tor: NodeId,
}

/// Sets up a condition on F²Tree and runs into the fast-reroute window.
fn drill(condition: Condition) -> Drill {
    let mut bed = TestBed::build(Design::F2Tree, 8, 4).expect("valid k");
    let (src, dst) = bed.probe_endpoints();
    let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
    let anatomy = bed.path_anatomy(probe);
    let links = bed.scenario_links(&anatomy, condition);
    for link in links {
        bed.net.fail_link_at(ms(FAIL_AT), link);
    }
    bed.net.run_until(ms(DURING_REROUTE));
    Drill {
        bed,
        probe,
        sx: anatomy.path_agg,
        dest_tor: anatomy.dest_tor,
    }
}

fn ring_neighbors(d: &Drill) -> (NodeId, NodeId) {
    let ring = d
        .bed
        .agg_rings
        .iter()
        .find(|r| r.position(d.sx).is_some())
        .expect("Sx is a ring member");
    (
        ring.right(d.sx, 1).unwrap().0,
        ring.left(d.sx, 1).unwrap().0,
    )
}

#[test]
fn c1_reroutes_one_hop_rightward() {
    // §II-C condition 1: "S8 will forward the packets to S9 once the link
    // failure is detected. Then S9 will forward these packets to D."
    let d = drill(Condition::C1);
    let (right, _) = ring_neighbors(&d);
    let path = d.bed.net.trace_path(d.probe);
    let sx_pos = path.iter().position(|&n| n == d.sx).expect("path via Sx");
    assert_eq!(path[sx_pos + 1], right, "Sx hands off to its right neighbor");
    assert_eq!(path[sx_pos + 2], d.dest_tor, "which delivers directly");
}

#[test]
fn c4_relays_through_two_ring_members() {
    // §II-C condition 2 (Fig. 3(b)): S8 -> S9 -> S10 -> destination.
    let d = drill(Condition::C4);
    let (right, _) = ring_neighbors(&d);
    let path = d.bed.net.trace_path(d.probe);
    let sx_pos = path.iter().position(|&n| n == d.sx).expect("path via Sx");
    assert_eq!(path[sx_pos + 1], right);
    // The right neighbor's own downward link is dead too; it relays
    // rightward again before delivery.
    assert_ne!(path[sx_pos + 2], d.dest_tor);
    assert_eq!(path[sx_pos + 3], d.dest_tor);
}

#[test]
fn c5_walks_the_ring_to_the_left_neighbor() {
    // C5 spares only the left across neighbor's downward link: packets
    // walk rightward around the 4-member ring until they reach it.
    let d = drill(Condition::C5);
    let (_, left) = ring_neighbors(&d);
    let path = d.bed.net.trace_path(d.probe);
    let sx_pos = path.iter().position(|&n| n == d.sx).expect("path via Sx");
    // Sx -> r1 -> r2 -> left(Sx) -> T: the delivering agg is left(Sx).
    let tor_pos = path
        .iter()
        .position(|&n| n == d.dest_tor)
        .expect("path reaches the destination ToR");
    assert_eq!(path[tor_pos - 1], left, "the spared left neighbor delivers");
    assert_eq!(tor_pos - sx_pos, 4, "three ring hops before delivery");
}

#[test]
fn c6_falls_back_to_the_left_across_link() {
    // §II-C condition 3 (Fig. 3(c)): with the right across link dead, the
    // shorter-prefix backup through the left across link is chosen.
    let d = drill(Condition::C6);
    let (right, left) = ring_neighbors(&d);
    let path = d.bed.net.trace_path(d.probe);
    let sx_pos = path.iter().position(|&n| n == d.sx).expect("path via Sx");
    assert_eq!(path[sx_pos + 1], left, "leftward fallback");
    assert_ne!(path[sx_pos + 1], right);
    assert_eq!(path[sx_pos + 2], d.dest_tor);
}

#[test]
fn c7_ping_pongs_until_ttl_death() {
    // §II-C condition 4 (Fig. 3(d)): packets bounce between Sx and its
    // right neighbor until the control plane converges; the data plane
    // kills each one by TTL.
    let d = drill(Condition::C7);
    let (right, _) = ring_neighbors(&d);
    let path = d.bed.net.trace_path(d.probe);
    // The trace shows the bounce: ... Sx, right, Sx, right ...
    let sx_pos = path.iter().position(|&n| n == d.sx).expect("path via Sx");
    assert_eq!(path[sx_pos + 1], right);
    assert_eq!(path[sx_pos + 2], d.sx, "bounced back");
    assert_eq!(path[sx_pos + 3], right, "and forth");
    // And real packets die of TTL exhaustion during the window.
    assert!(
        d.bed.net.drops().ttl_expired > 0,
        "looping packets must TTL out: {:?}",
        d.bed.net.drops()
    );
}

#[test]
fn after_convergence_no_condition_leaves_a_loop() {
    for condition in Condition::ALL {
        let mut d = drill(condition);
        d.bed.net.run_until(ms(2000));
        let path = d.bed.net.trace_path(d.probe);
        // A loop-free path visits every node at most once.
        let mut sorted: Vec<NodeId> = path.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            path.len(),
            "{condition}: converged path must be loop-free: {path:?}"
        );
        // And it terminates at the destination host.
        let (_, dst) = d.bed.probe_endpoints();
        assert_eq!(*path.last().unwrap(), dst, "{condition}: delivers");
    }
}

#[test]
fn fat_tree_blackholes_during_the_same_window() {
    // The control experiment: on the un-rewired fat tree, the detecting
    // switch has no next hop at all mid-window.
    let mut bed = TestBed::build(Design::FatTree, 8, 4).expect("valid k");
    let (src, dst) = bed.probe_endpoints();
    let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
    let anatomy = bed.path_anatomy(probe);
    let link = bed.probe_path_link(probe, Layer::Agg).unwrap();
    bed.net.fail_link_at(ms(FAIL_AT), link);
    bed.net.run_until(ms(DURING_REROUTE));
    let path = bed.net.trace_path(probe);
    // The trace dead-ends at the detecting aggregation switch.
    assert_eq!(*path.last().unwrap(), anatomy.path_agg, "{path:?}");
    assert!(bed.net.drops().no_route > 0, "{:?}", bed.net.drops());
}
