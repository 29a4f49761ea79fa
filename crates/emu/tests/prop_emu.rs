//! Property-based emulator tests: the paper's §II-C coverage claims,
//! checked over randomized failure choices.
//!
//! "F²Tree is shown to be able to greatly reduce the time for failure
//! recovery with fast rerouting, under all the failure conditions with no
//! more than 2 concurrent link failures" (modulo the stated exceptions:
//! both across links of one switch, and the 3-link fourth condition).

use dcn_emu::Network;
use dcn_failure::fabric_links;
use dcn_sim::{SimDuration, SimTime};
use f2tree::{Design, TestBed};
use proptest::prelude::*;

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

fn f2_network(k: u32) -> Network {
    TestBed::build(Design::F2Tree, k, 1).expect("valid k").net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single fabric-link failure on an F²Tree: the probe recovers
    /// within the detection bound (or is unaffected), and no packet is
    /// ever blackholed — §II-C conditions 1–3 cover every single
    /// failure.
    #[test]
    fn single_failure_never_blackholes_f2tree(pick: prop::sample::Index) {
        let mut net = f2_network(6);
        let links = fabric_links(net.topology());
        let victim = links[pick.index(links.len())];

        let hosts = net.topology().hosts().to_vec();
        let probe = net.add_udp_probe(hosts[0], *hosts.last().unwrap(), SimTime::ZERO);
        net.fail_link_at(ms(100), victim);
        net.run_until(ms(1500));

        // The fast-reroute invariant: zero route-less drops, ever.
        prop_assert_eq!(net.drops().no_route, 0, "failed {}", victim);
        prop_assert_eq!(net.drops().ttl_expired, 0, "failed {}", victim);
        // And the probe flows at the end.
        let report = net.udp_probe_report(probe);
        if let Some(loss) = report.connectivity.loss_around(ms(100)) {
            prop_assert!(
                loss.duration.as_millis() <= 66,
                "single-failure recovery is detection-bounded, got {} for {victim}",
                loss.duration
            );
        }
        let tail = report
            .connectivity
            .arrivals()
            .iter()
            .filter(|&&(t, _)| t > ms(1400))
            .count();
        prop_assert!(tail > 900, "probe healthy at the end: {tail}");
    }

    /// Any two concurrent fabric-link failures: the network always
    /// recovers by the control-plane bound, and the probe is healthy at
    /// the end (the paper's claim, including its stated exceptions which
    /// fall back to OSPF rather than blackholing forever).
    #[test]
    fn double_failures_always_recover_by_the_ospf_bound(
        pick_a: prop::sample::Index,
        pick_b: prop::sample::Index,
    ) {
        let mut net = f2_network(6);
        let links = fabric_links(net.topology());
        let a = links[pick_a.index(links.len())];
        let b = links[pick_b.index(links.len())];

        let hosts = net.topology().hosts().to_vec();
        let probe = net.add_udp_probe(hosts[0], *hosts.last().unwrap(), SimTime::ZERO);
        net.fail_link_at(ms(100), a);
        net.fail_link_at(ms(100), b);
        net.run_until(ms(2000));

        let report = net.udp_probe_report(probe);
        if let Some(loss) = report.connectivity.loss_around(ms(100)) {
            // Worst case: wait for OSPF (detect + SPF + FIB + flooding).
            prop_assert!(
                loss.duration.as_millis() <= 320,
                "double-failure recovery within the OSPF bound, got {} for {a},{b}",
                loss.duration
            );
        }
        let tail = report
            .connectivity
            .arrivals()
            .iter()
            .filter(|&&(t, _)| t > ms(1900))
            .count();
        prop_assert!(tail > 900, "probe healthy at the end: {tail}");
    }

    /// Determinism across runs holds for arbitrary failure picks.
    #[test]
    fn replay_determinism_under_random_failures(
        pick: prop::sample::Index,
        fail_ms in 50u64..400,
    ) {
        let run = || {
            let mut net = f2_network(4);
            let links = fabric_links(net.topology());
            let victim = links[pick.index(links.len())];
            let hosts = net.topology().hosts().to_vec();
            let probe = net.add_udp_probe(hosts[0], *hosts.last().unwrap(), SimTime::ZERO);
            net.fail_link_at(ms(fail_ms), victim);
            net.run_until(ms(800));
            (
                net.events_processed(),
                net.udp_probe_report(probe).received,
                net.drops(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
