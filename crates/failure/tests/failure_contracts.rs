//! Integration contracts for the failure-injection substrate.
//!
//! Three families, matching the crate's public surface:
//!
//! * [`FailureSchedule`] ordering — `into_sorted` is a *stable*
//!   chronological sort and never invents or drops events,
//! * [`generate_random_failures`] — byte-for-byte deterministic under a
//!   fixed seed, seed-sensitive otherwise, and always well formed
//!   (alternating down/up per link, everything repaired by the end),
//! * [`ScenarioError`] — every variant is reachable through
//!   [`condition_links`] and reports the offending entity.

use dcn_failure::{
    condition_links, generate_random_failures, Condition, FailureEvent, FailureSchedule,
    RandomFailureConfig, ScenarioContext, ScenarioError,
};
use dcn_net::{FatTree, Layer, LinkId, NodeId, PodRing, Topology};
use dcn_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn event((ms, link, up): (u64, u32, bool)) -> FailureEvent {
    FailureEvent {
        at: at(ms),
        link: LinkId::new(link),
        up,
    }
}

// ---------------------------------------------------------------------
// FailureSchedule ordering
// ---------------------------------------------------------------------

proptest! {
    /// `into_sorted` orders chronologically and preserves the input
    /// multiset: tagging each event with a unique link id makes the
    /// expected stable sort directly computable.
    #[test]
    fn into_sorted_is_a_stable_permutation(
        times in prop::collection::vec(0u64..500, 0..64),
        ups in prop::collection::vec(any::<bool>(), 64..65),
    ) {
        let input: Vec<FailureEvent> = times
            .iter()
            .zip(&ups)
            .enumerate()
            .map(|(i, (&ms, &up))| event((ms, i as u32, up)))
            .collect();
        let schedule: FailureSchedule = input.iter().copied().collect();
        prop_assert_eq!(schedule.len(), input.len());

        let mut expected = input.clone();
        expected.sort_by_key(|e| e.at); // Vec::sort_by_key is stable.
        let got = schedule.into_sorted();
        prop_assert_eq!(got, expected);
    }

    /// The builder methods and `Extend` agree with raw event pushes.
    #[test]
    fn builders_and_extend_agree(
        raw in prop::collection::vec((0u64..100, 0u32..32, any::<bool>()), 0..32),
    ) {
        let events: Vec<FailureEvent> = raw.into_iter().map(event).collect();

        let mut built = FailureSchedule::new();
        for e in &events {
            if e.up {
                built.repair(e.at, e.link);
            } else {
                built.fail(e.at, e.link);
            }
        }
        let mut extended = FailureSchedule::new();
        extended.extend(events.iter().copied());

        prop_assert_eq!(built.clone(), extended);
        prop_assert_eq!(built.failure_count(), events.iter().filter(|e| !e.up).count());
        prop_assert_eq!(built.is_empty(), events.is_empty());
    }
}

#[test]
fn simultaneous_events_keep_insertion_order() {
    let mut s = FailureSchedule::new();
    s.fail(at(50), LinkId::new(7));
    s.repair(at(50), LinkId::new(3));
    s.fail(at(50), LinkId::new(1));
    let sorted = s.into_sorted();
    let links: Vec<u32> = sorted.iter().map(|e| e.link.index() as u32).collect();
    assert_eq!(links, [7, 3, 1], "equal timestamps must not be reordered");
}

// ---------------------------------------------------------------------
// RandomFailureConfig determinism
// ---------------------------------------------------------------------

fn link_pool(n: u32) -> Vec<LinkId> {
    (0..n).map(LinkId::new).collect()
}

proptest! {
    /// The same seed reproduces the same schedule event for event, under
    /// both paper regimes and a scaled horizon.
    #[test]
    fn random_failures_are_seed_deterministic(seed: u64, scale in 1u64..6) {
        let links = link_pool(64);
        for config in [
            RandomFailureConfig::one_concurrent(),
            RandomFailureConfig::five_concurrent(),
            RandomFailureConfig::one_concurrent().scaled_to(SimDuration::from_secs(60 * scale)),
        ] {
            let a = generate_random_failures(&mut SimRng::new(seed), &links, &config);
            let b = generate_random_failures(&mut SimRng::new(seed), &links, &config);
            prop_assert_eq!(a.into_sorted(), b.into_sorted());
        }
    }

    /// Sorted schedules are well formed: per link the events alternate
    /// down/up starting with a failure, and every failure is repaired by
    /// the end of the schedule.
    #[test]
    fn random_failures_alternate_and_always_repair(seed: u64) {
        let links = link_pool(48);
        let config = RandomFailureConfig::five_concurrent();
        let events = generate_random_failures(&mut SimRng::new(seed), &links, &config)
            .into_sorted();
        let mut down = vec![false; links.len()];
        for e in &events {
            let i = e.link.index();
            prop_assert!(i < links.len(), "event references an unknown link");
            prop_assert_eq!(down[i], e.up, "per-link events must alternate");
            down[i] = !e.up;
        }
        prop_assert!(down.iter().all(|&d| !d), "every failure must be repaired");
    }
}

#[test]
fn different_seeds_give_different_schedules() {
    let links = link_pool(64);
    let config = RandomFailureConfig::one_concurrent();
    let a = generate_random_failures(&mut SimRng::new(1), &links, &config).into_sorted();
    let b = generate_random_failures(&mut SimRng::new(2), &links, &config).into_sorted();
    assert_ne!(a, b, "seeds 1 and 2 should not collide over a full horizon");
}

// ---------------------------------------------------------------------
// ScenarioError paths
// ---------------------------------------------------------------------

/// A context over `topo` whose path fields can be mis-wired per test.
fn ctx<'a>(
    topo: &'a Topology,
    pod: usize,
    path_agg: NodeId,
    ring: Option<&'a PodRing>,
) -> ScenarioContext<'a> {
    let pod_aggs = topo.pods(Layer::Agg)[pod].clone();
    let dest_tor = topo.pods(Layer::Tor)[pod][0];
    let path_core = topo
        .neighbors(pod_aggs[0])
        .map(|(_, n)| n)
        .find(|&n| topo.node(n).layer() == Some(Layer::Core))
        .expect("agg has a core uplink");
    ScenarioContext {
        topo,
        dest_tor,
        path_agg,
        path_core,
        pod_aggs,
        agg_ring: ring,
    }
}

#[test]
fn missing_link_reports_both_endpoints() {
    let topo = FatTree::new(4).unwrap().build();
    // Sx from pod 1, destination ToR from pod 0: no ToR–agg link exists.
    let foreign_agg = topo.pods(Layer::Agg)[1][0];
    let c = ctx(&topo, 0, foreign_agg, None);
    let err = condition_links(&c, Condition::C1).unwrap_err();
    assert_eq!(err, ScenarioError::MissingLink(foreign_agg, c.dest_tor));
    let msg = err.to_string();
    assert!(msg.contains("no link"), "unexpected message: {msg}");
}

#[test]
fn agg_outside_the_pod_is_rejected() {
    let topo = FatTree::new(4).unwrap().build();
    let foreign_agg = topo.pods(Layer::Agg)[1][0];
    let c = ctx(&topo, 0, foreign_agg, None);
    // C4 needs Sx's right neighbor in the pod, so the lookup fails before
    // any link resolution.
    let err = condition_links(&c, Condition::C4).unwrap_err();
    assert_eq!(err, ScenarioError::AggNotInRing(foreign_agg));
}

#[test]
fn ring_conditions_fail_without_a_ring() {
    let topo = FatTree::new(4).unwrap().build();
    let c = ctx(&topo, 0, topo.pods(Layer::Agg)[0][0], None);
    for condition in [Condition::C6, Condition::C7] {
        assert_eq!(
            condition_links(&c, condition).unwrap_err(),
            ScenarioError::MissingRing(condition),
        );
    }
    // Every non-ring condition still resolves on the plain fat tree.
    for condition in Condition::ALL {
        if !condition.requires_across_links() {
            assert!(condition_links(&c, condition).is_ok(), "{condition} failed");
        }
    }
}

#[test]
fn ring_membership_is_checked_even_with_a_ring() {
    let topo = FatTree::new(4).unwrap().build();
    let sx = topo.pods(Layer::Agg)[0][0];
    // A ring over unrelated node ids: Sx resolves its pod neighbors fine
    // but is not a ring member, so the across-link lookup must fail.
    let ring = PodRing {
        members: vec![NodeId::new(9000), NodeId::new(9001)],
        chords: vec![vec![LinkId::new(9000), LinkId::new(9001)]],
    };
    let c = ctx(&topo, 0, sx, Some(&ring));
    assert_eq!(
        condition_links(&c, Condition::C6).unwrap_err(),
        ScenarioError::AggNotInRing(sx),
    );
}

#[test]
fn scenario_error_messages_are_distinct() {
    let errors = [
        ScenarioError::MissingLink(NodeId::new(1), NodeId::new(2)),
        ScenarioError::MissingRing(Condition::C6),
        ScenarioError::AggNotInRing(NodeId::new(3)),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for e in &errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(seen.insert(msg.clone()), "duplicate message: {msg}");
        // The Display form doubles as the std::error::Error description.
        let dynamic: &dyn std::error::Error = e;
        assert_eq!(dynamic.to_string(), msg);
    }
}
