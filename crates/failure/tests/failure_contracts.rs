//! Integration contracts for the failure-injection substrate.
//!
//! Two families, matching the crate's public surface:
//!
//! * [`FailureSchedule`] ordering — `into_sorted` is a *stable*
//!   chronological sort and never invents or drops events,
//! * [`generate_random_failures`] — byte-for-byte deterministic under a
//!   fixed seed, seed-sensitive otherwise, and always well formed
//!   (alternating down/up per link, everything repaired by the end).

use dcn_failure::{generate_random_failures, FailureEvent, FailureSchedule, RandomFailureConfig};
use dcn_net::LinkId;
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
