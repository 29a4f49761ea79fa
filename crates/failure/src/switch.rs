//! Whole-switch failures (paper footnote 1).
//!
//! "We model all network failures as link failures for simplification.
//! For example, a whole switch failure is modeled as the failures of all
//! its links."

use dcn_net::{LinkId, NodeId, Topology};
use dcn_sim::SimTime;

use crate::schedule::FailureSchedule;

/// All live links attached to `node` — failing them all is the paper's
/// model of a whole-switch failure.
pub fn switch_links(topo: &Topology, node: NodeId) -> Vec<LinkId> {
    topo.neighbors(node).map(|(l, _)| l).collect()
}

/// All switch-to-switch links: the candidates for random failure
/// injection (host access links are excluded, so no host is severed
/// outright).
pub fn fabric_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .filter(|l| {
            let (a, b) = l.endpoints();
            topo.node(a).kind().is_switch() && topo.node(b).kind().is_switch()
        })
        .map(|l| l.id())
        .collect()
}

/// Schedules a whole-switch failure at `at` (and, optionally, recovery at
/// `recover_at`).
pub fn schedule_switch_failure(
    topo: &Topology,
    node: NodeId,
    at: SimTime,
    recover_at: Option<SimTime>,
) -> FailureSchedule {
    let mut schedule = FailureSchedule::new();
    for link in switch_links(topo, node) {
        schedule.fail(at, link);
        if let Some(up_at) = recover_at {
            schedule.repair(up_at, link);
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FatTree, Layer};
    use dcn_sim::SimDuration;

    #[test]
    fn switch_failure_covers_every_attached_link() {
        let topo = FatTree::new(4).unwrap().build();
        let agg = topo.layer_switches(Layer::Agg).next().unwrap();
        let links = switch_links(&topo, agg);
        assert_eq!(links.len(), 4, "k=4 agg uses all 4 ports");
        let schedule = schedule_switch_failure(
            &topo,
            agg,
            SimTime::ZERO + SimDuration::from_millis(100),
            None,
        );
        assert_eq!(schedule.failure_count(), 4);
        assert_eq!(schedule.len(), 4);
    }

    #[test]
    fn recovery_events_pair_with_failures() {
        let topo = FatTree::new(4).unwrap().build();
        let core = topo.layer_switches(Layer::Core).next().unwrap();
        let schedule = schedule_switch_failure(
            &topo,
            core,
            SimTime::ZERO + SimDuration::from_millis(100),
            Some(SimTime::ZERO + SimDuration::from_secs(5)),
        );
        assert_eq!(schedule.failure_count(), 4);
        assert_eq!(schedule.len(), 8);
    }
}
