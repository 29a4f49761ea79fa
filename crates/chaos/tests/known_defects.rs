//! Known defects, pinned as they stand. Each fixture in `tests/known/`
//! reproduces one open chaos finding in a few events; its test asserts
//! today's verdict under every recovery mode, so the defect stays visible
//! and the change that fixes it has to change the test on purpose.

use std::path::Path;

use dcn_chaos::{run_scenario, EngineConfig, ScenarioSpec, ViolationKind};
use dcn_routing::RecoveryMode;

fn run(name: &str, recovery: RecoveryMode) -> Vec<(ViolationKind, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/known")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    let spec = ScenarioSpec::parse(&text).expect("the fixture parses");
    let cfg = EngineConfig {
        recovery,
        ..EngineConfig::default()
    };
    let outcome = run_scenario(&spec, &cfg).expect("the fixture runs");
    outcome
        .violations
        .into_iter()
        .map(|v| (v.kind, v.detail))
        .collect()
}

/// Asserts that `fixture` under `recovery` fires exactly `count`
/// `blackhole-bound` violations, each detail ending in `verdict`.
fn assert_overruns(fixture: &str, recovery: RecoveryMode, count: usize, verdict: &str) {
    let found = run(fixture, recovery);
    assert_eq!(found.len(), count, "{recovery:?}: {found:#?}");
    for (kind, detail) in &found {
        assert_eq!(*kind, ViolationKind::BlackholeBound, "{detail}");
        assert!(detail.ends_with(verdict), "{recovery:?}: {detail}");
    }
}

/// A flap then a single-link failure on the k = 4 F²Tree: FRR black-holes
/// every monitor 310 ms against a 130 ms budget, with one physical event
/// in the window; OSPF and F²Tree recovery stay within their bounds.
#[test]
fn frr_flap_then_fail_overruns_its_blackhole_budget() {
    let fixture = "frr_flap_then_fail.scenario";
    let verdict = "black-holed 310.000ms > budget 130.000ms (1 phys event(s))";
    assert_overruns(fixture, RecoveryMode::PrecomputedFrr, 6, verdict);
    for clean in [
        RecoveryMode::OspfReconvergence,
        RecoveryMode::F2TreeRewiring,
    ] {
        assert_eq!(run(fixture, clean), [], "{clean:?}");
    }
}

/// Two overlapping correlated-links incidents (chaos seed 3, #651): one
/// monitor is black-holed 682.731 ms across two physical events, over
/// every mode's budget.
#[test]
fn overlapping_correlated_incidents_overrun_every_budget() {
    let fixture = "correlated_overlap_overruns_two_events.scenario";
    let held = "black-holed 682.731ms > budget 600.000ms (2 phys event(s))";
    assert_overruns(fixture, RecoveryMode::OspfReconvergence, 1, held);
    assert_overruns(fixture, RecoveryMode::F2TreeRewiring, 1, held);
    let frr = "black-holed 682.731ms > budget 200.000ms (2 phys event(s))";
    assert_overruns(fixture, RecoveryMode::PrecomputedFrr, 1, frr);
}

/// One four-link correlated incident (chaos seed 8, #493): two monitors
/// are black-holed 1.191 s under F²Tree recovery and FRR; OSPF recovery
/// stays within its bound.
#[test]
fn four_correlated_links_outlast_the_rewiring_budget() {
    let fixture = "correlated_four_links_outlast_rewiring.scenario";
    let held = "black-holed 1.191s > budget 600.000ms (2 phys event(s))";
    assert_overruns(fixture, RecoveryMode::F2TreeRewiring, 2, held);
    let frr = "black-holed 1.191s > budget 200.000ms (2 phys event(s))";
    assert_overruns(fixture, RecoveryMode::PrecomputedFrr, 2, frr);
    assert_eq!(run(fixture, RecoveryMode::OspfReconvergence), []);
}

/// A four-cycle flap then two lone outages (FRR chaos seed 20150701,
/// #115): FRR black-holes one pair's three monitors 1.176 s against a
/// 200 ms budget; OSPF and F²Tree recovery stay within their bounds.
#[test]
fn frr_flap_then_two_outages_overruns_its_blackhole_budget() {
    let fixture = "frr_flap_then_two_outages.scenario";
    let verdict = "black-holed 1.176s > budget 200.000ms (2 phys event(s))";
    assert_overruns(fixture, RecoveryMode::PrecomputedFrr, 3, verdict);
    for clean in [
        RecoveryMode::OspfReconvergence,
        RecoveryMode::F2TreeRewiring,
    ] {
        assert_eq!(run(fixture, clean), [], "{clean:?}");
    }
}
