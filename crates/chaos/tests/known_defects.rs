//! Known defects, pinned as they stand. Each fixture in `tests/known/`
//! reproduces one open chaos finding in a few events; its test asserts
//! today's verdict under every recovery mode, so the defect stays visible
//! and the change that fixes it has to change the test on purpose.

use std::path::Path;

use dcn_chaos::{run_scenario, EngineConfig, ScenarioSpec, ViolationKind};
use dcn_routing::RecoveryMode;

fn run(name: &str, recovery: RecoveryMode) -> Vec<(ViolationKind, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/known").join(name);
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

/// A flap then a single-link failure on the k = 4 F²Tree: FRR black-holes
/// every monitor 310 ms against a 130 ms budget, with one physical event
/// in the window; OSPF and F²Tree recovery stay within their bounds.
#[test]
fn frr_flap_then_fail_overruns_its_blackhole_budget() {
    let fixture = "frr_flap_then_fail.scenario";
    let frr = run(fixture, RecoveryMode::PrecomputedFrr);
    assert_eq!(frr.len(), 6, "{frr:#?}");
    for (kind, detail) in &frr {
        assert_eq!(*kind, ViolationKind::BlackholeBound, "{detail}");
        assert!(
            detail.ends_with("black-holed 310.000ms > budget 130.000ms (1 phys event(s))"),
            "{detail}"
        );
    }
    for clean in [RecoveryMode::OspfReconvergence, RecoveryMode::F2TreeRewiring] {
        assert_eq!(run(fixture, clean), [], "{clean:?}");
    }
}
