//! Hostile scenario files: input `ScenarioSpec::parse` accepts but no
//! fabric can run gets a typed error from `run_scenario`, not a panic.
//! The files live in `tests/hostile/`.

use std::path::Path;

use dcn_chaos::{run_scenario, EngineConfig, ScenarioError, ScenarioSpec};
use dcn_net::LinkId;
use dcn_sim::{timers, SimTime};
use f2tree::{Design, TestBed};

fn parse(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/hostile").join(name);
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    ScenarioSpec::parse(&text).expect("the fixture parses")
}

#[test]
fn a_link_the_topology_lacks_is_an_error() {
    let spec = parse("unknown_link.scenario");
    assert_eq!(
        run_scenario(&spec, &EngineConfig::default()).map(|_| ()),
        Err(ScenarioError::UnknownLink(LinkId::new(999_999)))
    );
}

#[test]
fn a_link_the_rewiring_removed_is_an_error() {
    let bed = TestBed::build(Design::F2Tree, 4, 1).expect("k = 4 builds");
    let topo = bed.topology();
    let removed = (0..topo.link_slots() as u32)
        .map(LinkId::new)
        .find(|&l| topo.link(l).is_removed())
        .expect("the F2Tree rewiring removes fat-tree links");
    let text = format!(
        "design f2tree\nk 4\nhosts-per-tor 1\nincident single-link\n  down 100000 {}\n",
        removed.index()
    );
    let spec = ScenarioSpec::parse(&text).expect("parses");
    assert_eq!(
        run_scenario(&spec, &EngineConfig::default()).map(|_| ()),
        Err(ScenarioError::UnknownLink(removed))
    );
}

#[test]
fn an_event_past_the_end_of_the_clock_is_an_error() {
    let spec = parse("late_event.scenario");
    let at = spec.last_event_time();
    assert_eq!(
        run_scenario(&spec, &EngineConfig::default()).map(|_| ()),
        Err(ScenarioError::TimeOverflow(at))
    );
    let message = ScenarioError::TimeOverflow(at).to_string();
    assert!(message.contains("end of the simulation clock"), "{message}");
}

#[test]
fn the_latest_accepted_event_runs_to_completion() {
    // The horizon may reach the middle of the clock; every timer armed
    // before it must still fit.
    let drain = timers::DETECTION_DELAY
        + timers::SPF_MAX_HOLD
        + timers::SPF_INITIAL_DELAY
        + timers::FIB_UPDATE_DELAY;
    let latest_us = (u64::MAX / 2 - drain.as_nanos()) / 1_000;
    let text = format!(
        "design fat-tree\nk 4\nhosts-per-tor 1\nincident single-link\n  \
         down {latest_us} 3\n  up {latest_us} 3\n"
    );
    let spec = ScenarioSpec::parse(&text).expect("parses");
    let outcome = run_scenario(&spec, &EngineConfig::default()).expect("runs");
    assert!(spec.last_event_time() > SimTime::ZERO);
    assert!(outcome.stats.epochs_checked > 0);
    // One microsecond later the drain no longer fits.
    let later = text.replace(&latest_us.to_string(), &(latest_us + 1).to_string());
    let spec = ScenarioSpec::parse(&later).expect("parses");
    assert!(matches!(
        run_scenario(&spec, &EngineConfig::default()),
        Err(ScenarioError::TimeOverflow(_))
    ));
}

#[test]
fn a_time_too_large_for_the_clock_is_a_parse_error() {
    let text = "design fat-tree\nk 4\nhosts-per-tor 1\nincident single-link\n  \
                down 18446744073709552 3\n";
    let err = ScenarioSpec::parse(text).expect_err("micros overflow nanoseconds");
    assert!(err.to_string().contains("line 5"), "{err}");
}
