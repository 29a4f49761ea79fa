//! End-to-end chaos campaign tests: the ISSUE acceptance criteria.
//!
//! * A seeded campaign of 200 scenarios runs loop-free and
//!   blackhole-bounded on both designs, byte-identical at 1 and 4 workers.
//! * A deliberately broken oracle (zero blackhole budget) fires, and the
//!   shrinker reduces a multi-incident scenario to a one-incident minimal
//!   reproducer that survives a render/parse round trip.

use dcn_chaos::{
    run_chaos, run_scenario, shrink_scenario, ChaosConfig, EngineConfig, Incident, IncidentKind,
    ScenarioSpec,
};
use dcn_failure::FailureEvent;
use dcn_net::Layer;
use dcn_routing::RecoveryMode;
use dcn_sim::{SimDuration, SimTime};
use dcn_sweep::Workers;
use f2tree::{Design, TestBed};

/// The headline acceptance run: 200 seeded scenarios across both designs,
/// all invariants clean, and the rendered report byte-identical whether
/// one worker or four ran the campaign.
#[test]
fn campaign_of_200_is_clean_and_worker_count_invariant() {
    let cfg = ChaosConfig {
        campaigns: 200,
        ..ChaosConfig::default()
    };
    let serial = run_chaos(&cfg, Workers::new(1)).expect("campaign builds");
    let parallel = run_chaos(&cfg, Workers::new(4)).expect("campaign builds");

    let serial_text = serial.render();
    assert_eq!(serial_text, parallel.render(), "worker count changed output");

    assert_eq!(
        serial.total_violations(),
        0,
        "oracle violations:\n{serial_text}"
    );
    // The campaign actually exercised failures on both designs.
    assert!(serial.results.iter().all(|r| !r.spec.incidents.is_empty()));
    assert!(serial.results.iter().any(|r| r.design == Design::FatTree));
    assert!(serial.results.iter().any(|r| r.design == Design::F2Tree));
    let windows: u64 = serial
        .results
        .iter()
        .map(|r| r.outcome.stats.broken_windows)
        .sum();
    assert!(windows > 0, "no scenario ever broke connectivity");
}

/// Builds a fat-tree scenario whose first incident provably black-holes a
/// monitored flow (the agg→ToR downward link on a monitored path — the
/// paper's C1 condition), padded with two unrelated incidents.
fn c1_scenario_with_decoys() -> ScenarioSpec {
    let bed = TestBed::build(Design::FatTree, 4, 1).expect("testbed builds");
    let pairs = dcn_chaos::monitor_endpoints(&bed.net);
    let (src, dst) = pairs[0];
    let key = bed
        .net
        .flow_key_with_port(src, dst, dcn_chaos::MONITOR_SPORTS[0], dcn_net::Protocol::Udp);
    let path = bed.net.trace(key, src, dst);
    // Last switch-to-switch hop on the path: the agg→ToR downward link.
    let topo = bed.topology();
    let n = path.len();
    let culprit = topo
        .link_between(path[n - 3], path[n - 2])
        .expect("path hop is a link");
    // Two decoy links that are NOT on the monitored path (failing them is
    // harmless to this flow): any fabric link whose endpoints are both
    // core switches' links away from the path.
    let on_path: Vec<_> = path.windows(2).filter_map(|w| topo.link_between(w[0], w[1])).collect();
    let decoys: Vec<_> = bed
        .fabric_links()
        .into_iter()
        .filter(|l| !on_path.contains(l) && *l != culprit)
        .take(2)
        .collect();
    assert_eq!(decoys.len(), 2);

    let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
    let one = |kind, link, down_ms, up_ms| Incident {
        kind,
        events: vec![
            FailureEvent {
                at: ms(down_ms),
                link,
                up: false,
            },
            FailureEvent {
                at: ms(up_ms),
                link,
                up: true,
            },
        ],
    };
    ScenarioSpec {
        design: Design::FatTree,
        k: 4,
        hosts_per_tor: 1,
        incidents: vec![
            one(IncidentKind::SingleLink, decoys[0], 100, 400),
            one(IncidentKind::SingleLink, culprit, 600, 1100),
            one(IncidentKind::SingleLink, decoys[1], 1300, 1700),
        ],
    }
}

/// The broken-oracle fixture: with a zero blackhole budget the C1 outage
/// (~270 ms on a fat tree) must fire the oracle; ddmin must then strip
/// both decoy incidents, and the minimal reproducer must replay from its
/// scenario-file rendering.
#[test]
fn broken_oracle_fixture_shrinks_to_minimal_reproducer() {
    let spec = c1_scenario_with_decoys();
    let broken = EngineConfig {
        bound_override: Some(SimDuration::ZERO),
        ..EngineConfig::default()
    };

    let outcome = run_scenario(&spec, &broken).expect("scenario runs");
    assert!(
        !outcome.violations.is_empty(),
        "zero budget must trip the blackhole oracle"
    );
    // The healthy oracle accepts the very same scenario.
    let healthy = run_scenario(&spec, &EngineConfig::default()).expect("scenario runs");
    assert!(
        healthy.violations.is_empty(),
        "timer-budget oracle should pass: {:?}",
        healthy.violations
    );

    let minimal = shrink_scenario(&spec, |s| {
        run_scenario(s, &broken)
            .map(|o| !o.violations.is_empty())
            .unwrap_or(false)
    });
    assert_eq!(
        minimal.incidents.len(),
        1,
        "decoys must be shrunk away: {}",
        minimal.render()
    );

    // The minimal reproducer is replayable from its file form.
    let reparsed = ScenarioSpec::parse(&minimal.render()).expect("round trip");
    assert_eq!(reparsed, minimal);
    let replay = run_scenario(&reparsed, &broken).expect("replay runs");
    assert!(!replay.violations.is_empty(), "replay must still reproduce");
}

/// A switch failure that severs a ToR from the fabric physically
/// partitions its hosts: the oracles must excuse those windows instead of
/// reporting bogus blackhole violations.
#[test]
fn physical_partition_windows_are_excused_not_violations() {
    let bed = TestBed::build(Design::FatTree, 4, 1).expect("testbed builds");
    let topo = bed.topology();
    let hosts = topo.hosts();
    let tor = topo.host_tor(hosts[0]).expect("host has a ToR");
    let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
    let mut events = Vec::new();
    for (link, _) in topo.neighbors(tor) {
        events.push(FailureEvent {
            at: ms(100),
            link,
            up: false,
        });
        events.push(FailureEvent {
            at: ms(900),
            link,
            up: true,
        });
    }
    let spec = ScenarioSpec {
        design: Design::FatTree,
        k: 4,
        hosts_per_tor: 1,
        incidents: vec![Incident {
            kind: IncidentKind::SwitchDown,
            events,
        }],
    };
    let outcome = run_scenario(&spec, &EngineConfig::default()).expect("scenario runs");
    assert!(
        outcome.violations.is_empty(),
        "partition must be excused: {:?}",
        outcome.violations
    );
    assert!(outcome.stats.excused_windows > 0, "{:?}", outcome.stats);
}

/// A single agg→ToR downlink failure on a monitored F²Tree path — the
/// paper's C1 condition, and the class no plain-fat-tree local FRR can
/// cover — must recover inside the tightened (SPF-free) FRR budget:
/// detection + one FIB update, with the oracle's fixed slack on top.
#[test]
fn frr_recovers_a_single_link_within_the_tightened_bound() {
    let bed = TestBed::build(Design::F2Tree, 4, 1).expect("testbed builds");
    let pairs = dcn_chaos::monitor_endpoints(&bed.net);
    let (src, dst) = pairs[0];
    let key = bed
        .net
        .flow_key_with_port(src, dst, dcn_chaos::MONITOR_SPORTS[0], dcn_net::Protocol::Udp);
    let path = bed.net.trace(key, src, dst);
    let topo = bed.topology();
    let n = path.len();
    let culprit = topo
        .link_between(path[n - 3], path[n - 2])
        .expect("path hop is a link");
    let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
    let spec = ScenarioSpec {
        design: Design::F2Tree,
        k: 4,
        hosts_per_tor: 1,
        incidents: vec![Incident {
            kind: IncidentKind::SingleLink,
            events: vec![
                FailureEvent {
                    at: ms(100),
                    link: culprit,
                    up: false,
                },
                FailureEvent {
                    at: ms(700),
                    link: culprit,
                    up: true,
                },
            ],
        }],
    };
    let frr = EngineConfig {
        recovery: RecoveryMode::PrecomputedFrr,
        ..EngineConfig::default()
    };
    let outcome = run_scenario(&spec, &frr).expect("scenario runs");
    assert!(
        outcome.violations.is_empty(),
        "FRR repair must satisfy the tightened bound: {:?}",
        outcome.violations
    );
    assert!(outcome.stats.broken_windows > 0, "{:?}", outcome.stats);
    assert!(
        outcome.stats.max_window <= SimDuration::from_millis(130),
        "window {} exceeds the FRR budget",
        outcome.stats.max_window
    );
}

/// A fixed-seed 20-campaign FRR run is violation-free, pins every cell
/// to F²Tree, and renders byte-identically at different worker counts.
#[test]
fn frr_campaign_smoke_is_clean_and_worker_invariant() {
    let cfg = ChaosConfig {
        campaigns: 20,
        ..ChaosConfig::for_recovery(RecoveryMode::PrecomputedFrr)
    };
    let serial = run_chaos(&cfg, Workers::new(1)).expect("campaign builds");
    let parallel = run_chaos(&cfg, Workers::new(2)).expect("campaign builds");
    let text = serial.render();
    assert_eq!(text, parallel.render(), "worker count changed output");
    assert_eq!(serial.total_violations(), 0, "oracle violations:\n{text}");
    assert!(serial.results.iter().all(|r| r.design == Design::F2Tree));
    let windows: u64 = serial
        .results
        .iter()
        .map(|r| r.outcome.stats.broken_windows)
        .sum();
    assert!(windows > 0, "no scenario ever broke connectivity");
}

/// The quality observer's fixed-point scores may not depend on
/// scheduling: a fixed-seed campaign with the observer armed renders
/// byte-identical traces (and the same report) on 1 and 4 workers.
#[test]
fn quality_traces_are_worker_count_invariant() {
    let mut cfg = ChaosConfig {
        campaigns: 10,
        ..ChaosConfig::default()
    };
    cfg.engine.quality = true;
    let serial = run_chaos(&cfg, Workers::new(1)).expect("campaign builds");
    let parallel = run_chaos(&cfg, Workers::new(4)).expect("campaign builds");
    let traces = serial.render_quality();
    assert!(traces.contains("snapshot(s)"), "observer was armed:\n{traces}");
    assert_eq!(traces, parallel.render_quality(), "worker count changed the traces");
    assert_eq!(serial.render(), parallel.render(), "worker count changed output");
}

/// Sanity: scenario generation never emits a link outside the topology it
/// was generated for (the file format uses raw link indices).
#[test]
fn generated_links_exist_in_topology() {
    let cfg = dcn_chaos::CampaignConfig::default();
    let bed = TestBed::build(Design::F2Tree, cfg.k, cfg.hosts_per_tor).expect("testbed builds");
    assert!(bed.topology().layer_switches(Layer::Core).count() > 0);
    let mut rng = dcn_sim::SimRng::new(99);
    for _ in 0..10 {
        let spec =
            dcn_chaos::generate_scenario(Design::F2Tree, &mut rng, &cfg).expect("generates");
        for e in spec.schedule().into_sorted() {
            assert!(bed.topology().links().any(|l| l.id() == e.link));
        }
    }
}
