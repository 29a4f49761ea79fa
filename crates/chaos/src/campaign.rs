//! Seeded generation of chaos scenarios.
//!
//! A campaign is a stream of [`ScenarioSpec`]s, scenario `i` drawn from
//! its sweep cell's [`SimRng`] (`dcn_sweep::cell_rng(master_seed, i)`)
//! with `gen_index` / `choose`: the same seed always yields byte-identical
//! scenarios, so any campaign index that trips an oracle can be
//! regenerated (and then shrunk) without having stored anything but
//! `(master_seed, index)`.
//!
//! Every timing parameter is arithmetic over the protocol timer constants
//! in [`dcn_sim::timers`] rather than a fresh literal: chaos timing is
//! only meaningful relative to the detection / SPF / FIB-update budget
//! the oracles reason about.

use dcn_failure::{fabric_links, switch_links, FailureEvent};
use dcn_net::{assign_addresses, FatTree, Layer, LinkId, Topology};
use dcn_sim::{timers, SimDuration, SimRng, SimTime};
use f2tree::{Design, F2TreeNetwork, TestBedError};

use crate::scenario::{Incident, IncidentKind, ScenarioSpec};

/// Incidents per scenario are uniform in `1..=MAX_INCIDENTS`.
const MAX_INCIDENTS: usize = 3;

/// Quiet lead-in before the first incident starts: half an SPF delay.
const FIRST_FAIL_AFTER: SimDuration =
    SimDuration::from_nanos(timers::SPF_INITIAL_DELAY.as_nanos() / 2);

/// Shortest link outage: half the detection delay, so some failures are
/// transient ones the control plane never sees.
const MIN_OUTAGE: SimDuration = SimDuration::from_nanos(timers::DETECTION_DELAY.as_nanos() / 2);

/// Longest link outage: six SPF delays.
const MAX_OUTAGE: SimDuration = SimDuration::from_nanos(timers::SPF_INITIAL_DELAY.as_nanos() * 6);

/// The knobs scenario generation varies.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Fat-tree arity of the generated testbeds.
    pub k: u32,
    /// Hosts per ToR.
    pub hosts_per_tor: u32,
    /// Base spacing between incident start times (jittered upward).
    pub incident_spacing: SimDuration,
    /// Incident kinds the generator draws from (uniformly).
    pub kinds: Vec<IncidentKind>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            k: 4,
            hosts_per_tor: 1,
            incident_spacing: timers::SPF_INITIAL_DELAY * 2,
            kinds: IncidentKind::ALL.to_vec(),
        }
    }
}

impl CampaignConfig {
    /// The single-failure-safe preset the FRR campaigns run under: only
    /// incident kinds that keep **at most one link down at any instant**
    /// (a lone outage, or one link flapping), spaced widely enough that
    /// consecutive incidents can never overlap. The LFA loop-freedom
    /// guarantee — and therefore the tightened FRR blackhole bound — is a
    /// single-failure property, so the generator must not manufacture
    /// multi-failure states the precomputed map never claimed to cover.
    pub fn single_failure() -> Self {
        let base = CampaignConfig::default();
        // Worst-case incident footprint is a flap: up to 4 cycles of
        // (MIN_OUTAGE + 2×detection) down + (detection + SPF initial) up
        // ≈ 1.64 s; 9 SPF-initial units (1.8 s) of spacing clears it, and
        // jitter only pushes incidents further apart.
        CampaignConfig {
            incident_spacing: timers::SPF_INITIAL_DELAY * 9,
            kinds: vec![IncidentKind::SingleLink, IncidentKind::Flap],
            ..base
        }
    }
}

/// Generates one scenario for `design` from `rng`.
///
/// Builds the design's topology to learn the link/switch inventory, then
/// samples 1..=3 incidents over the five [`IncidentKind`]s.
///
/// # Errors
///
/// Returns [`TestBedError`] if `cfg.k`/`cfg.hosts_per_tor` do not describe
/// a buildable testbed.
pub fn generate_scenario(
    design: Design,
    rng: &mut SimRng,
    cfg: &CampaignConfig,
) -> Result<ScenarioSpec, TestBedError> {
    let topo = &topology(design, cfg)?;
    let fabric = fabric_links(topo);
    let switches: Vec<_> = [Layer::Tor, Layer::Agg, Layer::Core]
        .into_iter()
        .flat_map(|l| topo.layer_switches(l))
        .collect();

    let n_incidents = 1 + rng.gen_index(MAX_INCIDENTS);
    let mut incidents = Vec::with_capacity(n_incidents);
    let mut cursor = SimTime::ZERO + FIRST_FAIL_AFTER;
    for _ in 0..n_incidents {
        let kind = *rng.choose(&cfg.kinds);
        let events = match kind {
            IncidentKind::SingleLink => single_link(rng, cursor, &fabric),
            IncidentKind::CorrelatedLinks => correlated_links(rng, cursor, &fabric),
            IncidentKind::SwitchDown => {
                let node = *rng.choose(&switches);
                let outage = outage(rng);
                let mut events = Vec::new();
                for link in switch_links(topo, node) {
                    events.push(down(cursor, link));
                    events.push(up(cursor + outage, link));
                }
                events
            }
            IncidentKind::Flap => flap(rng, cursor, &fabric),
            IncidentKind::Reconvergence => reconvergence(rng, cursor, &fabric),
        };
        incidents.push(Incident { kind, events });
        cursor = cursor + cfg.incident_spacing + jitter(rng, cfg.incident_spacing);
    }

    Ok(ScenarioSpec {
        design,
        k: cfg.k,
        hosts_per_tor: cfg.hosts_per_tor,
        incidents,
    })
}

/// The topology of the testbed `design` builds at `cfg`'s scale — the
/// links and switches a scenario names — without the testbed: no
/// routers, SPF, FIB or backup routes. Addressed as the testbed is, so an
/// unaddressable scale is the same error.
fn topology(design: Design, cfg: &CampaignConfig) -> Result<Topology, TestBedError> {
    let mut topo = match design {
        Design::FatTree => FatTree::new(cfg.k)?
            .hosts_per_tor(cfg.hosts_per_tor)
            .build(),
        Design::F2Tree => F2TreeNetwork::build_with_hosts(cfg.k, cfg.hosts_per_tor)?.topology,
    };
    assign_addresses(&mut topo)?;
    Ok(topo)
}

fn down(at: SimTime, link: LinkId) -> FailureEvent {
    FailureEvent {
        at,
        link,
        up: false,
    }
}

fn up(at: SimTime, link: LinkId) -> FailureEvent {
    FailureEvent { at, link, up: true }
}

// Microsecond-quantized so scenarios survive the µs-granular file format
// byte-exactly (render → parse → render is the identity).
fn jitter(rng: &mut SimRng, max: SimDuration) -> SimDuration {
    SimDuration::from_micros(rng.gen_index(max.as_micros().max(1) as usize) as u64)
}

fn outage(rng: &mut SimRng) -> SimDuration {
    MIN_OUTAGE + jitter(rng, MAX_OUTAGE.saturating_sub(MIN_OUTAGE))
}

fn pick(rng: &mut SimRng, pool: &mut Vec<LinkId>) -> LinkId {
    pool.swap_remove(rng.gen_index(pool.len()))
}

fn single_link(rng: &mut SimRng, t0: SimTime, fabric: &[LinkId]) -> Vec<FailureEvent> {
    let link = *rng.choose(fabric);
    let outage = outage(rng);
    vec![down(t0, link), up(t0 + outage, link)]
}

fn correlated_links(rng: &mut SimRng, t0: SimTime, fabric: &[LinkId]) -> Vec<FailureEvent> {
    let n = (2 + rng.gen_index(3)).min(fabric.len());
    let mut pool = fabric.to_vec();
    let mut events = Vec::with_capacity(2 * n);
    for _ in 0..n {
        let link = pick(rng, &mut pool);
        // Near-simultaneous: all failures land inside one detection window.
        let start = t0 + jitter(rng, timers::DETECTION_DELAY / 2);
        let outage = outage(rng);
        events.push(down(start, link));
        events.push(up(start + outage, link));
    }
    events
}

fn flap(rng: &mut SimRng, t0: SimTime, fabric: &[LinkId]) -> Vec<FailureEvent> {
    let link = *rng.choose(fabric);
    let cycles = 2 + rng.gen_index(3);
    let mut at = t0;
    let mut events = Vec::new();
    for _ in 0..cycles {
        let down_for = MIN_OUTAGE + jitter(rng, timers::DETECTION_DELAY * 2);
        let up_for = timers::DETECTION_DELAY + jitter(rng, timers::SPF_INITIAL_DELAY);
        events.push(down(at, link));
        events.push(up(at + down_for, link));
        at = at + down_for + up_for;
    }
    events
}

fn reconvergence(rng: &mut SimRng, t0: SimTime, fabric: &[LinkId]) -> Vec<FailureEvent> {
    let mut pool = fabric.to_vec();
    let first = pick(rng, &mut pool);
    let second = pick(rng, &mut pool);
    // The second failure lands after the first has been detected but while
    // SPF scheduling / FIB installation is still in flight.
    let second_at = t0 + timers::DETECTION_DELAY + jitter(rng, timers::SPF_INITIAL_DELAY);
    let first_outage = outage(rng);
    let second_outage = outage(rng);
    vec![
        down(t0, first),
        up(t0 + first_outage, first),
        down(second_at, second),
        up(second_at + second_outage, second),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_scenario() {
        let cfg = CampaignConfig::default();
        for design in [Design::FatTree, Design::F2Tree] {
            let a = generate_scenario(design, &mut SimRng::new(7), &cfg).unwrap();
            let b = generate_scenario(design, &mut SimRng::new(7), &cfg).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn single_failure_preset_keeps_at_most_one_link_down() {
        let cfg = CampaignConfig::single_failure();
        let mut rng = SimRng::new(20150701);
        for i in 0..30u64 {
            let design = if i % 2 == 0 {
                Design::FatTree
            } else {
                Design::F2Tree
            };
            let spec = generate_scenario(design, &mut rng, &cfg).unwrap();
            for inc in &spec.incidents {
                assert!(matches!(
                    inc.kind,
                    IncidentKind::SingleLink | IncidentKind::Flap
                ));
            }
            // Sweep the sorted event stream: the set of concurrently-down
            // links must never exceed one.
            let mut down = std::collections::BTreeSet::new();
            for e in spec.schedule().into_sorted().iter() {
                if e.up {
                    down.remove(&e.link);
                } else {
                    down.insert(e.link);
                }
                assert!(
                    down.len() <= 1,
                    "{} links down at {} in {spec:?}",
                    down.len(),
                    e.at
                );
            }
        }
    }

    /// What a scenario draws from is what the testbed it runs on has.
    #[test]
    fn the_inventory_is_the_testbeds() {
        for design in [Design::FatTree, Design::F2Tree] {
            for k in [4, 6, 8] {
                let cfg = CampaignConfig {
                    k,
                    ..CampaignConfig::default()
                };
                let topo = topology(design, &cfg).unwrap();
                let bed = f2tree::TestBed::build(design, k, cfg.hosts_per_tor).unwrap();
                assert_eq!(fabric_links(&topo), bed.fabric_links(), "{design} k={k}");
                for layer in [Layer::Tor, Layer::Agg, Layer::Core] {
                    let have: Vec<_> = topo.layer_switches(layer).collect();
                    let want: Vec<_> = bed.topology().layer_switches(layer).collect();
                    assert_eq!(have, want, "{design} k={k} {layer:?}");
                }
            }
        }
    }

    #[test]
    fn bad_scales_are_the_testbeds_errors() {
        let rng = &mut SimRng::new(1);
        for k in [0, 3, 7] {
            let cfg = CampaignConfig {
                k,
                ..CampaignConfig::default()
            };
            for design in [Design::FatTree, Design::F2Tree] {
                let err = generate_scenario(design, rng, &cfg).unwrap_err();
                let want = f2tree::TestBed::build(design, k, cfg.hosts_per_tor).unwrap_err();
                assert_eq!(err, want, "{design} k={k}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = CampaignConfig::default();
        let a = generate_scenario(Design::FatTree, &mut SimRng::new(1), &cfg).unwrap();
        let b = generate_scenario(Design::FatTree, &mut SimRng::new(2), &cfg).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn scenarios_are_well_formed() {
        let cfg = CampaignConfig::default();
        let mut rng = SimRng::new(42);
        for i in 0..40u64 {
            let design = if i % 2 == 0 {
                Design::FatTree
            } else {
                Design::F2Tree
            };
            let spec = generate_scenario(design, &mut rng, &cfg).unwrap();
            assert!(!spec.incidents.is_empty());
            assert!(spec.incidents.len() <= MAX_INCIDENTS);
            let schedule = spec.schedule();
            assert!(schedule.failure_count() >= 1);
            // Every down event has a matching later up event for its link.
            for inc in &spec.incidents {
                for e in inc.events.iter().filter(|e| !e.up) {
                    assert!(
                        inc.events.iter().any(|r| r.up && r.link == e.link && r.at > e.at),
                        "unrepaired link {:?} in {:?}",
                        e.link,
                        inc.kind
                    );
                }
                assert!(inc.events.iter().all(|e| e.at > SimTime::ZERO));
            }
            // Round-trips through the scenario file format.
            assert_eq!(ScenarioSpec::parse(&spec.render()).unwrap(), spec);
        }
    }
}
