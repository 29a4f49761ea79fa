//! Scenario execution: play a [`ScenarioSpec`] through the emulator while
//! the oracles watch every FIB-affecting event.
//!
//! The engine single-steps the event loop ([`Network::step`]) and re-runs
//! the invariant checks only when [`Network::fib_epoch`] advances — i.e. at
//! exactly the moments forwarding state may have changed (physical link
//! transitions, local failure detection, FIB installations). Between
//! epochs the forwarding graph is frozen, so nothing is missed.

use std::fmt;

use dcn_emu::{EmuConfig, Network};
use dcn_net::{FlowKey, Layer, LinkId, NodeId, Protocol};
use dcn_routing::RecoveryMode;
use dcn_sim::{timers, SimDuration, SimTime};
use dcn_sweep::{ExperimentSpec, Workers};
use f2tree::{Design, TestBed, TestBedError};

use dcn_metrics::quality::QualityReport;

use crate::campaign::{generate_scenario, CampaignConfig};
use crate::oracle::{
    blackhole_bound, fib_spf_divergence, flood_graph_connected, routably_connected, same_lsdb,
    walk, Violation, ViolationKind, WalkOutcome,
};
use crate::quality::QualityTrace;
use crate::scenario::{design_token, ScenarioSpec};

/// Source ports of the monitored flow keys — three per host pair so the
/// monitors land on different ECMP paths.
pub const MONITOR_SPORTS: [u16; 3] = [41_000, 41_977, 42_313];

/// Bytes per tracked TCP transfer (the conservation-oracle workload).
pub const TRANSFER_BYTES: u64 = 256 * 1024;

/// Cap on recorded violations per scenario; a systemically broken run
/// would otherwise record one violation per monitor per epoch.
pub const MAX_VIOLATIONS: usize = 16;

/// Execution knobs for [`run_scenario`].
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Recovery discipline the emulated routers run (default: the
    /// design's own — F²Tree static backups where applicable). It also
    /// picks the oracle's blackhole budget: [`RecoveryMode::PrecomputedFrr`]
    /// arms the tightened (SPF-free) bound, every other mode keeps the
    /// reconvergence budget (see [`blackhole_bound`]).
    pub recovery: RecoveryMode,
    /// Score routing quality (expected load / oversubscription / path
    /// diversity) at every observed FIB epoch. Off by default: the
    /// observer never fails a run, but it does cost a FIB sweep per
    /// epoch.
    pub quality: bool,
    /// Replaces the computed per-window blackhole bound outright. Only
    /// used by tests that need a deliberately broken oracle to prove the
    /// shrinker finds a minimal reproducer.
    pub bound_override: Option<SimDuration>,
}

/// Aggregate counters from one scenario run (all simulation-derived, so
/// byte-deterministic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioStats {
    /// Emulator events processed.
    pub sim_events: u64,
    /// FIB epochs at which the oracles re-checked the network.
    pub epochs_checked: u64,
    /// Broken-connectivity windows that opened and closed.
    pub broken_windows: u64,
    /// Windows exempted because source and destination were disconnected
    /// in the dynamic-routing graph at some point during the window.
    pub excused_windows: u64,
    /// Longest non-excused window observed.
    pub max_window: SimDuration,
    /// Epochs at which some monitor's walk found a (transient) loop.
    pub loop_epochs: u64,
    /// Total TCP retransmissions across tracked transfers.
    pub retransmits: u64,
}

/// The result of running one scenario under the oracles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Oracle violations, in detection order (capped at
    /// [`MAX_VIOLATIONS`]).
    pub violations: Vec<Violation>,
    /// Run counters.
    pub stats: ScenarioStats,
    /// Routing-quality trajectory (baseline + every observed epoch);
    /// present only when [`EngineConfig::quality`] is armed.
    pub quality: Option<QualityTrace>,
}

impl ScenarioOutcome {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The deterministic monitored host pairs of a testbed: corner-to-corner
/// both ways plus two cross-pod pairs, covering up/down paths through
/// different pods.
pub fn monitor_endpoints(net: &Network) -> Vec<(NodeId, NodeId)> {
    let hosts = net.topology().hosts();
    let n = hosts.len();
    if n < 2 {
        return Vec::new();
    }
    let candidates = [
        (hosts[0], hosts[n - 1]),
        (hosts[n - 1], hosts[0]),
        (hosts[1 % n], hosts[n / 2]),
        (hosts[n / 2], hosts[n / 3]),
    ];
    let mut pairs = Vec::new();
    for (src, dst) in candidates {
        if src != dst && !pairs.contains(&(src, dst)) {
            pairs.push((src, dst));
        }
    }
    pairs
}

struct Monitor {
    key: FlowKey,
    src: NodeId,
    dst: NodeId,
    sport: u16,
    window: Option<Window>,
}

struct Window {
    start: SimTime,
    excused: bool,
    max_hold: SimDuration,
}

/// Why [`run_scenario`] refused a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec's `design`/`k`/`hosts_per_tor` do not describe a
    /// buildable testbed.
    TestBed(TestBedError),
    /// An event names a link the rebuilt topology lacks.
    UnknownLink(LinkId),
    /// An event lies so late that the run, drained after it, would
    /// overflow the simulation clock.
    TimeOverflow(SimTime),
}

impl From<TestBedError> for ScenarioError {
    fn from(e: TestBedError) -> Self {
        ScenarioError::TestBed(e)
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::TestBed(e) => write!(f, "testbed error: {e}"),
            ScenarioError::UnknownLink(link) => {
                write!(f, "scenario names link {}, which the topology lacks", link.index())
            }
            ScenarioError::TimeOverflow(at) => {
                write!(f, "scenario event at {at} runs past the end of the simulation clock")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Runs `spec` on a freshly built testbed with all oracles armed.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the spec's `design`/`k`/`hosts_per_tor` do
/// not describe a buildable testbed, an event names a link the topology
/// lacks, or the run would outlast the simulation clock.
pub fn run_scenario(
    spec: &ScenarioSpec,
    cfg: &EngineConfig,
) -> Result<ScenarioOutcome, ScenarioError> {
    let emu = EmuConfig::builder().recovery(cfg.recovery).build();
    let mut bed = TestBed::build_with_config(spec.design, spec.k, spec.hosts_per_tor, emu)?;
    let topo = bed.topology();
    for e in spec.incidents.iter().flat_map(|i| &i.events) {
        if e.link.index() >= topo.link_slots() || topo.link(e.link).is_removed() {
            return Err(ScenarioError::UnknownLink(e.link));
        }
    }
    let switches: Vec<NodeId> = [Layer::Tor, Layer::Agg, Layer::Core]
        .into_iter()
        .flat_map(|l| bed.topology().layer_switches(l))
        .collect();

    let pairs = monitor_endpoints(&bed.net);
    let mut monitors: Vec<Monitor> = Vec::new();
    for &(src, dst) in &pairs {
        for &sport in &MONITOR_SPORTS {
            monitors.push(Monitor {
                key: bed.net.flow_key_with_port(src, dst, sport, Protocol::Udp),
                src,
                dst,
                sport,
                window: None,
            });
        }
    }

    let schedule = spec.schedule();
    let phys_events: Vec<SimTime> = {
        let mut times: Vec<SimTime> = schedule
            .clone()
            .into_sorted()
            .iter()
            .map(|e| e.at)
            .collect();
        times.sort();
        times
    };
    let first_fail = phys_events.first().copied().unwrap_or(SimTime::ZERO);
    let last_event = spec.last_event_time();

    // Drain long enough for the worst deferred SPF after the last repair:
    // detection of the repair, a full max-length throttle hold, the SPF
    // scheduling delay, and the FIB installation delay.
    let drain = timers::DETECTION_DELAY
        + timers::SPF_MAX_HOLD
        + timers::SPF_INITIAL_DELAY
        + timers::FIB_UPDATE_DELAY;
    // No timer the run arms is longer than a minute, so a horizon in the
    // first half of the clock (292 years) leaves every one of them room.
    let horizon = last_event
        .max(first_fail)
        .as_nanos()
        .checked_add(drain.as_nanos())
        .filter(|&end| end <= u64::MAX / 2)
        .map(SimTime::from_nanos)
        .ok_or(ScenarioError::TimeOverflow(last_event))?;

    // TCP conservation workload: transfers that are mid-flight when the
    // first failure lands, start exactly at it, and start during the
    // ensuing reconvergence.
    let pre = first_fail.since(SimTime::ZERO).min(timers::DETECTION_DELAY);
    let starts = [
        first_fail - pre,
        first_fail,
        first_fail + timers::DETECTION_DELAY,
    ];
    let mut transfers = Vec::new();
    for (i, &(src, dst)) in pairs.iter().take(starts.len()).enumerate() {
        transfers.push(bed.net.add_transfer(src, dst, TRANSFER_BYTES, starts[i]));
    }

    bed.net.apply_failures(schedule);

    let mut stats = ScenarioStats::default();
    let mut violations: Vec<Violation> = Vec::new();
    let mut flood_ok = true;
    let mut last_epoch = bed.net.fib_epoch();

    // Quality baseline: the converged pre-failure forwarding state.
    let mut quality = if cfg.quality {
        let mut trace = QualityTrace::default();
        trace.push(
            bed.net.now(),
            last_epoch,
            QualityReport::compute(&bed.net.quality_input()),
        );
        Some(trace)
    } else {
        None
    };

    while let Some(now) = bed.net.step(horizon) {
        let epoch = bed.net.fib_epoch();
        if epoch == last_epoch {
            continue;
        }
        last_epoch = epoch;
        stats.epochs_checked += 1;

        if let Some(trace) = &mut quality {
            trace.push(now, epoch, QualityReport::compute(&bed.net.quality_input()));
        }

        let hold = max_hold(&bed.net, &switches);
        for m in &mut monitors {
            let outcome = walk(&bed.net, &m.key, m.src, m.dst);
            if outcome.is_reached() {
                if let Some(w) = m.window.take() {
                    close_window(
                        cfg,
                        &phys_events,
                        &mut stats,
                        &mut violations,
                        m,
                        w,
                        now,
                        hold,
                    );
                }
            } else {
                if matches!(outcome, WalkOutcome::Loop(_)) {
                    stats.loop_epochs += 1;
                }
                let excused = !routably_connected(&bed.net, m.src, m.dst);
                match &mut m.window {
                    None => {
                        m.window = Some(Window {
                            start: now,
                            excused,
                            max_hold: hold,
                        })
                    }
                    Some(w) => {
                        w.excused |= excused;
                        w.max_hold = w.max_hold.max(hold);
                    }
                }
            }
        }

        if flood_ok && !flood_graph_connected(&bed.net, &switches) {
            flood_ok = false;
        }

        check_tcp_conservation(&bed.net, &transfers, now, &mut violations);
    }

    // ---------------- quiescence checks ----------------
    let end = horizon;
    let hold = max_hold(&bed.net, &switches);
    for m in &mut monitors {
        let outcome = walk(&bed.net, &m.key, m.src, m.dst);
        if outcome.is_reached() {
            if let Some(w) = m.window.take() {
                close_window(
                    cfg,
                    &phys_events,
                    &mut stats,
                    &mut violations,
                    m,
                    w,
                    end,
                    hold,
                );
            }
            continue;
        }
        // Everything is repaired by construction, yet the walk still
        // fails. After a flood partition stale LSDBs can legitimately
        // leave the control plane unable to heal (no database exchange on
        // adjacency-up in this model) — count those as excused.
        if flood_ok {
            let kind = if matches!(outcome, WalkOutcome::Loop(_)) {
                ViolationKind::PersistentLoop
            } else {
                ViolationKind::BlackholeBound
            };
            record(
                &mut violations,
                Violation {
                    kind,
                    at: end,
                    detail: format!(
                        "{} -> {} sport {} still {:?} after quiescence",
                        m.src, m.dst, m.sport, outcome
                    ),
                },
            );
        } else {
            stats.excused_windows += 1;
        }
    }

    for &node in &switches {
        if let Some(diff) = fib_spf_divergence(&bed.net, node) {
            record(
                &mut violations,
                Violation {
                    kind: ViolationKind::FibMismatch,
                    at: end,
                    detail: diff,
                },
            );
        }
    }

    if flood_ok {
        if let Some((&reference, rest)) = switches.split_first() {
            for &node in rest {
                if !same_lsdb(&bed.net, node, reference) {
                    record(
                        &mut violations,
                        Violation {
                            kind: ViolationKind::LsdbDivergence,
                            at: end,
                            detail: format!("{node} LSDB differs from {reference:?}"),
                        },
                    );
                }
            }
        }
    }

    check_tcp_conservation(&bed.net, &transfers, end, &mut violations);
    for &flow in &transfers {
        let Some(s) = bed.net.tcp_flow_stats(flow) else {
            continue;
        };
        stats.retransmits += s.retransmits;
        if flood_ok && (!s.complete || s.delivered != s.total_bytes) {
            record(
                &mut violations,
                Violation {
                    kind: ViolationKind::IncompleteTransfer,
                    at: end,
                    detail: format!(
                        "transfer {flow:?}: {}/{} bytes delivered, complete={}",
                        s.delivered, s.total_bytes, s.complete
                    ),
                },
            );
        }
    }

    stats.sim_events = bed.net.events_processed();
    Ok(ScenarioOutcome {
        violations,
        stats,
        quality,
    })
}

fn max_hold(net: &Network, switches: &[NodeId]) -> SimDuration {
    switches
        .iter()
        .filter_map(|&n| net.router(n))
        .map(|r| r.throttle().hold())
        .max()
        .unwrap_or(SimDuration::ZERO)
}

#[allow(clippy::too_many_arguments)]
fn close_window(
    cfg: &EngineConfig,
    phys_events: &[SimTime],
    stats: &mut ScenarioStats,
    violations: &mut Vec<Violation>,
    m: &Monitor,
    w: Window,
    now: SimTime,
    hold_at_close: SimDuration,
) {
    stats.broken_windows += 1;
    if w.excused {
        stats.excused_windows += 1;
        return;
    }
    let duration = now.since(w.start);
    stats.max_window = stats.max_window.max(duration);
    let n_events = phys_events
        .iter()
        .filter(|&&t| t >= w.start && t <= now)
        .count() as u64;
    let bound = blackhole_bound(cfg, n_events, w.max_hold.max(hold_at_close));
    if duration > bound {
        record(
            violations,
            Violation {
                kind: ViolationKind::BlackholeBound,
                at: now,
                detail: format!(
                    "{} -> {} sport {}: black-holed {} > budget {} ({} phys event(s))",
                    m.src, m.dst, m.sport, duration, bound, n_events
                ),
            },
        );
    }
}

fn check_tcp_conservation(
    net: &Network,
    transfers: &[dcn_emu::FlowId],
    now: SimTime,
    violations: &mut Vec<Violation>,
) {
    for &flow in transfers {
        let Some(s) = net.tcp_flow_stats(flow) else {
            continue;
        };
        if s.acked > s.delivered || s.delivered > s.total_bytes {
            record(
                violations,
                Violation {
                    kind: ViolationKind::TcpConservation,
                    at: now,
                    detail: format!(
                        "transfer {flow:?}: acked={} delivered={} total={}",
                        s.acked, s.delivered, s.total_bytes
                    ),
                },
            );
        }
    }
}

fn record(violations: &mut Vec<Violation>, v: Violation) {
    if violations.len() < MAX_VIOLATIONS {
        violations.push(v);
    }
}

// ---------------------------------------------------------------------
// Campaign orchestration over the sweep worker pool
// ---------------------------------------------------------------------

/// Configuration of a whole chaos campaign.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Master seed; campaign `i` draws from the sweep stream
    /// `cell_rng(master_seed, i)`.
    pub master_seed: u64,
    /// Number of scenarios to generate and run.
    pub campaigns: usize,
    /// Scenario-generation knobs.
    pub campaign: CampaignConfig,
    /// Execution/oracle knobs.
    pub engine: EngineConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            master_seed: 20150701,
            campaigns: 200,
            campaign: CampaignConfig::default(),
            engine: EngineConfig::default(),
        }
    }
}

impl ChaosConfig {
    /// A campaign configured end-to-end for `recovery`: the engine builds
    /// testbeds in that mode (which picks the oracle bound), and the FRR
    /// mode additionally restricts generation to the single-failure-safe
    /// preset its loop-freedom guarantee is scoped to.
    pub fn for_recovery(recovery: RecoveryMode) -> Self {
        ChaosConfig {
            campaign: if recovery == RecoveryMode::PrecomputedFrr {
                CampaignConfig::single_failure()
            } else {
                CampaignConfig::default()
            },
            engine: EngineConfig {
                recovery,
                ..EngineConfig::default()
            },
            ..ChaosConfig::default()
        }
    }
}

/// One campaign's scenario and verdict.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Campaign index (also the sweep cell index).
    pub index: usize,
    /// Design the scenario ran on.
    pub design: Design,
    /// The generated scenario (replayable).
    pub spec: ScenarioSpec,
    /// The oracle verdict.
    pub outcome: ScenarioOutcome,
}

/// All campaign results, in index order.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Master seed the campaign ran under.
    pub master_seed: u64,
    /// Recovery discipline every scenario ran with.
    pub recovery: RecoveryMode,
    /// Per-campaign results, in campaign order.
    pub results: Vec<CampaignResult>,
}

impl ChaosReport {
    /// Total violations across all campaigns.
    pub fn total_violations(&self) -> usize {
        self.results.iter().map(|r| r.outcome.violations.len()).sum()
    }

    /// The campaigns whose oracles fired.
    pub fn violating(&self) -> impl Iterator<Item = &CampaignResult> {
        self.results.iter().filter(|r| !r.outcome.is_clean())
    }

    /// Renders the deterministic campaign summary (identical at any
    /// worker count).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos campaign: {} scenario(s), master seed {}, recovery {}\n",
            self.results.len(),
            self.master_seed,
            self.recovery
        ));
        for r in &self.results {
            let kinds: Vec<String> = r
                .spec
                .incidents
                .iter()
                .map(|i| i.kind.to_string())
                .collect();
            out.push_str(&format!(
                "  #{:<4} {:<8} incidents=[{}] events={} epochs={} windows={} excused={} \
                 max-window={} loops={} retx={} violations={}\n",
                r.index,
                design_token(r.design),
                kinds.join(","),
                r.spec.schedule().len(),
                r.outcome.stats.epochs_checked,
                r.outcome.stats.broken_windows,
                r.outcome.stats.excused_windows,
                r.outcome.stats.max_window,
                r.outcome.stats.loop_epochs,
                r.outcome.stats.retransmits,
                r.outcome.violations.len(),
            ));
            for v in &r.outcome.violations {
                out.push_str(&format!("        !! {v}\n"));
            }
        }
        out.push_str(&format!(
            "  total: {} violation(s) across {} scenario(s)\n",
            self.total_violations(),
            self.results.len()
        ));
        out
    }

    /// Renders the per-campaign quality traces (baseline + every FIB
    /// epoch), byte-identical at any worker count. Empty when the
    /// engine ran without the quality observer.
    pub fn render_quality(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let Some(trace) = &r.outcome.quality else {
                continue;
            };
            out.push_str(&format!(
                "  #{:<4} {:<8} quality ({} snapshot(s)):\n{}\n",
                r.index,
                design_token(r.design),
                trace.epochs.len(),
                trace
            ));
        }
        out
    }
}

/// Runs a full chaos campaign on the sweep worker pool: campaign `i`
/// alternates designs, generates its scenario from the cell's RNG stream,
/// and runs it under the oracles. Byte-deterministic at any worker count.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] any campaign hit (only possible
/// with an unbuildable `k`/`hosts_per_tor` configuration).
pub fn run_chaos(cfg: &ChaosConfig, workers: Workers) -> Result<ChaosReport, ScenarioError> {
    // FRR campaigns pin every cell to F²Tree: the across ring is what
    // gives the failure map its remote-LFA coverage, and the tightened
    // blackhole bound is only claimed where that coverage exists (plain
    // fat trees leave agg→ToR downlinks unprotectable by any local FRR).
    let frr = cfg.engine.recovery == RecoveryMode::PrecomputedFrr;
    let cells: Vec<(usize, Design)> = (0..cfg.campaigns)
        .map(|i| {
            (
                i,
                if !frr && i % 2 == 0 {
                    Design::FatTree
                } else {
                    Design::F2Tree
                },
            )
        })
        .collect();
    let plan = ExperimentSpec::new("chaos")
        .cells(cells)
        .master_seed(cfg.master_seed)
        .workers(workers)
        .build();
    let results: Vec<Result<CampaignResult, ScenarioError>> = plan.run(|ctx| {
        let &(index, design) = ctx.cell();
        let mut rng = ctx.rng();
        let spec = generate_scenario(design, &mut rng, &cfg.campaign)?;
        let outcome = run_scenario(&spec, &cfg.engine)?;
        Ok(CampaignResult {
            index,
            design,
            spec,
            outcome,
        })
    });
    Ok(ChaosReport {
        master_seed: cfg.master_seed,
        recovery: cfg.engine.recovery,
        results: results.into_iter().collect::<Result<Vec<_>, _>>()?,
    })
}
