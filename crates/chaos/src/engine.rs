//! Scenario execution: play a [`ScenarioSpec`] through the emulator while
//! the oracles watch every FIB-affecting event.
//!
//! The engine single-steps the event loop ([`Network::step`]) and re-runs
//! the invariant checks only when [`Network::fib_epoch`] advances — i.e. at
//! exactly the moments forwarding state may have changed (physical link
//! transitions, local failure detection, FIB installations). Between
//! epochs the forwarding graph is frozen, so nothing is missed.

use std::fmt;

use dcn_emu::{EmuConfig, FlowId, Network, WalkOutcome};
use dcn_net::{FlowKey, Layer, LinkId, NodeId, Protocol};
use dcn_routing::RecoveryMode;
use dcn_sim::{timers, SimDuration, SimTime};
use dcn_sweep::{ExperimentSpec, Workers};
use f2tree::{Design, TestBed, TestBedError};

use dcn_metrics::quality::QualityReport;

use crate::campaign::{generate_scenario, CampaignConfig};
use crate::oracle::{
    blackhole_bound, fib_spf_divergence, flood_graph_connected, routably_connected, same_lsdb,
    Trail, Violation, ViolationKind,
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
    /// in the dynamic-routing graph at some point during the window, plus
    /// monitors still broken at quiescence after a flood partition (their
    /// windows never close, so `broken_windows` does not count them).
    pub excused_windows: u64,
    /// Longest non-excused window observed.
    pub max_window: SimDuration,
    /// Monitor walks that found a (transient) loop, summed over epochs: an
    /// epoch counts once per looping monitor.
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
                write!(
                    f,
                    "scenario names link {}, which the topology lacks",
                    link.index()
                )
            }
            ScenarioError::TimeOverflow(at) => {
                write!(
                    f,
                    "scenario event at {at} runs past the end of the simulation clock"
                )
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
    let mut phys_events = Vec::new();
    for e in spec.incidents.iter().flat_map(|i| &i.events) {
        if e.link.index() >= topo.link_slots() || topo.link(e.link).is_removed() {
            return Err(ScenarioError::UnknownLink(e.link));
        }
        phys_events.push(e.at);
    }
    phys_events.sort_unstable();
    let last_event = phys_events.last().copied().unwrap_or(SimTime::ZERO);

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
        .as_nanos()
        .checked_add(drain.as_nanos())
        .filter(|&end| end <= u64::MAX / 2)
        .map(SimTime::from_nanos)
        .ok_or(ScenarioError::TimeOverflow(last_event))?;

    let mut oracles = Oracles::arm(cfg, &mut bed.net, phys_events);
    bed.net.apply_failures(spec.schedule());

    let mut last_epoch = bed.net.fib_epoch();
    // Quality baseline: the converged pre-failure forwarding state.
    let mut quality = cfg.quality.then(|| {
        let mut trace = QualityTrace::default();
        let report = QualityReport::compute(&bed.net.quality_input());
        trace.push(bed.net.now(), last_epoch, report);
        trace
    });

    while let Some(now) = bed.net.step(horizon) {
        let epoch = bed.net.fib_epoch();
        if epoch == last_epoch {
            continue;
        }
        last_epoch = epoch;
        if let Some(trace) = &mut quality {
            trace.push(now, epoch, QualityReport::compute(&bed.net.quality_input()));
        }
        oracles.epoch(&bed.net, now);
    }

    let (violations, stats) = oracles.quiesce(&bed.net, horizon);
    Ok(ScenarioOutcome {
        violations,
        stats,
        quality,
    })
}

/// One monitored flow key and its open broken-connectivity window.
struct Monitor {
    key: FlowKey,
    src: NodeId,
    dst: NodeId,
    window: Option<Window>,
    /// The last walk, reused while nothing on it changes.
    trail: Trail,
    /// Whether the pair is cut apart in the dynamic-routing graph, once
    /// asked at the current link state.
    cut: Option<bool>,
}

/// An interval during which a monitor's walk has not reached its
/// destination.
struct Window {
    start: SimTime,
    /// The pair was cut apart in the dynamic-routing graph at some epoch.
    excused: bool,
    /// Largest SPF throttle hold armed at any epoch of the window.
    max_hold: SimDuration,
}

/// Everything the oracles keep across one run. [`Oracles::epoch`] runs at
/// every FIB epoch and [`Oracles::quiesce`] once at the horizon.
struct Oracles<'a> {
    switches: Vec<NodeId>,
    monitors: Vec<Monitor>,
    /// The conservation workload's TCP transfers.
    transfers: Vec<FlowId>,
    /// No epoch so far has seen the flood graph partitioned.
    flood_ok: bool,
    /// Every link's up state at the last epoch: the flood graph and the
    /// monitors' cuts read nothing else.
    links_up: Vec<bool>,
    verdict: Verdict<'a>,
}

/// What the oracles have found so far, and the timeline windows are
/// judged against.
struct Verdict<'a> {
    cfg: &'a EngineConfig,
    /// Times of the scenario's physical link events, sorted.
    phys_events: Vec<SimTime>,
    stats: ScenarioStats,
    violations: Vec<Violation>,
}

impl<'a> Oracles<'a> {
    /// Sets up the monitors of `net`'s host pairs and installs the TCP
    /// conservation workload: transfers that are mid-flight when the
    /// first failure lands, start exactly at it, and start during the
    /// ensuing reconvergence.
    fn arm(cfg: &'a EngineConfig, net: &mut Network, phys_events: Vec<SimTime>) -> Self {
        let switches = [Layer::Tor, Layer::Agg, Layer::Core]
            .into_iter()
            .flat_map(|l| net.topology().layer_switches(l))
            .collect();
        let pairs = monitor_endpoints(net);
        let monitors = pairs
            .iter()
            .flat_map(|&(src, dst)| MONITOR_SPORTS.map(|sport| (src, dst, sport)))
            .map(|(src, dst, sport)| Monitor {
                key: net.flow_key_with_port(src, dst, sport, Protocol::Udp),
                src,
                dst,
                window: None,
                trail: Trail::default(),
                cut: None,
            })
            .collect();
        let first_fail = phys_events.first().copied().unwrap_or(SimTime::ZERO);
        let pre = first_fail.since(SimTime::ZERO).min(timers::DETECTION_DELAY);
        let starts = [
            first_fail - pre,
            first_fail,
            first_fail + timers::DETECTION_DELAY,
        ];
        let transfers = pairs
            .iter()
            .zip(starts)
            .map(|(&(src, dst), at)| net.add_transfer(src, dst, TRANSFER_BYTES, at))
            .collect();
        Oracles {
            switches,
            monitors,
            transfers,
            flood_ok: true,
            links_up: Vec::new(),
            verdict: Verdict {
                cfg,
                phys_events,
                stats: ScenarioStats::default(),
                violations: Vec::new(),
            },
        }
    }

    /// Re-checks `net` after its forwarding state changed at `now`: the
    /// monitors, the flood graph and TCP conservation.
    fn epoch(&mut self, net: &Network, now: SimTime) {
        self.verdict.stats.epochs_checked += 1;
        let up = || {
            net.topology()
                .links()
                .map(|l| net.link_state(l.id()).is_up())
        };
        if self.links_up.is_empty() || !self.links_up.iter().copied().eq(up()) {
            self.links_up = up().collect();
            self.monitors.iter_mut().for_each(|m| m.cut = None);
            self.flood_ok = self.flood_ok && flood_graph_connected(net, &self.switches);
        }
        self.walk_monitors(net, now, false);
        self.check_tcp_conservation(net, now);
    }

    /// The checks once every link is repaired and the control plane has
    /// drained at `end`; returns the run's verdict.
    fn quiesce(mut self, net: &Network, end: SimTime) -> (Vec<Violation>, ScenarioStats) {
        self.walk_monitors(net, end, true);
        for &node in &self.switches {
            if let Some(diff) = fib_spf_divergence(net, node) {
                self.verdict.record(ViolationKind::FibMismatch, end, diff);
            }
        }
        if let (true, Some((&reference, rest))) = (self.flood_ok, self.switches.split_first()) {
            for &node in rest {
                if !same_lsdb(net, node, reference) {
                    let detail = format!("{node} LSDB differs from {reference:?}");
                    self.verdict
                        .record(ViolationKind::LsdbDivergence, end, detail);
                }
            }
        }
        self.check_tcp_conservation(net, end);
        for &flow in &self.transfers {
            let Some(s) = net.tcp_flow_stats(flow) else {
                continue;
            };
            self.verdict.stats.retransmits += s.retransmits;
            if self.flood_ok && (!s.complete || s.delivered != s.total_bytes) {
                let detail = format!(
                    "transfer {flow:?}: {}/{} bytes delivered, complete={}",
                    s.delivered, s.total_bytes, s.complete
                );
                self.verdict
                    .record(ViolationKind::IncompleteTransfer, end, detail);
            }
        }
        self.verdict.stats.sim_events = net.events_processed();
        (self.verdict.violations, self.verdict.stats)
    }

    /// Walks every monitor at `now` and closes the window of each one the
    /// walk reaches. Before quiescence an unreached monitor opens or
    /// extends its window; once `settled`, it is a violation, unless the
    /// flood graph was ever partitioned: stale LSDBs can then legitimately
    /// leave the control plane unable to heal (no database exchange on
    /// adjacency-up in this model), and the monitor counts as excused.
    fn walk_monitors(&mut self, net: &Network, now: SimTime, settled: bool) {
        let hold = self
            .switches
            .iter()
            .filter_map(|&n| Some(net.router(n)?.throttle().hold()))
            .max()
            .unwrap_or_default();
        for m in &mut self.monitors {
            let outcome = m.trail.walk(net, &m.key, m.src, m.dst);
            let looped = matches!(outcome, WalkOutcome::Loop(_));
            if outcome == WalkOutcome::Reached {
                if let Some(w) = m.window.take() {
                    self.verdict.close(m, w, now, hold);
                }
            } else if settled && self.flood_ok {
                let kind = match outcome {
                    WalkOutcome::Loop(_) => ViolationKind::PersistentLoop,
                    _ => ViolationKind::BlackholeBound,
                };
                let detail = format!(
                    "{} -> {} sport {} still {:?} after quiescence",
                    m.src, m.dst, m.key.src_port, outcome
                );
                self.verdict.record(kind, now, detail);
            } else if settled {
                self.verdict.stats.excused_windows += 1;
            } else {
                self.verdict.stats.loop_epochs += u64::from(looped);
                let excused = *m
                    .cut
                    .get_or_insert_with(|| !routably_connected(net, m.src, m.dst));
                let w = m.window.get_or_insert(Window {
                    start: now,
                    excused,
                    max_hold: hold,
                });
                w.excused |= excused;
                w.max_hold = w.max_hold.max(hold);
            }
        }
    }

    fn check_tcp_conservation(&mut self, net: &Network, now: SimTime) {
        for &flow in &self.transfers {
            let Some(s) = net.tcp_flow_stats(flow) else {
                continue;
            };
            if s.acked > s.delivered || s.delivered > s.total_bytes {
                let detail = format!(
                    "transfer {flow:?}: acked={} delivered={} total={}",
                    s.acked, s.delivered, s.total_bytes
                );
                self.verdict
                    .record(ViolationKind::TcpConservation, now, detail);
            }
        }
    }
}

impl Verdict<'_> {
    /// Closes monitor `m`'s window `w` at `now`, with `hold` the SPF
    /// throttle hold armed at closing, and holds it to the blackhole
    /// budget unless it is excused.
    fn close(&mut self, m: &Monitor, w: Window, now: SimTime, hold: SimDuration) {
        self.stats.broken_windows += 1;
        if w.excused {
            self.stats.excused_windows += 1;
            return;
        }
        let duration = now.since(w.start);
        self.stats.max_window = self.stats.max_window.max(duration);
        let n_events = self
            .phys_events
            .iter()
            .filter(|&&t| t >= w.start && t <= now)
            .count() as u64;
        let bound = blackhole_bound(self.cfg, n_events, w.max_hold.max(hold));
        if duration > bound {
            let detail = format!(
                "{} -> {} sport {}: black-holed {} > budget {} ({} phys event(s))",
                m.src, m.dst, m.key.src_port, duration, bound, n_events
            );
            self.record(ViolationKind::BlackholeBound, now, detail);
        }
    }

    /// Records a violation, keeping at most [`MAX_VIOLATIONS`].
    fn record(&mut self, kind: ViolationKind, at: SimTime, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { kind, at, detail });
        }
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
        self.results
            .iter()
            .map(|r| r.outcome.violations.len())
            .sum()
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
