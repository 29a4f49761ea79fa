//! Fig. 4 + Fig. 5 + Table IV on the 8-port DCN, and the condition grid
//! behind them.
//!
//! For each condition C1–C7 (Table IV) a cell injects the resolved link
//! failures at a fixed instant and measures the paper's three Fig. 4
//! metrics (connectivity-loss duration, UDP packets lost, TCP throughput
//! collapse), the Fig. 5 end-to-end delay series, and the routing
//! quality before, during and after the failover. The grid is the plain
//! fat tree under OSPF on C1–C5 (C6/C7 involve across links and exist
//! only on F²Tree) plus F²Tree under every recovery mode on C1–C7. Fig. 4,
//! Fig. 5, the mode comparison ([`crate::recovery`]) and the quality grid
//! ([`crate::quality`]) are [`View`]s that look cells up by (design, mode,
//! condition); [`ConditionGrid::run`] runs each cell its views read once.

use dcn_emu::{EmuConfig, FlowId};
use dcn_failure::Condition;
use dcn_metrics::quality::QualityReport;
use dcn_metrics::ThroughputSeries;
use dcn_routing::RecoveryMode;
use dcn_sim::{timers, SimDuration, SimTime};
use dcn_sweep::{ExperimentSpec, Workers};
use f2tree::{Design, TestBed};
use serde::{Deserialize, Serialize};

use crate::plot::sparkline;

/// Parameters of the condition sweep (defaults match the paper: k = 8).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConditionConfig {
    /// Switch port count (paper: 8).
    pub k: u32,
    /// Hosts per ToR.
    pub hosts_per_tor: u32,
    /// Failure instant (paper Fig. 5 uses 100 ms).
    pub fail_at_ms: u64,
    /// Experiment horizon.
    pub horizon_ms: u64,
    /// Throughput bin width.
    pub bin_ms: u64,
    /// Fig. 5 delay down-sampling window.
    pub delay_window_ms: u64,
    /// Recovery discipline bridging detection and reconvergence — the
    /// paper's independent variable.
    pub recovery: RecoveryMode,
}

impl Default for ConditionConfig {
    fn default() -> Self {
        ConditionConfig {
            k: 8,
            hosts_per_tor: 4,
            fail_at_ms: 100,
            horizon_ms: 2000,
            bin_ms: 20,
            // Fig. 5 presentation window; coincides with FIB_UPDATE_DELAY's
            // magnitude but is not a protocol timer.
            delay_window_ms: 10,
            recovery: RecoveryMode::default(),
        }
    }
}

impl ConditionConfig {
    /// The emulator configuration this sweep cell runs under (paper
    /// defaults plus the selected recovery mode).
    pub fn emu_config(&self) -> EmuConfig {
        EmuConfig::builder().recovery(self.recovery).build()
    }

    pub(crate) fn fail_at(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(self.fail_at_ms)
    }

    pub(crate) fn horizon(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(self.horizon_ms)
    }
}

/// The measured outcome of one (design, condition) cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConditionResult {
    /// Which design.
    pub design: Design,
    /// Condition label ("C1".."C7").
    pub condition: String,
    /// Which §II-C condition class it belongs to (Table IV column 3).
    pub paper_condition: u8,
    /// Links failed.
    pub failed_links: usize,
    /// Fig. 4(a): duration of connectivity loss in µs (None = the probe
    /// never recovered within the horizon).
    pub connectivity_loss_us: Option<u64>,
    /// Fig. 4(b): UDP packets lost.
    pub packets_lost: u64,
    /// Fig. 4(c): TCP throughput collapse in µs.
    pub throughput_collapse_us: Option<u64>,
    /// Fig. 5: `(time_ms, mean_delay_us)` points; `None` delay = gap.
    pub delay_series: Vec<(u64, Option<f64>)>,
    /// Quantized max fabric-edge load of the converged pre-failure
    /// routing (see `dcn_metrics::quality`).
    pub healthy_max_load: u64,
    /// Quantized max fabric-edge load at the mid-failover snapshot —
    /// after fast reroute has activated, before OSPF reconverges. The
    /// congestion price of the repair paths.
    pub post_failover_max_load: u64,
    /// Quantized demand undeliverable at the mid-failover snapshot
    /// (blackholed while the recovery discipline has no repair path).
    pub post_failover_undeliverable: u64,
}

/// The mid-failover observation offset after the failure instant:
/// halfway through the OSPF reconvergence pipeline (detection + SPF
/// scheduling + FIB install). Fast-reroute disciplines have activated
/// their repair paths by then (detection-bounded), while plain OSPF has
/// not yet installed new routes — the snapshot that separates them.
pub fn mid_failover_offset() -> SimDuration {
    (timers::DETECTION_DELAY + timers::SPF_INITIAL_DELAY + timers::FIB_UPDATE_DELAY) / 2
}

/// One condition cell run to its horizon: the bed as it stands there,
/// the two aligned probes, and the routing-quality reports that bracket
/// the failure. Shared by [`run_condition`], the grid cell and Table III.
pub(crate) struct ConditionRun {
    pub(crate) bed: TestBed,
    pub(crate) udp: FlowId,
    pub(crate) tcp: FlowId,
    /// Links the condition resolved to (all failed at `fail_at_ms`).
    pub(crate) failed_links: usize,
    /// Converged pre-failure score.
    pub(crate) healthy: QualityReport,
    /// Mid-failover score, [`mid_failover_offset`] after the failure.
    pub(crate) failover: QualityReport,
}

/// Builds the bed, resolves `condition` against the probe path, fails
/// its links at `fail_at_ms` and runs to the horizon.
pub(crate) fn run_condition_bed(
    design: Design,
    condition: Condition,
    config: &ConditionConfig,
) -> ConditionRun {
    let fail_at = config.fail_at();

    #[expect(
        clippy::expect_used,
        reason = "ConditionConfig scales (k=8 class) are valid and addressable; \
                  a bad hand-written config should fail loudly"
    )]
    let mut bed =
        TestBed::build_with_config(design, config.k, config.hosts_per_tor, config.emu_config())
            .expect("condition sweep testbed builds");
    // Both probes are pinned onto one forwarding path, as in the paper's
    // testbed, and the condition is resolved against that shared path.
    let (udp, tcp) = bed.add_aligned_probes(SimTime::ZERO);
    let anatomy = bed.path_anatomy(udp);
    let links = bed.scenario_links(&anatomy, condition);
    for &link in &links {
        bed.net.fail_link_at(fail_at, link);
    }

    // Routing-quality snapshots bracket the failure: the converged
    // pre-failure baseline, then the mid-failover state (run_until is a
    // step loop, so splitting it at the snapshot instant is
    // behavior-identical to one uninterrupted run).
    let healthy = QualityReport::compute(&bed.net.quality_input());
    bed.net.run_until(fail_at + mid_failover_offset());
    let failover = QualityReport::compute(&bed.net.quality_input());
    bed.net.run_until(config.horizon());

    ConditionRun {
        bed,
        udp,
        tcp,
        failed_links: links.len(),
        healthy,
        failover,
    }
}

/// The paper's three recovery metrics, read off one run (Fig. 4's bars,
/// Table III's columns).
pub(crate) struct Recovery {
    /// Duration of connectivity loss in µs (None = never recovered).
    pub(crate) loss_us: Option<u64>,
    /// UDP packets lost.
    pub(crate) packets_lost: u64,
    /// TCP throughput collapse in µs (None = never recovered).
    pub(crate) collapse_us: Option<u64>,
    /// The TCP probe's delivery series the collapse is read from.
    pub(crate) tcp_series: ThroughputSeries,
}

impl ConditionRun {
    /// Measures the run's probes against the failure at `fail_at_ms`.
    pub(crate) fn recovery(&self, config: &ConditionConfig) -> Recovery {
        let net = &self.bed.net;
        let report = net.udp_probe_report(self.udp);
        let mut tcp_series = ThroughputSeries::new();
        tcp_series.extend_from_log(net.tcp_delivery_log(self.tcp));
        let collapse = tcp_series.collapse_duration(
            SimTime::ZERO,
            config.fail_at(),
            config.horizon(),
            SimDuration::from_millis(config.bin_ms),
        );
        Recovery {
            loss_us: report
                .connectivity
                .loss_around(config.fail_at())
                .map(|l| l.duration.as_micros()),
            packets_lost: report.lost,
            collapse_us: collapse.map(|c| c.as_micros()),
            tcp_series,
        }
    }

    /// Everything [`run_condition`] reports about the run.
    fn result(
        &self,
        design: Design,
        condition: Condition,
        config: &ConditionConfig,
    ) -> ConditionResult {
        let recovery = self.recovery(config);
        let delay_series = self
            .bed
            .net
            .udp_probe_report(self.udp)
            .delay
            .downsample(
                SimTime::ZERO,
                config.horizon(),
                SimDuration::from_millis(config.delay_window_ms),
            )
            .into_iter()
            .map(|(t, d)| {
                (
                    t.as_nanos() / 1_000_000,
                    d.map(|d| d.as_nanos() as f64 / 1e3),
                )
            })
            .collect();

        ConditionResult {
            design,
            condition: condition.to_string(),
            paper_condition: condition.paper_condition(),
            failed_links: self.failed_links,
            connectivity_loss_us: recovery.loss_us,
            packets_lost: recovery.packets_lost,
            throughput_collapse_us: recovery.collapse_us,
            delay_series,
            healthy_max_load: self.healthy.max_load,
            post_failover_max_load: self.failover.max_load,
            post_failover_undeliverable: self.failover.undeliverable,
        }
    }
}

/// Runs one condition on one design.
///
/// # Panics
///
/// Panics if the condition cannot be resolved on the design (C6/C7 on a
/// fat tree).
pub fn run_condition(
    design: Design,
    condition: Condition,
    config: &ConditionConfig,
) -> ConditionResult {
    run_condition_bed(design, condition, config).result(design, condition, config)
}

/// One cell of the condition grid: the [`run_condition`] measurement
/// plus the three routing-quality snapshots.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Recovery discipline the cell ran under.
    pub recovery: RecoveryMode,
    /// The Fig. 4 / Fig. 5 measurement (it names the design and condition).
    pub result: ConditionResult,
    /// Converged pre-failure score.
    pub healthy: QualityReport,
    /// Mid-failover score (fast reroute active, OSPF not yet done).
    pub failover: QualityReport,
    /// Post-reconvergence score at the horizon.
    pub settled: QualityReport,
}

/// A view of the condition grid, and so the cells it reads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum View {
    /// Fig. 4 with F²Tree under the given mode; the fat tree runs OSPF,
    /// its only discipline.
    Fig4(RecoveryMode),
    /// Fig. 5: its five delay series, out of the Fig. 4 cells.
    Fig5(RecoveryMode),
    /// The three-mode comparison: every F²Tree cell.
    Recovery,
    /// The quality grid: every cell.
    Quality,
}

/// Fig. 5's delay series, in plot order.
const FIG5: [(Design, Condition); 5] = [
    (Design::FatTree, Condition::C1),
    (Design::F2Tree, Condition::C1),
    (Design::F2Tree, Condition::C4),
    (Design::F2Tree, Condition::C5),
    (Design::F2Tree, Condition::C7),
];

/// The mode a figure drawn under `mode` runs `design` in: the fat tree
/// knows only OSPF (its rows are the same under every mode).
fn figure_mode(design: Design, mode: RecoveryMode) -> RecoveryMode {
    match design {
        Design::FatTree => RecoveryMode::OspfReconvergence,
        Design::F2Tree => mode,
    }
}

impl View {
    /// Whether the view reads the (design, mode, condition) cell.
    pub fn reads(self, design: Design, mode: RecoveryMode, condition: Condition) -> bool {
        match self {
            View::Fig4(m) => mode == figure_mode(design, m),
            View::Fig5(m) => mode == figure_mode(design, m) && FIG5.contains(&(design, condition)),
            View::Recovery => design == Design::F2Tree,
            View::Quality => true,
        }
    }
}

/// Every cell of the grid, in its order: the plain fat tree under OSPF
/// on C1–C5 (C6/C7 need across links), then F²Tree under each recovery
/// mode (baseline `ospf` first) on C1–C7.
pub fn grid_cells() -> Vec<(Design, RecoveryMode, Condition)> {
    let fat_tree = Condition::ALL
        .into_iter()
        .filter(|c| !c.requires_across_links())
        .map(|c| (Design::FatTree, RecoveryMode::OspfReconvergence, c));
    let f2tree = RecoveryMode::ALL
        .into_iter()
        .flat_map(|mode| Condition::ALL.into_iter().map(move |c| (Design::F2Tree, mode, c)));
    fat_tree.chain(f2tree).collect()
}

/// Runs one grid cell: the [`run_condition`] cell under `mode`, whose
/// bed at the horizon gives the settled quality snapshot.
pub(crate) fn run_cell(
    design: Design,
    recovery: RecoveryMode,
    condition: Condition,
    config: &ConditionConfig,
) -> CellResult {
    let config = ConditionConfig { recovery, ..*config };
    let run = run_condition_bed(design, condition, &config);
    CellResult {
        recovery,
        result: run.result(design, condition, &config),
        settled: QualityReport::compute(&run.bed.net.quality_input()),
        healthy: run.healthy,
        failover: run.failover,
    }
}

/// The measured condition grid: the cells some views read, each run
/// once.
#[derive(Clone, Debug)]
pub struct ConditionGrid {
    /// The cells run, in grid order.
    pub cells: Vec<CellResult>,
}

impl ConditionGrid {
    /// Runs every grid cell one of `views` reads, with `config` under
    /// each cell's recovery mode, on an explicit worker count. Cell order
    /// — and therefore output — is identical for every `workers` value.
    pub fn run(config: &ConditionConfig, views: &[View], workers: Workers) -> ConditionGrid {
        let cells = grid_cells()
            .into_iter()
            .filter(|&(d, m, c)| views.iter().any(|v| v.reads(d, m, c)));
        let cells = ExperimentSpec::new("conditions")
            .cells(cells)
            .workers(workers)
            .build()
            .run(|ctx| {
                let (design, mode, condition) = *ctx.cell();
                run_cell(design, mode, condition, config)
            });
        ConditionGrid { cells }
    }

    /// The (design, mode, condition) cell, if it was run.
    pub fn cell(
        &self,
        design: Design,
        mode: RecoveryMode,
        condition: Condition,
    ) -> Option<&CellResult> {
        let condition = condition.to_string();
        self.cells.iter().find(|r| {
            r.result.design == design && r.recovery == mode && r.result.condition == condition
        })
    }

    /// Fig. 4's rows with F²Tree under `mode`, in the paper's order (per
    /// condition the fat tree, then F²Tree).
    pub(crate) fn fig4(&self, mode: RecoveryMode) -> impl Iterator<Item = &ConditionResult> {
        Condition::ALL
            .into_iter()
            .flat_map(|c| [Design::FatTree, Design::F2Tree].map(|d| (d, c)))
            .filter_map(move |(d, c)| self.cell(d, figure_mode(d, mode), c))
            .map(|r| &r.result)
    }

    /// Fig. 5's series with F²Tree under `mode`, in plot order.
    pub(crate) fn fig5(&self, mode: RecoveryMode) -> impl Iterator<Item = &ConditionResult> {
        FIG5.into_iter()
            .filter_map(move |(d, c)| self.cell(d, figure_mode(d, mode), c))
            .map(|r| &r.result)
    }
}

/// Renders Fig. 4 with F²Tree under `mode` as text.
pub fn format_fig4(grid: &ConditionGrid, mode: RecoveryMode) -> String {
    let mut out = String::new();
    out.push_str(
        "Fig. 4: recovery under failure conditions C1-C7 (k=8 DCN)\n\
         cond | design    | loss (us) | pkts lost | tcp collapse (us)\n\
         -----+-----------+-----------+-----------+------------------\n",
    );
    for r in grid.fig4(mode) {
        out.push_str(&format!(
            "{:<4} | {:<9} | {:>9} | {:>9} | {:>17}\n",
            r.condition,
            r.design.to_string(),
            r.connectivity_loss_us
                .map_or("-".into(), |v| v.to_string()),
            r.packets_lost,
            r.throughput_collapse_us
                .map_or("-".into(), |v| v.to_string()),
        ));
    }
    out
}

/// Renders Fig. 5 with F²Tree under `mode`: the first 500 ms of each
/// delay series as a sparkline.
pub fn format_fig5(grid: &ConditionGrid, mode: RecoveryMode) -> String {
    let mut out = String::from(
        "Fig. 5: end-to-end delay during recovery (each char = 10ms; blank = loss):\n",
    );
    for r in grid.fig5(mode) {
        let series: Vec<Option<f64>> = r.delay_series.iter().take(50).map(|&(_, d)| d).collect();
        out.push_str(&format!(
            "  {:<9} {} |{}|\n",
            r.design.to_string(),
            r.condition,
            sparkline(&series)
        ));
    }
    out
}

/// Renders Table IV (the condition definitions and their §II-C classes).
pub fn format_table4() -> String {
    let mut out = String::new();
    out.push_str(
        "Table IV: failure conditions in an 8-port 3-layer DCN\n\
         label | failures | SII-C condition\n\
         ------+----------+----------------\n",
    );
    for c in Condition::ALL {
        out.push_str(&format!(
            "{:<5} | {} | {}\n",
            c.to_string(),
            c.description(),
            c.paper_condition()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ConditionConfig {
        ConditionConfig::default()
    }

    fn loss_ms(r: &ConditionResult) -> u64 {
        r.connectivity_loss_us.expect("recovered") / 1000
    }

    #[test]
    fn c1_f2tree_recovers_in_detection_time_and_fat_tree_waits_for_ospf() {
        let f2 = run_condition(Design::F2Tree, Condition::C1, &cfg());
        let fat = run_condition(Design::FatTree, Condition::C1, &cfg());
        assert!((58..=65).contains(&loss_ms(&f2)), "f2 {}", loss_ms(&f2));
        assert!((265..=290).contains(&loss_ms(&fat)), "fat {}", loss_ms(&fat));
        // ~78% reduction, as the paper headlines.
        let reduction = 1.0 - loss_ms(&f2) as f64 / loss_ms(&fat) as f64;
        assert!((0.70..=0.85).contains(&reduction));
    }

    #[test]
    fn c2_and_c3_match_c1_for_f2tree() {
        for condition in [Condition::C2, Condition::C3] {
            let r = run_condition(Design::F2Tree, condition, &cfg());
            assert!(
                (58..=65).contains(&loss_ms(&r)),
                "{condition}: {}ms",
                loss_ms(&r)
            );
        }
    }

    #[test]
    fn c4_and_c5_fast_reroute_with_longer_detours() {
        for condition in [Condition::C4, Condition::C5] {
            let r = run_condition(Design::F2Tree, condition, &cfg());
            assert!(
                (58..=65).contains(&loss_ms(&r)),
                "{condition}: {}ms",
                loss_ms(&r)
            );
        }
    }

    #[test]
    fn c6_uses_the_left_across_link() {
        let r = run_condition(Design::F2Tree, Condition::C6, &cfg());
        assert!((58..=65).contains(&loss_ms(&r)), "{}ms", loss_ms(&r));
    }

    #[test]
    fn c7_degrades_f2tree_to_fat_tree() {
        let r = run_condition(Design::F2Tree, Condition::C7, &cfg());
        // The paper: fast rerouting fails, recovery waits for the control
        // plane (~270ms).
        assert!(
            (260..=310).contains(&loss_ms(&r)),
            "C7 should degrade to ~270ms, got {}ms",
            loss_ms(&r)
        );
    }

    #[test]
    fn fig5_delay_plateaus_scale_with_detour_length() {
        let delay_at = |r: &ConditionResult, t_ms: u64| -> f64 {
            r.delay_series
                .iter()
                .find(|&&(t, _)| t == t_ms)
                .and_then(|&(_, d)| d)
                .expect("delay sample present")
        };
        let cfg = cfg();
        // Sample the fast-reroute window (after detection at 160ms, well
        // before convergence at ~310ms).
        let c1 = run_condition(Design::F2Tree, Condition::C1, &cfg);
        let c4 = run_condition(Design::F2Tree, Condition::C4, &cfg);
        let c5 = run_condition(Design::F2Tree, Condition::C5, &cfg);
        let base = delay_at(&c1, 50);
        let c1_reroute = delay_at(&c1, 200);
        let c4_reroute = delay_at(&c4, 200);
        let c5_reroute = delay_at(&c5, 200);
        assert!((95.0..=105.0).contains(&base), "baseline {base}us");
        assert!(
            c1_reroute > base + 10.0 && c1_reroute < base + 30.0,
            "C1 one extra hop: {c1_reroute}us"
        );
        assert!(
            c4_reroute > c1_reroute + 10.0,
            "C4 detours further: {c4_reroute} vs {c1_reroute}"
        );
        assert!(
            c5_reroute > c4_reroute + 10.0,
            "C5 detours furthest: {c5_reroute} vs {c4_reroute}"
        );
    }

    #[test]
    fn fat_tree_is_uniformly_slow_across_c1_to_c5() {
        for condition in [Condition::C2, Condition::C4] {
            let r = run_condition(Design::FatTree, condition, &cfg());
            assert!(
                (265..=310).contains(&loss_ms(&r)),
                "{condition}: {}ms",
                loss_ms(&r)
            );
        }
    }

    #[test]
    fn views_read_no_more_cells_than_their_targets_ran_alone() {
        let count = |views: &[View]| {
            grid_cells()
                .into_iter()
                .filter(|&(d, m, c)| views.iter().any(|v| v.reads(d, m, c)))
                .count()
        };
        for mode in RecoveryMode::ALL {
            assert_eq!(count(&[View::Fig4(mode)]), 12, "{mode}");
            assert_eq!(count(&[View::Fig5(mode)]), 5, "{mode}");
            // The figures and the mode comparison together already read
            // the whole grid: `repro all` runs each of its 26 cells once.
            let figures = [View::Fig4(mode), View::Fig5(mode), View::Recovery];
            assert_eq!(count(&figures), 26, "{mode}");
        }
        assert_eq!(count(&[View::Recovery]), 21);
        assert_eq!(count(&[View::Quality]), 26);
        assert_eq!(count(&[]), 0);
    }

    #[test]
    fn fat_tree_rows_are_mode_independent() {
        // The grid serves every `--recovery` value's fat-tree rows from
        // the fat tree's OSPF cells: the plain fat tree has no backups and
        // no across ring, so no mode can change what it measures.
        for condition in Condition::ALL.into_iter().filter(|c| !c.requires_across_links()) {
            let run = |recovery| {
                run_condition(Design::FatTree, condition, &ConditionConfig { recovery, ..cfg() })
            };
            let ospf = run(RecoveryMode::OspfReconvergence);
            for mode in [RecoveryMode::F2TreeRewiring, RecoveryMode::PrecomputedFrr] {
                assert_eq!(run(mode), ospf, "{condition} under {mode}");
            }
        }
    }

    #[test]
    fn table4_lists_all_seven_conditions() {
        let t = format_table4();
        for c in ["C1", "C2", "C3", "C4", "C5", "C6", "C7"] {
            assert!(t.contains(c));
        }
    }
}
