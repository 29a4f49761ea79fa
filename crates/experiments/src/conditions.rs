//! Fig. 4 + Fig. 5 + Table IV: failure-condition sweep on the 8-port DCN.
//!
//! For each condition C1–C7 (Table IV) this runner injects the resolved
//! link failures at a fixed instant and measures the paper's three Fig. 4
//! metrics (connectivity-loss duration, UDP packets lost, TCP throughput
//! collapse) plus the Fig. 5 end-to-end delay series. Fat tree runs
//! C1–C5; C6/C7 involve across links and exist only on F²Tree.

use dcn_emu::{EmuConfig, FlowId};
use dcn_failure::Condition;
use dcn_metrics::quality::QualityReport;
use dcn_metrics::ThroughputSeries;
use dcn_routing::RecoveryMode;
use dcn_sim::{timers, SimDuration, SimTime};
use dcn_sweep::{ExperimentSpec, Workers};
use f2tree::{Design, TestBed};
use serde::{Deserialize, Serialize};

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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
/// the failure. Shared by the Fig. 4 cell and the quality sweep.
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
    let run = run_condition_bed(design, condition, config);
    let recovery = run.recovery(config);
    let delay_series = run
        .bed
        .net
        .udp_probe_report(run.udp)
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
        failed_links: run.failed_links,
        connectivity_loss_us: recovery.loss_us,
        packets_lost: recovery.packets_lost,
        throughput_collapse_us: recovery.collapse_us,
        delay_series,
        healthy_max_load: run.healthy.max_load,
        post_failover_max_load: run.failover.max_load,
        post_failover_undeliverable: run.failover.undeliverable,
    }
}

/// The Fig. 4 sweep grid: fat tree on C1–C5, F²Tree on C1–C7, in the
/// paper's presentation order.
pub fn fig4_cells() -> Vec<(Design, Condition)> {
    let mut cells = Vec::new();
    for condition in Condition::ALL {
        if !condition.requires_across_links() {
            cells.push((Design::FatTree, condition));
        }
        cells.push((Design::F2Tree, condition));
    }
    cells
}

/// Runs the Fig. 4 sweep on an explicit worker count via the sweep
/// engine. Cell order — and therefore output — is identical for every
/// `workers` value; only wall-clock time changes.
pub fn run_fig4_sweep(config: &ConditionConfig, workers: Workers) -> Vec<ConditionResult> {
    ExperimentSpec::new("fig4")
        .cells(fig4_cells())
        .workers(workers)
        .build()
        .run(|ctx| {
            let (design, condition) = *ctx.cell();
            run_condition(design, condition, config)
        })
}

/// Renders the Fig. 4 comparison as text.
pub fn format_fig4(results: &[ConditionResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "Fig. 4: recovery under failure conditions C1-C7 (k=8 DCN)\n\
         cond | design    | loss (us) | pkts lost | tcp collapse (us)\n\
         -----+-----------+-----------+-----------+------------------\n",
    );
    for r in results {
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
    fn table4_lists_all_seven_conditions() {
        let t = format_table4();
        for c in ["C1", "C2", "C3", "C4", "C5", "C6", "C7"] {
            assert!(t.contains(c));
        }
    }
}
