//! `recovery_k8` and `flap_k16`: grids of failure-condition cells.
//!
//! A cell builds a testbed, pins a UDP and a TCP probe onto one path,
//! fails the condition's links at `fail_at` and runs to the horizon — the
//! body of `f2tree_experiments::conditions::run_condition`, re-implemented
//! here so that a span can be placed around each call into a layer. The
//! warm-up pass runs the product's `run_condition` itself, and every
//! timed pass must reproduce its numbers (the drift guard).

use dcn_emu::EmuConfig;
use dcn_failure::Condition;
use dcn_metrics::quality::QualityReport;
use dcn_metrics::ThroughputSeries;
use dcn_routing::RecoveryMode;
use dcn_sim::{timers, SimDuration, SimTime};
use f2tree::{Design, TestBed};
use f2tree_experiments::conditions::{
    mid_failover_offset, run_condition, ConditionConfig, ConditionResult,
};

use super::{digest, digest_opt, Pass, PhaseClock, Scale, Workload};
use crate::span::Tracer;

/// Paper Table III: connectivity loss on the fat tree, µs.
const PAPER_FAT_TREE_LOSS_US: f64 = 272_847.0;
/// Paper Table III: connectivity loss on F²Tree, µs.
const PAPER_F2TREE_LOSS_US: f64 = 60_619.0;

/// A cell fails when its loss is further than this from the mode's timer
/// arithmetic.
const LOSS_TOLERANCE: f64 = 0.05;

/// Width of the run's middle window: from the failure until every
/// recovery mode has reconverged (270 ms) with margin. The share of run
/// time spent inside it is what separates control-plane-bound workloads
/// from data-plane-bound ones.
const RECOVERY_WINDOW: SimDuration = SimDuration::from_millis(300);

/// One (design, recovery mode, condition) cell.
#[derive(Copy, Clone, Debug)]
struct CellSpec {
    design: Design,
    mode: RecoveryMode,
    condition: Condition,
}

/// The numbers the drift guard compares between the benchmark's cell
/// body and the product's.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CellNumbers {
    loss_us: Option<u64>,
    packets_lost: u64,
    collapse_us: Option<u64>,
    /// `(healthy max load, mid-failover max load, mid-failover
    /// undeliverable)`; only grids that take the quality snapshots.
    quality: Option<(u64, u64, u64)>,
}

impl CellNumbers {
    fn of_product(result: &ConditionResult, quality: bool) -> Self {
        CellNumbers {
            loss_us: result.connectivity_loss_us,
            packets_lost: result.packets_lost,
            collapse_us: result.throughput_collapse_us,
            quality: quality.then_some((
                result.healthy_max_load,
                result.post_failover_max_load,
                result.post_failover_undeliverable,
            )),
        }
    }
}

/// A grid of cells at one fabric size.
#[derive(Debug)]
pub struct CellGrid {
    cells: Vec<CellSpec>,
    config: ConditionConfig,
    /// Take the two `QualityReport` snapshots `run_condition` takes.
    quality: bool,
    reference: Vec<CellNumbers>,
}

impl CellGrid {
    /// `recovery_k8`: the `repro recovery` + Fig. 4 grid — fat tree/ospf
    /// × C1–C5 and the F²Tree topology × {ospf, f2tree, frr} × C1–C7.
    pub fn recovery_k8(scale: Scale) -> Self {
        let mut cells = Vec::new();
        for condition in Condition::ALL {
            if !condition.requires_across_links() {
                cells.push(CellSpec {
                    design: Design::FatTree,
                    mode: RecoveryMode::OspfReconvergence,
                    condition,
                });
            }
        }
        for mode in RecoveryMode::ALL {
            for condition in Condition::ALL {
                cells.push(CellSpec {
                    design: Design::F2Tree,
                    mode,
                    condition,
                });
            }
        }
        let config = ConditionConfig {
            horizon_ms: match scale {
                Scale::Full => 2000,
                Scale::Smoke => 450,
            },
            ..ConditionConfig::default()
        };
        CellGrid {
            cells,
            config,
            quality: true,
            reference: Vec::new(),
        }
    }

    /// `flap_k16`: one agg→ToR failure on the probe path (C1) in three
    /// cold-built k = 16 fabrics, one per recovery mode.
    pub fn flap_k16(scale: Scale) -> Self {
        let cell = |design, mode| CellSpec {
            design,
            mode,
            condition: Condition::C1,
        };
        let config = ConditionConfig {
            k: 16,
            hosts_per_tor: 2,
            horizon_ms: match scale {
                Scale::Full => 1000,
                Scale::Smoke => 450,
            },
            ..ConditionConfig::default()
        };
        CellGrid {
            cells: vec![
                cell(Design::FatTree, RecoveryMode::OspfReconvergence),
                cell(Design::F2Tree, RecoveryMode::F2TreeRewiring),
                cell(Design::F2Tree, RecoveryMode::PrecomputedFrr),
            ],
            config,
            quality: false,
            reference: Vec::new(),
        }
    }

    fn product_config(&self, spec: &CellSpec) -> ConditionConfig {
        ConditionConfig {
            recovery: spec.mode,
            ..self.config
        }
    }

    fn instant(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// The benchmark's own cell body, one span per layer call.
    fn run_cell(
        &self,
        spec: &CellSpec,
        tracer: &mut Tracer,
        clock: &mut PhaseClock,
        pass: &mut Pass,
    ) -> CellNumbers {
        let fail_at = Self::instant(self.config.fail_at_ms);
        let horizon = Self::instant(self.config.horizon_ms);
        let emu = EmuConfig::builder().recovery(spec.mode).build();

        let mut bed = clock.setup(|| {
            let span = tracer.begin("core.testbed_build");
            let bed = TestBed::build_with_config(
                spec.design,
                self.config.k,
                self.config.hosts_per_tor,
                emu,
            )
            .expect("the workload's fabric size builds");
            tracer.end(span);
            bed
        });

        clock.run(|| {
            let span = tracer.begin("emu.flow_install");
            let (udp, tcp) = bed.add_aligned_probes(SimTime::ZERO);
            let anatomy = bed.path_anatomy(udp);
            let links = bed.scenario_links(&anatomy, spec.condition);
            for &link in &links {
                bed.net.fail_link_at(fail_at, link);
            }
            tracer.end(span);

            let snapshot = |bed: &TestBed, tracer: &mut Tracer| {
                let span = tracer.begin("emu.quality_input");
                let input = bed.net.quality_input();
                tracer.end(span);
                let span = tracer.begin("metrics.quality_compute");
                let report = QualityReport::compute(&input);
                tracer.end(span);
                report
            };
            let run_to = |bed: &mut TestBed, tracer: &mut Tracer, name, end| {
                let before = bed.net.events_processed();
                let span = tracer.begin(name);
                bed.net.run_until(end);
                tracer.end_counted(span, bed.net.events_processed() - before);
            };

            // `run_until` is a step loop, so splitting the run at window
            // boundaries processes exactly the events one call would.
            let healthy = self.quality.then(|| snapshot(&bed, tracer));
            run_to(&mut bed, tracer, "emu.run.pre", fail_at);
            let failover = self.quality.then(|| {
                run_to(
                    &mut bed,
                    tracer,
                    "emu.run.recovery",
                    fail_at + mid_failover_offset(),
                );
                snapshot(&bed, tracer)
            });
            run_to(
                &mut bed,
                tracer,
                "emu.run.recovery",
                (fail_at + RECOVERY_WINDOW).min(horizon),
            );
            run_to(&mut bed, tracer, "emu.run.post", horizon);

            let span = tracer.begin("metrics.probe_extract");
            let report = bed.net.udp_probe_report(udp);
            let loss = report.connectivity.loss_around(fail_at);
            let mut tcp_series = ThroughputSeries::new();
            tcp_series.extend_from_log(bed.net.tcp_delivery_log(tcp));
            let collapse = tcp_series.collapse_duration(
                SimTime::ZERO,
                fail_at,
                horizon,
                SimDuration::from_millis(self.config.bin_ms),
            );
            let delay_points = report
                .delay
                .downsample(
                    SimTime::ZERO,
                    horizon,
                    SimDuration::from_millis(self.config.delay_window_ms),
                )
                .len();
            tracer.end(span);
            digest(&mut pass.digest, delay_points as u64);

            pass.count_network(&bed.net);

            CellNumbers {
                loss_us: loss.map(|l| l.duration.as_micros()),
                packets_lost: report.lost,
                collapse_us: collapse.map(|c| c.as_micros()),
                quality: healthy
                    .zip(failover)
                    .map(|(h, f)| (h.max_load, f.max_load, f.undeliverable)),
            }
        })
    }
}

/// Connectivity loss the recovery mode's timers predict.
fn expected_loss(spec: &CellSpec) -> SimDuration {
    let reconverge = timers::DETECTION_DELAY + timers::SPF_INITIAL_DELAY + timers::FIB_UPDATE_DELAY;
    // C7 severs the repair paths themselves; a fat tree has none.
    if spec.design == Design::FatTree || spec.condition == Condition::C7 {
        return reconverge;
    }
    match spec.mode {
        RecoveryMode::OspfReconvergence => reconverge,
        RecoveryMode::F2TreeRewiring => timers::DETECTION_DELAY,
        RecoveryMode::PrecomputedFrr => timers::DETECTION_DELAY + timers::FIB_UPDATE_DELAY,
    }
}

/// The paper's measured loss for the cells it measured: the fat tree
/// under OSPF and F²Tree under its own rewiring, on C1–C6.
fn paper_loss_us(spec: &CellSpec) -> Option<f64> {
    if spec.condition == Condition::C7 {
        return None;
    }
    match (spec.design, spec.mode) {
        (Design::FatTree, _) => Some(PAPER_FAT_TREE_LOSS_US),
        (Design::F2Tree, RecoveryMode::F2TreeRewiring) => Some(PAPER_F2TREE_LOSS_US),
        _ => None,
    }
}

fn loss_within_tolerance(loss_us: Option<u64>, spec: &CellSpec) -> bool {
    let expected = expected_loss(spec).as_micros() as f64;
    loss_us.is_some_and(|loss| (loss as f64 - expected).abs() <= LOSS_TOLERANCE * expected)
}

impl Workload for CellGrid {
    fn warm_up(&mut self) {
        self.reference = self
            .cells
            .iter()
            .map(|spec| {
                let result = run_condition(spec.design, spec.condition, &self.product_config(spec));
                CellNumbers::of_product(&result, self.quality)
            })
            .collect();
    }

    fn pass(&self, tracer: &mut Tracer, _layered: bool) -> Pass {
        let mut pass = Pass::new();
        let mut paper_err: Option<f64> = None;
        for (index, spec) in self.cells.iter().enumerate() {
            tracer.set_cell(index as u32);
            let span = tracer.begin("cell");
            let mut clock = PhaseClock::default();
            let numbers = self.run_cell(spec, tracer, &mut clock, &mut pass);
            tracer.end(span);
            pass.units.push(clock);

            pass.attempted += 1;
            let drifted = self.reference.get(index).is_some_and(|r| *r != numbers);
            if drifted || !loss_within_tolerance(numbers.loss_us, spec) {
                pass.failed += 1;
            }
            if let (Some(paper), Some(loss)) = (paper_loss_us(spec), numbers.loss_us) {
                let err = (loss as f64 - paper).abs() / paper * 100.0;
                paper_err = Some(paper_err.map_or(err, |worst| worst.max(err)));
            }
            digest_opt(&mut pass.digest, numbers.loss_us);
            digest(&mut pass.digest, numbers.packets_lost);
            digest_opt(&mut pass.digest, numbers.collapse_us);
            if let Some((healthy, failover, undeliverable)) = numbers.quality {
                digest(&mut pass.digest, healthy);
                digest(&mut pass.digest, failover);
                digest(&mut pass.digest, undeliverable);
            }
        }
        pass.paper_err_pct = paper_err;
        pass
    }

    fn fabric(&self) -> (u32, u32) {
        (self.config.k, self.config.hosts_per_tor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(design: Design, mode: RecoveryMode, condition: Condition) -> CellSpec {
        CellSpec {
            design,
            mode,
            condition,
        }
    }

    #[test]
    fn recovery_grid_is_the_26_cells_of_recovery_plus_fig4() {
        let grid = CellGrid::recovery_k8(Scale::Full);
        assert_eq!(grid.cells.len(), 26);
        let fat = grid.cells.iter().filter(|c| c.design == Design::FatTree);
        assert_eq!(fat.count(), 5);
        for mode in RecoveryMode::ALL {
            let n = grid
                .cells
                .iter()
                .filter(|c| c.design == Design::F2Tree && c.mode == mode)
                .count();
            assert_eq!(n, 7, "{mode}");
        }
    }

    #[test]
    fn flap_grid_is_one_cold_k16_cell_per_mode() {
        let grid = CellGrid::flap_k16(Scale::Full);
        assert_eq!(grid.cells.len(), 3);
        assert_eq!((grid.config.k, grid.config.hosts_per_tor), (16, 2));
        assert!(grid.cells.iter().all(|c| c.condition == Condition::C1));
    }

    #[test]
    fn expected_loss_follows_the_timer_arithmetic() {
        use RecoveryMode::*;
        let ms = |s: &CellSpec| expected_loss(s).as_micros() / 1000;
        assert_eq!(
            ms(&spec(Design::FatTree, OspfReconvergence, Condition::C1)),
            270
        );
        assert_eq!(
            ms(&spec(Design::F2Tree, OspfReconvergence, Condition::C2)),
            270
        );
        assert_eq!(ms(&spec(Design::F2Tree, F2TreeRewiring, Condition::C6)), 60);
        assert_eq!(ms(&spec(Design::F2Tree, PrecomputedFrr, Condition::C4)), 70);
        for mode in RecoveryMode::ALL {
            assert_eq!(ms(&spec(Design::F2Tree, mode, Condition::C7)), 270);
        }
    }

    #[test]
    fn tolerance_is_five_percent_and_missing_loss_fails() {
        let s = spec(Design::F2Tree, RecoveryMode::F2TreeRewiring, Condition::C1);
        assert!(loss_within_tolerance(Some(60_116), &s));
        assert!(loss_within_tolerance(Some(63_000), &s));
        assert!(!loss_within_tolerance(Some(63_001), &s));
        assert!(!loss_within_tolerance(None, &s));
    }

    #[test]
    fn paper_reference_covers_only_the_cells_the_paper_measured() {
        use RecoveryMode::*;
        assert_eq!(
            paper_loss_us(&spec(Design::FatTree, OspfReconvergence, Condition::C5)),
            Some(PAPER_FAT_TREE_LOSS_US)
        );
        assert_eq!(
            paper_loss_us(&spec(Design::F2Tree, F2TreeRewiring, Condition::C6)),
            Some(PAPER_F2TREE_LOSS_US)
        );
        assert_eq!(
            paper_loss_us(&spec(Design::F2Tree, F2TreeRewiring, Condition::C7)),
            None
        );
        assert_eq!(
            paper_loss_us(&spec(Design::F2Tree, PrecomputedFrr, Condition::C1)),
            None
        );
        assert_eq!(
            paper_loss_us(&spec(Design::F2Tree, OspfReconvergence, Condition::C1)),
            None
        );
    }
}
