//! Extensions beyond the paper's evaluation, implementing its own
//! forward-pointers:
//!
//! * **Wide rings** (§II-C): "if we reserve more ports (e.g. 4) for
//!   across links … it is able to deal with this extreme condition
//!   \[C7\] as well" — [`run_c7_wide`] verifies it on the same rewiring at
//!   reach 2.
//! * **Unidirectional failures** (§IV-A future work) —
//!   [`run_unidirectional`].
//! * **Timer ablation** — [`run_timer_ablation`] decomposes the fat
//!   tree's ~270 ms recovery into its detection / SPF-throttle /
//!   FIB-install terms and shows F²Tree's recovery tracks the detection
//!   delay alone.

use dcn_emu::{ControlPlaneMode, EmuConfig, FlowId};
use dcn_failure::Condition;
use dcn_net::{AspenTree, FatTree, NodeId};
use dcn_routing::RouterConfig;
use dcn_sim::{SimDuration, SimTime};
use f2tree::{rewire_fat_tree, Design, TestBed};

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// The probe-loss body every cell below and Fig. 7 share: `probe` adds a
/// UDP probe from the bed's first host to its last, `fail` breaks what
/// it picks off the probe's path at 100 ms, the run goes on to
/// `horizon_ms`, and the probe's connectivity-loss window around the
/// failure and its lost packets come back.
pub(crate) fn probe_loss(
    bed: &mut TestBed,
    probe: impl FnOnce(&mut TestBed, NodeId, NodeId) -> FlowId,
    horizon_ms: u64,
    fail: impl FnOnce(&mut TestBed, FlowId, SimTime),
) -> (SimDuration, u64) {
    let fail_at = ms(100);
    let (src, dst) = bed
        .probe_endpoints()
        .expect("probe-loss cells run on beds with hosts");
    let probe = probe(bed, src, dst);
    fail(bed, probe, fail_at);
    bed.net.run_until(ms(horizon_ms));
    let report = bed.net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(fail_at);
    (loss.expect("probe recovers").duration, report.lost)
}

/// The probe every cell but Fig. 7's runs: unpinned, from time zero.
pub(crate) fn unpinned(bed: &mut TestBed, src: NodeId, dst: NodeId) -> FlowId {
    bed.net.add_udp_probe(src, dst, SimTime::ZERO)
}

/// The C1 cell of the controller sweep and the timer ablation: the
/// probe path's downward agg link fails on the k=8 `design` under
/// `config`, run to 3 s.
fn c1_loss(design: Design, config: EmuConfig) -> SimDuration {
    #[expect(clippy::expect_used, reason = "the k=8 scales used here always build")]
    let mut bed = TestBed::build_with_config(design, 8, 4, config).expect("testbed builds");
    let fail = |bed: &mut TestBed, probe, at| {
        let link = bed.path_anatomy(probe).down_link;
        bed.net.fail_link_at(at, link);
    };
    probe_loss(&mut bed, unpinned, 3000, fail).0
}

// ---------------------------------------------------------------------
// Wide rings vs C7
// ---------------------------------------------------------------------

/// Outcome of the C7 comparison between 2 and 4 across ports.
#[derive(Clone, Debug)]
pub struct C7WideResult {
    /// Across ports per switch.
    pub across_ports: u32,
    /// Duration of connectivity loss in µs.
    pub connectivity_loss_us: u64,
    /// Whether packets TTL-looped (the plain-F²Tree C7 signature).
    pub looped: bool,
}

/// Runs the C7 condition on a k=12 F²Tree with 2 across ports (the
/// paper's design, degrading to fat tree) and with 4 (the §II-C
/// extension, staying detection-bounded).
pub fn run_c7_wide() -> [C7WideResult; 2] {
    [2, 4].map(|across_ports| {
        let f2 = FatTree::new(12)
            .and_then(|fat| rewire_fat_tree(fat.build(), across_ports))
            .expect("feasible at k=12");
        let mut bed = TestBed::from_f2tree(f2, EmuConfig::default()).expect("addressable");
        let fail = |bed: &mut TestBed, probe, at| {
            let anatomy = bed.path_anatomy(probe);
            // C7 on the distance-1 ring: Sx->T, right(Sx)->T and right(Sx)'s
            // rightward across link.
            for link in bed.scenario_links(&anatomy, Condition::C7) {
                bed.net.fail_link_at(at, link);
            }
        };
        let (loss, _) = probe_loss(&mut bed, unpinned, 2000, fail);
        C7WideResult {
            across_ports,
            connectivity_loss_us: loss.as_micros(),
            looped: bed.net.drops().ttl_expired > 0,
        }
    })
}

/// Renders the comparison.
pub fn format_c7_wide(results: &[C7WideResult]) -> String {
    let mut out = String::from(
        "C7 (SII-C condition 4) vs across-port budget, k=12 F2Tree\n\
         across ports | loss (us) | TTL loops observed\n\
         -------------+-----------+-------------------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:>12} | {:>9} | {}\n",
            r.across_ports,
            r.connectivity_loss_us,
            if r.looped { "yes" } else { "no" }
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Unidirectional failures
// ---------------------------------------------------------------------

/// Outcome of a unidirectional downward-link failure.
#[derive(Clone, Debug)]
pub struct UnidirectionalResult {
    /// Which design.
    pub design: Design,
    /// Duration of connectivity loss in µs.
    pub connectivity_loss_us: u64,
}

/// Fails only the agg→ToR *direction* of the probe-path downward link
/// (the reverse direction keeps carrying bits). With BFD-style
/// detection the interface still goes down at both ends, so F²Tree's
/// recovery matches the bidirectional case.
pub fn run_unidirectional(design: Design) -> UnidirectionalResult {
    #[expect(clippy::expect_used, reason = "the k=8 scales used here always build")]
    let mut bed = TestBed::build(design, 8, 4).expect("testbed builds");
    let fail = |bed: &mut TestBed, probe, at| {
        let anatomy = bed.path_anatomy(probe);
        bed.net
            .fail_link_direction_at(at, anatomy.down_link, anatomy.path_agg);
    };
    let (loss, _) = probe_loss(&mut bed, unpinned, 2000, fail);
    UnidirectionalResult {
        design,
        connectivity_loss_us: loss.as_micros(),
    }
}

// ---------------------------------------------------------------------
// Aspen tree baseline (Table I comparator)
// ---------------------------------------------------------------------

/// Outcome of one Aspen-tree failure cell.
#[derive(Clone, Debug)]
pub struct AspenResult {
    /// Which layer's link failed.
    pub failed_layer: &'static str,
    /// Duration of connectivity loss in µs.
    pub connectivity_loss_us: u64,
}

/// Runs single-link failures on an Aspen ⟨1, 0⟩ tree (k=8): one in the
/// fault-tolerant agg–core layer (parallel duplicate links mean ECMP
/// repairs it at detection time) and one at the unprotected ToR–agg
/// layer (full control-plane convergence) — the partial coverage the
/// paper contrasts F²Tree against in §VI.
pub fn run_aspen_baseline() -> [AspenResult; 2] {
    let run = |fail_top: bool| {
        let topo = AspenTree::new(8, 1).expect("valid aspen dims").build();
        let mut bed = TestBed::from_topology(topo, EmuConfig::default()).expect("addressable");
        let fail = |bed: &mut TestBed, probe, at| {
            let mut hops = Vec::new();
            bed.net.walk_flow(probe, &mut hops);
            let [_host, _tor, up_agg, _core, down_agg, _down_tor] = *hops.as_slice() else {
                panic!("a cross-pod path, got {hops:?}");
            };
            let taken = if fail_top { up_agg } else { down_agg };
            bed.net.fail_link_at(at, taken.link);
        };
        let (loss, _) = probe_loss(&mut bed, unpinned, 2000, fail);
        loss.as_micros()
    };
    [
        AspenResult {
            failed_layer: "agg-core (fault-tolerant layer)",
            connectivity_loss_us: run(true),
        },
        AspenResult {
            failed_layer: "agg-ToR (unprotected layer)",
            connectivity_loss_us: run(false),
        },
    ]
}

/// Renders the Aspen comparison.
pub fn format_aspen(results: &[AspenResult]) -> String {
    let mut out = String::from(
        "Aspen tree <1,0> baseline (k=8): recovery by failed layer\n\
         failed layer                    | loss (us)\n\
         --------------------------------+----------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:<31} | {:>9}\n",
            r.failed_layer, r.connectivity_loss_us
        ));
    }
    out.push_str("(F2Tree protects both layers at detection time; see fig4.)\n");
    out
}

// ---------------------------------------------------------------------
// Centralized routing DCNs (paper §V)
// ---------------------------------------------------------------------

/// Outcome of one centralized-control-plane cell.
#[derive(Clone, Debug)]
pub struct CentralizedResult {
    /// Which design.
    pub design: Design,
    /// Controller recomputation delay (ms) — the term that grows with
    /// scale per the paper's discussion.
    pub compute_ms: u64,
    /// Duration of connectivity loss in µs.
    pub connectivity_loss_us: u64,
}

/// Runs the C1 failure under a PortLand-style centralized control plane
/// for both designs at controller compute delays of 10, 50 and 200 ms.
/// Without F²Tree, recovery waits for detect + report + compute + push;
/// with the backup routes, the data plane repairs itself at detection
/// time and the controller merely tidies up afterwards.
pub fn run_centralized_sweep() -> Vec<CentralizedResult> {
    let mut rows = Vec::new();
    for compute_ms in [10u64, 50, 200] {
        let config = EmuConfig::builder()
            .control_plane(ControlPlaneMode::Centralized {
                compute_delay: SimDuration::from_millis(compute_ms),
            })
            .build();
        for design in [Design::FatTree, Design::F2Tree] {
            rows.push(CentralizedResult {
                design,
                compute_ms,
                connectivity_loss_us: c1_loss(design, config).as_micros(),
            });
        }
    }
    rows
}

/// Renders the centralized comparison.
pub fn format_centralized(rows: &[CentralizedResult]) -> String {
    let mut out = String::from(
        "Centralized routing DCN (SV): C1 recovery vs controller compute delay\n\
         design    | compute | loss (us)\n\
         ----------+---------+----------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} | {:>5}ms | {:>9}\n",
            r.design.to_string(),
            r.compute_ms,
            r.connectivity_loss_us
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Bisection stress (paper §II-D)
// ---------------------------------------------------------------------

/// Outcome of the bisection-bandwidth stress test.
#[derive(Clone, Debug)]
pub struct BisectionResult {
    /// Which design.
    pub design: Design,
    /// Parallel cross-pod flows.
    pub flows: usize,
    /// Time until the last flow completed, in ms.
    pub makespan_ms: u64,
    /// Aggregate goodput across all flows, Gbps.
    pub aggregate_gbps: f64,
}

/// Stresses the inter-pod bisection: every host of the first pod sends
/// 5 MB to a distinct host of the last pod, all at once. §II-D claims
/// the rewiring trades only negligible bisection bandwidth; with 12
/// host-limited flows against 12 pod uplinks (k=8 F²Tree) the aggregate
/// goodput should track the fat tree's.
pub fn run_bisection(design: Design) -> BisectionResult {
    const BYTES: u64 = 5_000_000;
    #[expect(clippy::expect_used, reason = "the k=8 scales used here always build")]
    let mut bed = TestBed::build(design, 8, 4).expect("testbed builds");
    let hosts = bed.topology().hosts().to_vec();
    // First 12 hosts are pod 0 (F2Tree: 3 ToRs x 4 hosts); last 12 are
    // the last pod. Use 12 on both designs for comparability.
    let flows: Vec<_> = (0..12)
        .map(|i| {
            bed.net
                .add_transfer(hosts[i], hosts[hosts.len() - 12 + i], BYTES, SimTime::ZERO)
        })
        .collect();
    bed.net.run_until(ms(5_000));
    // Every transfer starts at t = 0, so the slowest one's completion
    // time is the makespan.
    let fct = |flow| {
        bed.net
            .flow_completion_time(flow)
            .expect("flow must finish")
    };
    let makespan = flows.iter().copied().map(fct).max().unwrap_or_default();
    let total_bits = (BYTES * flows.len() as u64 * 8) as f64;
    BisectionResult {
        design,
        flows: flows.len(),
        makespan_ms: makespan.as_millis(),
        aggregate_gbps: total_bits / makespan.as_secs_f64() / 1e9,
    }
}

/// Renders the bisection comparison.
pub fn format_bisection(rows: &[BisectionResult]) -> String {
    let mut out = String::from(
        "Bisection stress (SII-D): 12 parallel cross-pod 5MB transfers, k=8\n\
         design    | flows | makespan (ms) | aggregate (Gbps)\n\
         ----------+-------+---------------+-----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} | {:>5} | {:>13} | {:>16.2}\n",
            r.design.to_string(),
            r.flows,
            r.makespan_ms,
            r.aggregate_gbps
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Timer ablation
// ---------------------------------------------------------------------

/// One ablation cell.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which design.
    pub design: Design,
    /// Detection delay (ms).
    pub detection_ms: u64,
    /// Initial SPF throttle (ms).
    pub spf_ms: u64,
    /// FIB install delay (ms).
    pub fib_ms: u64,
    /// Measured connectivity loss (ms).
    pub loss_ms: u64,
}

/// Sweeps the three recovery timers over the C1 failure, decomposing the
/// fat tree's recovery time and showing F²Tree tracks detection alone.
pub fn run_timer_ablation() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let cells: &[(u64, u64, u64)] = &[
        (60, 200, 10), // the paper's defaults
        (10, 200, 10), // faster detection
        (60, 500, 10), // slower SPF throttle
        (60, 200, 50), // slower FIB install
        (10, 100, 5),  // aggressive everything
    ];
    for &(detection_ms, spf_ms, fib_ms) in cells {
        for design in [Design::FatTree, Design::F2Tree] {
            let config = EmuConfig::builder()
                .detection_delay(SimDuration::from_millis(detection_ms))
                .router(RouterConfig {
                    spf_initial_delay: SimDuration::from_millis(spf_ms),
                    fib_update_delay: SimDuration::from_millis(fib_ms),
                })
                .build();
            rows.push(AblationRow {
                design,
                detection_ms,
                spf_ms,
                fib_ms,
                loss_ms: c1_loss(design, config).as_millis(),
            });
        }
    }
    rows
}

/// Renders the ablation table.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::from(
        "Recovery-timer ablation (C1 failure, k=8)\n\
         design    | detect | spf  | fib | measured loss\n\
         ----------+--------+------+-----+--------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} | {:>4}ms | {:>3}ms | {:>2}ms | {:>5}ms\n",
            r.design.to_string(),
            r.detection_ms,
            r.spf_ms,
            r.fib_ms,
            r.loss_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_across_ports_survive_c7() {
        let [plain, wide] = run_c7_wide();
        assert_eq!(plain.across_ports, 2);
        assert!(
            plain.connectivity_loss_us > 200_000,
            "plain F2Tree degrades on C7: {}",
            plain.connectivity_loss_us
        );
        assert!(plain.looped, "plain F2Tree ping-pongs");
        assert_eq!(wide.across_ports, 4);
        assert!(
            (58_000..=66_000).contains(&wide.connectivity_loss_us),
            "wide ring stays detection-bounded: {}",
            wide.connectivity_loss_us
        );
    }

    #[test]
    fn unidirectional_failures_recover_like_bidirectional_ones() {
        let f2 = run_unidirectional(Design::F2Tree);
        let fat = run_unidirectional(Design::FatTree);
        assert!(
            (58_000..=66_000).contains(&f2.connectivity_loss_us),
            "f2: {}",
            f2.connectivity_loss_us
        );
        assert!(
            (265_000..=295_000).contains(&fat.connectivity_loss_us),
            "fat: {}",
            fat.connectivity_loss_us
        );
    }

    #[test]
    fn bisection_cost_of_the_rewiring_is_negligible() {
        // §II-D: "F2Tree keeps all the merits of fat tree such as no
        // oversubscription" — host-limited cross-pod flows finish in
        // comparable time on both designs.
        let fat = run_bisection(Design::FatTree);
        let f2 = run_bisection(Design::F2Tree);
        assert!(
            f2.aggregate_gbps >= 0.7 * fat.aggregate_gbps,
            "F2Tree {:.2} Gbps vs fat tree {:.2} Gbps",
            f2.aggregate_gbps,
            fat.aggregate_gbps
        );
        // And neither is pathologically slow for 5MB at ~1Gbps/flow.
        assert!(fat.makespan_ms < 1_000, "{}", fat.makespan_ms);
        assert!(f2.makespan_ms < 1_000, "{}", f2.makespan_ms);
    }

    #[test]
    fn aspen_protects_only_its_fault_tolerant_layer() {
        let [top, bottom] = run_aspen_baseline();
        // Agg-core failure: the parallel duplicate makes recovery
        // detection-bounded, like ECMP upward repairs.
        assert!(
            (58_000..=66_000).contains(&top.connectivity_loss_us),
            "fault-tolerant layer: {}",
            top.connectivity_loss_us
        );
        // ToR-agg failure: no backup; full OSPF convergence.
        assert!(
            (260_000..=300_000).contains(&bottom.connectivity_loss_us),
            "unprotected layer: {}",
            bottom.connectivity_loss_us
        );
    }

    #[test]
    fn centralized_recovery_scales_with_compute_unless_f2tree_masks_it() {
        for pair in run_centralized_sweep().chunks(2) {
            let (fat, f2) = (&pair[0], &pair[1]);
            assert_eq!((fat.design, f2.design), (Design::FatTree, Design::F2Tree));
            let compute_ms = fat.compute_ms;
            assert_eq!(f2.compute_ms, compute_ms);
            // Fat tree: detect (60) + report (5) + compute + push (5).
            let expected = (60 + 5 + compute_ms + 5) * 1000;
            assert!(
                fat.connectivity_loss_us >= expected
                    && fat.connectivity_loss_us <= expected + 5_000,
                "compute {compute_ms}ms: fat loss {}",
                fat.connectivity_loss_us
            );
            // F2Tree: detection-bounded regardless of the controller.
            assert!(
                (58_000..=66_000).contains(&f2.connectivity_loss_us),
                "compute {compute_ms}ms: f2 loss {}",
                f2.connectivity_loss_us
            );
        }
    }

    #[test]
    fn ablation_decomposes_the_recovery_time() {
        let rows = run_timer_ablation();
        for pair in rows.chunks(2) {
            let (fat, f2) = (&pair[0], &pair[1]);
            assert_eq!(fat.design, Design::FatTree);
            assert_eq!(f2.design, Design::F2Tree);
            // Fat tree: loss ≈ detection + SPF + FIB (within flooding
            // slack).
            let expected = fat.detection_ms + fat.spf_ms + fat.fib_ms;
            assert!(
                fat.loss_ms >= expected && fat.loss_ms <= expected + 25,
                "fat tree {}+{}+{} -> {}",
                fat.detection_ms,
                fat.spf_ms,
                fat.fib_ms,
                fat.loss_ms
            );
            // F2Tree: loss ≈ detection alone, regardless of SPF/FIB.
            assert!(
                f2.loss_ms >= f2.detection_ms && f2.loss_ms <= f2.detection_ms + 5,
                "f2tree detection {} -> {}",
                f2.detection_ms,
                f2.loss_ms
            );
        }
    }
}
