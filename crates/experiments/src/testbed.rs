//! Fig. 2 + Table III: the testbed experiment.
//!
//! A 4-port, 3-layer fat tree / F²Tree carrying one UDP and one TCP probe
//! from the leftmost to the rightmost host. At t = 380 ms the downward
//! ToR–agg link on the forwarding path is torn down. Reported, exactly as
//! Table III: duration of connectivity loss (µs), packets lost, and
//! duration of TCP throughput collapse (µs); plus the Fig. 2 20 ms-binned
//! throughput series.
//!
//! That is the C1 cell of [`crate::conditions`] at testbed scale: the
//! same bed, probes, failure and measurement, with only the Fig. 2 bins
//! added here.

use dcn_failure::Condition;
use dcn_metrics::ThroughputSeries;
use dcn_sim::{SimDuration, SimTime};
use dcn_transport::PROBE_BYTES;
use f2tree::Design;
use serde::{Deserialize, Serialize};

use crate::conditions::{run_condition_bed, ConditionConfig};

/// One Table III row plus the Fig. 2 series for one design.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TestbedResult {
    /// Which design produced the row.
    pub design: Design,
    /// Duration of connectivity loss, in microseconds (Table III col 1).
    pub connectivity_loss_us: u64,
    /// UDP packets lost (Table III col 2).
    pub packets_lost: u64,
    /// Duration of TCP throughput collapse, µs (Table III col 3).
    pub throughput_collapse_us: u64,
    /// Fig. 2(a): UDP receiving throughput per bin, Mbps.
    pub udp_throughput_mbps: Vec<f64>,
    /// Fig. 2(b): TCP receiving throughput per bin, Mbps.
    pub tcp_throughput_mbps: Vec<f64>,
}

/// The testbed: Fig. 4's C1 cell on the paper's 4-port fabric with one
/// host per rack, failed at 380 ms (2 s horizon, 20 ms bins).
pub(crate) fn testbed_config() -> ConditionConfig {
    ConditionConfig {
        k: 4,
        hosts_per_tor: 1,
        fail_at_ms: 380,
        ..ConditionConfig::default()
    }
}

/// Runs the testbed experiment for one design.
pub fn run_testbed(design: Design) -> TestbedResult {
    let config = testbed_config();
    let run = run_condition_bed(design, Condition::C1, &config);
    let recovery = run.recovery(&config);

    let report = run.bed.net.udp_probe_report(run.udp);
    let mut udp_series = ThroughputSeries::new();
    for &(t, _) in report.connectivity.arrivals() {
        udp_series.record(t, PROBE_BYTES);
    }
    let bin = SimDuration::from_millis(config.bin_ms);
    let mbps = |series: &ThroughputSeries| -> Vec<f64> {
        series
            .bins(SimTime::ZERO, config.horizon(), bin)
            .into_iter()
            .map(|bps| bps / 1e6)
            .collect()
    };

    TestbedResult {
        design,
        connectivity_loss_us: recovery.loss_us.expect("probe recovers"),
        packets_lost: recovery.packets_lost,
        throughput_collapse_us: recovery.collapse_us.expect("TCP recovers"),
        udp_throughput_mbps: mbps(&udp_series),
        tcp_throughput_mbps: mbps(&recovery.tcp_series),
    }
}

/// Runs both designs for Table III.
pub fn run_table3() -> [TestbedResult; 2] {
    [run_testbed(Design::FatTree), run_testbed(Design::F2Tree)]
}

/// Renders the Table III comparison as text.
pub fn format_table3(results: &[TestbedResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table III: failure of one downward ToR-agg link (testbed)\n\
         design    | connectivity loss (us) | packets lost | throughput collapse (us)\n\
         ----------+------------------------+--------------+-------------------------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:<9} | {:>22} | {:>12} | {:>24}\n",
            r.design.to_string(),
            r.connectivity_loss_us,
            r.packets_lost,
            r.throughput_collapse_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_matches_the_paper() {
        let results = run_table3();
        let fat = &results[0];
        let f2 = &results[1];

        // Fat tree ~272ms; F2Tree ~60ms (paper: 272_847us vs 60_619us).
        assert!(
            (265_000..=285_000).contains(&fat.connectivity_loss_us),
            "fat: {}",
            fat.connectivity_loss_us
        );
        assert!(
            (58_000..=65_000).contains(&f2.connectivity_loss_us),
            "f2: {}",
            f2.connectivity_loss_us
        );
        // ~78% reduction in loss duration.
        let reduction = 1.0 - f2.connectivity_loss_us as f64 / fat.connectivity_loss_us as f64;
        assert!((0.70..=0.85).contains(&reduction), "reduction {reduction}");

        // ~75% fewer packets lost.
        let pkt_reduction = 1.0 - f2.packets_lost as f64 / fat.packets_lost as f64;
        assert!(
            (0.70..=0.85).contains(&pkt_reduction),
            "packets {} -> {}",
            fat.packets_lost,
            f2.packets_lost
        );

        // TCP collapse ~700ms vs ~220ms.
        assert!(
            (560_000..=720_000).contains(&fat.throughput_collapse_us),
            "fat tcp: {}",
            fat.throughput_collapse_us
        );
        assert!(
            (180_000..=260_000).contains(&f2.throughput_collapse_us),
            "f2 tcp: {}",
            f2.throughput_collapse_us
        );
    }

    #[test]
    fn fig2_series_show_the_outage_dip() {
        let r = run_testbed(Design::F2Tree);
        // Bin 19 contains the failure (380ms); bins 20-21 are the outage.
        let pre = r.udp_throughput_mbps[..19].iter().sum::<f64>() / 19.0;
        assert!(pre > 100.0, "pre-failure UDP rate ~116Mbps, got {pre}");
        assert!(
            r.udp_throughput_mbps[20] < pre / 4.0,
            "outage bin dips: {}",
            r.udp_throughput_mbps[20]
        );
        // Recovered by 500ms.
        assert!(r.udp_throughput_mbps[25] > pre * 0.9);
    }

    #[test]
    fn formatted_table_contains_both_rows() {
        let results = run_table3();
        let text = format_table3(&results);
        assert!(text.contains("Fat tree"));
        assert!(text.contains("F2Tree"));
    }
}
