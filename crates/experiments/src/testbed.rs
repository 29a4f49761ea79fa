//! Fig. 2 + Table III: the testbed experiment.
//!
//! A 4-port, 3-layer fat tree / F²Tree carrying one UDP and one TCP probe
//! from the leftmost to the rightmost host. At t = 380 ms the downward
//! ToR–agg link on the forwarding path is torn down. Reported, exactly as
//! Table III: duration of connectivity loss (µs), packets lost, and
//! duration of TCP throughput collapse (µs); plus the Fig. 2 20 ms-binned
//! throughput series.

use dcn_metrics::ThroughputSeries;
use dcn_net::Layer;
use dcn_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::common::{Design, TestBed};

/// Parameters of the testbed experiment (defaults match the paper).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TestbedConfig {
    /// Switch port count (paper: 4).
    pub k: u32,
    /// Failure instant (paper: 380 ms).
    pub fail_at_ms: u64,
    /// Total experiment horizon.
    pub horizon_ms: u64,
    /// Throughput bin width (paper: 20 ms).
    pub bin_ms: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            k: 4,
            fail_at_ms: 380,
            horizon_ms: 2000,
            bin_ms: 20,
        }
    }
}

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

/// Runs the testbed experiment for one design.
pub fn run_testbed(design: Design, config: &TestbedConfig) -> TestbedResult {
    let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
    let fail_at = ms(config.fail_at_ms);
    let horizon = ms(config.horizon_ms);
    let bin = SimDuration::from_millis(config.bin_ms);

    #[expect(clippy::expect_used, reason = "TestbedConfig scales (k=4 class) are valid")]
    let mut bed = TestBed::build(design, config.k, 1).expect("testbed builds");
    // Both probes share one forwarding path, as in the paper's testbed,
    // and the downward ToR-agg link of that path is torn down.
    let (udp, tcp) = bed.add_aligned_probes(SimTime::ZERO);
    let link = bed
        .probe_path_link(udp, Layer::Agg)
        .expect("path link exists");
    bed.net.fail_link_at(fail_at, link);

    bed.net.run_until(horizon);

    let report = bed.net.udp_probe_report(udp);
    let loss = report
        .connectivity
        .loss_around(fail_at)
        .expect("probe recovers");

    let mut udp_series = ThroughputSeries::new();
    for &(t, _) in report.connectivity.arrivals() {
        udp_series.record(t, 1448);
    }
    let mut tcp_series = ThroughputSeries::new();
    tcp_series.extend_from_log(bed.net.tcp_delivery_log(tcp));
    let collapse = tcp_series
        .collapse_duration(SimTime::ZERO, fail_at, horizon, bin)
        .expect("TCP recovers");

    TestbedResult {
        design,
        connectivity_loss_us: loss.duration.as_micros(),
        packets_lost: report.lost,
        throughput_collapse_us: collapse.as_micros(),
        udp_throughput_mbps: udp_series
            .bins(SimTime::ZERO, horizon, bin)
            .into_iter()
            .map(|bps| bps / 1e6)
            .collect(),
        tcp_throughput_mbps: tcp_series
            .bins(SimTime::ZERO, horizon, bin)
            .into_iter()
            .map(|bps| bps / 1e6)
            .collect(),
    }
}

/// Runs both designs and formats Table III.
pub fn run_table3(config: &TestbedConfig) -> [TestbedResult; 2] {
    [
        run_testbed(Design::FatTree, config),
        run_testbed(Design::F2Tree, config),
    ]
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
        let results = run_table3(&TestbedConfig::default());
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
        let reduction =
            1.0 - f2.connectivity_loss_us as f64 / fat.connectivity_loss_us as f64;
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
        let r = run_testbed(Design::F2Tree, &TestbedConfig::default());
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
        let results = run_table3(&TestbedConfig::default());
        let text = format_table3(&results);
        assert!(text.contains("Fat tree"));
        assert!(text.contains("F2Tree"));
    }
}
