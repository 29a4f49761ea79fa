//! CSV artifact export: `repro --out DIR` writes each figure's series as
//! plain CSV next to the printed tables, so results can be replotted
//! without re-running (no extra serialization dependency needed).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use dcn_routing::RecoveryMode;

use crate::conditions::ConditionGrid;
use crate::testbed::{testbed_config, TestbedResult};
use crate::workload::WorkloadResult;

/// Writes a CSV file with a header row and row-builder callback.
fn write_csv(path: &Path, header: &str, rows: &[String]) -> io::Result<()> {
    let mut content = String::with_capacity(rows.len() * 32 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for row in rows {
        content.push_str(row);
        content.push('\n');
    }
    fs::write(path, content)
}

/// Exports the Fig. 2 throughput series (`fig2_throughput.csv`).
pub fn export_fig2(dir: &Path, results: &[TestbedResult]) -> io::Result<()> {
    let bin_ms = testbed_config().bin_ms;
    let mut rows = Vec::new();
    for r in results {
        for (i, (&udp, &tcp)) in r
            .udp_throughput_mbps
            .iter()
            .zip(r.tcp_throughput_mbps.iter())
            .enumerate()
        {
            rows.push(format!(
                "{},{},{udp:.3},{tcp:.3}",
                r.design,
                i as u64 * bin_ms
            ));
        }
    }
    write_csv(
        &dir.join("fig2_throughput.csv"),
        "design,time_ms,udp_mbps,tcp_mbps",
        &rows,
    )
}

/// Exports Fig. 4 with F²Tree under `mode` (`fig4_conditions.csv`).
pub fn export_fig4(dir: &Path, grid: &ConditionGrid, mode: RecoveryMode) -> io::Result<()> {
    let rows: Vec<String> = grid
        .fig4(mode)
        .map(|r| {
            format!(
                "{},{},{},{},{},{}",
                r.condition,
                r.design,
                r.paper_condition,
                r.connectivity_loss_us
                    .map_or(String::from(""), |v| v.to_string()),
                r.packets_lost,
                r.throughput_collapse_us
                    .map_or(String::from(""), |v| v.to_string()),
            )
        })
        .collect();
    write_csv(
        &dir.join("fig4_conditions.csv"),
        "condition,design,paper_condition,loss_us,packets_lost,tcp_collapse_us",
        &rows,
    )
}

/// Exports Fig. 5's delay series, F²Tree under `mode` (`fig5_delay.csv`).
pub fn export_fig5(dir: &Path, grid: &ConditionGrid, mode: RecoveryMode) -> io::Result<()> {
    let mut rows = Vec::new();
    for r in grid.fig5(mode) {
        for &(t_ms, delay) in &r.delay_series {
            let mut row = format!("{},{},{t_ms}", r.design, r.condition);
            match delay {
                Some(d) => {
                    let _ = write!(row, ",{d:.1}");
                }
                None => row.push(','),
            }
            rows.push(row);
        }
    }
    write_csv(
        &dir.join("fig5_delay.csv"),
        "design,condition,time_ms,delay_us",
        &rows,
    )
}

/// Exports the Fig. 6 completion CDFs (`fig6_cdf.csv`) and summary
/// (`fig6_summary.csv`).
pub fn export_fig6(dir: &Path, results: &[WorkloadResult]) -> io::Result<()> {
    let mut cdf_rows = Vec::new();
    let mut summary_rows = Vec::new();
    for r in results {
        for &(ms, frac) in &r.cdf_over_100ms {
            cdf_rows.push(format!(
                "{},{},{ms:.3},{frac:.6}",
                r.design, r.concurrent_failures
            ));
        }
        summary_rows.push(format!(
            "{},{},{},{},{},{:.6}",
            r.design,
            r.concurrent_failures,
            r.requests,
            r.unfinished,
            r.failures_injected,
            r.deadline_miss_ratio
        ));
    }
    write_csv(
        &dir.join("fig6_cdf.csv"),
        "design,concurrent_failures,completion_ms,cdf",
        &cdf_rows,
    )?;
    write_csv(
        &dir.join("fig6_summary.csv"),
        "design,concurrent_failures,requests,unfinished,failures,miss_ratio",
        &summary_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::run_table3;

    #[test]
    fn fig2_csv_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("f2tree-artifacts-test");
        fs::create_dir_all(&dir).unwrap();
        export_fig2(&dir, &run_table3()).unwrap();
        let content = fs::read_to_string(dir.join("fig2_throughput.csv")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines[0], "design,time_ms,udp_mbps,tcp_mbps");
        // 2 designs x 100 bins.
        assert_eq!(lines.len(), 1 + 2 * 100);
        assert!(lines[1].starts_with("Fat tree,0,"));
        fs::remove_dir_all(&dir).ok();
    }
}
