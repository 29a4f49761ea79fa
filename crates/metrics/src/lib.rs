//! # dcn-metrics — measurement substrate
//!
//! The exact metrics the paper reports, computed the way the paper
//! computes them:
//!
//! * [`ConnectivityTracker`] — duration of connectivity loss and packets
//!   lost from the constant-rate UDP probe (Table III, Fig. 4(a)/(b)),
//! * [`ThroughputSeries`] — 20 ms-binned receiving throughput and the
//!   *duration of throughput collapse* (< ½ pre-failure average;
//!   Fig. 2, Fig. 4(c)),
//! * [`DelaySeries`] — per-packet end-to-end delay over time (Fig. 5),
//!   read off the same probe's arrival log,
//! * [`CompletionStats`] — request completion times, deadline-miss
//!   ratios and CDFs (Fig. 6),
//! * [`QualityReport`] — per-FIB-epoch routing-quality scoring
//!   (expected link load, oversubscription, path diversity); see the
//!   [`quality`] module.
//!
//! # Examples
//!
//! ```
//! use dcn_metrics::CompletionStats;
//! use dcn_sim::SimDuration;
//!
//! let mut stats = CompletionStats::new();
//! stats.record_duration(SimDuration::from_millis(40));
//! stats.record_duration(SimDuration::from_millis(600)); // RTO-delayed
//! assert_eq!(stats.deadline_miss_ratio(SimDuration::from_millis(250)), 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod completion;
mod connectivity;
mod delay;
mod fct;
pub mod quality;
mod throughput;

pub use completion::CompletionStats;
pub use connectivity::{ConnectivityLoss, ConnectivityTracker};
pub use delay::{DelaySample, DelaySeries};
pub use fct::DurationSummary;
pub use quality::{
    DiversitySummary, LinkLoads, LoadSummary, NextHopDag, QualityInput, QualityReport,
};
pub use throughput::ThroughputSeries;

/// The `q`-quantile of an ascending sample by nearest rank — the element
/// at `round((len - 1) * q)` — or `None` when the sample is empty.
fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let idx = (sorted.len().saturating_sub(1) as f64 * q).round() as usize;
    sorted.get(idx).copied()
}
