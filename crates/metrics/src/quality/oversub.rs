//! Oversubscription summaries over quantized fabric-edge loads.
//!
//! Nearest-rank percentiles over a sorted copy, the same rule as
//! `DurationSummary`'s, so the summary is a pure function of the
//! multiset of loads and byte-stable to render.

use std::fmt;

use super::format_load;
use crate::nearest_rank;

/// Stable summary of quantized link loads: count, max, and
/// nearest-rank p50/p90/p99.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LoadSummary {
    /// Number of edges summarized.
    pub count: u64,
    /// Maximum quantized load.
    pub max: u64,
    /// Median (nearest-rank) quantized load.
    pub p50: u64,
    /// 90th-percentile (nearest-rank) quantized load.
    pub p90: u64,
    /// 99th-percentile (nearest-rank) quantized load.
    pub p99: u64,
}

impl LoadSummary {
    /// Summarizes a set of quantized loads; `None` when empty.
    pub fn of(loads: &[u64]) -> Option<Self> {
        let mut sorted = loads.to_vec();
        sorted.sort_unstable();
        Some(LoadSummary {
            count: sorted.len() as u64,
            max: *sorted.last()?,
            p50: nearest_rank(&sorted, 0.50)?,
            p90: nearest_rank(&sorted, 0.90)?,
            p99: nearest_rank(&sorted, 0.99)?,
        })
    }
}

impl fmt::Display for LoadSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} max {} p50 {} p90 {} p99 {}",
            self.count,
            format_load(self.max),
            format_load(self.p50),
            format_load(self.p90),
            format_load(self.p99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::LOAD_SCALE;
    use super::*;

    #[test]
    fn empty_is_none() {
        assert_eq!(LoadSummary::of(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let loads: Vec<u64> = (1..=100).map(|i| i * LOAD_SCALE).collect();
        let s = LoadSummary::of(&loads).expect("non-empty");
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100 * LOAD_SCALE);
        // Nearest rank on 0..=99: p50 -> idx 50 (value 51), p90 -> idx 89
        // (value 90), p99 -> idx 98 (value 99).
        assert_eq!(s.p50, 51 * LOAD_SCALE);
        assert_eq!(s.p90, 90 * LOAD_SCALE);
        assert_eq!(s.p99, 99 * LOAD_SCALE);
    }

    #[test]
    fn singleton_collapses() {
        let s = LoadSummary::of(&[7 * LOAD_SCALE]).expect("non-empty");
        assert_eq!(s.max, 7 * LOAD_SCALE);
        assert_eq!(s.p50, 7 * LOAD_SCALE);
        assert_eq!(s.p99, 7 * LOAD_SCALE);
        assert_eq!(s.to_string(), "n=1 max 7.000 p50 7.000 p90 7.000 p99 7.000");
    }

    #[test]
    fn order_invariant() {
        let a = LoadSummary::of(&[3, 1, 2]);
        let b = LoadSummary::of(&[2, 3, 1]);
        assert_eq!(a, b);
    }
}
