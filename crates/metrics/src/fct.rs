//! Flow-completion-time summaries.
//!
//! A compact mean/median/p99/max digest over a set of durations — used by
//! the workload reports to summarize background-flow FCTs alongside the
//! partition-aggregate results.

use dcn_sim::SimDuration;

use crate::nearest_rank;

/// A five-number summary of a duration sample.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DurationSummary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median (p50).
    pub median: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl DurationSummary {
    /// Summarizes a sample; `None` when it is empty.
    pub fn of(samples: &[SimDuration]) -> Option<Self> {
        let mut sorted: Vec<SimDuration> = samples.to_vec();
        sorted.sort();
        let max = *sorted.last()?;
        let count = sorted.len() as u64;
        let sum: u64 = sorted.iter().map(|d| d.as_nanos()).sum();
        Some(DurationSummary {
            count,
            mean: SimDuration::from_nanos(sum / count),
            median: nearest_rank(&sorted, 0.5)?,
            p99: nearest_rank(&sorted, 0.99)?,
            max,
        })
    }
}

impl std::fmt::Display for DurationSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count, self.mean, self.median, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn summary_of_known_sample() {
        let sample: Vec<SimDuration> = (1..=100).map(ms).collect();
        let s = DurationSummary::of(&sample).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, SimDuration::from_micros(50_500));
        // Nearest-rank at q=0.5 over an even-sized sample picks the upper
        // of the two middle elements.
        assert_eq!(s.median, ms(51));
        assert_eq!(s.p99, ms(99));
        assert_eq!(s.max, ms(100));
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(DurationSummary::of(&[]).is_none());
    }

    #[test]
    fn single_element_summary() {
        let s = DurationSummary::of(&[ms(7)]).unwrap();
        assert_eq!(s.mean, ms(7));
        assert_eq!(s.median, ms(7));
        assert_eq!(s.p99, ms(7));
        assert_eq!(s.max, ms(7));
    }

    #[test]
    fn display_is_compact() {
        let s = DurationSummary::of(&[ms(10), ms(20)]).unwrap();
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean=15.000ms"));
    }
}
