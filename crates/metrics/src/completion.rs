//! Request completion times, deadline-miss ratios, and CDFs (Fig. 6).

use dcn_sim::{SimDuration, SimTime};

use crate::nearest_rank;

/// Completion statistics for a set of requests.
#[derive(Clone, Debug, Default)]
pub struct CompletionStats {
    completions: Vec<SimDuration>,
    unfinished: u64,
}

impl CompletionStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        CompletionStats::default()
    }

    /// Records a request issued at `start` completing at `end`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        self.completions.push(end.since(start));
    }

    /// Records a completion duration directly.
    pub fn record_duration(&mut self, duration: SimDuration) {
        self.completions.push(duration);
    }

    /// Records a request that never completed within the experiment.
    /// Unfinished requests count as deadline misses at any deadline.
    pub fn record_unfinished(&mut self) {
        self.unfinished += 1;
    }

    /// Total requests recorded (completed + unfinished).
    pub fn total(&self) -> u64 {
        self.completions.len() as u64 + self.unfinished
    }

    /// Requests that never completed.
    pub fn unfinished(&self) -> u64 {
        self.unfinished
    }

    /// Fraction of requests that missed `deadline` (unfinished included).
    ///
    /// Returns 0 when no requests were recorded.
    pub fn deadline_miss_ratio(&self, deadline: SimDuration) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let missed =
            self.completions.iter().filter(|&&d| d > deadline).count() as u64 + self.unfinished;
        missed as f64 / total as f64
    }

    /// Sorted completion durations.
    pub fn sorted(&self) -> Vec<SimDuration> {
        let mut v = self.completions.clone();
        v.sort();
        v
    }

    /// The `q`-quantile completion time (`q` in `[0, 1]`); `None` when no
    /// completions were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        nearest_rank(&self.sorted(), q)
    }

    /// The CDF of completion times as `(duration, cumulative_fraction)`
    /// points over **all** recorded requests (unfinished requests hold
    /// the CDF below 1.0, like the paper's truncated Fig. 6(b) axis).
    pub fn cdf(&self) -> Vec<(SimDuration, f64)> {
        let total = self.total();
        if total == 0 {
            return Vec::new();
        }
        let sorted = self.sorted();
        sorted
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, (i + 1) as f64 / total as f64))
            .collect()
    }

    /// The complementary view the paper plots in Fig. 6(b): the fraction
    /// of requests with completion time exceeding `threshold` — the
    /// deadline-miss count, unfinished requests included.
    pub fn fraction_longer_than(&self, threshold: SimDuration) -> f64 {
        self.deadline_miss_ratio(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn stats(durations: &[u64]) -> CompletionStats {
        let mut s = CompletionStats::new();
        for &d in durations {
            s.record_duration(ms(d));
        }
        s
    }

    #[test]
    fn miss_ratio_counts_strictly_late_requests() {
        let s = stats(&[100, 200, 250, 300, 9000]);
        assert_eq!(s.deadline_miss_ratio(ms(250)), 2.0 / 5.0);
        assert_eq!(s.deadline_miss_ratio(ms(10_000)), 0.0);
    }

    #[test]
    fn unfinished_requests_always_miss() {
        let mut s = stats(&[100]);
        s.record_unfinished();
        assert_eq!(s.total(), 2);
        assert_eq!(s.deadline_miss_ratio(ms(250)), 0.5);
        assert_eq!(s.fraction_longer_than(ms(1_000_000)), 0.5);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut s = stats(&[30, 10, 20, 40]);
        s.record_unfinished();
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 4);
        for pair in cdf.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        // Unfinished request keeps the CDF from reaching 1.0.
        assert!((cdf.last().unwrap().1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let s = stats(&[10, 20, 30, 40, 50]);
        assert_eq!(s.quantile(0.0), Some(ms(10)));
        assert_eq!(s.quantile(0.5), Some(ms(30)));
        assert_eq!(s.quantile(1.0), Some(ms(50)));
        assert_eq!(CompletionStats::new().quantile(0.5), None);
    }

    #[test]
    fn empty_stats_are_all_zero() {
        let s = CompletionStats::new();
        assert_eq!(s.deadline_miss_ratio(ms(250)), 0.0);
        assert!(s.cdf().is_empty());
        assert_eq!(s.total(), 0);
    }
}
