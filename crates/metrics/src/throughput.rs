//! Binned throughput and throughput-collapse measurement (Fig. 2,
//! Fig. 4(c)).
//!
//! The paper plots instantaneous receiving throughput in 20 ms bins and
//! defines the *duration of throughput collapse* as the time the binned
//! TCP throughput stays below half the pre-failure average.

use dcn_sim::{SimDuration, SimTime};

/// Receiver-side byte arrival log binned into a throughput series.
#[derive(Clone, Debug, Default)]
pub struct ThroughputSeries {
    samples: Vec<(SimTime, u32)>,
}

impl ThroughputSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        ThroughputSeries::default()
    }

    /// Records `bytes` delivered at `at`.
    pub fn record(&mut self, at: SimTime, bytes: u32) {
        debug_assert!(self.samples.last().is_none_or(|&(t, _)| t <= at));
        self.samples.push((at, bytes));
    }

    /// Bulk import from a `(time, bytes)` log (e.g.
    /// `TcpReceiver::delivery_log`).
    pub fn extend_from_log(&mut self, log: &[(SimTime, u32)]) {
        self.samples.extend_from_slice(log);
        self.samples.sort_by_key(|&(t, _)| t);
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.samples.iter().map(|&(_, b)| b as u64).sum()
    }

    /// Throughput per bin in bits/second over `[start, end)`.
    pub fn bins(&self, start: SimTime, end: SimTime, bin: SimDuration) -> Vec<f64> {
        assert!(bin > SimDuration::ZERO, "bin width must be positive");
        let span = end.since(start);
        let n = span.as_nanos().div_ceil(bin.as_nanos()) as usize;
        let mut bytes = vec![0u64; n];
        for &(t, b) in &self.samples {
            if t >= start && t < end {
                let idx = (t.since(start).as_nanos() / bin.as_nanos()) as usize;
                bytes[idx] += b as u64;
            }
        }
        let bin_secs = bin.as_secs_f64();
        bytes
            .into_iter()
            .map(|b| b as f64 * 8.0 / bin_secs)
            .collect()
    }

    /// The paper's *duration of throughput collapse*: starting at
    /// `failure_at`, the time until the binned throughput first returns to
    /// at least half the pre-failure average (computed over the bins in
    /// `[measure_from, failure_at)`).
    ///
    /// Returns `None` if there is no pre-failure traffic or the series
    /// never recovers within the recorded horizon.
    pub fn collapse_duration(
        &self,
        measure_from: SimTime,
        failure_at: SimTime,
        horizon: SimTime,
        bin: SimDuration,
    ) -> Option<SimDuration> {
        let pre = self.bins(measure_from, failure_at, bin);
        if pre.is_empty() {
            return None;
        }
        let pre_avg = pre.iter().sum::<f64>() / pre.len() as f64;
        if pre_avg <= 0.0 {
            return None;
        }
        let threshold = pre_avg / 2.0;
        let post = self.bins(failure_at, horizon, bin);
        for (i, &bps) in post.iter().enumerate() {
            if bps >= threshold {
                return Some(bin * i as u64);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    const BIN: SimDuration = SimDuration::from_millis(20);

    /// 1448B every 100us (≈116 Mbps), silent in [380ms, 600ms).
    fn collapsing() -> ThroughputSeries {
        let mut s = ThroughputSeries::new();
        let mut t = SimTime::ZERO;
        while t < ms(380) {
            s.record(t, 1448);
            t += SimDuration::from_micros(100);
        }
        let mut t = ms(600);
        while t < ms(1000) {
            s.record(t, 1448);
            t += SimDuration::from_micros(100);
        }
        s
    }

    #[test]
    fn bins_report_steady_rate() {
        let s = collapsing();
        let bins = s.bins(SimTime::ZERO, ms(380), BIN);
        assert_eq!(bins.len(), 19);
        for &bps in &bins {
            assert!((bps / 115_840_000.0 - 1.0).abs() < 0.01, "bps {bps}");
        }
    }

    #[test]
    fn silent_bins_are_zero() {
        let s = collapsing();
        let bins = s.bins(ms(400), ms(600), BIN);
        assert!(bins.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn collapse_duration_matches_the_outage() {
        let s = collapsing();
        let d = s
            .collapse_duration(SimTime::ZERO, ms(380), ms(1000), BIN)
            .unwrap();
        // Outage is 220ms (380 -> 600); with 20ms bins the first bin at or
        // above half-rate starts at 220ms.
        assert_eq!(d.as_millis(), 220);
    }

    #[test]
    fn collapse_without_recovery_is_none() {
        let mut s = ThroughputSeries::new();
        let mut t = SimTime::ZERO;
        while t < ms(380) {
            s.record(t, 1448);
            t += SimDuration::from_micros(100);
        }
        assert!(s
            .collapse_duration(SimTime::ZERO, ms(380), ms(1000), BIN)
            .is_none());
    }

    #[test]
    fn collapse_without_pre_traffic_is_none() {
        let s = ThroughputSeries::new();
        assert!(s
            .collapse_duration(SimTime::ZERO, ms(380), ms(1000), BIN)
            .is_none());
    }

    #[test]
    fn extend_from_log_sorts() {
        let mut s = ThroughputSeries::new();
        s.extend_from_log(&[(ms(10), 100), (ms(5), 50)]);
        assert_eq!(s.total_bytes(), 150);
        let bins = s.bins(SimTime::ZERO, ms(20), BIN);
        assert_eq!(bins.len(), 1);
    }
}
