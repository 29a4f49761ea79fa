//! End-to-end delay series (Fig. 5).
//!
//! The paper plots per-packet end-to-end delay over time during recovery:
//! ~100 µs baseline, ~117 µs during F²Tree fast reroute (one extra hop),
//! higher plateaus for multi-hop ring detours (C4/C5), and gaps where
//! connectivity is lost.

use dcn_sim::{SimDuration, SimTime};

/// One delay sample.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DelaySample {
    /// When the packet was sent.
    pub sent_at: SimTime,
    /// One-way end-to-end delay.
    pub delay: SimDuration,
}

/// A time series of per-packet one-way delays.
#[derive(Clone, Debug, Default)]
pub struct DelaySeries {
    samples: Vec<DelaySample>,
}

impl DelaySeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        DelaySeries::default()
    }

    /// Records a packet sent at `sent_at` and received at `received_at`.
    pub fn record(&mut self, sent_at: SimTime, received_at: SimTime) {
        self.samples.push(DelaySample {
            sent_at,
            delay: received_at.since(sent_at),
        });
    }

    /// All samples in arrival order (`record` runs on delivery, so a
    /// reroute can put a later-sent packet first).
    pub fn samples(&self) -> &[DelaySample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean delay of samples sent within `[start, end)` — `None` when the
    /// window holds none (a connectivity gap in Fig. 5).
    pub fn mean_in(&self, start: SimTime, end: SimTime) -> Option<SimDuration> {
        let window = self
            .samples
            .iter()
            .filter(|s| s.sent_at >= start && s.sent_at < end);
        let (sum, count) = window.fold((0, 0), |(sum, count), s| {
            (sum + s.delay.as_nanos(), count + 1)
        });
        mean(sum, count)
    }

    /// Downsamples into `(window_start, mean_delay)` points for plotting;
    /// windows with no arrivals yield `None` (plotted as gaps). Windows
    /// start at `start` and tile `[start, end)`; the last one may overhang
    /// `end` and still counts every sample that falls in it. One pass:
    /// each sample is bucketed by `(sent_at - start) / window`.
    pub fn downsample(
        &self,
        start: SimTime,
        end: SimTime,
        window: SimDuration,
    ) -> Vec<(SimTime, Option<SimDuration>)> {
        assert!(window > SimDuration::ZERO, "window must be positive");
        let windows = end.since(start).as_nanos().div_ceil(window.as_nanos());
        let mut bins = vec![(0u64, 0u64); windows as usize];
        for s in self.samples.iter().filter(|s| s.sent_at >= start) {
            let index = s.sent_at.since(start).as_nanos() / window.as_nanos();
            if let Some((sum, count)) = bins.get_mut(index as usize) {
                *sum += s.delay.as_nanos();
                *count += 1;
            }
        }
        (0u64..)
            .zip(bins)
            .map(|(i, (sum, count))| (start + window * i, mean(sum, count)))
            .collect()
    }
}

fn mean(sum_ns: u64, count: u64) -> Option<SimDuration> {
    (count > 0).then(|| SimDuration::from_nanos(sum_ns / count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(v)
    }

    #[test]
    fn records_and_averages() {
        let mut s = DelaySeries::new();
        s.record(us(0), us(100));
        s.record(us(100), us(200));
        s.record(us(200), us(317)); // rerouted: one extra hop
        let m = s.mean_in(us(0), us(200)).unwrap();
        assert_eq!(m.as_micros(), 100);
        let m = s.mean_in(us(200), us(300)).unwrap();
        assert_eq!(m.as_micros(), 117);
    }

    #[test]
    fn empty_window_is_a_gap() {
        let mut s = DelaySeries::new();
        s.record(us(0), us(100));
        assert!(s.mean_in(us(1_000), us(2_000)).is_none());
    }

    #[test]
    fn downsample_produces_gaps_and_plateaus() {
        let mut s = DelaySeries::new();
        // 0-10ms: 100us delay; 10-20ms: silence; 20-30ms: 117us.
        let mut t = 0;
        while t < 10_000 {
            s.record(us(t), us(t + 100));
            t += 100;
        }
        let mut t = 20_000;
        while t < 30_000 {
            s.record(us(t), us(t + 117));
            t += 100;
        }
        let points = s.downsample(us(0), us(30_000), SimDuration::from_millis(10));
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].1.unwrap().as_micros(), 100);
        assert!(points[1].1.is_none());
        assert_eq!(points[2].1.unwrap().as_micros(), 117);
    }
}
