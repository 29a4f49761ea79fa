//! End-to-end delay series (Fig. 5).
//!
//! The paper plots per-packet end-to-end delay over time during recovery:
//! ~100 µs baseline, ~117 µs during F²Tree fast reroute (one extra hop),
//! higher plateaus for multi-hop ring detours (C4/C5), and gaps where
//! connectivity is lost. The probe is constant-rate, so the delays are a
//! view over its `(arrival, seq)` log, not a second record of it.

use dcn_sim::{SimDuration, SimTime};

/// One delay sample.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DelaySample {
    /// When the packet was sent.
    pub sent_at: SimTime,
    /// One-way end-to-end delay.
    pub delay: SimDuration,
}

/// The per-packet one-way delays of a constant-rate probe, read off its
/// arrival log: datagram `seq` left at `start + interval × seq`.
#[derive(Copy, Clone, Debug)]
pub struct DelaySeries<'a> {
    arrivals: &'a [(SimTime, u64)],
    start: SimTime,
    interval: SimDuration,
}

impl<'a> DelaySeries<'a> {
    /// The delays of a probe whose datagram 0 left at `start`, one every
    /// `interval`, that arrived as `arrivals` records (`(arrival, seq)`).
    pub fn new(arrivals: &'a [(SimTime, u64)], start: SimTime, interval: SimDuration) -> Self {
        DelaySeries {
            arrivals,
            start,
            interval,
        }
    }

    /// All samples in arrival order (a reroute can put a later-sent packet
    /// first).
    pub fn samples(self) -> impl ExactSizeIterator<Item = DelaySample> + 'a {
        self.arrivals.iter().map(move |&(arrival, seq)| {
            let sent_at = self.start + self.interval * seq;
            DelaySample {
                sent_at,
                delay: arrival.since(sent_at),
            }
        })
    }

    /// Mean delay of samples sent within `[start, end)` — `None` when the
    /// window holds none (a connectivity gap in Fig. 5).
    pub fn mean_in(&self, start: SimTime, end: SimTime) -> Option<SimDuration> {
        let window = self
            .samples()
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
        for s in self.samples().filter(|s| s.sent_at >= start) {
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

    const INTERVAL: SimDuration = SimDuration::from_micros(100);

    #[test]
    fn records_and_averages() {
        let arrivals = [(us(100), 0), (us(200), 1), (us(317), 2)]; // 2 rerouted: one extra hop
        let s = DelaySeries::new(&arrivals, SimTime::ZERO, INTERVAL);
        let m = s.mean_in(us(0), us(200)).unwrap();
        assert_eq!(m.as_micros(), 100);
        let m = s.mean_in(us(200), us(300)).unwrap();
        assert_eq!(m.as_micros(), 117);
    }

    #[test]
    fn empty_window_is_a_gap() {
        let arrivals = [(us(100), 0)];
        let s = DelaySeries::new(&arrivals, SimTime::ZERO, INTERVAL);
        assert!(s.mean_in(us(1_000), us(2_000)).is_none());
    }

    /// Datagram 3 overtakes datagram 2 on a probe that starts at 5 ms:
    /// each sample is still `(start + seq × interval, arrival − that)`,
    /// in arrival order.
    #[test]
    fn reordered_arrivals_of_a_late_probe_read_their_own_send_times() {
        let start = us(5_000);
        let arrivals = [
            (us(5_100), 0),
            (us(5_200), 1),
            (us(5_390), 3),
            (us(5_450), 2),
        ];
        let s = DelaySeries::new(&arrivals, start, INTERVAL);
        assert_eq!(s.samples().len(), 4);
        for (sample, &(arrival, seq)) in s.samples().zip(&arrivals) {
            let sent_at = start + INTERVAL * seq;
            assert_eq!(sample.sent_at, sent_at);
            assert_eq!(sample.delay, arrival.since(sent_at));
        }
        let delays: Vec<u64> = s.samples().map(|d| d.delay.as_micros()).collect();
        assert_eq!(delays, [100, 100, 90, 250]);
    }

    #[test]
    fn downsample_produces_gaps_and_plateaus() {
        // 0-10ms: 100us delay; 10-20ms: silence; 20-30ms: 117us.
        let arrivals: Vec<(SimTime, u64)> = (0..100)
            .map(|seq| (us(seq * 100 + 100), seq))
            .chain((200..300).map(|seq| (us(seq * 100 + 117), seq)))
            .collect();
        let s = DelaySeries::new(&arrivals, SimTime::ZERO, INTERVAL);
        let points = s.downsample(us(0), us(30_000), SimDuration::from_millis(10));
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].1.unwrap().as_micros(), 100);
        assert!(points[1].1.is_none());
        assert_eq!(points[2].1.unwrap().as_micros(), 117);
    }
}
