//! Connectivity-loss measurement (Table III, Fig. 4(a)/(b)).
//!
//! Mirrors the paper's method exactly: "We record the time of the last UDP
//! packet arrived at the receiver before this duration, and the time of
//! the first UDP packet just after this duration. The time difference of
//! the arrival of these two packets reflects the duration of connectivity
//! loss" — and lost packets are the sender/receiver census difference.

use dcn_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Receiver-side record of a constant-rate probe flow.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ConnectivityTracker {
    arrivals: Vec<(SimTime, u64)>,
}

/// The measured outcome around one failure.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectivityLoss {
    /// Arrival time of the last packet before the gap.
    pub last_before: SimTime,
    /// Arrival time of the first packet after the gap.
    pub first_after: SimTime,
    /// `first_after - last_before`.
    pub duration: SimDuration,
}

impl ConnectivityTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ConnectivityTracker::default()
    }

    /// Records the arrival of probe packet `seq` at `at`.
    ///
    /// Arrival times must be non-decreasing (they come from one receiver).
    pub fn record(&mut self, at: SimTime, seq: u64) {
        debug_assert!(self.arrivals.last().is_none_or(|&(t, _)| t <= at));
        self.arrivals.push((at, seq));
    }

    /// Number of packets received.
    pub fn received(&self) -> u64 {
        self.arrivals.len() as u64
    }

    /// Distinct sequence numbers received (duplicates collapse).
    pub fn received_distinct(&self) -> u64 {
        let mut seqs: Vec<u64> = self.arrivals.iter().map(|&(_, s)| s).collect();
        seqs.sort_unstable();
        seqs.dedup();
        seqs.len() as u64
    }

    /// Packets lost given the sender emitted `sent` packets.
    pub fn lost(&self, sent: u64) -> u64 {
        sent.saturating_sub(self.received_distinct())
    }

    /// The dominant arrival gap caused by a failure at `failure_at`: the
    /// largest gap between consecutive arrivals that *ends* after the
    /// failure instant. This matches the paper's measurement — packets
    /// already in flight at the failure instant may still land a few
    /// microseconds later, so the loss window opens at the last packet
    /// that made it through, wherever that falls relative to the failure.
    pub fn loss_around(&self, failure_at: SimTime) -> Option<ConnectivityLoss> {
        let mut best: Option<ConnectivityLoss> = None;
        for pair in self.arrivals.windows(2) {
            let (t0, _) = pair[0];
            let (t1, _) = pair[1];
            if t1 <= failure_at {
                continue;
            }
            let gap = t1.since(t0);
            if best.is_none_or(|b| gap > b.duration) {
                best = Some(ConnectivityLoss {
                    last_before: t0,
                    first_after: t1,
                    duration: gap,
                });
            }
        }
        best
    }

    /// The raw arrival log.
    pub fn arrivals(&self) -> &[(SimTime, u64)] {
        &self.arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(v)
    }

    /// Arrivals every 100us, a gap [10ms, 70ms), then steady again —
    /// the testbed's F²Tree shape (60ms loss).
    fn with_gap() -> ConnectivityTracker {
        let mut t = ConnectivityTracker::new();
        for seq in 0..100 {
            t.record(us(seq * 100), seq);
        }
        // 60ms of silence: sequences 100..700 lost.
        for i in 0..100 {
            t.record(us(70_000 + i * 100), 700 + i);
        }
        t
    }

    #[test]
    fn loss_around_measures_the_straddling_gap() {
        let t = with_gap();
        let loss = t.loss_around(us(10_000)).unwrap();
        assert_eq!(loss.last_before, us(9_900));
        assert_eq!(loss.first_after, us(70_000));
        assert_eq!(loss.duration.as_micros(), 60_100);
    }

    #[test]
    fn lost_counts_the_census_difference() {
        let t = with_gap();
        // Sender emitted 800 packets (0..800); receiver saw 200.
        assert_eq!(t.lost(800), 600);
        assert_eq!(t.received(), 200);
    }

    #[test]
    fn duplicates_do_not_inflate_received_distinct() {
        let mut t = ConnectivityTracker::new();
        t.record(us(0), 0);
        t.record(us(100), 0);
        t.record(us(200), 1);
        assert_eq!(t.received(), 3);
        assert_eq!(t.received_distinct(), 2);
        assert_eq!(t.lost(5), 3);
    }

    #[test]
    fn no_traffic_after_failure_returns_none() {
        let mut t = ConnectivityTracker::new();
        t.record(us(0), 0);
        assert!(t.loss_around(us(50)).is_none());
        assert!(ConnectivityTracker::new().loss_around(us(0)).is_none());
    }

    #[test]
    fn in_flight_packet_just_after_failure_does_not_hide_the_gap() {
        // A packet already on the wire lands 1us after the failure; the
        // dominant gap must still be found.
        let mut t = ConnectivityTracker::new();
        for i in 0..100u64 {
            t.record(us(i * 100), i);
        }
        t.record(us(10_001), 100); // in flight at the 10ms failure
        t.record(us(70_000), 700); // recovery
        let loss = t.loss_around(us(10_000)).unwrap();
        assert_eq!(loss.last_before, us(10_001));
        assert_eq!(loss.first_after, us(70_000));
    }
}
