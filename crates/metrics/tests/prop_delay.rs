//! `DelaySeries::downsample` buckets every sample in one pass; it must
//! return what the per-window rescan it replaced returned.
//!
//! The series is read off an arrival log in which one datagram leaves per
//! nanosecond from t = 0, so a datagram's sequence number is its send time
//! in ns.

use dcn_metrics::DelaySeries;
use dcn_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// `downsample` as shipped before the single pass: one `mean_in` filter
/// over all samples per window.
fn reference_downsample(
    series: &DelaySeries<'_>,
    start: SimTime,
    end: SimTime,
    window: SimDuration,
) -> Vec<(SimTime, Option<SimDuration>)> {
    let mean_in = |from: SimTime, to: SimTime| {
        let window: Vec<u64> = series
            .samples()
            .filter(|s| s.sent_at >= from && s.sent_at < to)
            .map(|s| s.delay.as_nanos())
            .collect();
        if window.is_empty() {
            return None;
        }
        let sum: u64 = window.iter().sum();
        Some(SimDuration::from_nanos(sum / window.len() as u64))
    };
    let mut out = Vec::new();
    let mut t = start;
    while t < end {
        let next = t + window;
        out.push((t, mean_in(t, next)));
        t = next;
    }
    out
}

/// The `(arrival, seq)` log of datagrams sent at `sent_ns` and delayed by
/// `delay_ns`, one `(sent_ns, delay_ns)` pair each, in the given order.
fn arrival_log(samples: &[(u64, u64)]) -> Vec<(SimTime, u64)> {
    samples
        .iter()
        .map(|&(sent_ns, delay_ns)| (SimTime::from_nanos(sent_ns + delay_ns), sent_ns))
        .collect()
}

/// The delays of a probe that sends datagram `seq` at `seq` ns.
fn series(log: &[(SimTime, u64)]) -> DelaySeries<'_> {
    DelaySeries::new(log, SimTime::ZERO, SimDuration::from_nanos(1))
}

/// A last window that overhangs `end` still counts what falls in it, and
/// samples outside every window count nowhere.
#[test]
fn the_overhanging_last_window_counts_what_falls_in_it() {
    // Windows [10, 40), [40, 70), [70, 100) over start = 10, end = 75.
    let log = arrival_log(&[
        (9, 1),
        (10, 100),
        (39, 300),
        (74, 50),
        (90, 70),
        (99, 90),
        (100, 7),
    ]);
    let s = series(&log);
    let (start, end) = (SimTime::from_nanos(10), SimTime::from_nanos(75));
    let points = s.downsample(start, end, SimDuration::from_nanos(30));
    let means: Vec<Option<u64>> = points.iter().map(|p| p.1.map(|d| d.as_nanos())).collect();
    assert_eq!(means, vec![Some(200), None, Some(70)]);
    assert_eq!(
        points,
        reference_downsample(&s, start, end, SimDuration::from_nanos(30))
    );
    assert_eq!(s.mean_in(start, end), Some(SimDuration::from_nanos(150)));
}

proptest! {
    /// Same windows, same integer means — with `sent_at` out of order (a
    /// reroute reorders arrivals), samples before `start` and past the
    /// last window, windows that do not divide the span, and `end` at or
    /// before `start`.
    #[test]
    fn downsample_matches_the_per_window_rescan(
        samples in prop::collection::vec((0u64..5_000, 0u64..1_000_000), 0..400),
        start in 0u64..3_000,
        span in 0u64..4_000,
        end_before_start in any::<bool>(),
        window in 1u64..700,
    ) {
        let log = arrival_log(&samples);
        let s = series(&log);
        let start_at = SimTime::from_nanos(start);
        let end = if end_before_start {
            SimTime::from_nanos(start.saturating_sub(span))
        } else {
            start_at + SimDuration::from_nanos(span)
        };
        let window = SimDuration::from_nanos(window);
        prop_assert_eq!(
            s.downsample(start_at, end, window),
            reference_downsample(&s, start_at, end, window)
        );
    }
}
