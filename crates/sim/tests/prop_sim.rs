//! Property-based tests for the event queue and link model.

use dcn_sim::{Direction, EventQueue, LinkSpec, LinkState, SimDuration, SimTime, TransmitVerdict};
use proptest::prelude::*;

/// `LinkState::transmit`'s verdict as computed before the capacity test
/// was cross-multiplied: the backlog converted to whole bytes by a 128-bit
/// division. Tracks one direction of an always-up link.
fn reference_transmit(
    busy_until: &mut SimTime,
    spec: &LinkSpec,
    now: SimTime,
    bytes: u32,
) -> TransmitVerdict {
    let busy = (*busy_until).max(now);
    let backlog = busy.since(now);
    let backlog_bytes =
        (backlog.as_nanos() as u128 * spec.bandwidth_bps as u128 / 8 / 1_000_000_000) as u64;
    if backlog_bytes + bytes as u64 > spec.queue_capacity_bytes {
        return TransmitVerdict::DroppedQueueFull;
    }
    let done = busy + spec.tx_time(bytes);
    *busy_until = done;
    TransmitVerdict::Deliver {
        arrival: done + spec.propagation,
    }
}

/// The capacity test at its boundary: a packet that fills the queue to
/// exactly its capacity is admitted, one byte more is not.
#[test]
fn link_admits_up_to_exactly_its_capacity() {
    let spec = LinkSpec::PAPER_EMULATION; // 1 Gbps: one byte is 8 ns
    let mut state = LinkState::new();
    let mut busy_until = SimTime::ZERO;
    let mut offer = |now_ns: u64, bytes: u32| {
        let now = SimTime::from_nanos(now_ns);
        let verdict = state.transmit(&spec, Direction::AToB, now, bytes);
        let expected = reference_transmit(&mut busy_until, &spec, now, bytes);
        assert_eq!(verdict, expected);
        matches!(verdict, TransmitVerdict::Deliver { .. })
    };
    // 99 × 1500 B of backlog, then the 100th reaches 150 000 B exactly.
    for _ in 0..100 {
        assert!(offer(0, 1500));
    }
    assert!(!offer(0, 1), "150 000 B of backlog admit nothing");
    // The backlog counts whole bytes: 149 999.875 B is 149 999 B.
    assert!(offer(1, 1), "149 999 B + 1 B is exactly the capacity");
    assert!(!offer(1, 1), "and that byte filled it again");
    assert!(!offer(8, 1), "8 ns on, exactly one byte has left");
    assert!(!offer(9, 2));
    assert!(offer(9, 1));
    // Larger than the whole queue: dropped even by an idle link.
    let mut idle = LinkState::new();
    let mut offer_idle = |bytes| idle.transmit(&spec, Direction::AToB, SimTime::ZERO, bytes);
    assert_eq!(offer_idle(150_001), TransmitVerdict::DroppedQueueFull);
    assert_ne!(offer_idle(150_000), TransmitVerdict::DroppedQueueFull);
}

proptest! {
    /// The cross-multiplied capacity test gives the verdict — and, through
    /// the busy time it leaves behind, the arrival instant — of the
    /// dividing formula, at any bandwidth, on idle, backlogged and
    /// overflowing links alike.
    #[test]
    fn link_transmit_matches_the_dividing_formula(
        bandwidth in (0usize..4).prop_map(|i| {
            [10_000_000u64, 999_999_937, 1_000_000_000, 40_000_000_000][i]
        }),
        capacity in 1_000u64..20_000,
        offers in prop::collection::vec((0u64..3_000, 1u32..3_000), 1..300),
    ) {
        let spec = LinkSpec {
            bandwidth_bps: bandwidth,
            queue_capacity_bytes: capacity,
            ..LinkSpec::PAPER_EMULATION
        };
        let mut state = LinkState::new();
        let mut busy_until = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        let mut dropped = 0;
        for &(wait_ns, bytes) in &offers {
            now += SimDuration::from_nanos(wait_ns);
            let verdict = state.transmit(&spec, Direction::BToA, now, bytes);
            prop_assert_eq!(verdict, reference_transmit(&mut busy_until, &spec, now, bytes));
            dropped += u64::from(verdict == TransmitVerdict::DroppedQueueFull);
        }
        prop_assert_eq!(state.dropped_queue(), dropped);
    }

    /// Pops come out in non-decreasing time order regardless of the
    /// scheduling order, and ties preserve insertion order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((key, (t, i))) = q.pop() {
            prop_assert_eq!(key.time().as_nanos(), t);
            if let Some((lt, li)) = last {
                prop_assert!(lt <= t);
                if lt == t {
                    prop_assert!(li < i, "ties pop in insertion order");
                }
            }
            last = Some((t, i));
        }
        prop_assert_eq!(q.processed(), times.len() as u64);
    }

    /// Deliveries over one link direction never reorder: arrival times are
    /// strictly increasing for back-to-back packets.
    #[test]
    fn link_preserves_fifo_order(sizes in prop::collection::vec(64u32..1500, 1..100)) {
        let spec = LinkSpec::PAPER_EMULATION;
        let mut state = LinkState::new();
        let mut last_arrival = None;
        for &size in &sizes {
            if let TransmitVerdict::Deliver { arrival } =
                state.transmit(&spec, Direction::AToB, SimTime::ZERO, size)
            {
                if let Some(prev) = last_arrival {
                    prop_assert!(arrival > prev, "FIFO violated");
                }
                last_arrival = Some(arrival);
            }
        }
    }

    /// The queue bound holds: the backlog never admits more bytes than
    /// the configured capacity (within one packet of slack).
    #[test]
    fn link_backlog_is_bounded(sizes in prop::collection::vec(64u32..1500, 1..500)) {
        let spec = LinkSpec::PAPER_EMULATION;
        let mut state = LinkState::new();
        let mut last_arrival = SimTime::ZERO;
        for &size in &sizes {
            if let TransmitVerdict::Deliver { arrival } =
                state.transmit(&spec, Direction::AToB, SimTime::ZERO, size)
            {
                last_arrival = arrival;
            }
        }
        // Everything delivered must drain within capacity/bandwidth (plus
        // one serialization and the propagation delay).
        let max_drain = SimDuration::from_nanos(
            spec.queue_capacity_bytes * 8 * 1_000_000_000 / spec.bandwidth_bps,
        ) + spec.tx_time(1500) + spec.propagation;
        prop_assert!(
            last_arrival <= SimTime::ZERO + max_drain,
            "arrival {last_arrival} exceeds drain bound {max_drain}"
        );
    }

    /// Durations round-trip through fractional seconds within 1ns/unit
    /// precision.
    #[test]
    fn duration_secs_f64_roundtrip(ns in 0u64..10_000_000_000_000) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let err = back.as_nanos().abs_diff(ns);
        // f64 has 52 bits of mantissa; allow proportional slack.
        prop_assert!(err <= 1 + ns / (1 << 50), "err {err} on {ns}");
    }
}
