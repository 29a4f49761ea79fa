//! Link transmission model: bandwidth, propagation delay, drop-tail queue.
//!
//! The paper's emulation uses 1 Gbps links with 5 µs propagation delay,
//! giving a ~250 µs RTT including transmission and processing. We model
//! each link direction as a serializing output queue: a packet's arrival at
//! the far end is `max(now, busy_until) + tx_time + propagation`, and the
//! packet is tail-dropped when the backlog exceeds the queue capacity.

use crate::time::{SimDuration, SimTime};

/// Which direction a packet travels on a bidirectional link.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From endpoint `a()` to endpoint `b()`.
    AToB,
    /// From endpoint `b()` to endpoint `a()`.
    BToA,
}

impl Direction {
    fn index(self) -> usize {
        match self {
            Direction::AToB => 0,
            Direction::BToA => 1,
        }
    }
}

/// Static link parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Output-queue capacity per direction, in bytes.
    pub queue_capacity_bytes: u64,
}

impl LinkSpec {
    /// The paper's emulation link: 1 Gbps, 5 µs propagation, 100 × 1.5 kB
    /// of buffering.
    pub const PAPER_EMULATION: LinkSpec = LinkSpec {
        bandwidth_bps: 1_000_000_000,
        propagation: SimDuration::from_micros(5),
        queue_capacity_bytes: 150_000,
    };

    /// Serialization time for a packet of `bytes` bytes.
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_nanos((bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }
}

/// The outcome of offering a packet to a link.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransmitVerdict {
    /// The packet will arrive at the far end at `arrival`.
    Deliver {
        /// Arrival instant at the far end.
        arrival: SimTime,
    },
    /// The output queue was full; the packet is tail-dropped.
    DroppedQueueFull,
    /// The link is physically down; the packet is lost.
    DroppedLinkDown,
}

/// Mutable per-link simulation state (per-direction busy times, statistics).
#[derive(Clone, Debug)]
pub struct LinkState {
    busy_until: [SimTime; 2],
    /// Per-direction physical state — supports the unidirectional
    /// failures the paper defers to future work.
    up: [bool; 2],
    transmitted: u64,
    dropped_queue: u64,
    dropped_down: u64,
}

impl LinkState {
    /// Creates an idle, up link.
    pub fn new() -> Self {
        LinkState {
            busy_until: [SimTime::ZERO; 2],
            up: [true; 2],
            transmitted: 0,
            dropped_queue: 0,
            dropped_down: 0,
        }
    }

    /// Whether the link is physically up in both directions.
    pub fn is_up(&self) -> bool {
        self.up[0] && self.up[1]
    }

    /// Whether the given direction is physically up.
    pub fn is_dir_up(&self, dir: Direction) -> bool {
        self.up[dir.index()]
    }

    /// Sets the physical link state in both directions (the paper's
    /// bidirectional failures).
    pub fn set_up(&mut self, up: bool) {
        self.up = [up; 2];
    }

    /// Sets one direction's physical state (unidirectional failures).
    pub fn set_dir_up(&mut self, dir: Direction, up: bool) {
        self.up[dir.index()] = up;
    }

    /// Packets successfully serialized onto the link.
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// Packets tail-dropped due to a full output queue.
    pub fn dropped_queue(&self) -> u64 {
        self.dropped_queue
    }

    /// Packets lost because the link was down.
    pub fn dropped_down(&self) -> u64 {
        self.dropped_down
    }

    /// Offers a packet of `bytes` bytes at time `now` in direction `dir`.
    pub fn transmit(
        &mut self,
        spec: &LinkSpec,
        dir: Direction,
        now: SimTime,
        bytes: u32,
    ) -> TransmitVerdict {
        if !self.up[dir.index()] {
            self.dropped_down += 1;
            return TransmitVerdict::DroppedLinkDown;
        }
        let idx = dir.index();
        let busy = self.busy_until[idx].max(now);
        // Tail-drop when the backlog still waiting to serialize, in whole
        // bytes, plus this packet exceeds the capacity:
        // ⌊backlog_ns · bps / 8·10⁹⌋ + bytes > capacity, tested as
        // backlog_ns · bps ≥ (capacity − bytes + 1) · 8·10⁹ so that no hop
        // pays a 128-bit division.
        let backlog_bits_e9 = busy.since(now).as_nanos() as u128 * spec.bandwidth_bps as u128;
        let full = match spec.queue_capacity_bytes.checked_sub(bytes as u64) {
            Some(room) => backlog_bits_e9 >= (room as u128 + 1) * 8_000_000_000,
            None => true,
        };
        if full {
            self.dropped_queue += 1;
            return TransmitVerdict::DroppedQueueFull;
        }
        let done = busy + spec.tx_time(bytes);
        self.busy_until[idx] = done;
        self.transmitted += 1;
        TransmitVerdict::Deliver {
            arrival: done + spec.propagation,
        }
    }
}

impl Default for LinkState {
    fn default() -> Self {
        LinkState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: LinkSpec = LinkSpec::PAPER_EMULATION;

    #[test]
    fn tx_time_at_1gbps() {
        // 1448B segment + headers would be ~11.6us at 1Gbps; check exact.
        assert_eq!(GBPS.tx_time(1500).as_nanos(), 12_000);
        assert_eq!(GBPS.tx_time(125).as_nanos(), 1_000);
    }

    #[test]
    fn idle_link_delivers_after_tx_plus_propagation() {
        let mut s = LinkState::new();
        let v = s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 1500);
        match v {
            TransmitVerdict::Deliver { arrival } => {
                assert_eq!(arrival.as_nanos(), 12_000 + 5_000);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let mut s = LinkState::new();
        let a1 = match s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 1500) {
            TransmitVerdict::Deliver { arrival } => arrival,
            v => panic!("{v:?}"),
        };
        let a2 = match s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 1500) {
            TransmitVerdict::Deliver { arrival } => arrival,
            v => panic!("{v:?}"),
        };
        assert_eq!((a2 - a1).as_nanos(), 12_000); // one tx_time apart
    }

    #[test]
    fn directions_are_independent() {
        let mut s = LinkState::new();
        let fwd = s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 1500);
        let rev = s.transmit(&GBPS, Direction::BToA, SimTime::ZERO, 1500);
        let (TransmitVerdict::Deliver { arrival: f }, TransmitVerdict::Deliver { arrival: r }) =
            (fwd, rev)
        else {
            panic!("both should deliver");
        };
        assert_eq!(f, r); // no cross-direction serialization
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let mut s = LinkState::new();
        let mut delivered = 0;
        let mut dropped = 0;
        // Offer 200 x 1500B instantaneously: capacity is 150_000B = 100 pkts
        // of backlog (the first starts serializing immediately).
        for _ in 0..200 {
            match s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 1500) {
                TransmitVerdict::Deliver { .. } => delivered += 1,
                TransmitVerdict::DroppedQueueFull => dropped += 1,
                v => panic!("{v:?}"),
            }
        }
        assert!((100..=101).contains(&delivered), "delivered {delivered}");
        assert_eq!(delivered + dropped, 200);
        assert_eq!(s.dropped_queue(), dropped as u64);
    }

    #[test]
    fn down_link_drops_everything() {
        let mut s = LinkState::new();
        s.set_up(false);
        assert!(!s.is_up());
        assert_eq!(
            s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 100),
            TransmitVerdict::DroppedLinkDown
        );
        assert_eq!(s.dropped_down(), 1);
        s.set_up(true);
        assert!(matches!(
            s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 100),
            TransmitVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn unidirectional_failure_only_kills_one_direction() {
        let mut s = LinkState::new();
        s.set_dir_up(Direction::AToB, false);
        assert!(!s.is_up());
        assert!(!s.is_dir_up(Direction::AToB));
        assert!(s.is_dir_up(Direction::BToA));
        assert_eq!(
            s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 100),
            TransmitVerdict::DroppedLinkDown
        );
        assert!(matches!(
            s.transmit(&GBPS, Direction::BToA, SimTime::ZERO, 100),
            TransmitVerdict::Deliver { .. }
        ));
        s.set_dir_up(Direction::AToB, true);
        assert!(s.is_up());
    }

    #[test]
    fn queue_drains_over_time() {
        let mut s = LinkState::new();
        for _ in 0..100 {
            s.transmit(&GBPS, Direction::AToB, SimTime::ZERO, 1500);
        }
        // After 2ms the queue (1.2ms of backlog) has fully drained.
        let later = SimTime::ZERO + SimDuration::from_millis(2);
        assert!(matches!(
            s.transmit(&GBPS, Direction::AToB, later, 1500),
            TransmitVerdict::Deliver { .. }
        ));
    }
}
