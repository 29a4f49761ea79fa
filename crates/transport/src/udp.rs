//! Constant-rate UDP source (the paper's probe flow).
//!
//! Both the testbed and the emulation use a UDP flow sending a 1448-byte
//! segment every 100 µs; the receiver-side gap around a failure is the
//! paper's *duration of connectivity loss* metric, and the sequence-number
//! census gives *packets lost*.

use dcn_sim::SimTime;

use crate::PROBE_INTERVAL;

/// A datagram emitted by [`UdpSource`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Monotonic per-flow sequence number (starting at 0).
    pub seq: u64,
}

/// The paper's probe: a UDP sender emitting [`PROBE_BYTES`] every
/// [`PROBE_INTERVAL`] for as long as the simulation runs. A datagram
/// carries only its sequence number: its five-tuple is its flow's and its
/// size is fixed.
///
/// [`PROBE_BYTES`]: crate::PROBE_BYTES
///
/// # Examples
///
/// ```
/// use dcn_sim::SimTime;
/// use dcn_transport::UdpSource;
///
/// let mut src = UdpSource::default();
/// let (dgram, next) = src.on_tick(SimTime::ZERO);
/// assert_eq!(dgram.seq, 0);
/// assert_eq!(next.as_nanos(), 100_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct UdpSource {
    next_seq: u64,
}

impl UdpSource {
    /// Datagrams emitted so far.
    pub fn sent(&self) -> u64 {
        self.next_seq
    }

    /// Emits the datagram due at `now` and returns the next tick time.
    pub fn on_tick(&mut self, now: SimTime) -> (UdpDatagram, SimTime) {
        let dgram = UdpDatagram { seq: self.next_seq };
        self.next_seq += 1;
        (dgram, now + PROBE_INTERVAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_sequential_datagrams_at_fixed_interval() {
        let mut src = UdpSource::default();
        let mut now = SimTime::ZERO;
        for expect in 0..10u64 {
            let (d, next) = src.on_tick(now);
            assert_eq!(d.seq, expect);
            now = next;
        }
        assert_eq!(now.as_nanos(), 10 * 100_000);
        assert_eq!(src.sent(), 10);
    }
}
