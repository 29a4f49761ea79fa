//! Constant-rate UDP source (the paper's probe flow).
//!
//! Both the testbed and the emulation use a UDP flow sending a 1448-byte
//! segment every 100 µs; the receiver-side gap around a failure is the
//! paper's *duration of connectivity loss* metric, and the sequence-number
//! census gives *packets lost*.

use dcn_net::FlowKey;
use dcn_sim::SimTime;

use crate::{PROBE_BYTES, PROBE_INTERVAL};

/// A datagram emitted by [`UdpSource`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Monotonic per-flow sequence number (starting at 0).
    pub seq: u64,
    /// Payload size in bytes (before headers).
    pub bytes: u32,
}

/// The paper's probe: a UDP sender emitting [`PROBE_BYTES`] every
/// [`PROBE_INTERVAL`] for as long as the simulation runs.
///
/// # Examples
///
/// ```
/// use dcn_net::{FlowKey, Ipv4Addr, Protocol};
/// use dcn_sim::SimTime;
/// use dcn_transport::UdpSource;
///
/// let flow = FlowKey::new(
///     Ipv4Addr::new(10, 11, 0, 2), Ipv4Addr::new(10, 11, 31, 2),
///     9000, 9000, Protocol::Udp);
/// let mut src = UdpSource::paper_probe(flow);
/// let (dgram, next) = src.on_tick(SimTime::ZERO);
/// assert_eq!(dgram.seq, 0);
/// assert_eq!(next.as_nanos(), 100_000);
/// ```
#[derive(Clone, Debug)]
pub struct UdpSource {
    flow: FlowKey,
    next_seq: u64,
}

impl UdpSource {
    /// The paper's probe flow on `flow`.
    pub fn paper_probe(flow: FlowKey) -> Self {
        UdpSource { flow, next_seq: 0 }
    }

    /// The flow's five-tuple.
    pub fn flow(&self) -> FlowKey {
        self.flow
    }

    /// Datagrams emitted so far.
    pub fn sent(&self) -> u64 {
        self.next_seq
    }

    /// Emits the datagram due at `now` and returns the next tick time.
    pub fn on_tick(&mut self, now: SimTime) -> (UdpDatagram, SimTime) {
        let dgram = UdpDatagram {
            seq: self.next_seq,
            bytes: PROBE_BYTES,
        };
        self.next_seq += 1;
        (dgram, now + PROBE_INTERVAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{Ipv4Addr, Protocol};

    fn flow() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 11, 0, 2),
            Ipv4Addr::new(10, 11, 31, 2),
            9000,
            9000,
            Protocol::Udp,
        )
    }

    #[test]
    fn emits_sequential_datagrams_at_fixed_interval() {
        let mut src = UdpSource::paper_probe(flow());
        let mut now = SimTime::ZERO;
        for expect in 0..10u64 {
            let (d, next) = src.on_tick(now);
            assert_eq!(d.seq, expect);
            assert_eq!(d.bytes, 1448);
            now = next;
        }
        assert_eq!(now.as_nanos(), 10 * 100_000);
        assert_eq!(src.sent(), 10);
    }
}
