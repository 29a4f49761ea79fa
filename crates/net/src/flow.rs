//! Five-tuple flow identification.
//!
//! ECMP in production DCNs hashes the five-tuple so that each flow pins to
//! one equal-cost path (paper §II-A). The [`FlowKey`] type is shared by the
//! routing crate (hash input), the transport crate (flow state keys), and
//! the emulator (each flow's record).

use crate::addr::Ipv4Addr;

/// Transport protocol of a flow.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

/// The classic five-tuple identifying a flow.
///
/// # Examples
///
/// ```
/// use dcn_net::{FlowKey, Ipv4Addr, Protocol};
///
/// let key = FlowKey::new(
///     Ipv4Addr::new(10, 11, 0, 2),
///     Ipv4Addr::new(10, 11, 31, 2),
///     40000,
///     5001,
///     Protocol::Tcp,
/// );
/// assert_eq!(key.reversed().src, key.dst);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FlowKey {
    /// Creates a flow key.
    pub fn new(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        proto: Protocol,
    ) -> Self {
        FlowKey {
            src,
            dst,
            src_port,
            dst_port,
            proto,
        }
    }

    /// The key of the reverse direction (ACKs, responses).
    pub fn reversed(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversed_is_involutive() {
        let key = FlowKey::new(
            Ipv4Addr::new(10, 11, 0, 2),
            Ipv4Addr::new(10, 11, 1, 2),
            1234,
            80,
            Protocol::Udp,
        );
        assert_eq!(key.reversed().reversed(), key);
        assert_ne!(key.reversed(), key);
    }

    #[test]
    fn keys_hash_and_order() {
        use std::collections::BTreeSet;
        let a = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Protocol::Tcp,
        );
        let b = FlowKey { src_port: 3, ..a };
        let set: BTreeSet<FlowKey> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
