//! ECMP five-tuple hashing (RFC 2992 style).
//!
//! Each switch hashes a flow's five-tuple together with a per-switch salt,
//! then picks one member of the live equal-cost next-hop set. The salt
//! prevents the pathological "every switch picks the same index" pattern
//! that a salt-free hash would produce in a symmetric Clos.

use dcn_net::{FlowKey, Protocol};

/// A 64-bit FNV-1a over the five-tuple and a per-switch salt.
///
/// Deterministic across platforms and runs — required for the experiment
/// suite's exact-replay assertions.
pub fn ecmp_hash(flow: &FlowKey, salt: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET ^ salt;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    feed(&flow.src.octets());
    feed(&flow.dst.octets());
    feed(&flow.src_port.to_be_bytes());
    feed(&flow.dst_port.to_be_bytes());
    feed(&[match flow.proto {
        Protocol::Tcp => 6,
        Protocol::Udp => 17,
    }]);
    // Final avalanche (splitmix-style) so modulo by small counts is fair.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Picks an index into a next-hop set of size `n` for the flow.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn ecmp_select(flow: &FlowKey, salt: u64, n: usize) -> usize {
    assert!(n > 0, "ECMP selection over an empty set");
    (ecmp_hash(flow, salt) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::Ipv4Addr;

    fn flow(sport: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 11, 0, 2),
            Ipv4Addr::new(10, 11, 31, 2),
            sport,
            5001,
            Protocol::Tcp,
        )
    }

    #[test]
    fn same_flow_same_path() {
        let f = flow(40_000);
        assert_eq!(ecmp_hash(&f, 7), ecmp_hash(&f, 7));
        assert_eq!(ecmp_select(&f, 7, 4), ecmp_select(&f, 7, 4));
    }

    #[test]
    fn different_salts_decorrelate_switches() {
        let f = flow(40_000);
        let picks: Vec<usize> = (0..64).map(|salt| ecmp_select(&f, salt, 4)).collect();
        let distinct: std::collections::HashSet<_> = picks.iter().collect();
        assert!(distinct.len() >= 3, "salts should spread: {picks:?}");
    }

    #[test]
    fn selection_is_roughly_uniform_over_flows() {
        let n = 4usize;
        let mut counts = vec![0usize; n];
        for sport in 0..4000u16 {
            counts[ecmp_select(&flow(sport), 1, n)] += 1;
        }
        for &c in &counts {
            assert!(
                (800..1200).contains(&c),
                "per-bucket count should be ~1000, got {counts:?}"
            );
        }
    }

    #[test]
    fn reverse_flow_hashes_independently() {
        let f = flow(40_000);
        // Not required to be equal (per-direction ECMP); just both valid.
        let a = ecmp_select(&f, 1, 4);
        let b = ecmp_select(&f.reversed(), 1, 4);
        assert!(a < 4 && b < 4);
    }

    /// The hash itself, not just the paths it picks: every ECMP choice
    /// and golden downstream rests on these exact values.
    #[test]
    fn hash_values_are_pinned() {
        let udp = FlowKey::new(
            Ipv4Addr::new(192, 168, 1, 42),
            Ipv4Addr::new(10, 10, 255, 1),
            53,
            65_535,
            Protocol::Udp,
        );
        let got = [
            ecmp_hash(&flow(40_000), 0),
            ecmp_hash(&flow(40_000), 7),
            ecmp_hash(&flow(1), u64::MAX),
            ecmp_hash(&flow(40_000).reversed(), 7),
            ecmp_hash(&udp, 0x5eed),
        ];
        assert_eq!(
            got,
            [
                655_531_456_478_411_108,
                3_775_364_842_509_176_608,
                15_667_922_661_167_774_592,
                13_430_626_653_818_826_333,
                11_897_699_329_278_649_686,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_set_panics() {
        ecmp_select(&flow(1), 0, 0);
    }
}
