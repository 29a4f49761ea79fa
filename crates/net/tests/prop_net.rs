//! Property-based tests for addresses, prefixes, and topologies.

use dcn_net::{FatTree, Ipv4Addr, Layer, LeafSpine, Prefix, Vl2};
use proptest::prelude::*;

proptest! {
    /// Display/parse is a lossless round trip for any address.
    #[test]
    fn addr_display_parse_roundtrip(bits: u32) {
        let a = Ipv4Addr::from_bits(bits);
        let parsed: Ipv4Addr = a.to_string().parse().unwrap();
        prop_assert_eq!(a, parsed);
    }

    /// Truncation is idempotent and always yields a valid prefix that
    /// contains the original address.
    #[test]
    fn prefix_truncating_is_idempotent(bits: u32, len in 0u8..=32) {
        let p = Prefix::truncating(Ipv4Addr::from_bits(bits), len);
        let again = Prefix::truncating(p.addr(), len);
        prop_assert_eq!(p, again);
        prop_assert!(p.contains(Ipv4Addr::from_bits(bits)));
        prop_assert!(Prefix::new(p.addr(), len).is_ok());
    }

    /// A shorter truncation of the same address always covers a longer
    /// one (the fall-through chain the F2Tree backups rely on).
    #[test]
    fn shorter_prefixes_cover_longer_ones(bits: u32, a in 0u8..=32, b in 0u8..=32) {
        let (short, long) = if a <= b { (a, b) } else { (b, a) };
        let ps = Prefix::truncating(Ipv4Addr::from_bits(bits), short);
        let pl = Prefix::truncating(Ipv4Addr::from_bits(bits), long);
        prop_assert!(ps.covers(pl));
        // And covering implies containment of every member address.
        prop_assert!(ps.contains(pl.addr()));
    }

    /// `contains` agrees with interval arithmetic.
    #[test]
    fn contains_matches_interval(bits: u32, len in 0u8..=32, probe: u32) {
        let p = Prefix::truncating(Ipv4Addr::from_bits(bits), len);
        let size: u64 = 1u64 << (32 - len as u32);
        let lo = p.addr().to_bits() as u64;
        let expected = (probe as u64) >= lo && (probe as u64) < lo + size;
        prop_assert_eq!(p.contains(Ipv4Addr::from_bits(probe)), expected);
    }

    /// Every fat tree is connected, uses every switch port, and has the
    /// Table I switch/host counts.
    #[test]
    fn fat_tree_invariants(k in (2u32..=8).prop_map(|h| h * 2)) {
        let topo = FatTree::new(k).unwrap().build();
        prop_assert!(topo.is_connected());
        prop_assert_eq!(topo.switch_count() as u32, 5 * k * k / 4);
        prop_assert_eq!(topo.host_count() as u32, k * k * k / 4);
        for node in topo.nodes().filter(|n| n.kind().is_switch()) {
            prop_assert_eq!(topo.degree(node.id()), k as usize);
        }
    }

    /// Leaf-Spine is connected and every leaf reaches every spine.
    #[test]
    fn leaf_spine_invariants(leaves in 1u32..=8, spines in 1u32..=8) {
        let topo = LeafSpine::new(leaves, spines).unwrap().build();
        prop_assert!(topo.is_connected());
        let spine_ids: Vec<_> = topo.layer_switches(Layer::Core).collect();
        for leaf in topo.layer_switches(Layer::Tor) {
            for &spine in &spine_ids {
                prop_assert!(topo.link_between(leaf, spine).is_some());
            }
        }
    }

    /// VL2 is connected with dual-homed ToRs.
    #[test]
    fn vl2_invariants(da in (2u32..=5).prop_map(|h| h * 2), di in (2u32..=5).prop_map(|h| h * 2)) {
        let topo = Vl2::new(da, di).unwrap().build();
        prop_assert!(topo.is_connected());
        for tor in topo.layer_switches(Layer::Tor) {
            prop_assert_eq!(topo.upward_links(tor).len(), 2);
        }
    }

    /// Removing any single fabric link keeps a fat tree (k >= 4)
    /// connected — the redundancy OSPF eventually exploits.
    #[test]
    fn fat_tree_survives_any_single_link_removal(
        k in (2u32..=5).prop_map(|h| h * 2),
        pick: prop::sample::Index,
    ) {
        let mut topo = FatTree::new(k).unwrap().build();
        let fabric: Vec<_> = topo
            .links()
            .filter(|l| {
                topo.node(l.a()).kind().is_switch() && topo.node(l.b()).kind().is_switch()
            })
            .map(|l| l.id())
            .collect();
        let victim = fabric[pick.index(fabric.len())];
        topo.remove_link(victim).unwrap();
        prop_assert!(topo.is_connected());
    }
}
