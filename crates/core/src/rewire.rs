//! The F²Tree rewiring transform: one recipe, any across-port budget.
//!
//! Starting from a standard `k`-port fat tree, the recipe reserves `r`
//! *across ports* on every aggregation and core switch — half taken from
//! its upward ports, half from its downward ones — and spends them on
//! *across links* that join each pod's switches in a ring. Member `i`
//! links to the members `1..=r/2` steps away in both directions, so the
//! ring's chord *reach* is `r/2`:
//!
//! * **§II-B** — the paper's design, `r = 2`: reach 1, each switch linked
//!   to its two ring neighbors;
//! * **§II-C** — "if we reserve more ports (e.g. 4) for across links …
//!   it is able to deal with this extreme condition [C7] as well": reach
//!   ≥ 2, where the distance-2 chord skips past a broken neighbor.
//!
//! Concretely, the transform:
//!
//! 1. retires the last `r` pods (core switches keep `k − r` downward ports),
//! 2. retires the last `r/2` ToRs of every remaining pod (each aggregation
//!    switch keeps `(k − r)/2` downward ports),
//! 3. retires the last `r/2` cores of every core group (each aggregation
//!    switch keeps `(k − r)/2` upward ports), and
//! 4. adds the chorded rings over each pod's aggregation switches and
//!    each group's core switches.
//!
//! At `r = 2` the result matches Table I exactly: `5N²/4 − 7N/2 + 2`
//! switches supporting `N³/4 − N² + N` hosts. At `k = 4` the core groups
//! degenerate to single switches, so — as in the paper's Fig. 1(b)
//! testbed — the ring is formed across all remaining core switches instead
//! (two switches joined by two parallel links). Every ring member then
//! carries `r` static backup routes ([`ring_backup_routes`]).
//!
//! [`ring_backup_routes`]: crate::ring_backup_routes

use dcn_net::{
    FatTree, Layer, LinkClass, LinkId, NodeId, PodRing, Topology, TopologyError, DCN_PREFIX,
};

/// A rewired fabric — the F²Tree, or the F²-Leaf-Spine and F²-VL2 of
/// [`f2_leaf_spine`](crate::f2_leaf_spine) and [`f2_vl2`](crate::f2_vl2)
/// — the topology plus its across-link rings.
#[derive(Clone, Debug)]
pub struct F2TreeNetwork {
    /// The rewired topology.
    pub topology: Topology,
    /// Rings over aggregation switches: one per pod on the F²Tree, one
    /// over every aggregation switch on F²-VL2, none on F²-Leaf-Spine.
    pub agg_rings: Vec<PodRing>,
    /// Rings over core switches: one per core group on the F²Tree (a
    /// single all-core ring when groups degenerate to singletons, as at
    /// `k = 4`), the spine ring on F²-Leaf-Spine, none on F²-VL2.
    pub core_rings: Vec<PodRing>,
}

impl F2TreeNetwork {
    /// Builds the paper's F²Tree (two across ports) directly from the port
    /// count `k` with the default host fill (one host per downward ToR
    /// port).
    ///
    /// # Errors
    ///
    /// Returns an error unless `k` is even and at least 4.
    pub fn build(k: u32) -> Result<Self, TopologyError> {
        rewire_fat_tree(FatTree::new(k)?.build(), 2)
    }

    /// Builds the paper's F²Tree with a custom number of hosts per ToR
    /// (the paper's testbed attaches a single host to each rack).
    ///
    /// # Errors
    ///
    /// Returns an error unless `k` is even and at least 4.
    pub fn build_with_hosts(k: u32, hosts_per_tor: u32) -> Result<Self, TopologyError> {
        rewire_fat_tree(FatTree::new(k)?.hosts_per_tor(hosts_per_tor).build(), 2)
    }

    /// The ring containing `node`, if any.
    pub fn ring_of(&self, node: NodeId) -> Option<&PodRing> {
        self.agg_rings
            .iter()
            .chain(self.core_rings.iter())
            .find(|r| r.position(node).is_some())
    }

    /// All across links, for failure-candidate lists.
    pub fn across_links(&self) -> Vec<LinkId> {
        self.agg_rings
            .iter()
            .chain(self.core_rings.iter())
            .flat_map(|r| r.chords.iter().flatten().copied())
            .collect()
    }
}

/// Rewires a standard fat tree into an F²Tree with `across_ports` across
/// links per aggregation and core switch (2 is the paper's design).
///
/// Sizing generalizes Table I: `N − r` pods with `(N − r)/2` ToRs each,
/// `N/2` aggregation switches per pod, `N/2` core groups of `(N − r)/2`,
/// where `r = across_ports`.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] if `topo` does not have the
/// shape produced by [`FatTree`] (every pod the same width, square core);
/// if `across_ports` is odd, below 2, or more than the DCN prefix has bits
/// for the backup routes (each takes one bit, so at most 16); or if a core
/// group would keep no more members than the chord reach
/// (`k ≤ 2 · across_ports`), except for the two-port `k = 4` testbed.
pub fn rewire_fat_tree(
    mut topo: Topology,
    across_ports: u32,
) -> Result<F2TreeNetwork, TopologyError> {
    let k = topo.ports_per_switch().ok_or_else(|| {
        TopologyError::InvalidParameter("fat tree must carry a port budget".into())
    })?;
    let pods = topo.pods(Layer::Agg).len();
    let half = (k / 2) as usize;
    if pods != k as usize
        || topo.pods(Layer::Tor).iter().any(|p| p.len() != half)
        || topo.pods(Layer::Agg).iter().any(|p| p.len() != half)
        || topo.pods(Layer::Core).len() != half
        || topo.pods(Layer::Core).iter().any(|g| g.len() != half)
    {
        return Err(TopologyError::InvalidParameter(
            "topology is not a standard k-ary fat tree".into(),
        ));
    }
    if across_ports < 2 || !across_ports.is_multiple_of(2) {
        return Err(TopologyError::InvalidParameter(format!(
            "across_ports must be even and >= 2, got {across_ports}"
        )));
    }
    if across_ports > u32::from(DCN_PREFIX.len()) {
        return Err(TopologyError::InvalidParameter(format!(
            "{across_ports} backup routes need more prefix bits than {DCN_PREFIX} has"
        )));
    }
    // Each core group keeps (k − r)/2 members, which must outnumber the
    // reach r/2 or the longest chords close onto their own start. The k = 4
    // testbed's singleton groups share one ring instead.
    if k <= 2 * across_ports && (k, across_ports) != (4, 2) {
        return Err(TopologyError::InvalidParameter(format!(
            "k={k} too small to reserve {across_ports} across ports"
        )));
    }
    let r = across_ports as usize;
    let reach = r / 2;

    // 1. Retire the last `r` pods entirely (switches and their hosts).
    for pod in (pods - r)..pods {
        for tor in topo.pods(Layer::Tor)[pod].clone() {
            retire_rack(&mut topo, tor)?;
        }
        for agg in topo.pods(Layer::Agg)[pod].clone() {
            topo.remove_node(agg)?;
        }
    }

    // 2. Retire the last `r/2` ToRs (and their hosts) of every remaining pod.
    for pod in 0..(pods - r) {
        let tors = topo.pods(Layer::Tor)[pod].clone();
        for &tor in tors.iter().rev().take(reach) {
            retire_rack(&mut topo, tor)?;
        }
    }

    // 3. Retire the last `r/2` cores of every group.
    for group in 0..half {
        let cores = topo.pods(Layer::Core)[group].clone();
        for &core in cores.iter().rev().take(reach) {
            topo.remove_node(core)?;
        }
    }

    // 4. Across-link rings.
    let mut agg_rings = Vec::with_capacity(pods - r);
    for pod in 0..(pods - r) {
        let members = topo.pods(Layer::Agg)[pod].clone();
        agg_rings.push(add_ring(&mut topo, members, reach)?);
    }
    let core_groups = topo.pods(Layer::Core).to_vec();
    let mut core_rings = Vec::new();
    if core_groups.iter().all(|g| g.len() == 1) {
        // k = 4 degenerate case (paper Fig. 1(b)): one ring across all
        // remaining core switches.
        let members: Vec<NodeId> = core_groups.into_iter().flatten().collect();
        core_rings.push(add_ring(&mut topo, members, reach)?);
    } else {
        for members in core_groups {
            core_rings.push(add_ring(&mut topo, members, reach)?);
        }
    }

    topo.set_name(if across_ports == 2 {
        format!("f2tree-k{k}")
    } else {
        format!("f2tree-k{k}-a{across_ports}")
    });
    Ok(F2TreeNetwork {
        topology: topo,
        agg_rings,
        core_rings,
    })
}

/// Removes a ToR and the hosts hanging off it.
fn retire_rack(topo: &mut Topology, tor: NodeId) -> Result<(), TopologyError> {
    let hosts: Vec<NodeId> = topo
        .neighbors(tor)
        .filter(|&(_, n)| !topo.node(n).kind().is_switch())
        .map(|(_, n)| n)
        .collect();
    for host in hosts {
        topo.remove_node(host)?;
    }
    topo.remove_node(tor)
}

/// Adds the across links turning `members` into a ring with chords out to
/// `reach`: first every member's distance-1 link, then every distance-2
/// link, and so on.
///
/// For a two-member ring at reach 1 this creates two parallel links.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] for fewer than two members.
pub(crate) fn add_ring(
    topo: &mut Topology,
    members: Vec<NodeId>,
    reach: usize,
) -> Result<PodRing, TopologyError> {
    let n = members.len();
    if n < 2 {
        return Err(TopologyError::InvalidParameter(format!(
            "a ring needs at least 2 members, got {n}"
        )));
    }
    let mut chords = Vec::with_capacity(reach);
    for d in 1..=reach {
        let mut level = Vec::with_capacity(n);
        for (i, &a) in members.iter().enumerate() {
            let b = members[(i + d) % n];
            level.push(topo.add_link(a, b, LinkClass::Across)?);
        }
        chords.push(level);
    }
    Ok(PodRing { members, chords })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::network_backup_routes;

    /// Rewires a default-fill `k`-port fat tree with `across_ports`.
    fn wide(k: u32, across_ports: u32) -> Result<F2TreeNetwork, TopologyError> {
        rewire_fat_tree(FatTree::new(k)?.build(), across_ports)
    }

    /// `(switches, hosts)` counted from a built F²Tree.
    fn counts(f2: &F2TreeNetwork) -> (u64, u64) {
        let topo = &f2.topology;
        (topo.switch_count() as u64, topo.host_count() as u64)
    }

    /// Table I's F²Tree closed forms at `n` ports, in integers:
    /// `(5N² − 14N + 8)/4` switches and `N³/4 − N² + N` hosts.
    fn table1_counts(n: u64) -> (u64, u64) {
        ((5 * n * n - 14 * n + 8) / 4, n * n * n / 4 - n * n + n)
    }

    #[test]
    fn k8_counts_match_table1() {
        let f2 = F2TreeNetwork::build(8).unwrap();
        assert_eq!(counts(&f2), table1_counts(8));
        assert_eq!(f2.topology.name(), "f2tree-k8");
    }

    #[test]
    fn counts_match_table1_across_sizes() {
        for k in [4u32, 6, 8, 10, 12] {
            let f2 = F2TreeNetwork::build(k).unwrap();
            assert_eq!(counts(&f2), table1_counts(k.into()), "k={k}");
        }
    }

    #[test]
    fn every_switch_port_budget_holds() {
        let f2 = F2TreeNetwork::build(8).unwrap();
        let topo = &f2.topology;
        for node in topo.nodes().filter(|n| n.kind().is_switch()) {
            assert!(
                topo.degree(node.id()) <= 8,
                "{} uses {} ports",
                node.name(),
                topo.degree(node.id())
            );
        }
    }

    #[test]
    fn agg_and_core_switches_have_exactly_two_across_links() {
        let f2 = F2TreeNetwork::build(8).unwrap();
        let topo = &f2.topology;
        for layer in [Layer::Agg, Layer::Core] {
            for sw in topo.layer_switches(layer) {
                assert_eq!(
                    topo.across_links(sw).len(),
                    2,
                    "{} should have 2 across links",
                    topo.node(sw).name()
                );
            }
        }
        for tor in topo.layer_switches(Layer::Tor) {
            assert!(topo.across_links(tor).is_empty());
        }
    }

    #[test]
    fn rings_cover_each_pod_and_group() {
        let f2 = F2TreeNetwork::build(8).unwrap();
        // k=8: 6 pods of 4 aggs; 4 core groups of 3.
        assert_eq!(f2.agg_rings.len(), 6);
        assert!(f2.agg_rings.iter().all(|r| r.len() == 4));
        assert_eq!(f2.core_rings.len(), 4);
        assert!(f2.core_rings.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn k4_testbed_shape_matches_fig_1b() {
        // Fig. 1(b): 2 pods, 1 ToR + 2 aggs each, 2 cores, rings of two
        // parallel links.
        let f2 = F2TreeNetwork::build_with_hosts(4, 1).unwrap();
        let topo = &f2.topology;
        assert_eq!(topo.layer_switches(Layer::Tor).count(), 2);
        assert_eq!(topo.layer_switches(Layer::Agg).count(), 4);
        assert_eq!(topo.layer_switches(Layer::Core).count(), 2);
        assert_eq!(topo.host_count(), 2);
        assert_eq!(f2.agg_rings.len(), 2);
        assert_eq!(f2.core_rings.len(), 1);
        let core_ring = &f2.core_rings[0];
        assert_eq!(core_ring.len(), 2);
        // Two parallel links between the two cores.
        let links = topo.links_between(core_ring.members[0], core_ring.members[1]);
        assert_eq!(links.len(), 2);
    }

    #[test]
    fn topology_stays_connected() {
        for k in [4u32, 6, 8] {
            let f2 = F2TreeNetwork::build(k).unwrap();
            assert!(f2.topology.is_connected(), "k={k}");
        }
    }

    #[test]
    fn downward_link_gains_two_immediate_backups() {
        // The headline structural claim of §II-B: downward links go from 0
        // immediate backup links (fat tree) to 2 (the across links).
        let f2 = F2TreeNetwork::build(8).unwrap();
        let topo = &f2.topology;
        for agg in topo.layer_switches(Layer::Agg) {
            assert_eq!(topo.across_links(agg).len(), 2);
            // And the vertical structure survives: (k-2)/2 = 3 down, 3 up.
            assert_eq!(topo.downward_links(agg).len(), 3);
            assert_eq!(topo.upward_links(agg).len(), 3);
        }
    }

    #[test]
    fn ring_of_finds_the_owning_ring() {
        let f2 = F2TreeNetwork::build(8).unwrap();
        let agg = f2.agg_rings[0].members[0];
        assert_eq!(f2.ring_of(agg).unwrap().members, f2.agg_rings[0].members);
        let tor = f2.topology.layer_switches(Layer::Tor).next().unwrap();
        assert!(f2.ring_of(tor).is_none());
    }

    #[test]
    fn across_links_enumerates_every_ring_link() {
        let f2 = F2TreeNetwork::build(8).unwrap();
        // 6 pods * 4 + 4 groups * 3 = 36 across links.
        assert_eq!(f2.across_links().len(), 36);
    }

    #[test]
    fn rejects_non_fat_tree_input() {
        let ls = dcn_net::LeafSpine::new(4, 4).unwrap().build();
        assert!(rewire_fat_tree(ls, 2).is_err());
    }

    #[test]
    fn wide_k12_sizing_generalizes_table1() {
        // r=4 at k=12: 8 pods, 4 ToRs/pod, 6 aggs/pod, 6 groups of 4
        // cores, 192 hosts.
        let net = wide(12, 4).unwrap();
        let topo = &net.topology;
        assert_eq!(
            topo.pods(Layer::Agg)
                .iter()
                .filter(|p| !p.is_empty())
                .count(),
            8
        );
        assert_eq!(topo.layer_switches(Layer::Tor).count(), 32);
        assert_eq!(topo.layer_switches(Layer::Agg).count(), 48);
        assert_eq!(topo.layer_switches(Layer::Core).count(), 24);
        assert_eq!(topo.host_count(), 192);
        assert!(topo.is_connected());
    }

    #[test]
    fn every_switch_respects_the_port_budget() {
        let net = wide(12, 4).unwrap();
        let topo = &net.topology;
        for node in topo.nodes().filter(|n| n.kind().is_switch()) {
            assert!(
                topo.degree(node.id()) <= 12,
                "{} uses {} ports",
                node.name(),
                topo.degree(node.id())
            );
        }
        // Agg and core switches carry exactly 4 across links.
        for layer in [Layer::Agg, Layer::Core] {
            for sw in topo.layer_switches(layer) {
                assert_eq!(topo.across_links(sw).len(), 4);
            }
        }
    }

    #[test]
    fn reach_two_gives_four_backup_routes_with_graduated_prefixes() {
        let net = wide(12, 4).unwrap();
        for (_, routes) in network_backup_routes(&net) {
            assert_eq!(routes.len(), 4);
            let lens: Vec<u8> = routes.iter().map(|r| r.prefix.len()).collect();
            assert_eq!(lens, vec![16, 15, 14, 13]);
            // Each covers the one before (fall-through chain).
            for pair in routes.windows(2) {
                assert!(pair[1].prefix.covers(pair[0].prefix));
                assert!(pair[1].prefix.covers(DCN_PREFIX));
            }
        }
    }

    #[test]
    fn chords_skip_distance_two() {
        let net = wide(12, 4).unwrap();
        let ring = &net.agg_rings[0];
        assert_eq!(ring.reach(), 2);
        let m0 = ring.members[0];
        let (r1, _) = ring.right(m0, 1).unwrap();
        let (r2, _) = ring.right(m0, 2).unwrap();
        assert_eq!(r1, ring.members[1]);
        assert_eq!(r2, ring.members[2]);
        let (l1, _) = ring.left(m0, 1).unwrap();
        assert_eq!(l1, *ring.members.last().unwrap());
    }

    #[test]
    fn reach_one_matches_plain_f2tree_shape() {
        let wide = wide(8, 2).unwrap();
        let plain = F2TreeNetwork::build(8).unwrap();
        assert_eq!(wide.topology.switch_count(), plain.topology.switch_count());
        assert_eq!(wide.topology.host_count(), plain.topology.host_count());
    }

    #[test]
    fn rejects_infeasible_parameters() {
        assert!(wide(8, 3).is_err());
        assert!(wide(8, 0).is_err());
        assert!(wide(4, 4).is_err());
        assert!(wide(6, 4).is_err());
        // k=8 with r=4 makes 2-member core rings: too small for reach 2.
        assert!(wide(8, 4).is_err());
    }

    #[test]
    fn backups_beyond_the_prefix_bits_are_a_typed_error() {
        // 18 ports would need routes down to /-1: rejected up front
        // instead of overflowing in the backup generator.
        let fat = FatTree::new(38).unwrap().hosts_per_tor(1).build();
        assert!(matches!(
            rewire_fat_tree(fat, 18),
            Err(TopologyError::InvalidParameter(_))
        ));
    }

    #[test]
    fn largest_budget_spends_every_prefix_bit() {
        let fat = FatTree::new(34).unwrap().hosts_per_tor(1).build();
        let net = rewire_fat_tree(fat, 16).unwrap();
        let routes = &network_backup_routes(&net)[0].1;
        let lens: Vec<u8> = routes.iter().map(|r| r.prefix.len()).collect();
        assert_eq!(lens, (1..=16).rev().collect::<Vec<u8>>());
        assert_eq!(routes[0].prefix, DCN_PREFIX);
        for pair in routes.windows(2) {
            assert!(pair[1].prefix.covers(pair[0].prefix));
        }
    }
}
