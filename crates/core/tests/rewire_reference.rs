//! The rewiring reference oracle: [`rewire_fat_tree`] — one transform
//! whose across-port budget sets the chord reach of every ring — must
//! build, edge for edge and route for route, what the three copies it
//! replaced built.
//!
//! The [`reference`] module is what `f2tree` shipped before the copies
//! were one: the two-port `rewire_fat_tree` + `add_ring` (with a
//! `PodRing` of `right_links`) and its prefix-pair route generator, and
//! the wider builder with its own chorded ring and route generator. It is
//! kept verbatim as test-only code, except that the retired public names
//! are renamed (`build_chorded_f2tree`, `chorded_backup_routes`,
//! `ChordRing`, `RoutePrefixes`). It shares nothing with the crate but
//! the topology and route value types, so agreement is evidence about
//! the one transform, not about a common helper.

use dcn_net::{FatTree, Layer, LinkClass, LinkId, NodeId, PodId, Topology};
use dcn_routing::Route;
use f2tree::{network_backup_routes, rewire_fat_tree, F2TreeNetwork};

#[allow(dead_code)] // verbatim: not every ring accessor has a caller here
mod reference {
    use dcn_net::{
        FatTree, Layer, LinkClass, LinkId, NodeId, Prefix, Topology, TopologyError,
        COVERING_PREFIX, DCN_PREFIX,
    };
    use dcn_routing::{NextHop, Route, RouteOrigin};

    /// One pod's across-link ring, in ring order.
    ///
    /// `right_links[i]` is the across link from `members[i]` to
    /// `members[(i+1) % n]` — member `i`'s *rightward* link and member
    /// `i+1`'s *leftward* link. A two-member ring has two parallel links
    /// (as in the paper's k=4 testbed, Fig. 1(b)).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PodRing {
        /// Ring members in order.
        pub members: Vec<NodeId>,
        /// `right_links[i]` connects `members[i]` to its rightward neighbor.
        pub right_links: Vec<LinkId>,
    }

    impl PodRing {
        /// Number of members.
        pub fn len(&self) -> usize {
            self.members.len()
        }

        /// Whether the ring is empty.
        pub fn is_empty(&self) -> bool {
            self.members.is_empty()
        }

        /// The ring position of `node`, if it is a member.
        pub fn position(&self, node: NodeId) -> Option<usize> {
            self.members.iter().position(|&m| m == node)
        }

        /// The rightward neighbor of `node`.
        pub fn right_neighbor(&self, node: NodeId) -> Option<NodeId> {
            let i = self.position(node)?;
            Some(self.members[(i + 1) % self.members.len()])
        }

        /// The leftward neighbor of `node`.
        pub fn left_neighbor(&self, node: NodeId) -> Option<NodeId> {
            let i = self.position(node)?;
            let n = self.members.len();
            Some(self.members[(i + n - 1) % n])
        }

        /// The across link from `node` to its rightward neighbor.
        pub fn right_link(&self, node: NodeId) -> Option<LinkId> {
            let i = self.position(node)?;
            Some(self.right_links[i])
        }

        /// The across link from `node` to its leftward neighbor.
        pub fn left_link(&self, node: NodeId) -> Option<LinkId> {
            let i = self.position(node)?;
            let n = self.members.len();
            Some(self.right_links[(i + n - 1) % n])
        }
    }

    /// A rewired F²Tree network: the topology plus its across-link rings.
    #[derive(Clone, Debug)]
    pub struct F2TreeNetwork {
        /// The rewired topology.
        pub topology: Topology,
        /// One across-link ring per pod, over its aggregation switches.
        pub agg_rings: Vec<PodRing>,
        /// One across-link ring per core group (a single all-core ring when
        /// groups degenerate to singletons, as at `k = 4`).
        pub core_rings: Vec<PodRing>,
    }

    /// Rewires a standard fat tree into an F²Tree.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidParameter`] if `topo` does not have the
    /// shape produced by [`FatTree`] (every pod the same width, square core).
    pub fn rewire_fat_tree(mut topo: Topology) -> Result<F2TreeNetwork, TopologyError> {
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

        // 1. Retire the last two pods entirely (switches and their hosts).
        for pod in (pods - 2)..pods {
            let mut doomed: Vec<NodeId> = Vec::new();
            for &tor in &topo.pods(Layer::Tor)[pod] {
                doomed.extend(
                    topo.neighbors(tor)
                        .filter(|&(_, n)| !topo.node(n).kind().is_switch())
                        .map(|(_, n)| n),
                );
                doomed.push(tor);
            }
            doomed.extend(topo.pods(Layer::Agg)[pod].iter().copied());
            for node in doomed {
                topo.remove_node(node)?;
            }
        }

        // 2. Retire the last ToR (and its hosts) of every remaining pod.
        for pod in 0..(pods - 2) {
            let tor = *topo.pods(Layer::Tor)[pod]
                .last()
                .expect("pod has ToRs by the shape check");
            let hosts: Vec<NodeId> = topo
                .neighbors(tor)
                .filter(|&(_, n)| !topo.node(n).kind().is_switch())
                .map(|(_, n)| n)
                .collect();
            for host in hosts {
                topo.remove_node(host)?;
            }
            topo.remove_node(tor)?;
        }

        // 3. Retire the last core of every group.
        for group in 0..half {
            let core = *topo.pods(Layer::Core)[group]
                .last()
                .expect("group has cores by the shape check");
            topo.remove_node(core)?;
        }

        // 4. Across-link rings.
        let mut agg_rings = Vec::with_capacity(pods - 2);
        for pod in 0..(pods - 2) {
            let members = topo.pods(Layer::Agg)[pod].clone();
            agg_rings.push(add_ring(&mut topo, members)?);
        }
        let core_groups: Vec<Vec<NodeId>> = topo
            .pods(Layer::Core)
            .iter()
            .filter(|g| !g.is_empty())
            .cloned()
            .collect();
        let mut core_rings = Vec::new();
        if core_groups.iter().all(|g| g.len() == 1) {
            // k = 4 degenerate case (paper Fig. 1(b)): one ring across all
            // remaining core switches.
            let members: Vec<NodeId> = core_groups.into_iter().flatten().collect();
            core_rings.push(add_ring(&mut topo, members)?);
        } else {
            for members in core_groups {
                core_rings.push(add_ring(&mut topo, members)?);
            }
        }

        topo.set_name(format!("f2tree-k{k}"));
        Ok(F2TreeNetwork {
            topology: topo,
            agg_rings,
            core_rings,
        })
    }

    /// Adds the across links turning `members` into a ring.
    ///
    /// For a two-member ring this creates two parallel links; member `i`'s
    /// rightward link is `right_links[i]`.
    fn add_ring(topo: &mut Topology, members: Vec<NodeId>) -> Result<PodRing, TopologyError> {
        let n = members.len();
        if n < 2 {
            return Err(TopologyError::InvalidParameter(format!(
                "a ring needs at least 2 members, got {n}"
            )));
        }
        let mut right_links = Vec::with_capacity(n);
        for i in 0..n {
            let a = members[i];
            let b = members[(i + 1) % n];
            right_links.push(topo.add_link(a, b, LinkClass::Across)?);
        }
        Ok(PodRing {
            members,
            right_links,
        })
    }

    /// The two prefixes the backup routes use.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct RoutePrefixes {
        /// The prefix containing every host (rightward backup).
        pub dcn: Prefix,
        /// The shorter prefix just covering it (leftward backup).
        pub covering: Prefix,
    }

    impl Default for RoutePrefixes {
        fn default() -> Self {
            RoutePrefixes {
                dcn: DCN_PREFIX,
                covering: COVERING_PREFIX,
            }
        }
    }

    impl RoutePrefixes {
        /// Validates the paper's loop-avoidance invariant: the rightward
        /// prefix must be strictly longer than the leftward one, and the
        /// leftward prefix must cover it.
        ///
        /// # Panics
        ///
        /// Panics if the invariant is violated — a misconfiguration that would
        /// reintroduce the Fig. 3(b) forwarding loop.
        pub fn validate(&self) {
            assert!(
                self.dcn.len() > self.covering.len(),
                "rightward backup prefix must be longer than the leftward one"
            );
            assert!(
                self.covering.covers(self.dcn),
                "leftward prefix must cover the DCN prefix"
            );
        }
    }

    /// The backup routes for one switch: `[rightward, leftward]`.
    pub type SwitchBackup = (NodeId, [Route; 2]);

    /// Generates the two backup routes for every member of `ring`.
    pub fn ring_backup_routes(ring: &PodRing, prefixes: RoutePrefixes) -> Vec<SwitchBackup> {
        prefixes.validate();
        let mut out = Vec::with_capacity(ring.len());
        for &member in &ring.members {
            let right = NextHop {
                node: ring.right_neighbor(member).expect("member is in ring"),
                link: ring.right_link(member).expect("member is in ring"),
            };
            let left = NextHop {
                node: ring.left_neighbor(member).expect("member is in ring"),
                link: ring.left_link(member).expect("member is in ring"),
            };
            out.push((
                member,
                [
                    Route::new(prefixes.dcn, RouteOrigin::Static, 0, vec![right]),
                    Route::new(prefixes.covering, RouteOrigin::Static, 0, vec![left]),
                ],
            ));
        }
        out
    }

    /// Generates the full backup configuration for an F²Tree network: two
    /// static routes per aggregation and core switch (Table II's last two
    /// rows, replicated everywhere).
    pub fn network_backup_routes(network: &F2TreeNetwork) -> Vec<SwitchBackup> {
        let prefixes = RoutePrefixes::default();
        network
            .agg_rings
            .iter()
            .chain(network.core_rings.iter())
            .flat_map(|ring| ring_backup_routes(ring, prefixes))
            .collect()
    }

    /// A ring with chords out to `reach` in both directions.
    ///
    /// `chords[d-1][i]` is the link from `members[i]` to
    /// `members[(i + d) % n]` — member `i`'s rightward distance-`d` chord and
    /// the target's leftward one.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ChordRing {
        /// Ring members in order.
        pub members: Vec<NodeId>,
        /// `chords[d-1][i]`: the distance-`d` rightward chord of member `i`.
        pub chords: Vec<Vec<LinkId>>,
    }

    impl ChordRing {
        /// Number of members.
        pub fn len(&self) -> usize {
            self.members.len()
        }

        /// Whether the ring is empty.
        pub fn is_empty(&self) -> bool {
            self.members.is_empty()
        }

        /// Chord reach (`chords.len()`).
        pub fn reach(&self) -> usize {
            self.chords.len()
        }

        /// Position of `node` in the ring.
        pub fn position(&self, node: NodeId) -> Option<usize> {
            self.members.iter().position(|&m| m == node)
        }

        /// The rightward distance-`d` neighbor and chord of `node`.
        pub fn right(&self, node: NodeId, d: usize) -> Option<(NodeId, LinkId)> {
            let i = self.position(node)?;
            let n = self.members.len();
            let link = *self.chords.get(d - 1)?.get(i)?;
            Some((self.members[(i + d) % n], link))
        }

        /// The leftward distance-`d` neighbor and chord of `node`.
        pub fn left(&self, node: NodeId, d: usize) -> Option<(NodeId, LinkId)> {
            let i = self.position(node)?;
            let n = self.members.len();
            let j = (i + n - d % n) % n;
            let link = *self.chords.get(d - 1)?.get(j)?;
            Some((self.members[j], link))
        }
    }

    /// A fat tree rewired with `2 * reach` across ports per aggregation and
    /// core switch.
    #[derive(Clone, Debug)]
    pub struct WideF2TreeNetwork {
        /// The rewired topology.
        pub topology: Topology,
        /// Per-pod aggregation rings with chords.
        pub agg_rings: Vec<ChordRing>,
        /// Per-group core rings with chords.
        pub core_rings: Vec<ChordRing>,
        /// Chord reach (across ports = `2 * reach`).
        pub reach: u32,
    }

    /// Builds a wide F²Tree: `k`-port switches with `across_ports` reserved
    /// per aggregation/core switch (`across_ports = 2` is the plain F²Tree).
    ///
    /// Sizing generalizes Table I: `N − r` pods with `(N − r)/2` ToRs each,
    /// `N/2` aggs per pod, `N/2` core groups of `(N − r)/2`, where
    /// `r = across_ports`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `k` and `across_ports` are even,
    /// `across_ports >= 2`, and the resulting rings have enough members for
    /// distinct chords (`N/2 > across_ports / 2` and `(N − r)/2 >= 2`).
    pub fn build_chorded_f2tree(
        k: u32,
        across_ports: u32,
    ) -> Result<WideF2TreeNetwork, TopologyError> {
        if across_ports < 2 || !across_ports.is_multiple_of(2) {
            return Err(TopologyError::InvalidParameter(format!(
                "across_ports must be even and >= 2, got {across_ports}"
            )));
        }
        let reach = across_ports / 2;
        if k <= across_ports + 2 {
            return Err(TopologyError::InvalidParameter(format!(
                "k={k} too small to reserve {across_ports} across ports"
            )));
        }
        // Every ring (aggs per pod = k/2; cores per group = (k - r)/2) needs
        // strictly more members than the chord reach, or distance-`reach`
        // chords degenerate into self-links.
        if k / 2 <= reach || (k - across_ports) / 2 <= reach {
            return Err(TopologyError::InvalidParameter(format!(
                "rings too small for reach {reach} at k={k}"
            )));
        }
        let mut topo = FatTree::new(k)?.build();
        let pods = k as usize;
        let half = (k / 2) as usize;
        let r = across_ports as usize;

        // Retire the last `r` pods.
        for pod in (pods - r)..pods {
            let mut doomed: Vec<NodeId> = Vec::new();
            for &tor in &topo.pods(Layer::Tor)[pod] {
                doomed.extend(
                    topo.neighbors(tor)
                        .filter(|&(_, n)| !topo.node(n).kind().is_switch())
                        .map(|(_, n)| n),
                );
                doomed.push(tor);
            }
            doomed.extend(topo.pods(Layer::Agg)[pod].iter().copied());
            for node in doomed {
                topo.remove_node(node)?;
            }
        }
        // Retire the last `r/2` ToRs of every remaining pod.
        for pod in 0..(pods - r) {
            for _ in 0..(r / 2) {
                let tor = *topo.pods(Layer::Tor)[pod].last().expect("pod has ToRs");
                let hosts: Vec<NodeId> = topo
                    .neighbors(tor)
                    .filter(|&(_, n)| !topo.node(n).kind().is_switch())
                    .map(|(_, n)| n)
                    .collect();
                for host in hosts {
                    topo.remove_node(host)?;
                }
                topo.remove_node(tor)?;
            }
        }
        // Retire the last `r/2` cores of every group.
        for group in 0..half {
            for _ in 0..(r / 2) {
                let core = *topo.pods(Layer::Core)[group]
                    .last()
                    .expect("group has cores");
                topo.remove_node(core)?;
            }
        }

        // Chorded rings.
        let mut agg_rings = Vec::with_capacity(pods - r);
        for pod in 0..(pods - r) {
            let members = topo.pods(Layer::Agg)[pod].clone();
            agg_rings.push(add_wide_ring(&mut topo, members, reach as usize)?);
        }
        let mut core_rings = Vec::new();
        for group in 0..half {
            let members = topo.pods(Layer::Core)[group].clone();
            core_rings.push(add_wide_ring(&mut topo, members, reach as usize)?);
        }

        topo.set_name(format!("f2tree-k{k}-a{across_ports}"));
        Ok(WideF2TreeNetwork {
            topology: topo,
            agg_rings,
            core_rings,
            reach,
        })
    }

    fn add_wide_ring(
        topo: &mut Topology,
        members: Vec<NodeId>,
        reach: usize,
    ) -> Result<ChordRing, TopologyError> {
        let n = members.len();
        if n < 2 {
            return Err(TopologyError::InvalidParameter(format!(
                "a ring needs at least 2 members, got {n}"
            )));
        }
        let mut chords = Vec::with_capacity(reach);
        for d in 1..=reach {
            let mut level = Vec::with_capacity(n);
            for i in 0..n {
                level.push(topo.add_link(members[i], members[(i + d) % n], LinkClass::Across)?);
            }
            chords.push(level);
        }
        Ok(ChordRing { members, chords })
    }

    /// Generates the `2 * reach` backup routes per ring member: rightward
    /// chords get the longest prefixes (distance 1 first), then leftward,
    /// each route one bit shorter than the previous so fall-through tries
    /// them in order.
    pub fn chorded_backup_routes(net: &WideF2TreeNetwork) -> Vec<(NodeId, Vec<Route>)> {
        let reach = net.reach as usize;
        let mut out = Vec::new();
        for ring in net.agg_rings.iter().chain(net.core_rings.iter()) {
            for &member in &ring.members {
                let mut routes = Vec::with_capacity(2 * reach);
                let mut len = DCN_PREFIX.len();
                for d in 1..=reach {
                    let (node, link) = ring.right(member, d).expect("member in ring");
                    routes.push(Route::new(
                        Prefix::truncating(DCN_PREFIX.addr(), len),
                        RouteOrigin::Static,
                        0,
                        vec![NextHop { node, link }],
                    ));
                    len -= 1;
                }
                for d in 1..=reach {
                    let (node, link) = ring.left(member, d).expect("member in ring");
                    routes.push(Route::new(
                        Prefix::truncating(DCN_PREFIX.addr(), len),
                        RouteOrigin::Static,
                        0,
                        vec![NextHop { node, link }],
                    ));
                    len -= 1;
                }
                out.push((member, routes));
            }
        }
        out
    }
}

/// A node as the transform leaves it: identity, placement, and its
/// adjacency in order (forwarding walks it).
type NodeRow = (
    NodeId,
    String,
    Option<Layer>,
    Option<PodId>,
    Vec<(LinkId, NodeId)>,
);

fn nodes(topo: &Topology) -> Vec<NodeRow> {
    topo.nodes()
        .map(|n| {
            let id = n.id();
            (
                id,
                n.name().to_string(),
                n.layer(),
                n.pod(),
                topo.neighbors(id).collect(),
            )
        })
        .collect()
}

fn links(topo: &Topology) -> Vec<(LinkId, (NodeId, NodeId), LinkClass)> {
    topo.links()
        .map(|l| (l.id(), l.endpoints(), l.class()))
        .collect()
}

/// A ring as `(members, chords by distance)`.
type RingRow = (Vec<NodeId>, Vec<Vec<LinkId>>);

fn rings(net: &F2TreeNetwork) -> Vec<RingRow> {
    net.agg_rings
        .iter()
        .chain(net.core_rings.iter())
        .map(|r| (r.members.clone(), r.chords.clone()))
        .collect()
}

/// The one transform against the retired two-port builder.
fn assert_matches_plain(new: &F2TreeNetwork, old: &reference::F2TreeNetwork, what: &str) {
    assert_eq!(new.topology.name(), old.topology.name(), "{what}: name");
    assert_eq!(nodes(&new.topology), nodes(&old.topology), "{what}: nodes");
    assert_eq!(links(&new.topology), links(&old.topology), "{what}: links");
    let old_rings: Vec<RingRow> = old
        .agg_rings
        .iter()
        .chain(old.core_rings.iter())
        .map(|r| (r.members.clone(), vec![r.right_links.clone()]))
        .collect();
    assert_eq!(rings(new), old_rings, "{what}: rings");
    let old_backups: Vec<(NodeId, Vec<Route>)> = reference::network_backup_routes(old)
        .into_iter()
        .map(|(n, rs)| (n, rs.to_vec()))
        .collect();
    assert_eq!(network_backup_routes(new), old_backups, "{what}: backups");
}

/// The one transform against the retired wide builder; `same_name` is
/// false only at two ports, where the wide builder named its output
/// `f2tree-k{k}-a2`.
fn assert_matches_wide(
    new: &F2TreeNetwork,
    old: &reference::WideF2TreeNetwork,
    same_name: bool,
    what: &str,
) {
    if same_name {
        assert_eq!(new.topology.name(), old.topology.name(), "{what}: name");
    }
    assert_eq!(nodes(&new.topology), nodes(&old.topology), "{what}: nodes");
    assert_eq!(links(&new.topology), links(&old.topology), "{what}: links");
    let old_rings: Vec<RingRow> = old
        .agg_rings
        .iter()
        .chain(old.core_rings.iter())
        .map(|r| (r.members.clone(), r.chords.clone()))
        .collect();
    assert_eq!(rings(new), old_rings, "{what}: rings");
    assert_eq!(
        network_backup_routes(new),
        reference::chorded_backup_routes(old),
        "{what}: backups"
    );
}

#[test]
fn two_ports_reproduce_the_plain_and_the_wide_builder() {
    for k in [4u32, 6, 8, 10, 12, 16] {
        for hosts in [None, Some(1)] {
            let fat = || {
                let ft = FatTree::new(k).unwrap();
                match hosts {
                    Some(h) => ft.hosts_per_tor(h).build(),
                    None => ft.build(),
                }
            };
            let what = format!("k={k} hosts_per_tor={hosts:?}");
            let new = rewire_fat_tree(fat(), 2).unwrap();
            let old = reference::rewire_fat_tree(fat()).unwrap();
            assert_matches_plain(&new, &old, &what);
            if hosts.is_none() && k > 4 {
                let wide = reference::build_chorded_f2tree(k, 2).unwrap();
                assert_matches_wide(&new, &wide, false, &what);
            }
        }
    }
}

#[test]
fn wider_budgets_reproduce_the_wide_builder() {
    let mut compared = 0;
    for k in (4u32..=16).step_by(2) {
        for across in [4u32, 6] {
            let what = format!("k={k} across_ports={across}");
            let new = rewire_fat_tree(FatTree::new(k).unwrap().build(), across);
            match reference::build_chorded_f2tree(k, across) {
                Ok(old) => {
                    assert_matches_wide(&new.unwrap(), &old, true, &what);
                    compared += 1;
                }
                Err(_) => assert!(new.is_err(), "{what}: accepted, reference rejects"),
            }
        }
    }
    // k = 10..=16 at 4 ports, k = 14, 16 at 6.
    assert_eq!(compared, 6);
}

#[test]
fn accepts_exactly_what_the_old_builders_accepted() {
    for k in (4u32..=16).step_by(2) {
        for across in 0u32..=8 {
            let new = rewire_fat_tree(FatTree::new(k).unwrap().hosts_per_tor(1).build(), across);
            let old = if across == 2 {
                true
            } else {
                reference::build_chorded_f2tree(k, across).is_ok()
            };
            assert_eq!(new.is_ok(), old, "k={k} across_ports={across}");
        }
    }
}
