//! Shared testbed plumbing: building comparable fat-tree / F²Tree
//! networks, locating the probe path, and resolving failure scenarios.
//!
//! Lives in the core crate (rather than the experiment harness) so that
//! every consumer — the paper-reproduction experiments, the chaos engine,
//! the examples and the end-to-end tests — brings a fabric up in the
//! emulator through one door: [`TestBed::from_topology`] for a fabric as
//! built, [`TestBed::from_f2tree`] for a rewired one, which alone
//! installs the F²Tree backup routes. [`TestBed::build`] picks one of the
//! two for a `k`-port fat tree.

use dcn_emu::{EmuConfig, FlowId, Hop, Network};
use dcn_failure::Condition;
use dcn_net::{
    AddressingError, FatTree, Layer, LinkId, NodeId, PodRing, Protocol, Topology, TopologyError,
};
use dcn_routing::RecoveryMode;

use crate::{network_backup_routes, F2TreeNetwork};

/// Why a [`TestBed`] could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TestBedError {
    /// The topology builder rejected the parameters (e.g. odd or
    /// too-small `k`), mirroring the `FatTree::new` contract.
    Topology(TopologyError),
    /// The topology was valid but cannot be addressed: it exceeds the
    /// addressing scheme, or a host does not hang off exactly one ToR.
    Addressing(AddressingError),
}

impl std::fmt::Display for TestBedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestBedError::Topology(e) => write!(f, "invalid topology parameters: {e}"),
            TestBedError::Addressing(e) => write!(f, "unaddressable topology: {e}"),
        }
    }
}

impl std::error::Error for TestBedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TestBedError::Topology(e) => Some(e),
            TestBedError::Addressing(e) => Some(e),
        }
    }
}

impl From<TopologyError> for TestBedError {
    fn from(e: TopologyError) -> Self {
        TestBedError::Topology(e)
    }
}

impl From<AddressingError> for TestBedError {
    fn from(e: AddressingError) -> Self {
        TestBedError::Addressing(e)
    }
}

/// Which data-center design an experiment instance runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Design {
    /// The baseline: a fabric as built, without across links or backup
    /// routes — the standard fat tree, and the original Leaf-Spine, VL2
    /// and Aspen tree of Fig. 7 and the Aspen baseline.
    FatTree,
    /// F²Tree: rewired links + backup routes, on a fat tree, Leaf-Spine
    /// or VL2.
    F2Tree,
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Design::FatTree => write!(f, "Fat tree"),
            Design::F2Tree => write!(f, "F2Tree"),
        }
    }
}

/// A built network plus the ring metadata scenario resolution needs.
pub struct TestBed {
    /// The running emulator.
    pub net: Network,
    /// Which design this is.
    pub design: Design,
    /// Aggregation rings (F²Tree only).
    pub agg_rings: Vec<PodRing>,
    /// Core rings (F²Tree only).
    pub core_rings: Vec<PodRing>,
}

impl std::fmt::Debug for TestBed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestBed")
            .field("design", &self.design)
            .field("topology", &self.net.topology().name())
            .finish()
    }
}

impl TestBed {
    /// Builds a `k`-port network of the given design with `hosts_per_tor`
    /// hosts per rack, with the F²Tree backup routes installed when
    /// applicable.
    ///
    /// # Errors
    ///
    /// Returns [`TestBedError`] on invalid `k` (must be even, ≥ 4) or
    /// unaddressable scale, matching the `FatTree::new` contract.
    pub fn build(design: Design, k: u32, hosts_per_tor: u32) -> Result<Self, TestBedError> {
        Self::build_with_config(design, k, hosts_per_tor, EmuConfig::default())
    }

    /// Like [`TestBed::build`] with explicit emulator parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TestBedError`] on invalid `k` or unaddressable scale.
    pub fn build_with_config(
        design: Design,
        k: u32,
        hosts_per_tor: u32,
        config: EmuConfig,
    ) -> Result<Self, TestBedError> {
        match design {
            Design::FatTree => {
                let topo = FatTree::new(k)?.hosts_per_tor(hosts_per_tor).build();
                Self::from_topology(topo, config)
            }
            Design::F2Tree => {
                Self::from_f2tree(F2TreeNetwork::build_with_hosts(k, hosts_per_tor)?, config)
            }
        }
    }

    /// Brings up a fabric without across-link rings — a fat tree, or the
    /// un-rewired Leaf-Spine, VL2 or Aspen tree — under `config`, as
    /// [`Design::FatTree`].
    ///
    /// # Errors
    ///
    /// Returns [`TestBedError`] on unaddressable scale, or if a host does
    /// not hang off exactly one ToR.
    pub fn from_topology(topo: Topology, config: EmuConfig) -> Result<Self, TestBedError> {
        Ok(TestBed {
            net: Network::new(topo, config)?,
            design: Design::FatTree,
            agg_rings: Vec::new(),
            core_rings: Vec::new(),
        })
    }

    /// Brings up a rewired fabric — the F²Tree at any across-port budget,
    /// or [`f2_leaf_spine`](crate::f2_leaf_spine) /
    /// [`f2_vl2`](crate::f2_vl2) — under `config`, as [`Design::F2Tree`].
    ///
    /// # Errors
    ///
    /// Returns [`TestBedError`] on unaddressable scale, or if a host of
    /// the rewired topology does not hang off exactly one ToR.
    pub fn from_f2tree(f2: F2TreeNetwork, config: EmuConfig) -> Result<Self, TestBedError> {
        // The design's static backup routes embody the F²TreeRewiring
        // recovery mode; the other modes run the rewired fabric bare
        // (OSPF-only, or with the FRR map the emulator precomputes —
        // which uses the across ring as remote-LFA relays instead).
        let backups = if config.recovery() == RecoveryMode::F2TreeRewiring {
            network_backup_routes(&f2)
        } else {
            Vec::new()
        };
        let mut net = Network::new(f2.topology, config)?;
        net.install_static_routes(
            backups
                .into_iter()
                .flat_map(|(n, rs)| rs.into_iter().map(move |r| (n, r))),
        );
        Ok(TestBed {
            net,
            design: Design::F2Tree,
            agg_rings: f2.agg_rings,
            core_rings: f2.core_rings,
        })
    }

    /// The topology under test.
    pub fn topology(&self) -> &Topology {
        self.net.topology()
    }

    /// The probe endpoints the paper uses: leftmost and rightmost host;
    /// `None` on a bed without hosts.
    pub fn probe_endpoints(&self) -> Option<(NodeId, NodeId)> {
        let hosts = self.topology().hosts();
        Some((*hosts.first()?, *hosts.last()?))
    }

    /// Adds the testbed's UDP and TCP probes pinned to the **same**
    /// forwarding path (in the paper's testbed both flows traverse one
    /// path and observe one failure). The TCP source port is the first
    /// whose five-tuple ECMP-hashes onto the UDP probe's links.
    ///
    /// # Panics
    ///
    /// Panics on a bed without hosts, or if no port in the search window
    /// aligns the paths (cannot happen on the topologies used here).
    pub fn add_aligned_probes(&mut self, start: dcn_sim::SimTime) -> (FlowId, FlowId) {
        let (src, dst) = self
            .probe_endpoints()
            .expect("aligned probes need a bed with hosts");
        let udp = self.net.add_udp_probe(src, dst, start);
        let mut udp_hops = Vec::new();
        self.net.walk_flow(udp, &mut udp_hops);
        let sport = self
            .source_port(src, dst, Protocol::Tcp, |hops| hops == udp_hops)
            .expect("a TCP source port hashes onto the UDP probe's links");
        let tcp = self.net.add_tcp_probe_with_port(src, dst, sport, start);
        (udp, tcp)
    }

    /// The first source port, from 41 000 up, whose `protocol` flow from
    /// `src` to `dst` the forwarding state walks along hops `accept`
    /// takes; `None` if no port below 44 000 does.
    pub fn source_port(
        &self,
        src: NodeId,
        dst: NodeId,
        protocol: Protocol,
        accept: impl Fn(&[Hop]) -> bool,
    ) -> Option<u16> {
        let mut hops = Vec::new();
        (41_000..44_000u16).find(|&sport| {
            let key = self.net.flow_key_with_port(src, dst, sport, protocol);
            self.net.walk(&key, src, dst, &mut hops);
            accept(&hops)
        })
    }

    /// The path anatomy of a probe flow: the last three switches its walk
    /// leaves — the destination ToR, the aggregation switch on its
    /// downward path (`Sx`) and the core — and the two links it takes out
    /// of `Sx` and the core.
    ///
    /// # Panics
    ///
    /// Panics if the flow does not traverse a 5-switch inter-pod path.
    pub fn path_anatomy(&self, probe: FlowId) -> PathAnatomy {
        let mut hops = Vec::new();
        self.net.walk_flow(probe, &mut hops);
        let [_, _, .., core, agg, tor] = hops.as_slice() else {
            panic!("expected an inter-pod path, got {hops:?}");
        };
        let layer = |hop: &Hop| self.topology().node(hop.node).layer();
        assert_eq!(layer(tor), Some(Layer::Tor));
        assert_eq!(layer(agg), Some(Layer::Agg));
        assert_eq!(layer(core), Some(Layer::Core));
        PathAnatomy {
            dest_tor: tor.node,
            path_agg: agg.node,
            path_core: core.node,
            down_link: agg.link,
            core_link: core.link,
        }
    }

    /// Resolves a Table IV condition to the links its cell fails, in the
    /// order it fails them. C1 and C2 are the links the probe's walk takes
    /// out of `Sx` and the core; C4, C5 and C7 add the links down to the
    /// destination ToR from `Sx`'s neighbours in pod order; C6 and C7 the
    /// right across link of the pod's ring (Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if the condition cannot be resolved: C6/C7 on a bed whose
    /// destination pod has no across ring, such as a fat tree.
    pub fn scenario_links(&self, anatomy: &PathAnatomy, condition: Condition) -> Vec<LinkId> {
        self.resolve(anatomy, condition)
            .expect("the condition resolves on this bed (C6 and C7 need an across ring)")
    }

    /// [`TestBed::scenario_links`], or `None` if a link it names is missing.
    fn resolve(&self, anatomy: &PathAnatomy, condition: Condition) -> Option<Vec<LinkId>> {
        let topo = self.topology();
        let PathAnatomy {
            dest_tor: tor,
            path_agg: sx,
            down_link,
            core_link,
            ..
        } = *anatomy;
        let aggs = topo.pods(Layer::Agg).get(topo.node(sx).pod()?.index())?;
        let n = aggs.len();
        let i = aggs.iter().position(|&agg| agg == sx)?;
        let right = *aggs.get((i + 1) % n)?;
        let left = *aggs.get((i + n - 1) % n)?;
        // An agg's link down to the destination ToR: Sx's is the walk's.
        let down = |agg: NodeId| {
            if agg == sx {
                Some(down_link)
            } else {
                topo.link_between(agg, tor)
            }
        };
        let across = |agg: NodeId| {
            let ring = self.agg_rings.iter().find(|r| r.position(sx).is_some())?;
            ring.right(agg, 1).map(|(_, link)| link)
        };
        Some(match condition {
            Condition::C1 => vec![down_link],
            Condition::C2 => vec![core_link],
            Condition::C3 => vec![down_link, core_link],
            Condition::C4 => vec![down_link, down(right)?],
            Condition::C5 => aggs
                .iter()
                .filter(|&&agg| agg != left)
                .map(|&agg| down(agg))
                .collect::<Option<_>>()?,
            Condition::C6 => vec![down_link, across(sx)?],
            Condition::C7 => vec![down_link, down(right)?, across(right)?],
        })
    }

    /// All switch-to-switch links (the candidate set for random failure
    /// injection; host access links are excluded so no host is severed
    /// outright).
    pub fn fabric_links(&self) -> Vec<LinkId> {
        dcn_failure::fabric_links(self.topology())
    }
}

/// The probe path's anatomy in the destination pod.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PathAnatomy {
    /// The destination host's ToR.
    pub dest_tor: NodeId,
    /// `Sx`: the aggregation switch on the downward path.
    pub path_agg: NodeId,
    /// The core switch on the path.
    pub path_core: NodeId,
    /// The link the walk takes from `Sx` down to the destination ToR:
    /// C1's link.
    pub down_link: LinkId,
    /// The link the walk takes from the core down to `Sx`: C2's link.
    pub core_link: LinkId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::SimTime;

    #[test]
    fn builds_both_designs_at_k8() {
        let fat = TestBed::build(Design::FatTree, 8, 4).expect("valid k");
        assert_eq!(fat.topology().switch_count(), 80);
        // Table I at N=8: (5*64 - 14*8 + 8)/4 = 54 switches.
        let f2 = TestBed::build(Design::F2Tree, 8, 4).expect("valid k");
        assert_eq!(f2.topology().switch_count(), 54);
        assert_eq!(f2.agg_rings.len(), 6);
    }

    #[test]
    fn build_rejects_odd_k_with_typed_error() {
        let err = TestBed::build(Design::FatTree, 7, 1).unwrap_err();
        assert!(matches!(err, TestBedError::Topology(_)));
        let err = TestBed::build(Design::F2Tree, 2, 1).unwrap_err();
        assert!(matches!(err, TestBedError::Topology(_)));
        // The error chain surfaces the underlying topology error.
        assert!(std::error::Error::source(&err).is_some());
    }

    /// A k = 8 bed with four hosts per rack (Fig. 4's) and the anatomy of
    /// its UDP probe's path.
    fn probed(design: Design) -> (TestBed, PathAnatomy) {
        let mut bed = TestBed::build(design, 8, 4).expect("valid k");
        let (src, dst) = bed.probe_endpoints().expect("the bed has hosts");
        let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
        let anatomy = bed.path_anatomy(probe);
        (bed, anatomy)
    }

    /// Whether `link` joins `a` and `b`, either way round.
    fn joins(bed: &TestBed, link: LinkId, a: NodeId, b: NodeId) -> bool {
        let ends = bed.topology().link(link).endpoints();
        ends == (a, b) || ends == (b, a)
    }

    /// `Sx`'s neighbours in its pod's order: (left, right).
    fn pod_neighbours(bed: &TestBed, anatomy: &PathAnatomy) -> (NodeId, NodeId) {
        let pod = bed
            .topology()
            .node(anatomy.path_agg)
            .pod()
            .expect("aggs sit in pods");
        let aggs = &bed.topology().pods(Layer::Agg)[pod.index()];
        let i = aggs
            .iter()
            .position(|&a| a == anatomy.path_agg)
            .expect("Sx is a pod agg");
        let n = aggs.len();
        (aggs[(i + n - 1) % n], aggs[(i + 1) % n])
    }

    #[test]
    fn path_anatomy_finds_the_downward_path() {
        let (bed, anatomy) = probed(Design::F2Tree);
        assert!(bed
            .topology()
            .link_between(anatomy.path_agg, anatomy.dest_tor)
            .is_some());
    }

    /// Each link the anatomy records joins the two anatomy nodes it runs
    /// between.
    #[test]
    fn probe_path_link_matches_the_anatomy() {
        for design in [Design::FatTree, Design::F2Tree] {
            let (bed, anatomy) = probed(design);
            assert!(joins(
                &bed,
                anatomy.down_link,
                anatomy.path_agg,
                anatomy.dest_tor
            ));
            assert!(joins(
                &bed,
                anatomy.core_link,
                anatomy.path_core,
                anatomy.path_agg
            ));
        }
    }

    /// Aspen ⟨1, 0⟩ joins every agg–core pair by two parallel links and
    /// the ECMP hash picks one per flow: the anatomy's core link is the
    /// one the probe's walk took, not the pair's first, and failing it
    /// opens a connectivity-loss window.
    #[test]
    fn probe_path_link_is_the_parallel_link_the_walk_took() {
        use dcn_net::AspenTree;
        use dcn_sim::{timers, SimDuration};
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        for sport in 41_000..41_050 {
            let topo = AspenTree::new(8, 1).expect("valid dims").build();
            let mut bed = TestBed::from_topology(topo, EmuConfig::default()).expect("addressable");
            let (src, dst) = bed.probe_endpoints().expect("the bed has hosts");
            let probe = bed
                .net
                .add_udp_probe_with_port(src, dst, sport, SimTime::ZERO);
            let mut hops = Vec::new();
            bed.net.walk_flow(probe, &mut hops);
            let core = |hop: &&Hop| bed.topology().node(hop.node).layer() == Some(Layer::Core);
            let taken = hops.iter().find(core).expect("a cross-pod walk").link;
            let link = bed.path_anatomy(probe).core_link;
            assert_eq!(link, taken, "sport {sport}");
            bed.net.fail_link_at(at(100), taken);
            bed.net.run_until(at(400));
            let report = bed.net.udp_probe_report(probe);
            // The probe paces at 100 µs; losing its link costs it the
            // detection delay before ECMP drops the dead member.
            let loss = report.connectivity.loss_around(at(100)).map(|l| l.duration);
            assert!(
                loss >= Some(timers::DETECTION_DELAY),
                "sport {sport}: failing {taken} cost the probe only {loss:?}"
            );
        }
    }

    #[test]
    fn c1_fails_exactly_the_downward_path_link() {
        let (bed, anatomy) = probed(Design::FatTree);
        let links = bed.scenario_links(&anatomy, Condition::C1);
        assert_eq!(links, [anatomy.down_link]);
        assert!(joins(&bed, links[0], anatomy.path_agg, anatomy.dest_tor));
    }

    #[test]
    fn c3_is_the_union_of_c1_and_c2() {
        let (bed, anatomy) = probed(Design::FatTree);
        let c1 = bed.scenario_links(&anatomy, Condition::C1);
        let c2 = bed.scenario_links(&anatomy, Condition::C2);
        assert_eq!(c2, [anatomy.core_link]);
        let c3 = bed.scenario_links(&anatomy, Condition::C3);
        assert_eq!(c3, [c1, c2].concat());
    }

    #[test]
    fn c4_fails_two_adjacent_downward_links() {
        let (bed, anatomy) = probed(Design::FatTree);
        let links = bed.scenario_links(&anatomy, Condition::C4);
        let (_, right) = pod_neighbours(&bed, &anatomy);
        assert_eq!(links.len(), 2);
        assert_eq!(links[0], anatomy.down_link);
        assert!(joins(&bed, links[1], right, anatomy.dest_tor));
    }

    #[test]
    fn c5_spares_only_the_left_neighbor() {
        let (bed, anatomy) = probed(Design::FatTree);
        let links = bed.scenario_links(&anatomy, Condition::C5);
        // k=8 pod has 4 aggs; all but one lose their ToR link.
        assert_eq!(links.len(), 3);
        let (spared, _) = pod_neighbours(&bed, &anatomy);
        let spared_link = bed
            .topology()
            .link_between(spared, anatomy.dest_tor)
            .unwrap();
        assert!(!links.contains(&spared_link));
        assert!(links.contains(&anatomy.down_link));
    }

    /// C6 and C7 fail an across link, which a fat tree lacks: resolving
    /// them there is the documented panic.
    #[test]
    #[should_panic(expected = "C6 and C7 need an across ring")]
    fn c6_panics_on_a_fat_tree() {
        let (bed, anatomy) = probed(Design::FatTree);
        bed.scenario_links(&anatomy, Condition::C6);
    }

    #[test]
    #[should_panic(expected = "C6 and C7 need an across ring")]
    fn c7_panics_on_a_fat_tree() {
        let (bed, anatomy) = probed(Design::FatTree);
        bed.scenario_links(&anatomy, Condition::C7);
    }

    #[test]
    fn all_conditions_resolve_on_f2tree() {
        let (bed, anatomy) = probed(Design::F2Tree);
        for condition in Condition::ALL {
            let links = bed.scenario_links(&anatomy, condition);
            assert!(!links.is_empty(), "{condition} resolves");
        }
    }

    #[test]
    fn rewired_leaf_spine_and_vl2_carry_exactly_their_rings_backups() {
        use crate::{f2_leaf_spine, f2_vl2, ring_backup_routes};
        use dcn_routing::{Route, RouteOrigin};
        // The spine ring is a core ring, VL2's an aggregation ring:
        // [agg rings, core rings].
        for (f2, ring_counts) in [(f2_leaf_spine(6, 4), [0, 1]), (f2_vl2(6, 6), [1, 0])] {
            let f2 = f2.expect("valid dims");
            for recovery in [
                RecoveryMode::F2TreeRewiring,
                RecoveryMode::OspfReconvergence,
            ] {
                let config = EmuConfig::builder().recovery(recovery).build();
                let bed = TestBed::from_f2tree(f2.clone(), config).expect("addressable");
                let name = bed.topology().name();
                assert_eq!([bed.agg_rings.len(), bed.core_rings.len()], ring_counts);
                let ring = bed.agg_rings.iter().chain(&bed.core_rings).next();
                let mut want: std::collections::BTreeMap<_, _> = match (ring, recovery) {
                    (Some(ring), RecoveryMode::F2TreeRewiring) => {
                        ring_backup_routes(ring).into_iter().collect()
                    }
                    _ => Default::default(),
                };
                for switch in bed.topology().nodes().filter(|n| n.kind().is_switch()) {
                    let fib = bed.net.router(switch.id()).expect("switches route").fib();
                    let statics: Vec<Route> = fib
                        .routes()
                        .filter(|r| r.origin == RouteOrigin::Static)
                        .cloned()
                        .collect();
                    let mut routes = want.remove(&switch.id()).unwrap_or_default();
                    routes.sort_by_key(|r| (std::cmp::Reverse(r.prefix.len()), r.prefix));
                    assert_eq!(statics, routes, "{name} {recovery:?} {}", switch.name());
                }
                assert!(want.is_empty(), "{name}: every ring member is a switch");
            }
        }
    }

    #[test]
    fn fabric_links_exclude_host_access() {
        let bed = TestBed::build(Design::FatTree, 4, 1).expect("valid k");
        let links = bed.fabric_links();
        // k=4: 8 ToR-agg links per pod pair... total switch links = 32.
        assert_eq!(links.len(), 32);
    }
}
