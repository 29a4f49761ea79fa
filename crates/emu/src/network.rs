//! The packet-level network emulator.
//!
//! [`Network`] owns the event loop and wires the substrates together: the
//! topology and address plan (`dcn-net`), link transmission (`dcn-sim`),
//! per-switch router processes (`dcn-routing`), host transport endpoints
//! (`dcn-transport`), failure schedules (`dcn-failure`) and metric sinks
//! (`dcn-metrics`). It plays the role NS3+DCE plays in the paper: every
//! packet crosses real links, every switch does a real FIB lookup, and the
//! control plane floods real LSA packets.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dcn_failure::FailureSchedule;
use dcn_metrics::{CompletionStats, ConnectivityTracker, DelaySeries};
use dcn_net::{
    assign_addresses, AddressPlan, AddressingError, FlowKey, Layer, LinkClass, LinkId, NodeId,
    NodeKind, Prefix, Protocol, Topology,
};
use dcn_routing::{
    Adjacency, FibDelta, Lsa, NextHop, RecoveryMode, Route, RouteOrigin, RouterAction,
    RouterProcess, SpfTable,
};
use dcn_sim::{
    timers, Direction, EventKey, EventQueue, LinkSpec, LinkState, Packet, PacketArena, PacketSlot,
    SimDuration, SimTime, TransmitVerdict, DEFAULT_TTL,
};
use dcn_transport::{
    TcpAck, TcpApp, TcpConfig, TcpReceiver, TcpSegment, TcpSender, TcpSenderOutput, UdpDatagram,
    UdpSource,
};

use crate::config::{ControlPlaneMode, EmuConfig};

// The parts of the paper's §IV emulation environment nobody varies. Links
// are `LinkSpec::PAPER_EMULATION` (1 Gbps, 5 µs, ~250 µs RTT), TCP is
// `TcpConfig::default()` (200 ms min RTO), and across links are always
// OSPF-passive: they carry only the static backup routes, leaving
// baseline shortest paths identical to the un-rewired fabric (§II-D:
// backup routes are not used in forwarding unless failures happen).

/// Per-switch LSA processing delay ("the LSA propagation and the CPU
/// processing delay contribute a small part").
pub(crate) const LSA_PROCESSING_DELAY: SimDuration = SimDuration::from_micros(500);
/// Wire size of an LSA packet.
pub(crate) const LSA_PACKET_BYTES: u32 = 100;
/// TCP/IP header overhead added to every data segment.
const HEADER_BYTES: u32 = 52;
/// Wire size of a pure ACK.
const ACK_BYTES: u32 = 52;
/// UDP/IP header overhead for probe datagrams.
const UDP_HEADER_BYTES: u32 = 28;

/// Identifies a flow within one [`Network`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u32);

impl FlowId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a partition-aggregate request within one [`Network`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RequestId(u32);

/// One hop of a [`Network::walk`]: the node a packet leaves, and the link
/// it leaves by.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The source host for the first hop, a switch for every later one.
    pub node: NodeId,
    /// The link taken out of `node`.
    pub link: LinkId,
}

/// Where a [`Network::walk`] ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WalkOutcome {
    /// The walk reached the destination over physically-live links.
    Reached,
    /// The walk revisited a node (forwarding loop).
    Loop(NodeId),
    /// The chosen next-hop link is physically down.
    DeadLink(LinkId),
    /// A router had no route for the flow.
    NoRoute(NodeId),
}

/// What a fixed-size TCP flow is for (determines bookkeeping on delivery).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum FlowRole {
    /// A background transfer.
    Transfer,
    /// A partition-aggregate request; full delivery spawns the response.
    Request(RequestId),
    /// A partition-aggregate response; full delivery advances the request.
    Response(RequestId),
}

enum Payload {
    Udp { flow: FlowId, dgram: UdpDatagram },
    TcpData { flow: FlowId, seg: TcpSegment },
    TcpAckSeg { flow: FlowId, ack: TcpAck },
    Lsa(Arc<Lsa>),
}

impl Payload {
    /// The flow a packet belongs to; `None` for control-plane packets.
    fn flow(&self) -> Option<FlowId> {
        match self {
            Payload::Udp { flow, .. }
            | Payload::TcpData { flow, .. }
            | Payload::TcpAckSeg { flow, .. } => Some(*flow),
            Payload::Lsa(_) => None,
        }
    }
}

/// Packets stay in [`Network::packets`] and the one rare bulky variant is
/// boxed, so an event is 16 bytes and a heap entry 32.
enum Event {
    Arrive {
        link: LinkId,
        to: NodeId,
        packet: PacketSlot,
    },
    LsaProcess {
        node: NodeId,
        arrived_on: LinkId,
        packet: PacketSlot,
    },
    LinkChange {
        link: LinkId,
        up: bool,
    },
    LinkDirChange {
        link: LinkId,
        from: NodeId,
        up: bool,
    },
    Detect {
        node: NodeId,
        link: LinkId,
        up: bool,
    },
    SpfTimer {
        node: NodeId,
    },
    FibInstall {
        node: NodeId,
        /// The SPF run's `(generation, delta)`.
        install: Box<(u64, FibDelta)>,
    },
    UdpTick {
        flow: FlowId,
    },
    TcpStart {
        flow: FlowId,
    },
    TcpPace {
        flow: FlowId,
    },
    /// The flow's one live retransmission-timer entry; the key it pops
    /// under tells [`Network::on_rto_entry`] which arming it is.
    TcpRto {
        flow: FlowId,
    },
    /// Centralized control plane: the controller finishes recomputation
    /// and pushes tables.
    ControllerRecompute,
}

const _: () = assert!(std::mem::size_of::<Event>() <= 16);
const _: () = assert!(std::mem::size_of::<FlowState>() <= 160);

/// What every flow has, and what its kind adds.
struct FlowState {
    key: FlowKey,
    src: NodeId,
    dst: NodeId,
    /// Allocated at the flow's first switch hop, released when its sender
    /// completes (a duplicate still in flight then re-creates it).
    path_memo: Option<Box<PathMemo>>,
    kind: FlowKind,
}

/// A flow is a UDP probe or a TCP connection. Every event and packet
/// handler serves one kind; naming a flow of the other kind does nothing.
enum FlowKind {
    UdpProbe(UdpProbe),
    Tcp(TcpConnection),
}

/// The constant-rate UDP probe; arrivals feed connectivity metrics.
struct UdpProbe {
    source: UdpSource,
    connectivity: ConnectivityTracker,
    delay: DelaySeries,
}

/// The paced TCP probe of the testbed experiments, or a fixed-size flow.
struct TcpConnection {
    ends: TcpEnds,
    rto: RtoTimer,
    /// `None` for the paced probe.
    fixed: Option<FixedSize>,
}

/// A connection's sender and receiver, built by the flow's `TcpStart` and
/// freed when the sender completes: every byte is then delivered and
/// acknowledged, so a late duplicate only re-ACKs the whole flow and the
/// sender would emit nothing more.
enum TcpEnds {
    /// Planned: the pair does not exist yet; reports read as a fresh one.
    NotStarted,
    Open(Box<(TcpSender, TcpReceiver)>),
    /// All the reports still read of the freed sender.
    Closed {
        retransmits: u64,
    },
}

/// A TCP flow of a fixed size, and when it started and was fully delivered.
struct FixedSize {
    bytes: u64,
    started_at: SimTime,
    delivered_at: Option<SimTime>,
    role: FlowRole,
}

impl FlowState {
    fn fixed(&self) -> Option<&FixedSize> {
        match &self.kind {
            FlowKind::Tcp(tcp) => tcp.fixed.as_ref(),
            FlowKind::UdpProbe(_) => None,
        }
    }
}

/// The record of `flow`; `None` once released (or for a flow of another
/// network).
fn record(flows: &mut [Option<Box<FlowState>>], flow: FlowId) -> Option<&mut FlowState> {
    flows.get_mut(flow.index())?.as_deref_mut()
}

/// The TCP connection `flow` names; `None` for a UDP probe (or a released
/// flow, or a flow of another network), so a TCP event naming one does
/// nothing.
fn tcp_of(flows: &mut [Option<Box<FlowState>>], flow: FlowId) -> Option<&mut TcpConnection> {
    match &mut record(flows, flow)?.kind {
        FlowKind::Tcp(tcp) => Some(tcp),
        FlowKind::UdpProbe(_) => None,
    }
}

/// What the switches last decided for a flow's packets. A decision is a
/// function of (switch state, five-tuple): the five-tuple is fixed per flow
/// and direction, switch state while [`Network::fib_epoch`] stands still,
/// so an entry filled under this epoch at this switch *is* the decision
/// (DESIGN.md §10.1). The hop count only indexes: packets of one flow at
/// one hop count but different switches miss on the switch and overwrite.
#[derive(Default)]
struct PathMemo {
    /// The `fib_epoch` every entry was decided under.
    epoch: u64,
    /// At `2 * hops_taken + is_ack`: that switch, and its out link (`None`: blackholed).
    hops: Vec<Option<(NodeId, Option<LinkId>)>>,
}

/// A flow's retransmission timer. The sender re-arms it on every new ACK
/// but it fires once per loss episode, so the flow keeps at most one live
/// entry in the event queue ([`Network::arm_rto`]).
#[derive(Default)]
struct RtoTimer {
    /// Key drawn for the latest `ArmRto` — the only arming that may fire.
    deadline: EventKey,
    /// That arming's validity token.
    token: u64,
    /// Key of the flow's live queue entry, while one is pending.
    queued: Option<EventKey>,
}

struct RequestState {
    start: SimTime,
    response_bytes: u64,
    remaining: usize,
    completed: Option<SimTime>,
}

/// Packet-drop counters, by cause.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DropCounters {
    /// No FIB route had a live next hop (total blackhole).
    pub no_route: u64,
    /// TTL expired (forwarding loops, e.g. the C7 ping-pong).
    pub ttl_expired: u64,
    /// Transmitted into a physically down link.
    pub link_down: u64,
    /// Output queue overflow.
    pub queue_full: u64,
}

/// The packet-level emulator.
///
/// # Examples
///
/// ```
/// use dcn_emu::{EmuConfig, Network};
/// use dcn_net::FatTree;
/// use dcn_sim::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = FatTree::new(4)?.hosts_per_tor(1).build();
/// let mut net = Network::new(topo, EmuConfig::default())?;
/// let hosts = net.topology().hosts().to_vec();
/// let probe = net.add_udp_probe(hosts[0], *hosts.last().unwrap(), SimTime::ZERO);
/// net.run_until(SimTime::ZERO + SimDuration::from_millis(50));
/// let report = net.udp_probe_report(probe);
/// assert!(report.received > 400, "50ms at 100us per packet");
/// assert!(report.lost <= 2, "only the in-flight tail is unreceived");
/// # Ok(())
/// # }
/// ```
pub struct Network {
    topo: Topology,
    plan: AddressPlan,
    config: EmuConfig,
    queue: EventQueue<Event>,
    /// Every packet in flight. The one queued event that names a slot owns
    /// it; the handler the packet dies in (or is delivered by) releases it.
    packets: PacketArena<Payload>,
    links: Vec<LinkState>,
    routers: Vec<Option<RouterProcess>>,
    host_uplink: Vec<Option<(LinkId, NodeId)>>,
    /// Boxed so growth moves pointers, never the states: doubling them in
    /// place crosses glibc's mmap threshold and made peak RSS jump by the
    /// whole array depending on unrelated allocations. A TCP flow holds
    /// its sender and receiver only from its start to its completion; a
    /// partition-aggregate flow's record is released (`None`) once
    /// nothing can reach it ([`Network::release_if_unreachable`]). Ids
    /// are never reused.
    flows: Vec<Option<Box<FlowState>>>,
    /// The flow whose last live packet died, or whose retransmission
    /// timer entry was consumed, in the event being handled; checked for
    /// release once the handler has returned.
    settle: Option<FlowId>,
    /// Packets alive in [`Self::packets`], per flow id. Kept apart from
    /// the records so the packet path counts without a pointer chase.
    live_packets: Vec<u32>,
    requests: Vec<RequestState>,
    next_port: u16,
    packet_seq: u64,
    drops: DropCounters,
    delivered_packets: u64,
    /// Centralized mode: a controller recomputation is already pending.
    recompute_pending: bool,
    /// Reusable buffer for LSA flood targets, so per-flood target lists
    /// don't heap-allocate on the event hot path.
    flood_scratch: Vec<Adjacency>,
    /// Reusable buffer router handlers append [`RouterAction`]s into, so
    /// per-event dispatch doesn't heap-allocate on the hot path
    /// ([`Self::run_router`]).
    action_scratch: Vec<RouterAction>,
    /// The same for the [`TcpSenderOutput`]s a sender appends.
    tcp_scratch: Vec<TcpSenderOutput>,
    /// The SPF distances every router's run reads (DESIGN.md §10.1).
    spf_table: SpfTable,
    /// Bumped whenever forwarding-relevant state may have changed (a
    /// physical link transition, a local detection, or a FIB install), so
    /// external invariant checkers re-inspect only when needed.
    fib_epoch: u64,
}

impl Network {
    /// Builds an emulator over `topo`: assigns addresses, creates one
    /// router process per switch, installs connected host routes at ToRs,
    /// and warm-starts the control plane (the protocol is converged at
    /// t = 0, as a long-running production network would be).
    ///
    /// # Errors
    ///
    /// Returns an error if address assignment fails: the topology is too
    /// large for the paper's addressing scheme, or a host does not hang
    /// off exactly one ToR.
    pub fn new(mut topo: Topology, config: EmuConfig) -> Result<Self, AddressingError> {
        let plan = assign_addresses(&mut topo)?;
        let n_nodes = topo.node_slots();
        let n_links = topo.link_slots();

        let mut routers: Vec<Option<RouterProcess>> = (0..n_nodes).map(|_| None).collect();
        let mut host_uplink: Vec<Option<(LinkId, NodeId)>> = vec![None; n_nodes];

        for node in topo.nodes() {
            match node.kind() {
                NodeKind::Switch(layer) => {
                    let interfaces: Vec<Adjacency> = topo
                        .neighbors(node.id())
                        .filter(|&(_, n)| topo.node(n).kind().is_switch())
                        .map(|(link, neighbor)| Adjacency { neighbor, link })
                        .collect();
                    let prefixes: Vec<Prefix> = if layer == Layer::Tor {
                        plan.subnet_of(node.id()).into_iter().collect()
                    } else {
                        Vec::new()
                    };
                    let mut router =
                        RouterProcess::new(node.id(), config.router, interfaces, prefixes);
                    router.set_passive(topo.across_links(node.id()).iter().copied());
                    routers[node.id().index()] = Some(router);
                }
                NodeKind::Host => {
                    host_uplink[node.id().index()] = topo.neighbors(node.id()).next();
                }
            }
        }

        // Connected /32 routes for each ToR's hosts (`assign_addresses`
        // checked that each host hangs off exactly one ToR).
        for node in topo.nodes().filter(|n| n.kind() == NodeKind::Host) {
            let Some((link, tor)) = host_uplink[node.id().index()] else {
                continue;
            };
            let route = Route::new(
                Prefix::host(node.addr()),
                RouteOrigin::Connected,
                0,
                vec![NextHop {
                    node: node.id(),
                    link,
                }],
            );
            if let Some(router) = routers[tor.index()].as_mut() {
                router.install_permanent(route);
            }
        }

        // Warm start: everyone originates, everyone installs everything.
        let lsas: Vec<Arc<Lsa>> = routers
            .iter_mut()
            .flatten()
            .map(|r| r.originate_lsa())
            .collect();
        let mut spf_table = SpfTable::default();
        for router in routers.iter_mut().flatten() {
            router.bootstrap(lsas.iter().cloned(), &mut spf_table);
        }

        // Precomputed fast-reroute: build the per-link failure map from
        // the converged topology and hand each switch its repair plan
        // (across links stay OSPF-passive but serve as remote-LFA
        // relays — the F²Tree rewiring doing double duty).
        if config.recovery() == RecoveryMode::PrecomputedFrr {
            let passive: BTreeSet<LinkId> = topo
                .links()
                .filter(|l| l.class() == LinkClass::Across)
                .map(|l| l.id())
                .collect();
            let origins: BTreeMap<NodeId, Vec<Prefix>> = topo
                .layer_switches(Layer::Tor)
                .map(|tor| (tor, plan.subnet_of(tor).into_iter().collect()))
                .collect();
            let map = dcn_frr::compute_failure_map(&topo, &passive, &origins);
            for (node, frr_plan) in map.into_plans() {
                // The map only covers switches, which all run routers.
                if let Some(router) = routers.get_mut(node.index()).and_then(Option::as_mut) {
                    router.set_frr_plan(frr_plan);
                }
            }
        }

        Ok(Network {
            topo,
            plan,
            queue: EventQueue::new(),
            packets: PacketArena::default(),
            config,
            links: (0..n_links).map(|_| LinkState::new()).collect(),
            routers,
            host_uplink,
            flows: Vec::new(),
            settle: None,
            live_packets: Vec::new(),
            requests: Vec::new(),
            next_port: 40_000,
            packet_seq: 0,
            drops: DropCounters::default(),
            delivered_packets: 0,
            recompute_pending: false,
            flood_scratch: Vec::new(),
            action_scratch: Vec::new(),
            tcp_scratch: Vec::new(),
            spf_table,
            fib_epoch: 0,
        })
    }

    /// The (addressed) topology under emulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The address plan.
    pub fn plan(&self) -> &AddressPlan {
        &self.plan
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// High-water mark of pending simulator events (bench evidence for
    /// event-queue memory pressure).
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak_pending()
    }

    /// Packets in flight right now, and the most that ever were at once
    /// (the packet arena's live count and size).
    pub fn packets_in_flight(&self) -> (usize, usize) {
        (self.packets.live(), self.packets.slots())
    }

    /// Flow records held right now, and every flow id ever issued (the
    /// flow table's live count and size).
    pub fn flow_records(&self) -> (usize, usize) {
        (self.flows.iter().flatten().count(), self.flows.len())
    }

    /// Flows holding a forwarding memo right now, and the most switch hops
    /// any of them remembers in one direction.
    pub fn path_memos(&self) -> (usize, usize) {
        let memos = self
            .flows
            .iter()
            .flatten()
            .filter_map(|f| f.path_memo.as_deref());
        memos.fold((0, 0), |(live, most), memo| {
            (live + 1, most.max(memo.hops.len().div_ceil(2)))
        })
    }

    /// Packet-drop counters.
    pub fn drops(&self) -> DropCounters {
        self.drops
    }

    /// Packets delivered to end hosts.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Per-link transmission state (utilization and drop counters).
    pub fn link_state(&self, link: LinkId) -> &LinkState {
        &self.links[link.index()]
    }

    /// Total packets serialized onto any link (a load proxy).
    pub fn total_transmitted(&self) -> u64 {
        self.links.iter().map(LinkState::transmitted).sum()
    }

    /// The router process of a switch (read-only; for assertions);
    /// `None` for a host or a node outside this topology.
    pub fn router(&self, node: NodeId) -> Option<&RouterProcess> {
        self.routers.get(node.index()).and_then(Option::as_ref)
    }

    /// The record of `flow`; `None` once released, or for a flow of
    /// another network.
    fn flow(&self, flow: FlowId) -> Option<&FlowState> {
        self.flows.get(flow.index())?.as_deref()
    }

    /// Installs static routes (F²Tree backup configuration) on switches.
    /// A set-up call: it leaves [`Self::fib_epoch`] alone and drops every
    /// flow's forwarding memo instead.
    ///
    /// # Panics
    ///
    /// Panics if a target node is not a switch.
    pub fn install_static_routes<I>(&mut self, routes: I)
    where
        I: IntoIterator<Item = (NodeId, Route)>,
    {
        for (node, route) in routes {
            self.routers
                .get_mut(node.index())
                .and_then(Option::as_mut)
                .unwrap_or_else(|| panic!("{node} is not a switch"))
                .install_permanent(route);
        }
        for flow in self.flows.iter_mut().flatten() {
            flow.path_memo = None;
        }
    }

    // ------------------------------------------------------------------
    // Flow creation
    // ------------------------------------------------------------------

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        p
    }

    /// The five-tuple a probe with this source port would use (for path
    /// planning with [`Self::walk`] before committing to a port).
    pub fn flow_key_with_port(
        &self,
        src: NodeId,
        dst: NodeId,
        sport: u16,
        proto: Protocol,
    ) -> FlowKey {
        FlowKey::new(
            self.topo.node(src).addr(),
            self.topo.node(dst).addr(),
            sport,
            5001,
            proto,
        )
    }

    /// Adds the paper's constant-rate UDP probe from `src` to `dst`,
    /// starting at `start` and running until the simulation ends.
    pub fn add_udp_probe(&mut self, src: NodeId, dst: NodeId, start: SimTime) -> FlowId {
        let sport = self.alloc_port();
        self.add_udp_probe_with_port(src, dst, sport, start)
    }

    /// Like [`Self::add_udp_probe`] with an explicit source port (to pin
    /// the probe onto a specific ECMP path).
    pub fn add_udp_probe_with_port(
        &mut self,
        src: NodeId,
        dst: NodeId,
        sport: u16,
        start: SimTime,
    ) -> FlowId {
        let key = self.flow_key_with_port(src, dst, sport, Protocol::Udp);
        let probe = UdpProbe {
            source: UdpSource::paper_probe(key),
            connectivity: ConnectivityTracker::new(),
            delay: DelaySeries::new(),
        };
        let flow = self.push_flow(key, src, dst, FlowKind::UdpProbe(probe));
        self.queue.schedule(start, Event::UdpTick { flow });
        flow
    }

    /// Adds the paper's paced TCP probe (1448 B every 100 µs) from `src`
    /// to `dst`, starting at `start`.
    pub fn add_tcp_probe(&mut self, src: NodeId, dst: NodeId, start: SimTime) -> FlowId {
        let sport = self.alloc_port();
        self.add_tcp_probe_with_port(src, dst, sport, start)
    }

    /// Like [`Self::add_tcp_probe`] with an explicit source port.
    pub fn add_tcp_probe_with_port(
        &mut self,
        src: NodeId,
        dst: NodeId,
        sport: u16,
        start: SimTime,
    ) -> FlowId {
        self.add_tcp_flow(src, dst, sport, start, None)
    }

    /// Adds a fixed-size TCP transfer (background traffic) starting at
    /// `start`.
    pub fn add_transfer(&mut self, src: NodeId, dst: NodeId, bytes: u64, start: SimTime) -> FlowId {
        self.add_fixed_flow(src, dst, bytes, start, FlowRole::Transfer)
    }

    fn add_fixed_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: SimTime,
        role: FlowRole,
    ) -> FlowId {
        let fixed = FixedSize {
            bytes,
            started_at: start,
            delivered_at: None,
            role,
        };
        let sport = self.alloc_port();
        self.add_tcp_flow(src, dst, sport, start, Some(fixed))
    }

    /// Adds the paced TCP probe (`fixed: None`) or a fixed-size TCP flow.
    fn add_tcp_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        sport: u16,
        start: SimTime,
        fixed: Option<FixedSize>,
    ) -> FlowId {
        let key = self.flow_key_with_port(src, dst, sport, Protocol::Tcp);
        let tcp = TcpConnection {
            ends: TcpEnds::NotStarted,
            rto: RtoTimer::default(),
            fixed,
        };
        let flow = self.push_flow(key, src, dst, FlowKind::Tcp(tcp));
        self.queue.schedule(start, Event::TcpStart { flow });
        flow
    }

    /// Registers a flow; its first event is the caller's to schedule.
    fn push_flow(&mut self, key: FlowKey, src: NodeId, dst: NodeId, kind: FlowKind) -> FlowId {
        let flow = FlowId(self.flows.len() as u32);
        self.live_packets.push(0);
        self.flows.push(Some(Box::new(FlowState {
            key,
            src,
            dst,
            path_memo: None,
            kind,
        })));
        flow
    }

    /// Adds a partition-aggregate request: `requester` sends
    /// `request_bytes` to each worker; each worker responds with
    /// `response_bytes`; the request completes when all responses have
    /// been fully delivered back.
    pub fn add_request(
        &mut self,
        start: SimTime,
        requester: NodeId,
        workers: &[NodeId],
        request_bytes: u64,
        response_bytes: u64,
    ) -> RequestId {
        let id = RequestId(self.requests.len() as u32);
        self.requests.push(RequestState {
            start,
            response_bytes,
            remaining: workers.len(),
            completed: None,
        });
        for &worker in workers {
            self.add_fixed_flow(
                requester,
                worker,
                request_bytes,
                start,
                FlowRole::Request(id),
            );
        }
        id
    }

    /// Schedules a failure/repair timeline.
    pub fn apply_failures(&mut self, schedule: FailureSchedule) {
        for event in schedule.into_sorted() {
            self.queue.schedule(
                event.at,
                Event::LinkChange {
                    link: event.link,
                    up: event.up,
                },
            );
        }
    }

    /// Fails a single link at `at` (convenience for the deterministic
    /// experiments).
    pub fn fail_link_at(&mut self, at: SimTime, link: LinkId) {
        self.queue
            .schedule(at, Event::LinkChange { link, up: false });
    }

    /// Fails only the `from` → other-end direction of a link at `at`
    /// (unidirectional failure — the paper's stated future work). BFD
    /// semantics: both endpoints mark the whole interface dead one
    /// detection delay later, since BFD requires two-way liveness.
    pub fn fail_link_direction_at(&mut self, at: SimTime, link: LinkId, from: NodeId) {
        self.queue.schedule(
            at,
            Event::LinkDirChange {
                link,
                from,
                up: false,
            },
        );
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Runs every event up to and including `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while self.step(end).is_some() {}
    }

    /// Processes exactly one event, if the next event is at or before
    /// `end`, and returns its time. Returns `None` when the queue is empty
    /// or the next event lies beyond `end` (simulation state untouched).
    ///
    /// This is the observation seam the chaos engine's invariant oracles
    /// use: after each step, [`Self::fib_epoch`] tells whether forwarding
    /// state may have changed since the previous step.
    pub fn step(&mut self, end: SimTime) -> Option<SimTime> {
        let at = self.queue.peek_time()?;
        if at > end {
            return None;
        }
        let (key, event) = self.queue.pop()?;
        self.dispatch(key, event);
        Some(key.time())
    }

    /// A counter that advances whenever forwarding-relevant state may have
    /// changed: physical link transitions, local failure detections (which
    /// drive fast-reroute fall-through), and FIB installs (distributed or
    /// controller-pushed). Unchanged between two [`Self::step`] calls ⇒
    /// every FIB lookup answers exactly as before.
    /// [`Self::install_static_routes`] is the one forwarding change that
    /// does not advance it; it invalidates the path memos instead.
    pub fn fib_epoch(&self) -> u64 {
        self.fib_epoch
    }

    /// Handles one event, then releases the record of the flow it left
    /// unreachable, if any. The check waits for the handler to return: a
    /// late duplicate's last packet dies on delivery, before the ACK it
    /// earns is sent.
    fn dispatch(&mut self, key: EventKey, event: Event) {
        self.handle(key, event);
        if let Some(flow) = self.settle.take() {
            self.release_if_unreachable(flow);
        }
    }

    fn handle(&mut self, key: EventKey, event: Event) {
        let now = key.time();
        match event {
            Event::Arrive { link, to, packet } => self.on_arrive(now, link, to, packet),
            Event::LsaProcess {
                node,
                arrived_on,
                packet,
            } => {
                let Payload::Lsa(lsa) = self.take_packet(packet).payload else {
                    return; // on_arrive queues this event for LSA packets only
                };
                self.run_router(now, node, |router, _, actions| {
                    router.on_lsa(now, lsa, arrived_on, actions);
                });
            }
            Event::LinkChange { link, up } => self.on_link_change(now, link, None, up),
            Event::LinkDirChange { link, from, up } => {
                self.on_link_change(now, link, Some(from), up)
            }
            Event::Detect { node, link, up } => {
                let ran = self.run_router(now, node, |router, _, actions| {
                    router.on_link_detected(now, link, up, actions);
                });
                if ran {
                    self.fib_epoch += 1;
                }
            }
            Event::SpfTimer { node } => {
                self.run_router(now, node, |router, table, actions| {
                    router.on_spf_timer(now, table, actions);
                });
            }
            Event::FibInstall { node, install } => {
                let (generation, delta) = *install;
                let ran = self.run_router(now, node, |router, _, _| {
                    router.on_install(generation, delta);
                });
                if ran {
                    self.fib_epoch += 1;
                }
            }
            Event::UdpTick { flow } => self.on_udp_tick(now, flow),
            Event::TcpStart { flow } => self.on_tcp_start(now, flow),
            Event::TcpPace { flow } => self.on_tcp_event(now, flow, |s, o| s.on_pace_into(now, o)),
            Event::TcpRto { flow } => self.on_rto_entry(now, flow, key),
            Event::ControllerRecompute => self.on_controller_recompute(now),
        }
    }

    /// Centralized mode: the controller collects the LSA every switch
    /// last reported and pushes that set to every switch, which installs
    /// its routes through the ordinary pipeline. The routers adopt the
    /// same LSAs, so their SPF runs share one table build.
    fn on_controller_recompute(&mut self, now: SimTime) {
        self.recompute_pending = false;
        let reports: Vec<Arc<Lsa>> = self
            .routers
            .iter()
            .flatten()
            .filter_map(RouterProcess::report)
            .collect();
        for node in reports.iter().map(|lsa| lsa.origin) {
            self.run_router(now, node, |router, table, actions| {
                router.on_controller_push(now, reports.iter().cloned(), table, actions);
            });
        }
    }

    /// Runs `handler` on `node`'s router with the shared SPF table and the
    /// reusable action buffer, then realizes the actions it appended. Every
    /// event that names a node goes through here, so one naming a host or
    /// a foreign node does nothing; returns whether `node` runs a router.
    fn run_router(
        &mut self,
        now: SimTime,
        node: NodeId,
        handler: impl FnOnce(&mut RouterProcess, &mut SpfTable, &mut Vec<RouterAction>),
    ) -> bool {
        let Some(router) = self.routers.get_mut(node.index()).and_then(Option::as_mut) else {
            return false;
        };
        handler(router, &mut self.spf_table, &mut self.action_scratch);
        self.handle_router_actions(now, node);
        true
    }

    /// A physical link transition of both directions (`from: None`) or of
    /// the `from` → other-end one. BFD needs two-way liveness, so one
    /// detection delay later both switch endpoints see the interface up
    /// only if both directions are.
    fn on_link_change(&mut self, now: SimTime, link: LinkId, from: Option<NodeId>, up: bool) {
        self.fib_epoch += 1;
        let (a, b) = self.topo.link(link).endpoints();
        let state = &mut self.links[link.index()];
        match from {
            None => state.set_up(up),
            Some(from) if from == a => state.set_dir_up(Direction::AToB, up),
            Some(_) => state.set_dir_up(Direction::BToA, up),
        }
        let up = state.is_up();
        for node in [a, b] {
            if self.topo.node(node).kind().is_switch() {
                self.queue.schedule(
                    now + self.config.detection_delay,
                    Event::Detect { node, link, up },
                );
            }
        }
    }

    /// Drains the action buffer into scheduled events and link
    /// transmissions. Under a central controller a switch neither floods
    /// nor runs SPF: a new LSA is its report, and the first report
    /// schedules the controller's recomputation.
    fn handle_router_actions(&mut self, now: SimTime, node: NodeId) {
        let mut actions = std::mem::take(&mut self.action_scratch);
        for action in actions.drain(..) {
            match (action, self.config.control_plane) {
                (RouterAction::FloodLsa { lsa, except }, ControlPlaneMode::Distributed) => {
                    self.flood(now, node, &lsa, except);
                }
                (
                    RouterAction::FloodLsa { .. },
                    ControlPlaneMode::Centralized { compute_delay },
                ) => {
                    if !self.recompute_pending {
                        self.recompute_pending = true;
                        self.queue.schedule(
                            now + timers::CONTROLLER_REPORT_DELAY + compute_delay,
                            Event::ControllerRecompute,
                        );
                    }
                }
                (RouterAction::ScheduleSpf { at }, ControlPlaneMode::Distributed) => {
                    self.queue.schedule(at, Event::SpfTimer { node });
                }
                (RouterAction::ScheduleSpf { .. }, ControlPlaneMode::Centralized { .. }) => {}
                (
                    RouterAction::Install {
                        at,
                        generation,
                        delta,
                    },
                    _,
                ) => {
                    self.queue.schedule(
                        at,
                        Event::FibInstall {
                            node,
                            install: Box::new((generation, delta)),
                        },
                    );
                }
            }
        }
        self.action_scratch = actions;
    }

    /// Floods `lsa` out of `node`'s live interfaces but `except`.
    fn flood(&mut self, now: SimTime, node: NodeId, lsa: &Arc<Lsa>, except: Option<LinkId>) {
        // Reuse the scratch buffer: the target list has to be
        // materialized (transmit needs `&mut self` while the interface
        // list borrows the router), but it must not allocate per flood.
        let mut targets = std::mem::take(&mut self.flood_scratch);
        targets.clear();
        targets.extend(
            self.router(node)
                .into_iter()
                .flat_map(RouterProcess::live_interfaces)
                .filter(|a| Some(a.link) != except)
                .copied(),
        );
        for &adj in &targets {
            let key = FlowKey::new(
                self.topo.node(node).addr(),
                self.topo.node(adj.neighbor).addr(),
                0,
                0,
                Protocol::Control,
            );
            let packet =
                self.make_packet(key, LSA_PACKET_BYTES, now, Payload::Lsa(Arc::clone(lsa)));
            self.transmit(now, adj.link, node, packet);
        }
        self.flood_scratch = targets;
    }

    /// Writes a new packet into the arena, the one time it is written.
    fn make_packet(
        &mut self,
        key: FlowKey,
        size: u32,
        now: SimTime,
        payload: Payload,
    ) -> PacketSlot {
        let id = self.packet_seq;
        self.packet_seq += 1;
        let live = payload
            .flow()
            .and_then(|flow| self.live_packets.get_mut(flow.index()));
        if let Some(live) = live {
            *live += 1;
        }
        let packet = Packet::new(id, key, size, now, payload);
        self.packets.insert(packet)
    }

    /// Takes a packet out of the arena, the one way a packet dies.
    fn take_packet(&mut self, slot: PacketSlot) -> Packet<Payload> {
        let packet = self.packets.remove(slot);
        if let Some(flow) = packet.payload.flow() {
            if let Some(live) = self.live_packets.get_mut(flow.index()) {
                *live -= 1;
                if *live == 0 {
                    self.settle(flow);
                }
            }
        }
        packet
    }

    /// Marks `flow` for the release check that follows the event.
    fn settle(&mut self, flow: FlowId) {
        debug_assert!(
            self.settle.is_none_or(|f| f == flow),
            "an event touches at most one flow"
        );
        self.settle = Some(flow);
    }

    /// Drops the record of a partition-aggregate flow nothing can reach
    /// any more: its sender is closed, it is delivered, none of its
    /// packets is alive and no retransmission-timer entry of it is queued
    /// (an orphaned entry pops as a no-op either way). No caller holds
    /// the id of such a flow; transfers and probes keep their records
    /// because callers and reports read them.
    fn release_if_unreachable(&mut self, flow: FlowId) {
        if self.live_packets.get(flow.index()) != Some(&0) {
            return;
        }
        let Some(slot) = self.flows.get_mut(flow.index()) else {
            return;
        };
        if let Some(FlowState {
            kind:
                FlowKind::Tcp(TcpConnection {
                    ends: TcpEnds::Closed { .. },
                    rto,
                    fixed: Some(fixed),
                }),
            ..
        }) = slot.as_deref()
        {
            let finished = fixed.delivered_at.is_some() && fixed.role != FlowRole::Transfer;
            if finished && rto.queued.is_none() {
                *slot = None;
            }
        }
    }

    /// Transmits from `from` onto `link`; a packet the link drops dies here.
    fn transmit(&mut self, now: SimTime, link: LinkId, from: NodeId, packet: PacketSlot) {
        let entry = self.topo.link(link);
        let (dir, to) = if from == entry.a() {
            (Direction::AToB, entry.b())
        } else {
            (Direction::BToA, entry.a())
        };
        let bytes = self.packets.get_mut(packet).size;
        match self.links[link.index()].transmit(&LinkSpec::PAPER_EMULATION, dir, now, bytes) {
            TransmitVerdict::Deliver { arrival } => {
                let event = Event::Arrive { link, to, packet };
                return self.queue.schedule(arrival, event);
            }
            TransmitVerdict::DroppedLinkDown => self.drops.link_down += 1,
            TransmitVerdict::DroppedQueueFull => self.drops.queue_full += 1,
        }
        self.take_packet(packet);
    }

    fn send_from_host(&mut self, now: SimTime, host: NodeId, packet: PacketSlot) {
        let (link, _) = self.host_uplink[host.index()].expect("host has an uplink");
        self.transmit(now, link, host, packet);
    }

    fn on_arrive(&mut self, now: SimTime, link: LinkId, to: NodeId, packet: PacketSlot) {
        match self.topo.node(to).kind() {
            NodeKind::Host => {
                let packet = self.take_packet(packet);
                self.deliver_to_host(now, to, packet);
            }
            NodeKind::Switch(_) => match self.packets.get_mut(packet).payload {
                Payload::Lsa(_) => self.queue.schedule(
                    now + LSA_PROCESSING_DELAY,
                    Event::LsaProcess {
                        node: to,
                        arrived_on: link,
                        packet,
                    },
                ),
                Payload::Udp { flow, .. } | Payload::TcpData { flow, .. } => {
                    self.forward_at_switch(now, to, packet, flow, false);
                }
                Payload::TcpAckSeg { flow, .. } => {
                    self.forward_at_switch(now, to, packet, flow, true);
                }
            },
        }
    }

    /// One switch hop of a `flow` packet (`is_ack`: an ACK): out the link the
    /// flow's [`PathMemo`] holds for this switch and epoch, else out the link
    /// [`RouterProcess::forward`] picks, which the memo then holds.
    #[expect(
        clippy::expect_used,
        reason = "a packet names a flow of this network and meets routers only at switches"
    )]
    fn forward_at_switch(
        &mut self,
        now: SimTime,
        node: NodeId,
        slot: PacketSlot,
        flow: FlowId,
        is_ack: bool,
    ) {
        let packet = self.packets.get_mut(slot);
        if !packet.hop() {
            self.drops.ttl_expired += 1;
            self.take_packet(slot);
            return;
        }
        let (key, hops_taken) = (packet.flow, usize::from(DEFAULT_TTL - 1 - packet.ttl));
        let decide = || {
            let router = self.routers.get(node.index()).and_then(Option::as_ref);
            let hop = router.expect("forwarding switch").forward(&key);
            hop.map(|h| h.link)
        };
        let state = record(&mut self.flows, flow).expect("packet of a live flow");
        let memo = state.path_memo.get_or_insert_with(Box::default);
        if memo.epoch != self.fib_epoch {
            memo.epoch = self.fib_epoch;
            memo.hops.clear();
        }
        let at = 2 * hops_taken + usize::from(is_ack);
        let link = match memo.hops.get(at) {
            Some(&Some((switch, link))) if switch == node => {
                debug_assert_eq!(link, decide(), "memo of {key:?} at {node} is stale");
                link
            }
            _ => {
                let link = decide();
                memo.hops.resize(memo.hops.len().max(at + 1), None);
                if let Some(entry) = memo.hops.get_mut(at) {
                    *entry = Some((node, link));
                }
                link
            }
        };
        match link {
            Some(link) => self.transmit(now, link, node, slot),
            None => {
                self.drops.no_route += 1;
                self.take_packet(slot);
            }
        }
    }

    fn deliver_to_host(&mut self, now: SimTime, host: NodeId, packet: Packet<Payload>) {
        debug_assert_eq!(packet.flow.dst, self.topo.node(host).addr());
        self.delivered_packets += 1;
        let sent_at = packet.sent_at;
        match packet.payload {
            Payload::Udp { flow, dgram } => {
                let kind = record(&mut self.flows, flow).map(|f| &mut f.kind);
                if let Some(FlowKind::UdpProbe(probe)) = kind {
                    probe.connectivity.record(now, dgram.seq);
                    probe.delay.record(sent_at, now);
                }
            }
            Payload::TcpData { flow, seg } => {
                let Some(f) = record(&mut self.flows, flow) else {
                    return;
                };
                let FlowKind::Tcp(tcp) = &mut f.kind else {
                    return;
                };
                let ack = match &mut tcp.ends {
                    // No segment is sent before the flow starts.
                    TcpEnds::NotStarted => return,
                    TcpEnds::Open(ends) => ends.1.on_segment(now, seg),
                    TcpEnds::Closed { .. } => TcpAck {
                        ack: tcp.fixed.as_ref().map_or(0, |fixed| fixed.bytes),
                    },
                };
                let role = match &mut tcp.fixed {
                    Some(fixed) if fixed.delivered_at.is_none() && ack.ack >= fixed.bytes => {
                        fixed.delivered_at = Some(now);
                        Some(fixed.role)
                    }
                    _ => None,
                };
                let (reverse, src, dst) = (f.key.reversed(), f.src, f.dst);
                // Send the ACK back from this host.
                let ack_packet =
                    self.make_packet(reverse, ACK_BYTES, now, Payload::TcpAckSeg { flow, ack });
                self.send_from_host(now, host, ack_packet);
                if let Some(role) = role {
                    self.on_flow_delivered(now, src, dst, role);
                }
            }
            Payload::TcpAckSeg { flow, ack } => {
                self.on_tcp_event(now, flow, |s, o| s.on_ack_into(now, ack, o));
            }
            Payload::Lsa(_) => {
                // Hosts do not run the routing protocol; stray LSAs are
                // dropped silently (cannot happen with correct flooding).
            }
        }
    }

    /// A fixed-size flow from `src` to `dst` is fully delivered.
    fn on_flow_delivered(&mut self, now: SimTime, src: NodeId, dst: NodeId, role: FlowRole) {
        match role {
            FlowRole::Request(req) => {
                // The worker (dst) has the full request: respond to the
                // requester (src).
                if let Some(state) = self.requests.get(req.0 as usize) {
                    let bytes = state.response_bytes;
                    self.add_fixed_flow(dst, src, bytes, now, FlowRole::Response(req));
                }
            }
            FlowRole::Response(req) => {
                if let Some(state) = self.requests.get_mut(req.0 as usize) {
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        state.completed = Some(now);
                    }
                }
            }
            FlowRole::Transfer => {}
        }
    }

    /// Builds the sender and receiver of TCP flow `flow` and starts it.
    fn on_tcp_start(&mut self, now: SimTime, flow: FlowId) {
        let state = record(&mut self.flows, flow);
        if let Some(FlowState {
            key,
            kind: FlowKind::Tcp(tcp),
            ..
        }) = state
        {
            if matches!(tcp.ends, TcpEnds::NotStarted) {
                let app = tcp
                    .fixed
                    .as_ref()
                    .map_or(TcpApp::Paced, |fixed| TcpApp::FixedSize {
                        bytes: fixed.bytes,
                    });
                let sender = TcpSender::new(*key, TcpConfig::default(), app);
                tcp.ends = TcpEnds::Open(Box::new((sender, TcpReceiver::new())));
            }
        }
        self.on_tcp_event(now, flow, |s, o| s.on_start_into(now, o));
    }

    /// Feeds an event to the sender of TCP flow `flow` and acts on what it
    /// outputs; a no-op if `flow` is a UDP probe or its sender is not
    /// running.
    fn on_tcp_event<F>(&mut self, now: SimTime, flow: FlowId, event: F)
    where
        F: FnOnce(&mut TcpSender, &mut Vec<TcpSenderOutput>),
    {
        if let Some(TcpEnds::Open(ends)) = tcp_of(&mut self.flows, flow).map(|tcp| &mut tcp.ends) {
            event(&mut ends.0, &mut self.tcp_scratch);
            self.handle_tcp_outputs(now, flow);
        }
    }

    /// Realizes (and drains) the outputs the sender left in `tcp_scratch`.
    fn handle_tcp_outputs(&mut self, now: SimTime, flow: FlowId) {
        let mut outputs = std::mem::take(&mut self.tcp_scratch);
        let Some(state) = record(&mut self.flows, flow) else {
            return;
        };
        let (key, src) = (state.key, state.src);
        for output in outputs.drain(..) {
            match output {
                TcpSenderOutput::Send(seg) => {
                    let size = seg.len + HEADER_BYTES;
                    let packet = self.make_packet(key, size, now, Payload::TcpData { flow, seg });
                    self.send_from_host(now, src, packet);
                }
                TcpSenderOutput::ArmRto { at, token } => self.arm_rto(flow, at, token),
                TcpSenderOutput::ArmPace { at } => {
                    self.queue.schedule(at, Event::TcpPace { flow });
                }
                TcpSenderOutput::Complete { .. } => {
                    // Sender-side completion; delivery-side bookkeeping
                    // happens in on_flow_delivered.
                    if let Some(state) = record(&mut self.flows, flow) {
                        state.path_memo = None;
                    }
                    let retransmits = self.tcp_flow_stats(flow).map_or(0, |s| s.retransmits);
                    if let Some(tcp) = tcp_of(&mut self.flows, flow) {
                        tcp.ends = TcpEnds::Closed { retransmits };
                    }
                }
            }
        }
        self.tcp_scratch = outputs;
    }

    /// Realizes an `ArmRto` without queueing one entry per ACK. The key is
    /// drawn now, where the entry used to be pushed, but while an entry at
    /// or before it is pending it is only recorded: that entry re-queues
    /// itself under the recorded key when it pops ([`Self::on_rto_entry`]),
    /// so the arming that fires pops exactly where its own entry would
    /// have. A deadline *earlier* than the pending entry (the RTO shrank
    /// back to base) is queued at once and orphans the later entry.
    fn arm_rto(&mut self, flow: FlowId, at: SimTime, token: u64) {
        let key = self.queue.draw_key(at);
        let Some(tcp) = tcp_of(&mut self.flows, flow) else {
            return;
        };
        let timer = &mut tcp.rto;
        timer.deadline = key;
        timer.token = token;
        if timer.queued.is_none_or(|queued| queued > key) {
            timer.queued = Some(key);
            self.queue.schedule_at_key(key, Event::TcpRto { flow });
        }
    }

    /// A retransmission-timer entry popped: fire if it is the flow's
    /// current deadline, chase the deadline if that has moved later, drop
    /// it if a shorter RTO was queued past it.
    fn on_rto_entry(&mut self, now: SimTime, flow: FlowId, key: EventKey) {
        let tcp = tcp_of(&mut self.flows, flow).filter(|tcp| tcp.rto.queued == Some(key));
        let Some(tcp) = tcp else {
            return;
        };
        if tcp.rto.deadline == key {
            tcp.rto.queued = None;
            let token = tcp.rto.token;
            self.on_tcp_event(now, flow, |s, o| s.on_rto_into(now, token, o));
            self.settle(flow);
        } else {
            let key = tcp.rto.deadline;
            tcp.rto.queued = Some(key);
            self.queue.schedule_at_key(key, Event::TcpRto { flow });
        }
    }

    fn on_udp_tick(&mut self, now: SimTime, flow: FlowId) {
        let Some(f) = record(&mut self.flows, flow) else {
            return;
        };
        let FlowKind::UdpProbe(probe) = &mut f.kind else {
            return;
        };
        let (dgram, next) = probe.source.on_tick(now);
        let (key, src) = (f.key, f.src);
        let size = dgram.bytes + UDP_HEADER_BYTES;
        let packet = self.make_packet(key, size, now, Payload::Udp { flow, dgram });
        self.send_from_host(now, src, packet);
        self.queue.schedule(next, Event::UdpTick { flow });
    }

    // ------------------------------------------------------------------
    // Reports
    // ------------------------------------------------------------------

    /// The node sequence of `flow`'s [`Self::walk`]: its source host, each
    /// switch it leaves, and the node its last hop leads to (the
    /// destination, the node a loop revisits, the switch with no route, or
    /// the far end of the dead link). Empty for a flow this network holds
    /// no record of.
    pub fn trace_path(&self, flow: FlowId) -> Vec<NodeId> {
        let Some(f) = self.flow(flow) else {
            return Vec::new();
        };
        let mut hops = Vec::new();
        self.walk(&f.key, f.src, f.dst, &mut hops);
        let end = hops
            .last()
            .map_or(f.src, |h| self.topo.link(h.link).other_end(h.node));
        hops.iter().map(|hop| hop.node).chain([end]).collect()
    }

    /// [`Self::walk`] of `flow` between its endpoints; `None` (and no
    /// hops) for a flow this network holds no record of.
    pub fn walk_flow(&self, flow: FlowId, hops: &mut Vec<Hop>) -> Option<WalkOutcome> {
        hops.clear();
        let f = self.flow(flow)?;
        Some(self.walk(&f.key, f.src, f.dst, hops))
    }

    /// Follows `key`'s forwarding chain from host `src` towards `dst` as
    /// the data plane would take it right now: up the host's access link,
    /// then out of each switch by [`RouterProcess::forward`] — its FIB
    /// minus the interfaces it has detected dead. Each hop taken goes into
    /// `hops`, cleared first. The walk ends at `dst`, at the first node it
    /// revisits, at a node with no route (or a host that is not `dst`),
    /// or on the first physically down link taken — an undetected failure
    /// still drops packets in flight — which is then the last hop.
    pub fn walk(
        &self,
        key: &FlowKey,
        src: NodeId,
        dst: NodeId,
        hops: &mut Vec<Hop>,
    ) -> WalkOutcome {
        hops.clear();
        let Some(&Some((mut link, mut next))) = self.host_uplink.get(src.index()) else {
            return WalkOutcome::NoRoute(src);
        };
        let mut node = src;
        loop {
            hops.push(Hop { node, link });
            if !self.link_state(link).is_up() {
                return WalkOutcome::DeadLink(link);
            }
            node = next;
            if node == dst {
                return WalkOutcome::Reached;
            }
            if hops.iter().any(|hop| hop.node == node) {
                return WalkOutcome::Loop(node);
            }
            let Some(hop) = self.router(node).and_then(|router| router.forward(key)) else {
                return WalkOutcome::NoRoute(node);
            };
            (link, next) = (hop.link, hop.node);
        }
    }

    /// The probe report for a UDP probe flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not a UDP probe.
    pub fn udp_probe_report(&self, flow: FlowId) -> UdpProbeReport<'_> {
        let Some(FlowKind::UdpProbe(probe)) = self.flow(flow).map(|f| &f.kind) else {
            panic!("{flow:?} is not a UDP probe");
        };
        let sent = probe.source.sent();
        UdpProbeReport {
            sent,
            received: probe.connectivity.received_distinct(),
            lost: probe.connectivity.lost(sent),
            connectivity: &probe.connectivity,
            delay: &probe.delay,
        }
    }

    /// The receiver-side delivery log of the paced TCP probe (for
    /// throughput binning); empty before the probe starts. A fixed-size
    /// flow keeps no log once it completes; read its
    /// [`Self::tcp_flow_stats`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is not a paced TCP probe.
    pub fn tcp_delivery_log(&self, flow: FlowId) -> &[(SimTime, u32)] {
        match self.flow(flow).map(|f| &f.kind) {
            Some(FlowKind::Tcp(TcpConnection {
                ends, fixed: None, ..
            })) => match ends {
                TcpEnds::Open(ends) => ends.1.delivery_log(),
                TcpEnds::NotStarted | TcpEnds::Closed { .. } => &[],
            },
            _ => panic!("{flow:?} is not a paced TCP probe"),
        }
    }

    /// Whether a fixed-size flow has been fully delivered.
    pub fn is_delivered(&self, flow: FlowId) -> bool {
        self.flow_completion_time(flow).is_some()
    }

    /// Byte-conservation counters of a TCP flow, or `None` for non-TCP
    /// flows. The invariants the chaos oracles assert over these:
    /// `acked ≤ delivered` (ACKs originate from in-order delivery) and,
    /// for fixed-size transfers, `delivered ≤ total_bytes` (the receiver
    /// never conjures bytes the application did not send).
    pub fn tcp_flow_stats(&self, flow: FlowId) -> Option<TcpFlowStats> {
        let FlowKind::Tcp(tcp) = &self.flow(flow)?.kind else {
            return None;
        };
        let total_bytes = tcp.fixed.as_ref().map_or(0, |fixed| fixed.bytes);
        Some(match &tcp.ends {
            TcpEnds::NotStarted => TcpFlowStats {
                total_bytes,
                acked: 0,
                delivered: 0,
                retransmits: 0,
                complete: false,
            },
            TcpEnds::Open(ends) => TcpFlowStats {
                total_bytes,
                acked: ends.0.acked(),
                delivered: ends.1.delivered(),
                retransmits: ends.0.retransmits(),
                complete: ends.0.is_complete(),
            },
            TcpEnds::Closed { retransmits } => TcpFlowStats {
                total_bytes,
                acked: total_bytes,
                delivered: total_bytes,
                retransmits: *retransmits,
                complete: true,
            },
        })
    }

    /// A fixed-size flow's completion time (start to full delivery), if
    /// it has finished.
    pub fn flow_completion_time(&self, flow: FlowId) -> Option<SimDuration> {
        let fixed = self.flow(flow)?.fixed()?;
        fixed.delivered_at.map(|at| at.since(fixed.started_at))
    }

    /// Flow-completion times of every finished background transfer.
    pub fn transfer_fcts(&self) -> Vec<SimDuration> {
        let fct = |f: &FixedSize| f.delivered_at.map(|at| at.since(f.started_at));
        self.transfers().filter_map(fct).collect()
    }

    /// Count of background transfers that never completed.
    pub fn unfinished_transfers(&self) -> u64 {
        self.transfers()
            .filter(|fixed| fixed.delivered_at.is_none())
            .count() as u64
    }

    fn transfers(&self) -> impl Iterator<Item = &FixedSize> {
        let fixed = self.flows.iter().flatten().filter_map(|f| f.fixed());
        fixed.filter(|fixed| fixed.role == FlowRole::Transfer)
    }

    /// Completion statistics over all partition-aggregate requests.
    pub fn request_completions(&self) -> CompletionStats {
        let mut stats = CompletionStats::new();
        for req in &self.requests {
            match req.completed {
                Some(end) => stats.record(req.start, end),
                None => stats.record_unfinished(),
            }
        }
        stats
    }

    /// Per-request completion instants (None = unfinished).
    pub fn request_outcomes(&self) -> Vec<Option<SimTime>> {
        self.requests.iter().map(|r| r.completed).collect()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.topo.name())
            .field("flows", &self.flows.len())
            .field("requests", &self.requests.len())
            .field("now", &self.queue.now())
            .field("events", &self.queue.processed())
            .finish()
    }
}

/// Byte-conservation counters of one TCP flow (sender and receiver side),
/// captured by [`Network::tcp_flow_stats`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TcpFlowStats {
    /// Application bytes of a fixed-size transfer (0 = unbounded/paced).
    pub total_bytes: u64,
    /// Cumulative bytes the sender has seen acknowledged.
    pub acked: u64,
    /// Cumulative in-order bytes the receiver has delivered upward.
    pub delivered: u64,
    /// Sender retransmission count (RTO + fast retransmit).
    pub retransmits: u64,
    /// Whether the sender considers the transfer complete.
    pub complete: bool,
}

/// Report for a UDP probe flow.
#[derive(Debug)]
pub struct UdpProbeReport<'a> {
    /// Datagrams sent.
    pub sent: u64,
    /// Distinct datagrams received.
    pub received: u64,
    /// Datagrams lost.
    pub lost: u64,
    /// The arrival record (gap analysis).
    pub connectivity: &'a ConnectivityTracker,
    /// Per-packet delays.
    pub delay: &'a DelaySeries,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FatTree, Ipv4Addr};

    /// Router events are only ever scheduled for switches; should one
    /// name a host or a node of some other topology, nothing happens —
    /// no panic, no FIB epoch, nothing queued, the LSA packet released.
    #[test]
    fn a_router_event_naming_a_non_switch_is_a_no_op() {
        let topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let mut net = Network::new(topo, EmuConfig::default()).unwrap();
        let host = net.topology().hosts()[0];
        let foreign = NodeId::new(net.topology().node_slots() as u32 + 5);
        let link = LinkId::new(0);
        for node in [host, foreign] {
            let lsa = Arc::new(Lsa {
                origin: NodeId::new(0),
                seq: 99,
                neighbors: vec![],
                prefixes: vec![],
            });
            let addr = Ipv4Addr::new(10, 0, 0, 1);
            let key = FlowKey::new(addr, addr, 0, 0, Protocol::Control);
            let packet = net.make_packet(key, LSA_PACKET_BYTES, SimTime::ZERO, Payload::Lsa(lsa));
            let delta = FibDelta {
                origin: RouteOrigin::Ospf,
                ops: vec![],
            };
            for event in [
                Event::LsaProcess {
                    node,
                    arrived_on: link,
                    packet,
                },
                Event::Detect {
                    node,
                    link,
                    up: false,
                },
                Event::SpfTimer { node },
                Event::FibInstall {
                    node,
                    install: Box::new((1, delta)),
                },
            ] {
                let key = net.queue.draw_key(SimTime::ZERO);
                net.dispatch(key, event);
            }
        }
        assert_eq!(net.fib_epoch(), 0);
        assert!(net.queue.is_empty());
        assert_eq!(net.packets_in_flight().0, 0);
    }

    /// A controller push hands every switch the same reported LSAs, so
    /// the whole fabric's route computation is one SPF table build.
    #[test]
    fn a_controller_push_builds_the_spf_table_once() {
        let topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let config = EmuConfig::builder()
            .control_plane(ControlPlaneMode::Centralized {
                compute_delay: timers::CONTROLLER_COMPUTE_DELAY,
            })
            .build();
        let mut net = Network::new(topo, config).unwrap();
        assert_eq!(net.spf_table.builds(), 1, "warm start");
        let topo = net.topology();
        let link = topo
            .links()
            .find(|l| {
                let (a, b) = l.endpoints();
                topo.node(a).kind().is_switch() && topo.node(b).kind().is_switch()
            })
            .unwrap()
            .id();
        net.fail_link_at(SimTime::ZERO, link);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(500));
        assert!(net
            .router(net.topology().link(link).endpoints().0)
            .unwrap()
            .is_dead(link));
        assert_eq!(net.spf_table.builds(), 2, "one push, one build");
    }

    /// Flow events are only ever scheduled for a flow of their kind;
    /// should a TCP event name a UDP probe, or a UDP tick a TCP flow,
    /// nothing happens — no panic, nothing queued, no packet sent, both
    /// flows' reports unchanged.
    #[test]
    fn a_flow_event_naming_a_flow_of_the_other_kind_is_a_no_op() {
        let topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let mut net = Network::new(topo, EmuConfig::default()).unwrap();
        let hosts = net.topology().hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[hosts.len() - 1]);
        let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
        let transfer = net.add_transfer(src, dst, 20_000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        let snapshot = |net: &Network| {
            let report = net.udp_probe_report(probe);
            (
                (report.sent, report.received, report.lost),
                net.tcp_flow_stats(transfer),
                net.flow_completion_time(transfer),
                net.packets_in_flight().0,
                net.queue.len(),
            )
        };
        let before = snapshot(&net);
        assert!(
            net.is_delivered(transfer),
            "the transfer finished: {before:?}"
        );
        for event in [
            Event::TcpStart { flow: probe },
            Event::TcpPace { flow: probe },
            Event::TcpRto { flow: probe },
            Event::UdpTick { flow: transfer },
        ] {
            let key = net.queue.draw_key(net.now());
            net.dispatch(key, event);
        }
        assert_eq!(snapshot(&net), before);
    }

    /// A fixed-size flow frees its sender and receiver when the sender
    /// completes. What arrives later gets the answer the live pair would
    /// have given: a duplicate segment one ACK of the whole flow, an ACK
    /// or a firing retransmission timer nothing; the reports stand still.
    #[test]
    fn a_finished_flow_answers_late_events_as_its_live_pair_would() {
        let topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let mut net = Network::new(topo, EmuConfig::default()).unwrap();
        let hosts = net.topology().hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[hosts.len() - 1]);
        let flow = net.add_transfer(src, dst, 20_000, SimTime::ZERO);
        net.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        let reports = |net: &Network| (net.tcp_flow_stats(flow), net.flow_completion_time(flow));
        let before = reports(&net);
        let stats = before.0.unwrap();
        assert_eq!(
            (stats.acked, stats.delivered, stats.complete),
            (20_000, 20_000, true)
        );
        assert!(matches!(
            tcp_of(&mut net.flows, flow).map(|tcp| &tcp.ends),
            Some(TcpEnds::Closed { .. })
        ));
        let key = net.flow(flow).unwrap().key;
        let now = net.now();
        let (queued, in_flight) = (net.queue.len(), net.packets_in_flight().0);

        let seg = TcpSegment {
            seq: 0,
            len: 1_460,
            retransmit: true,
        };
        let size = seg.len + HEADER_BYTES;
        let dup = net.make_packet(key, size, now, Payload::TcpData { flow, seg });
        let dup = net.take_packet(dup);
        net.deliver_to_host(now, dst, dup);
        assert_eq!(net.queue.len(), queued + 1, "exactly one packet queued");
        assert_eq!(net.packets_in_flight().0, in_flight + 1);
        let Some((_, Event::Arrive { packet, .. })) = net.queue.pop() else {
            panic!("the ACK is the next event");
        };
        let reply = net.take_packet(packet);
        let Payload::TcpAckSeg { flow: to, ack } = &reply.payload else {
            panic!("the queued packet is an ACK");
        };
        assert_eq!((*to, ack.ack), (flow, 20_000));
        assert_eq!(reports(&net), before);

        net.deliver_to_host(now, src, reply);
        assert_eq!(net.queue.len(), queued, "an ACK queues nothing");
        assert_eq!(net.packets_in_flight().0, in_flight);
        assert_eq!(reports(&net), before);

        // The flow's current deadline pops: the timer fires.
        let rto = net.queue.draw_key(now);
        let timer = &mut tcp_of(&mut net.flows, flow).unwrap().rto;
        (timer.deadline, timer.queued) = (rto, Some(rto));
        net.dispatch(rto, Event::TcpRto { flow });
        assert_eq!(net.queue.len(), queued, "a firing RTO queues nothing");
        assert_eq!(net.packets_in_flight().0, in_flight);
        assert_eq!(reports(&net), before);
    }

    /// A request flow's record outlives its sender and its timer while a
    /// packet of it is alive. A duplicate landing on the worker dies
    /// before the ACK it earns is sent, so the release check waits for
    /// the handler: the ACK goes out, and the record is released when
    /// that ACK dies at the requester.
    #[test]
    fn a_request_record_is_released_only_when_nothing_can_reach_it() {
        let topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let mut net = Network::new(topo, EmuConfig::default()).unwrap();
        let hosts = net.topology().hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[hosts.len() - 1]);
        net.add_request(SimTime::ZERO, src, &[dst], 20_000, 1_000);
        let flow = FlowId(0);
        let end = SimTime::ZERO + SimDuration::from_millis(100);
        let closed = |net: &mut Network| {
            let ends = tcp_of(&mut net.flows, flow).map(|tcp| &tcp.ends);
            matches!(ends, Some(TcpEnds::Closed { .. }))
        };
        while !closed(&mut net) {
            net.step(end).expect("the request completes");
        }
        let state = net.flow(flow).expect("its timer entry is still queued");
        let (key, now) = (state.key, net.now());
        assert_eq!(net.live_packets[flow.index()], 0);
        assert!(net.is_delivered(flow));
        // Its one timer entry is spent; only a packet can reach it now.
        tcp_of(&mut net.flows, flow).unwrap().rto.queued = None;

        let seg = TcpSegment {
            seq: 0,
            len: 1_460,
            retransmit: true,
        };
        let size = seg.len + HEADER_BYTES;
        let dup = net.make_packet(key, size, now, Payload::TcpData { flow, seg });
        let (link, _) = net.host_uplink[dst.index()].unwrap();
        let at = net.queue.draw_key(now);
        let (live, slots) = net.flow_records();
        let in_flight = net.packets_in_flight().0;
        let to = dst;
        net.dispatch(
            at,
            Event::Arrive {
                link,
                to,
                packet: dup,
            },
        );
        assert!(net.flow(flow).is_some(), "the duplicate's ACK is in flight");
        assert_eq!(net.live_packets[flow.index()], 1);
        assert_eq!(net.packets_in_flight().0, in_flight, "the ACK replaced it");
        assert_eq!(net.flow_records(), (live, slots));

        while net.flow(flow).is_some() {
            net.step(end).expect("the ACK reaches the requester");
        }
        assert_eq!(net.flow_records(), (live - 1, slots));
        assert_eq!(
            net.tcp_flow_stats(flow),
            None,
            "a released flow reports nothing"
        );
        assert!(net.trace_path(flow).is_empty());
    }

    /// The walk takes what the data plane takes: the whole path while it
    /// stands, the physically down link first (before any switch has
    /// noticed it), then the detecting switch's missing route.
    #[test]
    fn a_walk_ends_where_the_data_plane_drops_the_packet() {
        let topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
        let mut net = Network::new(topo, EmuConfig::default()).unwrap();
        let hosts = net.topology().hosts().to_vec();
        let (src, dst) = (hosts[0], hosts[hosts.len() - 1]);
        let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
        let mut hops = Vec::new();
        assert_eq!(net.walk_flow(probe, &mut hops), Some(WalkOutcome::Reached));
        let path = net.trace_path(probe);
        assert_eq!(path.len(), 7, "host, five switches, host: {path:?}");
        // Each hop's link leads to the next node of the path.
        for (hop, &next) in hops.iter().zip(&path[1..]) {
            assert_eq!(net.topology().link(hop.link).other_end(hop.node), next);
        }
        let down = hops[4];
        let ms = |v| SimTime::ZERO + SimDuration::from_millis(v);
        // Detection takes 60 ms.
        net.fail_link_at(ms(10), down.link);
        net.run_until(ms(30));
        let outcome = net.walk_flow(probe, &mut hops);
        assert_eq!(outcome, Some(WalkOutcome::DeadLink(down.link)));
        assert_eq!(hops.last(), Some(&down));
        assert_eq!(net.trace_path(probe), path[..6]);
        net.run_until(ms(100));
        let outcome = net.walk_flow(probe, &mut hops);
        assert_eq!(outcome, Some(WalkOutcome::NoRoute(down.node)));
        assert_eq!(net.trace_path(probe), path[..5]);
    }
}
