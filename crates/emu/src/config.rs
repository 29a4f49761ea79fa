//! Emulation parameters (paper §IV "Emulation environment").

use dcn_routing::{RecoveryMode, RouterConfig};
use dcn_sim::{timers, LinkSpec, SimDuration};
use dcn_transport::TcpConfig;

/// Which control plane runs the network (paper §V "Centralized Routing
/// DCNs").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ControlPlaneMode {
    /// The paper's main setting: distributed link-state routing (OSPF
    /// with SPF throttling).
    Distributed,
    /// A PortLand-style central controller: the detecting switch reports
    /// the failure, the controller recomputes global routes, and pushes
    /// new tables to every switch.
    Centralized {
        /// Switch → controller failure-report latency.
        report_delay: SimDuration,
        /// Controller route recomputation time (grows with DCN scale,
        /// per the paper's discussion).
        compute_delay: SimDuration,
        /// Controller → switch table-push latency.
        push_delay: SimDuration,
    },
}

impl ControlPlaneMode {
    /// A representative centralized controller: 5 ms report, 50 ms
    /// compute, 5 ms push.
    pub fn centralized_default() -> Self {
        ControlPlaneMode::Centralized {
            report_delay: timers::CONTROLLER_REPORT_DELAY,
            compute_delay: timers::CONTROLLER_COMPUTE_DELAY,
            push_delay: timers::CONTROLLER_PUSH_DELAY,
        }
    }
}

/// All tunables of the packet-level emulator, defaulting to the paper's
/// emulation setup: 1 Gbps / 5 µs links (~250 µs RTT), 60 ms failure
/// detection, 200 ms SPF timer, 10 ms FIB update.
///
/// Construct via [`EmuConfig::default`] or the typed builder — the fields
/// themselves are not public, so every non-default configuration reads as
/// a named, validated mutation:
///
/// ```
/// use dcn_emu::{ControlPlaneMode, EmuConfig};
///
/// let config = EmuConfig::builder()
///     .control_plane(ControlPlaneMode::centralized_default())
///     .build();
/// assert_ne!(config, EmuConfig::default());
/// assert_eq!(EmuConfig::builder().build(), EmuConfig::default());
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EmuConfig {
    /// Link bandwidth/propagation/buffering.
    pub(crate) link: LinkSpec,
    /// BFD-like interface failure detection delay (measured at ~60 ms on
    /// the paper's testbed).
    pub(crate) detection_delay: SimDuration,
    /// Per-switch LSA processing delay ("the LSA propagation and the CPU
    /// processing delay contribute a small part").
    pub(crate) lsa_processing_delay: SimDuration,
    /// Wire size of an LSA packet.
    pub(crate) lsa_packet_bytes: u32,
    /// TCP/IP header overhead added to every data segment.
    pub(crate) header_bytes: u32,
    /// Wire size of a pure ACK.
    pub(crate) ack_bytes: u32,
    /// UDP/IP header overhead for probe datagrams.
    pub(crate) udp_header_bytes: u32,
    /// Router timers (SPF throttle, FIB update).
    pub(crate) router: RouterConfig,
    /// TCP parameters.
    pub(crate) tcp: TcpConfig,
    /// Whether across links are OSPF-passive (default true): they carry
    /// only the static backup routes, leaving baseline shortest paths
    /// identical to the un-rewired fabric (§II-D: backup routes are not
    /// used in forwarding unless failures happen).
    pub(crate) across_links_passive: bool,
    /// Distributed (default) or centralized control plane.
    pub(crate) control_plane: ControlPlaneMode,
}

impl Default for EmuConfig {
    fn default() -> Self {
        EmuConfig {
            link: LinkSpec::PAPER_EMULATION,
            detection_delay: timers::DETECTION_DELAY,
            lsa_processing_delay: SimDuration::from_micros(500),
            lsa_packet_bytes: 100,
            header_bytes: 52,
            ack_bytes: 52,
            udp_header_bytes: 28,
            router: RouterConfig::default(),
            tcp: TcpConfig::default(),
            across_links_passive: true,
            control_plane: ControlPlaneMode::Distributed,
        }
    }
}

impl EmuConfig {
    /// Starts a builder seeded with the paper defaults.
    pub fn builder() -> EmuConfigBuilder {
        EmuConfigBuilder {
            config: EmuConfig::default(),
        }
    }

    /// Link bandwidth/propagation/buffering.
    pub fn link(&self) -> LinkSpec {
        self.link
    }

    /// BFD-like interface failure detection delay.
    pub fn detection_delay(&self) -> SimDuration {
        self.detection_delay
    }

    /// Per-switch LSA processing delay.
    pub fn lsa_processing_delay(&self) -> SimDuration {
        self.lsa_processing_delay
    }

    /// Wire size of an LSA packet.
    pub fn lsa_packet_bytes(&self) -> u32 {
        self.lsa_packet_bytes
    }

    /// TCP/IP header overhead added to every data segment.
    pub fn header_bytes(&self) -> u32 {
        self.header_bytes
    }

    /// Wire size of a pure ACK.
    pub fn ack_bytes(&self) -> u32 {
        self.ack_bytes
    }

    /// UDP/IP header overhead for probe datagrams.
    pub fn udp_header_bytes(&self) -> u32 {
        self.udp_header_bytes
    }

    /// Router timers (SPF throttle, FIB update).
    pub fn router(&self) -> RouterConfig {
        self.router
    }

    /// TCP parameters.
    pub fn tcp(&self) -> TcpConfig {
        self.tcp
    }

    /// Whether across links are OSPF-passive.
    pub fn across_links_passive(&self) -> bool {
        self.across_links_passive
    }

    /// Distributed or centralized control plane.
    pub fn control_plane(&self) -> ControlPlaneMode {
        self.control_plane
    }

    /// Which recovery discipline bridges detection and reconvergence.
    pub fn recovery(&self) -> RecoveryMode {
        self.router.recovery
    }
}

/// Typed builder for [`EmuConfig`]; every setter overrides one paper
/// default. Obtained from [`EmuConfig::builder`], finished with
/// [`EmuConfigBuilder::build`].
#[derive(Copy, Clone, Debug)]
pub struct EmuConfigBuilder {
    config: EmuConfig,
}

impl EmuConfigBuilder {
    /// Sets link bandwidth/propagation/buffering.
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.config.link = link;
        self
    }

    /// Sets the interface failure detection delay.
    pub fn detection_delay(mut self, delay: SimDuration) -> Self {
        self.config.detection_delay = delay;
        self
    }

    /// Sets the per-switch LSA processing delay.
    pub fn lsa_processing_delay(mut self, delay: SimDuration) -> Self {
        self.config.lsa_processing_delay = delay;
        self
    }

    /// Sets the wire size of an LSA packet.
    pub fn lsa_packet_bytes(mut self, bytes: u32) -> Self {
        self.config.lsa_packet_bytes = bytes;
        self
    }

    /// Sets the TCP/IP header overhead per data segment.
    pub fn header_bytes(mut self, bytes: u32) -> Self {
        self.config.header_bytes = bytes;
        self
    }

    /// Sets the wire size of a pure ACK.
    pub fn ack_bytes(mut self, bytes: u32) -> Self {
        self.config.ack_bytes = bytes;
        self
    }

    /// Sets the UDP/IP header overhead for probe datagrams.
    pub fn udp_header_bytes(mut self, bytes: u32) -> Self {
        self.config.udp_header_bytes = bytes;
        self
    }

    /// Sets the router timers (SPF throttle, FIB update).
    pub fn router(mut self, router: RouterConfig) -> Self {
        self.config.router = router;
        self
    }

    /// Sets the TCP parameters.
    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.config.tcp = tcp;
        self
    }

    /// Sets whether across links are OSPF-passive.
    pub fn across_links_passive(mut self, passive: bool) -> Self {
        self.config.across_links_passive = passive;
        self
    }

    /// Sets the control-plane mode.
    pub fn control_plane(mut self, mode: ControlPlaneMode) -> Self {
        self.config.control_plane = mode;
        self
    }

    /// Selects the recovery discipline: wait for OSPF, the design's
    /// static backups (default), or the precomputed fast-reroute map
    /// (which [`crate::Network::new`] builds and installs per router).
    pub fn recovery(mut self, mode: RecoveryMode) -> Self {
        self.config.router.recovery = mode;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> EmuConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = EmuConfig::default();
        assert_eq!(c.detection_delay.as_millis(), 60);
        assert_eq!(c.router.fib_update_delay.as_millis(), 10);
        assert_eq!(c.router.throttle.initial_delay.as_millis(), 200);
        assert_eq!(c.link.bandwidth_bps, 1_000_000_000);
        assert_eq!(c.link.propagation.as_micros(), 5);
        assert_eq!(c.tcp.min_rto.as_millis(), 200);
    }

    #[test]
    fn untouched_builder_reproduces_default() {
        assert_eq!(EmuConfig::builder().build(), EmuConfig::default());
    }

    #[test]
    fn setters_apply_and_getters_read_back() {
        let config = EmuConfig::builder()
            .detection_delay(SimDuration::from_millis(10))
            .across_links_passive(false)
            .lsa_packet_bytes(200)
            .control_plane(ControlPlaneMode::centralized_default())
            .build();
        assert_eq!(config.detection_delay().as_millis(), 10);
        assert!(!config.across_links_passive());
        assert_eq!(config.lsa_packet_bytes(), 200);
        assert_eq!(
            config.control_plane(),
            ControlPlaneMode::centralized_default()
        );
        // Untouched fields keep their defaults.
        assert_eq!(config.header_bytes(), EmuConfig::default().header_bytes());
    }

    #[test]
    fn recovery_setter_reaches_the_router_config() {
        assert_eq!(EmuConfig::default().recovery(), RecoveryMode::F2TreeRewiring);
        let c = EmuConfig::builder()
            .recovery(RecoveryMode::PrecomputedFrr)
            .build();
        assert_eq!(c.recovery(), RecoveryMode::PrecomputedFrr);
        assert_eq!(c.router().recovery, RecoveryMode::PrecomputedFrr);
        assert_ne!(c, EmuConfig::default());
    }
}
