//! Emulation parameters (paper §IV "Emulation environment").

use dcn_routing::{RecoveryMode, RouterConfig};
use dcn_sim::{timers, SimDuration};

/// Which control plane runs the network (paper §V "Centralized Routing
/// DCNs").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ControlPlaneMode {
    /// The paper's main setting: distributed link-state routing (OSPF
    /// with SPF throttling).
    Distributed,
    /// A PortLand-style central controller: the detecting switch reports
    /// the failure (`timers::CONTROLLER_REPORT_DELAY`), the controller
    /// recomputes global routes, and pushes new tables to every switch
    /// (`timers::CONTROLLER_PUSH_DELAY`).
    Centralized {
        /// Controller route recomputation time (grows with DCN scale,
        /// per the paper's discussion).
        compute_delay: SimDuration,
    },
}

/// What callers vary on the packet-level emulator, defaulting to the
/// paper's emulation setup: 60 ms failure detection, 200 ms SPF timer,
/// 10 ms FIB update, distributed control plane, F²Tree static backups.
/// Everything else of §IV "Emulation environment" — 1 Gbps / 5 µs links
/// (~250 µs RTT), packet sizes, TCP parameters, OSPF-passive across
/// links — has one value and is a constant of [`crate::Network`].
///
/// Construct via [`EmuConfig::default`] or the typed builder — the fields
/// themselves are not public, so every non-default configuration reads as
/// a named mutation:
///
/// ```
/// use dcn_emu::{ControlPlaneMode, EmuConfig};
/// use dcn_sim::timers;
///
/// let config = EmuConfig::builder()
///     .control_plane(ControlPlaneMode::Centralized {
///         compute_delay: timers::CONTROLLER_COMPUTE_DELAY,
///     })
///     .build();
/// assert_ne!(config, EmuConfig::default());
/// assert_eq!(EmuConfig::builder().build(), EmuConfig::default());
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EmuConfig {
    /// BFD-like interface failure detection delay (measured at ~60 ms on
    /// the paper's testbed).
    pub(crate) detection_delay: SimDuration,
    /// Router timers (SPF throttle, FIB update).
    pub(crate) router: RouterConfig,
    /// Distributed (default) or centralized control plane.
    pub(crate) control_plane: ControlPlaneMode,
    /// Which recovery discipline is provisioned (default: the design's
    /// static backups).
    pub(crate) recovery: RecoveryMode,
}

impl Default for EmuConfig {
    fn default() -> Self {
        EmuConfig {
            detection_delay: timers::DETECTION_DELAY,
            router: RouterConfig::default(),
            control_plane: ControlPlaneMode::Distributed,
            recovery: RecoveryMode::default(),
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

    /// Which recovery discipline bridges detection and reconvergence.
    pub fn recovery(&self) -> RecoveryMode {
        self.recovery
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
    /// Sets the interface failure detection delay.
    pub fn detection_delay(mut self, delay: SimDuration) -> Self {
        self.config.detection_delay = delay;
        self
    }

    /// Sets the router timers (SPF throttle, FIB update).
    pub fn router(mut self, router: RouterConfig) -> Self {
        self.config.router = router;
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
        self.config.recovery = mode;
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
    use crate::network::{LSA_PACKET_BYTES, LSA_PROCESSING_DELAY};
    use dcn_sim::LinkSpec;
    use dcn_transport::TcpConfig;

    #[test]
    fn defaults_match_the_paper() {
        let c = EmuConfig::default();
        assert_eq!(c.detection_delay.as_millis(), 60);
        assert_eq!(c.router.fib_update_delay.as_millis(), 10);
        assert_eq!(c.router.spf_initial_delay.as_millis(), 200);
        assert_eq!(c.control_plane, ControlPlaneMode::Distributed);
        assert_eq!(LinkSpec::PAPER_EMULATION.bandwidth_bps, 1_000_000_000);
        assert_eq!(LinkSpec::PAPER_EMULATION.propagation.as_micros(), 5);
        assert_eq!(TcpConfig::default().min_rto.as_millis(), 200);
        assert_eq!(LSA_PROCESSING_DELAY.as_micros(), 500);
        assert_eq!(LSA_PACKET_BYTES, 100);
    }

    #[test]
    fn untouched_builder_reproduces_default() {
        assert_eq!(EmuConfig::builder().build(), EmuConfig::default());
    }

    #[test]
    fn setters_apply_and_getters_read_back() {
        let centralized = ControlPlaneMode::Centralized {
            compute_delay: timers::CONTROLLER_COMPUTE_DELAY,
        };
        let config = EmuConfig::builder()
            .detection_delay(SimDuration::from_millis(10))
            .control_plane(centralized)
            .recovery(RecoveryMode::OspfReconvergence)
            .build();
        assert_eq!(config.detection_delay.as_millis(), 10);
        assert_eq!(config.control_plane, centralized);
        assert_eq!(config.recovery(), RecoveryMode::OspfReconvergence);
        // Untouched fields keep their defaults.
        assert_eq!(config.router, RouterConfig::default());
    }

    #[test]
    fn recovery_setter_is_read_back() {
        assert_eq!(EmuConfig::default().recovery(), RecoveryMode::F2TreeRewiring);
        let c = EmuConfig::builder()
            .recovery(RecoveryMode::PrecomputedFrr)
            .build();
        assert_eq!(c.recovery(), RecoveryMode::PrecomputedFrr);
        assert_eq!(c.router, RouterConfig::default());
        assert_ne!(c, EmuConfig::default());
    }
}
