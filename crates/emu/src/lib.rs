//! # dcn-emu — packet-level data-center network emulator
//!
//! The integration layer of the F²Tree reproduction: it plays the role
//! NS3 + DCE + Quagga + Linux plays in the paper. A [`Network`] wraps a
//! topology with one router process per switch and an event loop in which
//! every data packet crosses real links (serialization, propagation,
//! drop-tail queues), every switch does a real longest-prefix-match FIB
//! lookup with ECMP, LSAs flood as real packets, and SPF runs behind a
//! throttle with exponential backoff.
//!
//! # Examples
//!
//! The testbed experiment in six lines — fail the downward ToR–agg link on
//! the probe's path and watch connectivity come back only after the
//! control plane converges (fat tree, so ~270 ms):
//!
//! ```
//! use dcn_sim::{SimDuration, SimTime};
//! use f2tree::{Design, TestBed};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bed = TestBed::build(Design::FatTree, 4, 1)?;
//! let (src, dst) = bed.probe_endpoints().ok_or("the bed has hosts")?;
//! let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
//!
//! // Fail the agg->ToR link the probe's current path takes down.
//! let link = bed.path_anatomy(probe).down_link;
//! bed.net.fail_link_at(SimTime::ZERO + SimDuration::from_millis(380), link);
//!
//! bed.net.run_until(SimTime::ZERO + SimDuration::from_secs(2));
//! let report = bed.net.udp_probe_report(probe);
//! let loss = report.connectivity
//!     .loss_around(SimTime::ZERO + SimDuration::from_millis(380))
//!     .unwrap();
//! assert!(loss.duration.as_millis() >= 250, "fat tree waits for OSPF");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod network;
mod quality;

pub use config::{ControlPlaneMode, EmuConfig, EmuConfigBuilder};
pub use network::{
    DropCounters, FlowId, Hop, Network, RequestId, TcpFlowStats, UdpProbeReport, WalkOutcome,
    DEFAULT_TTL,
};
