//! # dcn-chaos — chaos scenario engine with runtime invariant oracles
//!
//! Randomized (but fully deterministic) failure-injection testing for the
//! F²Tree reproduction. The pipeline, end to end:
//!
//! 1. [`generate_scenario`] draws a [`ScenarioSpec`] — one to three
//!    incidents spanning single, correlated, and whole-switch failures,
//!    link flaps, and failure-during-reconvergence — from a seeded
//!    [`dcn_sim::SimRng`], the sweep cell's one stream.
//! 2. [`run_scenario`] plays the spec through the emulator, single-stepping
//!    the event loop and re-checking four invariant families at every FIB
//!    epoch: loop-freedom, timer-bounded blackholes, FIB/LSDB consistency
//!    at quiescence, and TCP conservation (see [`oracle`] and DESIGN.md §9).
//!    The first two read each monitored flow's
//!    [`Network::walk`](dcn_emu::Network::walk), the emulator's one walk
//!    of its forwarding state, reused while nothing on it changed.
//! 3. [`run_chaos`] fans a whole campaign out over the `dcn-sweep` worker
//!    pool — campaign `i` is cell `i`, alternating designs — so the
//!    summary is byte-identical at any `--workers` count.
//! 4. When an oracle fires, [`shrink_scenario`] delta-debugs the incident
//!    list down to a 1-minimal reproducer, and [`ScenarioSpec::render`]
//!    emits it as a replayable scenario file.
//!
//! # Examples
//!
//! ```
//! use dcn_chaos::{run_chaos, ChaosConfig};
//! use dcn_sweep::Workers;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ChaosConfig {
//!     campaigns: 2,
//!     ..ChaosConfig::default()
//! };
//! let report = run_chaos(&cfg, Workers::SERIAL)?;
//! assert_eq!(report.results.len(), 2);
//! assert_eq!(report.total_violations(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod engine;
pub mod oracle;
pub mod quality;
pub mod scenario;
pub mod shrink;

pub use campaign::{generate_scenario, CampaignConfig};
pub use engine::{
    monitor_endpoints, run_chaos, run_scenario, CampaignResult, ChaosConfig, ChaosReport,
    EngineConfig, ScenarioError, ScenarioOutcome, ScenarioStats, MAX_VIOLATIONS, MONITOR_SPORTS,
    TRANSFER_BYTES,
};
pub use oracle::{blackhole_bound, routably_connected, Violation, ViolationKind};
pub use quality::{EpochQuality, QualityTrace};
pub use scenario::{Incident, IncidentKind, ScenarioParseError, ScenarioSpec};
pub use shrink::shrink_scenario;
