//! # f2tree — Fault-tolerant Fat Tree (ICDCS 2015 reproduction)
//!
//! The primary contribution of *Rewiring 2 Links is Enough: Accelerating
//! Failure Recovery in Production Data Center Networks* (Chen, Zhao, Pei,
//! Li — ICDCS 2015), implemented as a topology transform plus a switch
//! configuration generator:
//!
//! * [`F2TreeNetwork::build`] / [`rewire_fat_tree`] — rewire a standard
//!   fat tree into an F²Tree: `r` ports per aggregation/core switch are
//!   redirected into per-pod across-link rings with chords out to reach
//!   `r/2` — one transform, with the paper's two-port design (§II-B) as
//!   reach 1 and the wider rings §II-C proposes for C7 as reach ≥ 2,
//! * [`network_backup_routes`] — one static backup route per across link
//!   (on the two-port design, DCN prefix rightward and covering prefix
//!   leftward — Table II) that give every downward link immediate
//!   backups with zero protocol changes,
//! * [`immediate_backup_links`] — the §II-A structural analysis, and
//! * [`f2_leaf_spine`] / [`f2_vl2`] — the same scheme applied to the
//!   other multi-rooted topologies of §V (Fig. 7).
//!
//! # Examples
//!
//! ```
//! use f2tree::{network_backup_routes, F2TreeNetwork};
//! use dcn_net::Layer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = F2TreeNetwork::build(8)?;
//! // Every aggregation and core switch carries exactly two across links
//! // and two backup routes.
//! let backups = network_backup_routes(&net);
//! let switches = net.topology.layer_switches(Layer::Agg).count()
//!     + net.topology.layer_switches(Layer::Core).count();
//! assert_eq!(backups.len(), switches);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod config;
mod other;
pub mod quagga;
mod rewire;
pub mod testbed;

pub use analysis::{immediate_backup_links, layer_backup_summary, BackupSummary};
pub use config::{network_backup_routes, ring_backup_routes, SwitchBackup};
pub use other::{f2_leaf_spine, f2_vl2, F2Network};
pub use rewire::{rewire_fat_tree, F2TreeNetwork};
pub use testbed::{Design, PathAnatomy, TestBed, TestBedError};
