//! # dcn-net — data-center network topology & addressing substrate
//!
//! This crate provides the structural foundation for the F²Tree
//! reproduction (*Rewiring 2 Links is Enough*, ICDCS 2015):
//!
//! * the [`Prefix`] type with longest-prefix-match semantics, over
//!   `std::net::Ipv4Addr` (re-exported as [`Ipv4Addr`]),
//! * the [`Topology`] multigraph with layer/pod bookkeeping and the
//!   mutation operations the rewiring recipe needs,
//! * builders for the multi-rooted trees the paper discusses:
//!   [`FatTree`], [`LeafSpine`] and [`Vl2`], and
//! * the paper's production-DCN address assignment
//!   ([`assign_addresses`], Fig. 3(d)).
//!
//! # Examples
//!
//! ```
//! use dcn_net::{assign_addresses, FatTree, Layer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the paper's emulation-scale topology: an 8-port fat tree.
//! let mut topo = FatTree::new(8)?.build();
//! let plan = assign_addresses(&mut topo)?;
//!
//! assert_eq!(topo.switch_count(), 80);
//! assert_eq!(plan.rack_subnets.len(), 32);
//! // Aggregation switches have no across links yet — that is what the
//! // `f2tree` crate's rewiring adds.
//! for agg in topo.layer_switches(Layer::Agg) {
//!     assert!(topo.across_links(agg).is_empty());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod addressing;
mod aspen;
mod fattree;
mod flow;
mod id;
mod leafspine;
mod ring;
mod topology;
mod vl2;

pub use addr::{Ipv4Addr, ParseAddrError, Prefix, PrefixError};
pub use addressing::{
    assign_addresses, AddressPlan, AddressingError, RackSubnet, COVERING_PREFIX, DCN_PREFIX,
};
pub use aspen::AspenTree;
pub use fattree::FatTree;
pub use flow::{FlowKey, Protocol};
pub use id::{LinkId, NodeId, PodId};
pub use leafspine::LeafSpine;
pub use ring::PodRing;
pub use topology::{Layer, Link, LinkClass, Node, NodeKind, Topology, TopologyError};
pub use vl2::Vl2;
