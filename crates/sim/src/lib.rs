//! # dcn-sim — deterministic discrete-event simulation engine
//!
//! The timing substrate for the F²Tree reproduction. It provides:
//!
//! * [`SimTime`]/[`SimDuration`] — nanosecond-precision clock types,
//! * [`EventQueue`] — a priority queue with deterministic tie-breaking,
//! * [`SimRng`] — the one seeded random source, with forkable sub-streams
//!   and the log-normal and exponential distributions the paper's
//!   workloads use,
//! * [`LinkSpec`]/[`LinkState`] — the bandwidth/propagation/drop-tail link
//!   transmission model, and
//! * [`PacketArena`] — a slab where packets in flight are stored, generic
//!   over the packet type its user defines.
//!
//! Identical seeds replay identical traces, which is what lets the
//! experiment suite assert the paper's numbers exactly.
//!
//! # Examples
//!
//! ```
//! use dcn_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Event { FailLink, DetectFailure }
//!
//! let mut q = EventQueue::new();
//! let fail_at = SimTime::ZERO + SimDuration::from_millis(380);
//! q.schedule(fail_at, Event::FailLink);
//! // The paper's BFD-like interface detection fires 60ms later.
//! q.schedule(fail_at + SimDuration::from_millis(60), Event::DetectFailure);
//!
//! let (key, e) = q.pop().unwrap();
//! assert_eq!(e, Event::FailLink);
//! assert_eq!(key.time().as_nanos(), 380_000_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod link;
mod queue;
mod rng;
mod time;
pub mod timers;

pub use arena::{PacketArena, PacketSlot};
pub use link::{Direction, LinkSpec, LinkState, TransmitVerdict};
pub use queue::{EventKey, EventQueue};
pub use rng::{LogNormal, SimRng};
pub use time::{SimDuration, SimTime};
