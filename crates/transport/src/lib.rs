//! # dcn-transport — transport & application substrate
//!
//! The end-host stack for the F²Tree reproduction:
//!
//! * [`PROBE_BYTES`] and [`PROBE_INTERVAL`] — the paper's probe rate,
//!   1448 B every 100 µs, at which the emulator's UDP probe and the paced
//!   TCP app send,
//! * [`TcpSender`]/[`TcpReceiver`] — a NewReno-style TCP with 200 ms
//!   minimum RTO, exponential backoff, fast retransmit, and RFC 2861
//!   cwnd validation (see the module docs for why each matters to the
//!   paper's numbers), and
//! * [`generate_requests`]/[`generate_background`] — the §IV-B
//!   partition-aggregate and log-normal background workloads.
//!
//! All types are pure state machines: inputs are explicit, outputs are
//! action lists, and time is always passed in — the emulator owns the
//! event loop.
//!
//! # Examples
//!
//! ```
//! use dcn_sim::SimRng;
//! use dcn_transport::{generate_requests, PartitionAggregateConfig};
//!
//! let mut rng = SimRng::new(42);
//! let cfg = PartitionAggregateConfig { requests: 10, ..Default::default() };
//! let reqs = generate_requests(&mut rng, 72, &cfg);
//! assert_eq!(reqs.len(), 10);
//! assert!(reqs.iter().all(|r| r.workers.len() == 8));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod tcp;
mod workload;

use dcn_sim::SimDuration;

/// Payload of one probe segment: the paper's 1448 B.
pub const PROBE_BYTES: u32 = 1448;

/// Interval between probe segments: the paper's 100 µs.
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(100);

pub use tcp::{TcpAck, TcpApp, TcpConfig, TcpReceiver, TcpSegment, TcpSender, TcpSenderOutput};
pub use workload::{
    generate_background, generate_requests, BackgroundConfig, BackgroundFlow,
    PartitionAggregateConfig, Request,
};
