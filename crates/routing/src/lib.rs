//! # dcn-routing — routing substrate
//!
//! The control and data plane the F²Tree reproduction runs on, mirroring
//! the Quagga-OSPF + Linux stack the paper uses:
//!
//! * [`Fib`] — a longest-prefix-match table (one sorted run per prefix
//!   length, longest first) with origin preference and
//!   *fall-through on locally dead interfaces* — the primitive that makes
//!   F²Tree's pre-installed shorter-prefix backup routes take over the
//!   instant a failure is detected,
//! * [`ecmp_hash`]/[`ecmp_select`] — five-tuple ECMP (RFC 2992),
//! * [`Lsdb`]/[`Lsa`] — link-state database with two-way checking,
//! * [`compute_routes`] — unit-cost (breadth-first) SPF with full ECMP
//!   next-hop sets, and [`SpfTable`] — one snapshot's distances, shared by
//!   every router whose SPF runs read the same LSDB,
//! * [`FibDelta`] — the one FIB install currency: every SPF run, repair
//!   activation and controller push is a delta through [`Fib::apply`],
//! * [`SpfThrottle`] — Cisco-style SPF throttling with exponential
//!   backoff (the source of the paper's multi-second recovery tail),
//! * [`RecoveryMode`] — the pluggable recovery seam: wait for OSPF, fall
//!   through to F²Tree's static backups, or install a precomputed
//!   [`FrrPlan`] repair delta the moment detection fires, and
//! * [`RouterProcess`] — the per-switch state machine tying it together.
//!
//! # Examples
//!
//! The recovery-time arithmetic of the paper's testbed experiment, at the
//! state-machine level:
//!
//! ```
//! use dcn_routing::{RouterConfig, SpfThrottle};
//! use dcn_sim::{SimDuration, SimTime};
//!
//! let cfg = RouterConfig::default();
//! // Failure at 380ms; BFD-like detection takes 60ms.
//! let detected = SimTime::ZERO + SimDuration::from_millis(380 + 60);
//! let mut throttle = SpfThrottle::new(cfg.spf_initial_delay);
//! let spf_at = throttle.on_trigger(detected).unwrap();
//! let converged = spf_at + cfg.fib_update_delay;
//! // 60ms detection + 200ms SPF throttle + 10ms FIB update = 270ms,
//! // matching the ~272ms connectivity loss of Fig. 2 / Table III.
//! assert_eq!(converged.as_nanos(), 650_000_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ecmp;
mod fib;
mod lsdb;
mod process;
mod recovery;
mod route;
mod spf;
mod throttle;

pub use ecmp::{ecmp_hash, ecmp_select};
pub use fib::{Fib, FibDelta, FibOp, RoutesIter};
pub use lsdb::{Adjacency, Lsa, Lsdb};
pub use process::{RouterAction, RouterConfig, RouterProcess};
pub use recovery::{FrrPlan, RecoveryMode};
pub use route::{NextHop, Route, RouteOrigin};
pub use spf::{compute_routes, SpfTable};
pub use throttle::SpfThrottle;
