//! # dcn-failure — failure-injection substrate
//!
//! Everything the paper throws at the network:
//!
//! * [`FailureSchedule`]/[`FailureEvent`] — timed bidirectional link
//!   up/down schedules,
//! * [`Condition`] — the deterministic C1–C7 scenarios of Table IV,
//!   defined relative to the probe flow's path (`f2tree::TestBed::scenario_links`
//!   resolves one to concrete links off the probe's walk), and
//! * [`generate_random_failures`] — the §IV-B log-normal random failure
//!   process (1- and 5-concurrent regimes).
//!
//! Whole-switch failures are modelled as the failure of all the switch's
//! links, following the paper's footnote 1.
//!
//! # Examples
//!
//! ```
//! use dcn_failure::{generate_random_failures, RandomFailureConfig};
//! use dcn_net::LinkId;
//! use dcn_sim::SimRng;
//!
//! let links: Vec<LinkId> = (0..100).map(LinkId::new).collect();
//! let mut rng = SimRng::new(7);
//! let schedule = generate_random_failures(
//!     &mut rng, &links, &RandomFailureConfig::one_concurrent());
//! assert!(schedule.failure_count() > 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod random;
mod scenarios;
mod schedule;
mod switch;

pub use random::{generate_random_failures, RandomFailureConfig};
pub use scenarios::Condition;
pub use schedule::{FailureEvent, FailureSchedule};
pub use switch::{fabric_links, switch_links};
