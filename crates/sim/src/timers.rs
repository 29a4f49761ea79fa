//! The single source of truth for protocol timer constants.
//!
//! Every recovery-time figure in the paper decomposes into these timers
//! (§III "where does the time go"), so scattering the literals across
//! crates would make it impossible to audit which experiment ran with
//! which budget. The `timer-constants` lint
//! (`cargo run -p xtask -- lint`) bans hard-coded `from_millis`/
//! `from_secs` literals — and `from_micros` literals equal to one of
//! these timers — in the non-test code of the simulation crates,
//! everywhere except this module and `crates/core/src/config.rs`;
//! defaults elsewhere must reference these names.
//!
//! This module lives in `dcn-sim` (not `dcn-core`) because the
//! dependency arrow points the other way: `core → routing → sim`, and
//! the routing and emulation crates that consume these defaults cannot
//! import `core`.

use crate::time::SimDuration;

/// BFD-like interface failure detection delay — the paper measures
/// ~60 ms from physical failure to the switch marking the interface
/// dead on its testbed.
pub const DETECTION_DELAY: SimDuration = SimDuration::from_millis(60);

/// OSPF SPF calculation timer, initial value — "whose default initial
/// value is 200ms" (paper §III).
pub const SPF_INITIAL_DELAY: SimDuration = SimDuration::from_millis(200);

/// Maximum SPF hold time under churn. The exponential backoff doubles
/// from [`SPF_INITIAL_DELAY`] up to this cap; the paper reports
/// observed timers "up to about 9s" under 5 concurrent failures
/// (Fig. 6(b)), consistent with a 10 s Cisco-style maximum.
pub const SPF_MAX_HOLD: SimDuration = SimDuration::from_secs(10);

/// Delay between an SPF run completing and the new routes landing in
/// the FIB (~10 ms measured on the paper's testbed).
pub const FIB_UPDATE_DELAY: SimDuration = SimDuration::from_millis(10);

/// Centralized control plane (paper §V): switch → controller
/// failure-report latency.
pub const CONTROLLER_REPORT_DELAY: SimDuration = SimDuration::from_millis(5);

/// Centralized control plane: controller global route recomputation
/// time (grows with DCN scale, per the paper's discussion).
pub const CONTROLLER_COMPUTE_DELAY: SimDuration = SimDuration::from_millis(50);

/// Centralized control plane: controller → switch table-push latency.
pub const CONTROLLER_PUSH_DELAY: SimDuration = SimDuration::from_millis(5);
