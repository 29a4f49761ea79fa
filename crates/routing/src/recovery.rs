//! Recovery-mode selection: what a switch does between detecting a link
//! failure and the eventual SPF reconvergence.
//!
//! The paper compares two disciplines — wait for OSPF, or fall through to
//! F²Tree's pre-installed backup routes — and the related work adds a
//! third: precompute per-link loop-free alternates so recovery is bounded
//! by detection delay alone. [`RecoveryMode`] names all three; the
//! precomputed map itself is built by the `dcn-frr` crate and handed to
//! each [`crate::RouterProcess`] as an [`FrrPlan`].

use std::collections::BTreeMap;
use std::fmt;

use dcn_net::LinkId;

use crate::fib::FibDelta;

/// Per-router precomputed fast-reroute plan: for each adjacent link, the
/// repair delta ([`crate::RouteOrigin::Frr`]-origin routes) to install
/// the moment that link is detected dead. Computed offline by `dcn-frr`
/// from the converged topology; empty for links whose failure needs no
/// repair (ECMP survivors handle it) or has no loop-free alternate.
pub type FrrPlan = BTreeMap<LinkId, FibDelta>;

/// Which failure-recovery discipline the fabric runs; selected via
/// `EmuConfig::builder().recovery(..)` and read where repair routes are
/// provisioned — a router never sees it, only the [`FrrPlan`] it was (or
/// was not) handed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryMode {
    /// No pre-provisioned protection: traffic blackholes until the
    /// detection → flood → SPF throttle → FIB install pipeline finishes
    /// (the paper's baseline).
    OspfReconvergence,
    /// The design's static backup routes, where the topology provides
    /// them (F²Tree's shorter-prefix backups over across links; a no-op
    /// on designs without rewired links). The default, preserving each
    /// design's native behaviour.
    #[default]
    F2TreeRewiring,
    /// `dcn-frr`'s precomputed per-link failure map: on link-down
    /// detection the router installs the link's repair delta immediately
    /// (one FIB-update delay, no SPF timer wait), then reconciles when
    /// the eventual SPF result lands.
    PrecomputedFrr,
}

impl RecoveryMode {
    /// Stable lowercase name (CLI flags, result rows, golden file tags).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::OspfReconvergence => "ospf",
            RecoveryMode::F2TreeRewiring => "f2tree",
            RecoveryMode::PrecomputedFrr => "frr",
        }
    }

    /// Parses [`Self::name`] output (accepts `lfa` as an alias for the
    /// precomputed map, since LFA is its dominant tier).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ospf" => Some(RecoveryMode::OspfReconvergence),
            "f2tree" => Some(RecoveryMode::F2TreeRewiring),
            "frr" | "lfa" => Some(RecoveryMode::PrecomputedFrr),
            _ => None,
        }
    }

    /// All modes, in bake-off sweep order (baseline first).
    pub const ALL: [RecoveryMode; 3] = [
        RecoveryMode::OspfReconvergence,
        RecoveryMode::F2TreeRewiring,
        RecoveryMode::PrecomputedFrr,
    ];
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for mode in RecoveryMode::ALL {
            assert_eq!(RecoveryMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(
            RecoveryMode::parse("lfa"),
            Some(RecoveryMode::PrecomputedFrr)
        );
        assert_eq!(RecoveryMode::parse("bgp"), None);
    }

    #[test]
    fn default_is_the_design_native_mode() {
        assert_eq!(RecoveryMode::default(), RecoveryMode::F2TreeRewiring);
    }
}
