//! The failure conditions of Table IV (C1–C7).
//!
//! Each condition is defined relative to the probe flow's forwarding
//! path: `Sx` is the aggregation switch on the flow's downward path in
//! the destination pod, and failures are picked relative to it exactly as
//! the paper describes (Fig. 3, Table IV). `f2tree::TestBed::scenario_links`
//! resolves a condition to concrete links off the probe's own walk.

use std::fmt;

/// The seven failure conditions of Table IV.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Condition {
    /// 1 link between ToR and aggregation switch (§II-C condition 1).
    C1,
    /// 1 link between core and aggregation switch (§II-C condition 1).
    C2,
    /// C1 + C2 combined (§II-C condition 1).
    C3,
    /// 2 adjacent ToR–agg links in the same pod (§II-C condition 2).
    C4,
    /// All ToR–agg links in the pod except the left across neighbor's
    /// (§II-C condition 2).
    C5,
    /// 1 ToR–agg link + the right across link (§II-C condition 3).
    C6,
    /// 2 ToR–agg links + 1 right across link (§II-C condition 4 — the
    /// tough case where F²Tree degrades to fat tree).
    C7,
}

impl Condition {
    /// All conditions, in Table IV order.
    pub const ALL: [Condition; 7] = [
        Condition::C1,
        Condition::C2,
        Condition::C3,
        Condition::C4,
        Condition::C5,
        Condition::C6,
        Condition::C7,
    ];

    /// The §II-C failure-condition class this scenario belongs to
    /// (the "Belong to which failure condition" column of Table IV).
    pub fn paper_condition(self) -> u8 {
        match self {
            Condition::C1 | Condition::C2 | Condition::C3 => 1,
            Condition::C4 | Condition::C5 => 2,
            Condition::C6 => 3,
            Condition::C7 => 4,
        }
    }

    /// Whether the scenario needs across links (C6/C7 are F²Tree-specific;
    /// the paper evaluates only F²Tree on them).
    pub fn requires_across_links(self) -> bool {
        matches!(self, Condition::C6 | Condition::C7)
    }

    /// The Table IV description.
    pub fn description(self) -> &'static str {
        match self {
            Condition::C1 => "1 link between ToR and aggregation switch",
            Condition::C2 => "1 link between core and aggregation switch",
            Condition::C3 => {
                "1 link between ToR and aggregation switch & 1 link between core and aggregation switch"
            }
            Condition::C4 => "2 adjacent links between ToR and aggregation switches in the same pod",
            Condition::C5 => {
                "all links between ToR and aggregation switches in the same pod except the one of the left across neighbor"
            }
            Condition::C6 => "1 link between ToR and aggregation switch & 1 right across link",
            Condition::C7 => "2 links between ToR and aggregation switches & 1 right across link",
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_mapping_to_paper_conditions() {
        assert_eq!(Condition::C1.paper_condition(), 1);
        assert_eq!(Condition::C2.paper_condition(), 1);
        assert_eq!(Condition::C3.paper_condition(), 1);
        assert_eq!(Condition::C4.paper_condition(), 2);
        assert_eq!(Condition::C5.paper_condition(), 2);
        assert_eq!(Condition::C6.paper_condition(), 3);
        assert_eq!(Condition::C7.paper_condition(), 4);
    }

    #[test]
    fn c6_and_c7_require_a_ring() {
        for c in Condition::ALL {
            let ring = matches!(c, Condition::C6 | Condition::C7);
            assert_eq!(c.requires_across_links(), ring, "{c}");
        }
    }

    #[test]
    fn descriptions_are_nonempty_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in Condition::ALL {
            assert!(!c.description().is_empty());
            assert!(seen.insert(c.description()));
        }
    }
}
