//! Table I: scalability and deployability comparison.
//!
//! The paper compares 3-layer DCNs built with homogeneous `N`-port switches
//! (each downward ToR port holding one host) across six solutions. This
//! module encodes the closed-form rows of Table I, and the unit tests in
//! the `f2tree` crate cross-check the F²Tree formulas against topologies
//! actually constructed by the builders.

use std::fmt;

/// The fault-tolerance solutions compared in Table I.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Solution {
    /// Standard fat tree (Al-Fares et al.).
    FatTree,
    /// VL2 (Greenberg et al.).
    Vl2,
    /// F²Tree — the paper's contribution.
    F2Tree,
    /// Aspen tree ⟨f, 0⟩ with fault-tolerance value `f ≥ 1` between
    /// aggregation and core.
    AspenTree {
        /// Fault-tolerance value between aggregation and core switches.
        f: u32,
    },
    /// F10 (Liu et al.).
    F10,
    /// DDC (Liu et al.) — topology-independent, so scalability is n/a.
    Ddc,
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Solution::FatTree => write!(f, "Fat tree"),
            Solution::Vl2 => write!(f, "VL2"),
            Solution::F2Tree => write!(f, "F2Tree"),
            Solution::AspenTree { f: ft } => write!(f, "Aspen tree <{ft},0>"),
            Solution::F10 => write!(f, "F10"),
            Solution::Ddc => write!(f, "DDC"),
        }
    }
}

/// One row of Table I.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScalabilityRow {
    /// The solution this row describes.
    pub solution: Solution,
    /// Switches consumed (`None` for topology-independent solutions).
    pub switches: Option<f64>,
    /// End hosts supported (`None` for topology-independent solutions).
    pub nodes: Option<f64>,
    /// Whether the routing protocol must be modified (`None` = n/a).
    pub modifies_routing: Option<bool>,
    /// Whether the data plane must be modified (`None` = n/a).
    pub modifies_data_plane: Option<bool>,
}

/// Computes one Table I row for `solution` at switch port count `n`.
///
/// # Examples
///
/// ```
/// use dcn_net::scalability::{table1_row, Solution};
///
/// let fat = table1_row(Solution::FatTree, 128);
/// let f2 = table1_row(Solution::F2Tree, 128);
/// // With 128-port switches F2Tree supports ~2% fewer nodes (paper §II-D).
/// let loss = 1.0 - f2.nodes.unwrap() / fat.nodes.unwrap();
/// assert!(loss > 0.015 && loss < 0.035);
/// ```
pub fn table1_row(solution: Solution, n: u32) -> ScalabilityRow {
    let nf = n as f64;
    match solution {
        Solution::FatTree => ScalabilityRow {
            solution,
            switches: Some(1.25 * nf * nf),
            nodes: Some(nf * nf * nf / 4.0),
            modifies_routing: None,
            modifies_data_plane: None,
        },
        Solution::Vl2 => ScalabilityRow {
            solution,
            switches: Some(2.5 * nf),
            nodes: Some(nf * nf / 2.0),
            modifies_routing: None,
            modifies_data_plane: None,
        },
        Solution::F2Tree => ScalabilityRow {
            solution,
            switches: Some(1.25 * nf * nf - 3.5 * nf + 2.0),
            nodes: Some(nf * nf * nf / 4.0 - nf * nf + nf),
            modifies_routing: Some(false),
            modifies_data_plane: Some(false),
        },
        Solution::AspenTree { f } => {
            let ff = (f + 1) as f64;
            ScalabilityRow {
                solution,
                switches: Some(1.25 * nf * nf / ff),
                nodes: Some(nf * nf * nf / (4.0 * ff)),
                modifies_routing: Some(true),
                modifies_data_plane: Some(false),
            }
        }
        Solution::F10 => ScalabilityRow {
            solution,
            switches: Some(1.25 * nf * nf),
            nodes: Some(nf * nf * nf / 4.0),
            modifies_routing: Some(true),
            modifies_data_plane: Some(true),
        },
        Solution::Ddc => ScalabilityRow {
            solution,
            switches: None,
            nodes: None,
            modifies_routing: Some(true),
            modifies_data_plane: Some(true),
        },
    }
}

/// All Table I rows (Aspen at `f = 1`, its minimum) for port count `n`.
pub fn table1(n: u32) -> Vec<ScalabilityRow> {
    vec![
        table1_row(Solution::FatTree, n),
        table1_row(Solution::Vl2, n),
        table1_row(Solution::F2Tree, n),
        table1_row(Solution::AspenTree { f: 1 }, n),
        table1_row(Solution::F10, n),
        table1_row(Solution::Ddc, n),
    ]
}

/// Exact integer F²Tree sizing derived from the paper's per-layer port
/// reservation (2 across ports per aggregation and core switch):
/// `N-2` pods, `(N-2)/2` ToRs and `N/2` aggs per pod, `N/2` core groups of
/// `(N-2)/2` cores.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct F2TreeDimensions {
    /// Switch port count.
    pub n: u32,
    /// Number of pods (`N - 2`).
    pub pods: u32,
    /// ToR switches per pod (`(N-2)/2`).
    pub tors_per_pod: u32,
    /// Aggregation switches per pod (`N/2`).
    pub aggs_per_pod: u32,
    /// Core groups (`N/2`).
    pub core_groups: u32,
    /// Core switches per group (`(N-2)/2`).
    pub cores_per_group: u32,
}

impl F2TreeDimensions {
    /// Computes the dimensions for port count `n` (even, ≥ 4).
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd or below 4.
    pub fn for_ports(n: u32) -> Self {
        assert!(n >= 4 && n.is_multiple_of(2), "F2Tree requires even N >= 4");
        F2TreeDimensions {
            n,
            pods: n - 2,
            tors_per_pod: (n - 2) / 2,
            aggs_per_pod: n / 2,
            core_groups: n / 2,
            cores_per_group: (n - 2) / 2,
        }
    }

    /// Total switches: matches Table I's `5N²/4 − 7N/2 + 2`.
    pub fn switches(&self) -> u64 {
        let tors = self.pods as u64 * self.tors_per_pod as u64;
        let aggs = self.pods as u64 * self.aggs_per_pod as u64;
        let cores = self.core_groups as u64 * self.cores_per_group as u64;
        tors + aggs + cores
    }

    /// Total hosts at one host per downward ToR port: matches Table I's
    /// `N³/4 − N² + N`.
    pub fn nodes(&self) -> u64 {
        self.pods as u64 * self.tors_per_pod as u64 * (self.n as u64 / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2tree_dimensions_match_table1_closed_forms() {
        for n in [4u32, 6, 8, 16, 48, 128] {
            let d = F2TreeDimensions::for_ports(n);
            let n64 = n as u64;
            assert_eq!(
                d.switches(),
                (5 * n64 * n64 - 14 * n64 + 8) / 4,
                "switch closed form at N={n}"
            );
            assert_eq!(
                d.nodes(),
                n64 * n64 * n64 / 4 - n64 * n64 + n64,
                "node closed form at N={n}"
            );
        }
    }

    #[test]
    fn paper_example_128_ports_loses_about_two_percent() {
        let fat = table1_row(Solution::FatTree, 128).nodes.unwrap();
        let f2 = table1_row(Solution::F2Tree, 128).nodes.unwrap();
        let loss = 1.0 - f2 / fat;
        assert!((0.015..0.035).contains(&loss), "loss was {loss}");
    }

    #[test]
    fn aspen_tree_halves_nodes_at_minimum_fault_tolerance() {
        let fat = table1_row(Solution::FatTree, 48).nodes.unwrap();
        let aspen = table1_row(Solution::AspenTree { f: 1 }, 48).nodes.unwrap();
        assert!((aspen - fat / 2.0).abs() < 1e-9);
    }

    #[test]
    fn only_f2tree_avoids_all_modifications_among_fault_tolerant_solutions() {
        for row in table1(48) {
            match row.solution {
                Solution::F2Tree => {
                    assert_eq!(row.modifies_routing, Some(false));
                    assert_eq!(row.modifies_data_plane, Some(false));
                }
                Solution::AspenTree { .. } => {
                    assert_eq!(row.modifies_routing, Some(true));
                    assert_eq!(row.modifies_data_plane, Some(false));
                }
                Solution::F10 | Solution::Ddc => {
                    assert_eq!(row.modifies_routing, Some(true));
                    assert_eq!(row.modifies_data_plane, Some(true));
                }
                Solution::FatTree | Solution::Vl2 => {
                    assert_eq!(row.modifies_routing, None);
                }
            }
        }
    }

    #[test]
    fn ddc_scalability_is_not_applicable() {
        let row = table1_row(Solution::Ddc, 48);
        assert!(row.switches.is_none());
        assert!(row.nodes.is_none());
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(Solution::F2Tree.to_string(), "F2Tree");
        assert_eq!(Solution::AspenTree { f: 2 }.to_string(), "Aspen tree <2,0>");
    }
}
