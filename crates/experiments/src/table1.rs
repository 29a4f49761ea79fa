//! Table I: scalability and deployment comparison.
//!
//! The paper compares 3-layer DCNs built with homogeneous `N`-port switches
//! (each downward ToR port holding one host) across six solutions. Each row
//! holds the closed forms in `N`, cross-checked against the topologies the
//! builders construct at feasible sizes.

use std::fmt;

use dcn_net::{AspenTree, FatTree, Topology};
use f2tree::F2TreeNetwork;

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

/// The paper's rows, in its order (Aspen at `f = 1`, its minimum).
const SOLUTIONS: [Solution; 6] = [
    Solution::FatTree,
    Solution::Vl2,
    Solution::F2Tree,
    Solution::AspenTree { f: 1 },
    Solution::F10,
    Solution::Ddc,
];

/// One Table I row, with optional construction-based verification.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// The solution this row describes.
    pub solution: Solution,
    /// Switches consumed (closed form; `None` = topology-independent).
    pub switches: Option<f64>,
    /// Nodes supported (closed form; `None` = topology-independent).
    pub nodes: Option<f64>,
    /// Whether the routing protocol must change (`None` = n/a).
    pub modifies_routing: Option<bool>,
    /// Whether the data plane must change (`None` = n/a).
    pub modifies_data_plane: Option<bool>,
    /// `(switches, hosts)` actually counted from a built topology, when
    /// feasible.
    pub verified: Option<(u64, u64)>,
}

/// The closed forms of `solution`'s row at port count `n`, unverified.
fn closed_form(solution: Solution, n: u32) -> Table1Row {
    let nf = f64::from(n);
    let fat = (1.25 * nf * nf, nf * nf * nf / 4.0);
    let f2 = (fat.0 - 3.5 * nf + 2.0, fat.1 - nf * nf + nf);
    let (size, modifies_routing, modifies_data_plane) = match solution {
        Solution::FatTree => (Some(fat), None, None),
        Solution::Vl2 => (Some((2.5 * nf, nf * nf / 2.0)), None, None),
        Solution::F2Tree => (Some(f2), Some(false), Some(false)),
        Solution::AspenTree { f } => {
            let ff = f64::from(f + 1);
            (
                Some((fat.0 / ff, nf * nf * nf / (4.0 * ff))),
                Some(true),
                Some(false),
            )
        }
        Solution::F10 => (Some(fat), Some(true), Some(true)),
        Solution::Ddc => (None, Some(true), Some(true)),
    };
    Table1Row {
        solution,
        switches: size.map(|(switches, _)| switches),
        nodes: size.map(|(_, nodes)| nodes),
        modifies_routing,
        modifies_data_plane,
        verified: None,
    }
}

/// Computes Table I at port count `n`, verifying the fat tree, F²Tree and
/// Aspen rows by construction when `n` is buildable (≤ 16 here, to keep
/// memory and time trivial).
pub fn run_table1(n: u32) -> Vec<Table1Row> {
    let count = |topo: &Topology| (topo.switch_count() as u64, topo.host_count() as u64);
    SOLUTIONS
        .into_iter()
        .map(|solution| {
            let verified = match solution {
                _ if n > 16 => None,
                Solution::FatTree => FatTree::new(n).ok().map(|t| count(&t.build())),
                Solution::F2Tree => F2TreeNetwork::build(n).ok().map(|net| count(&net.topology)),
                Solution::AspenTree { f } => AspenTree::new(n, f).ok().map(|t| count(&t.build())),
                _ => None,
            };
            Table1Row {
                verified,
                ..closed_form(solution, n)
            }
        })
        .collect()
}

/// Renders Table I as text.
pub fn format_table1(n: u32, rows: &[Table1Row]) -> String {
    let fmt_opt = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.0}"));
    let fmt_bool = |v: Option<bool>| match v {
        None => "n/a",
        Some(true) => "yes",
        Some(false) => "no",
    };
    let mut out = format!(
        "Table I: scalability & deployment at N={n} ports\n\
         solution         | switches | nodes    | mod. routing | mod. data plane | built (sw, hosts)\n\
         -----------------+----------+----------+--------------+-----------------+------------------\n"
    );
    for r in rows {
        // `Solution`'s `Display` writes with `write!`, which ignores the
        // width: pad its string instead.
        out.push_str(&format!(
            "{:<16} | {:>8} | {:>8} | {:>12} | {:>15} | {}\n",
            r.solution.to_string(),
            fmt_opt(r.switches),
            fmt_opt(r.nodes),
            fmt_bool(r.modifies_routing),
            fmt_bool(r.modifies_data_plane),
            r.verified
                .map_or("-".to_string(), |(s, h)| format!("({s}, {h})")),
        ));
    }
    out
}

/// The F²Tree node deficit relative to fat tree at `n`, from their Table I
/// rows (the paper's "~2% at 128 ports" observation).
pub fn f2tree_node_deficit(n: u32) -> f64 {
    let nodes = |solution| closed_form(solution, n).nodes.unwrap_or(f64::NAN);
    1.0 - nodes(Solution::F2Tree) / nodes(Solution::FatTree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_matches_closed_forms() {
        for n in [4u32, 8, 16] {
            let rows = run_table1(n);
            for row in rows {
                if let Some((sw, hosts)) = row.verified {
                    assert_eq!(
                        sw as f64,
                        row.switches.unwrap(),
                        "{}: switches",
                        row.solution
                    );
                    assert_eq!(hosts as f64, row.nodes.unwrap(), "{}: hosts", row.solution);
                }
            }
        }
    }

    #[test]
    fn large_n_rows_skip_construction() {
        let rows = run_table1(128);
        assert!(rows.iter().all(|r| r.verified.is_none()));
        // But the closed forms are still present.
        assert!(rows
            .iter()
            .any(|r| r.solution == Solution::F2Tree && r.nodes.is_some()));
    }

    #[test]
    fn deficit_at_128_ports_is_about_two_percent() {
        let d = f2tree_node_deficit(128);
        assert!((0.015..0.035).contains(&d), "deficit {d}");
    }

    #[test]
    fn formatted_table_has_all_solutions() {
        let text = format_table1(48, &run_table1(48));
        for s in ["Fat tree", "VL2", "F2Tree", "Aspen tree", "F10", "DDC"] {
            assert!(text.contains(s), "missing {s}");
        }
    }

    #[test]
    fn display_names_match_the_paper() {
        assert_eq!(Solution::F2Tree.to_string(), "F2Tree");
        assert_eq!(Solution::AspenTree { f: 2 }.to_string(), "Aspen tree <2,0>");
    }
}
