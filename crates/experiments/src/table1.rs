//! Table I: scalability and deployment comparison.
//!
//! Closed-form rows from `dcn_net::scalability`, cross-checked against
//! topologies actually constructed by the builders at feasible sizes.

use dcn_net::scalability::{table1, F2TreeDimensions, ScalabilityRow, Solution};
use dcn_net::{AspenTree, FatTree};
use f2tree::F2TreeNetwork;
use serde::{Deserialize, Serialize};

/// One Table I row, with optional construction-based verification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1Row {
    /// Solution name (as the paper prints it).
    pub solution: String,
    /// Switches consumed (closed form).
    pub switches: Option<f64>,
    /// Nodes supported (closed form).
    pub nodes: Option<f64>,
    /// Whether the routing protocol must change.
    pub modifies_routing: Option<bool>,
    /// Whether the data plane must change.
    pub modifies_data_plane: Option<bool>,
    /// `(switches, hosts)` actually counted from a built topology, when
    /// feasible.
    pub verified: Option<(u64, u64)>,
}

/// Computes Table I at port count `n`, verifying the fat tree and F²Tree
/// rows by construction when `n` is buildable (≤ 16 here, to keep memory
/// and time trivial).
pub fn run_table1(n: u32) -> Vec<Table1Row> {
    table1(n)
        .into_iter()
        .map(|row: ScalabilityRow| {
            let verified = match row.solution {
                Solution::FatTree if n <= 16 => {
                    let topo = FatTree::new(n).expect("valid n").build();
                    Some((topo.switch_count() as u64, topo.host_count() as u64))
                }
                Solution::F2Tree if n <= 16 => {
                    let net = F2TreeNetwork::build(n).expect("valid n");
                    Some((
                        net.topology.switch_count() as u64,
                        net.topology.host_count() as u64,
                    ))
                }
                Solution::AspenTree { f } if n <= 16 && AspenTree::new(n, f).is_ok() => {
                    let topo = AspenTree::new(n, f).expect("checked").build();
                    Some((topo.switch_count() as u64, topo.host_count() as u64))
                }
                _ => None,
            };
            Table1Row {
                solution: row.solution.to_string(),
                switches: row.switches,
                nodes: row.nodes,
                modifies_routing: row.modifies_routing,
                modifies_data_plane: row.modifies_data_plane,
                verified,
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
        out.push_str(&format!(
            "{:<16} | {:>8} | {:>8} | {:>12} | {:>15} | {}\n",
            r.solution,
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

/// Convenience: the F²Tree node deficit relative to fat tree at `n`
/// (the paper's "~2% at 128 ports" observation).
pub fn f2tree_node_deficit(n: u32) -> f64 {
    let dims = F2TreeDimensions::for_ports(n);
    let fat_nodes = (n as u64).pow(3) / 4;
    1.0 - dims.nodes() as f64 / fat_nodes as f64
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
            .any(|r| r.solution == "F2Tree" && r.nodes.is_some()));
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
}
