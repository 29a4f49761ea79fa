//! Table II: the routing table of an F²Tree aggregation switch.
//!
//! Reproduces the paper's example table — OSPF /24 routes for each rack
//! (downward direct, upward ECMP) plus the two static backup routes with
//! graduated prefix lengths — by dumping the live FIB of a warm-started
//! aggregation switch.

use dcn_sim::SimTime;
use f2tree::{Design, TestBed};

/// One rendered routing-table row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table2Row {
    /// Destination prefix.
    pub destination: String,
    /// Route origin (`ospf`, `static`, `connected`).
    pub origin: String,
    /// Next-hop switch names.
    pub next_hops: Vec<String>,
}

/// Dumps the routing table of the first aggregation ring member of a
/// `k`-port F²Tree (longest prefixes first, as the FIB searches).
pub fn run_table2(k: u32) -> Vec<Table2Row> {
    #[expect(
        clippy::expect_used,
        reason = "run_table2 is called with the paper's k values (6, 8)"
    )]
    let mut bed = TestBed::build(Design::F2Tree, k, 1).expect("valid k");
    // Force a settled clock so the dump is from a converged network.
    bed.net.run_until(SimTime::ZERO);
    let agg = bed.agg_rings[0].members[0];
    let router = bed.net.router(agg).expect("agg switch has a router");
    let topo = bed.topology();
    // The FIB lists its routes in lookup order, which is the table's.
    router
        .fib()
        .routes()
        .map(|route| Table2Row {
            destination: route.prefix.to_string(),
            origin: route.origin.to_string(),
            next_hops: route
                .next_hops
                .iter()
                .map(|h| topo.node(h.node).name().to_string())
                .collect(),
        })
        .collect()
}

/// Renders the table as text.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "Table II: routing table of an F2Tree aggregation switch\n\
         destination       | origin    | next hops\n\
         ------------------+-----------+----------------------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<17} | {:<9} | {}\n",
            r.destination,
            r.origin,
            r.next_hops.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::Layer;
    use dcn_routing::RouteOrigin;

    /// The table holds the OSPF /24 rack routes and exactly the two
    /// static backups, with graduated prefix lengths.
    #[test]
    fn table2_shape_holds_at_k6_and_k8() {
        for k in [6, 8] {
            let mut bed = TestBed::build(Design::F2Tree, k, 1).unwrap();
            bed.net.run_until(SimTime::ZERO);
            let agg = bed.agg_rings[0].members[0];
            let fib = bed.net.router(agg).unwrap().fib();
            let ospf24 = fib
                .routes()
                .filter(|r| r.origin == RouteOrigin::Ospf && r.prefix.len() == 24)
                .count();
            let racks = bed.topology().pods(Layer::Tor).iter().flatten().count();
            let expected_racks = racks - bed.topology().downward_links(agg).len();
            assert!(ospf24 >= expected_racks, "k={k}: {ospf24} OSPF /24 routes");
            let mut lens: Vec<u8> = fib
                .routes()
                .filter(|r| r.origin == RouteOrigin::Static)
                .map(|r| r.prefix.len())
                .collect();
            lens.sort_unstable();
            assert_eq!(lens, [15, 16], "k={k}: static backups");
        }
    }

    #[test]
    fn dump_contains_the_two_backup_rows() {
        let rows = run_table2(6);
        let statics: Vec<&Table2Row> = rows.iter().filter(|r| r.origin == "static").collect();
        assert_eq!(statics.len(), 2);
        assert!(statics.iter().any(|r| r.destination == "10.11.0.0/16"));
        assert!(statics.iter().any(|r| r.destination == "10.10.0.0/15"));
        // Each backup has a single across-neighbor next hop.
        for r in statics {
            assert_eq!(r.next_hops.len(), 1);
            assert!(r.next_hops[0].starts_with("agg-"));
        }
    }

    #[test]
    fn upward_ospf_routes_are_ecmp() {
        let rows = run_table2(8);
        // Remote racks are reached via multiple cores.
        let multi = rows
            .iter()
            .filter(|r| r.origin == "ospf" && r.next_hops.len() > 1)
            .count();
        assert!(multi > 0, "some OSPF routes should be ECMP");
    }

    #[test]
    fn formatted_table_is_longest_prefix_first() {
        let text = format_table2(&run_table2(6));
        let pos24 = text.find("/24").unwrap();
        let pos16 = text.find("10.11.0.0/16").unwrap();
        let pos15 = text.find("10.10.0.0/15").unwrap();
        assert!(pos24 < pos16 && pos16 < pos15);
    }
}
