//! Quagga-style switch configuration rendering.
//!
//! The paper's deployability claim is that F²Tree needs *only*
//! configuration changes — concretely, two `ip route` lines per
//! aggregation/core switch in Quagga (§III: "We have configured backup
//! routes in Quagga for each aggregation and core switch"). This module
//! renders exactly that artifact: a per-switch `zebra`/`ospfd`-style
//! config block an operator could diff against a production device.

use std::fmt::Write as _;

use dcn_net::{AddressPlan, Layer, NodeId, Topology};

use crate::config::SwitchBackup;

/// Renders the full configuration for one switch: hostname, the single
/// bundled layer-3 interface, the OSPF stanza (ToRs redistribute their
/// rack subnet), and — for ring members — the two static backup routes.
///
/// # Panics
///
/// Panics if `node` is not a live switch in `topo`.
pub fn switch_config(
    topo: &Topology,
    plan: &AddressPlan,
    node: NodeId,
    backups: Option<&SwitchBackup>,
) -> String {
    let entry = topo.node(node);
    assert!(
        entry.kind().is_switch() && !entry.is_removed(),
        "{node} is not a live switch"
    );
    let mut out = String::new();
    let _ = writeln!(out, "hostname {}", entry.name());
    let _ = writeln!(out, "!");
    // Production convention (paper §II-B): all ports bundled into one
    // layer-3 interface with a single address.
    let _ = writeln!(out, "interface bundle0");
    let _ = writeln!(out, " ip address {}/32", entry.addr());
    let _ = writeln!(out, "!");
    let _ = writeln!(out, "router ospf");
    let _ = writeln!(out, " network {}/32 area 0", entry.addr());
    if entry.layer() == Some(Layer::Tor) {
        if let Some(subnet) = plan.subnet_of(node) {
            let _ = writeln!(out, " redistribute connected");
            let _ = writeln!(out, " network {subnet} area 0");
        }
    }
    let _ = writeln!(out, "!");
    if let Some((owner, routes)) = backups {
        assert_eq!(*owner, node, "backup block belongs to another switch");
        let _ = writeln!(out, "! F2Tree backup routes (Table II rows 3-4):");
        for route in routes {
            let next_hop_addr = topo.node(route.next_hops[0].node).addr();
            let _ = writeln!(out, "ip route {} {}", route.prefix, next_hop_addr);
        }
        let _ = writeln!(out, "!");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::network_backup_routes;
    use crate::rewire::F2TreeNetwork;
    use dcn_net::assign_addresses;

    fn addressed() -> (dcn_net::Topology, AddressPlan, Vec<SwitchBackup>) {
        let net = F2TreeNetwork::build(6).unwrap();
        let backups = network_backup_routes(&net);
        let mut topo = net.topology;
        let plan = assign_addresses(&mut topo).unwrap();
        (topo, plan, backups)
    }

    #[test]
    fn agg_config_contains_exactly_the_two_table2_static_routes() {
        let (topo, plan, backups) = addressed();
        let (agg, _) = backups[0];
        let block = backups.iter().find(|(o, _)| *o == agg);
        let cfg = switch_config(&topo, &plan, agg, block);
        let static_lines: Vec<&str> = cfg.lines().filter(|l| l.starts_with("ip route ")).collect();
        assert_eq!(static_lines.len(), 2, "{cfg}");
        assert!(static_lines[0].starts_with("ip route 10.11.0.0/16 10.12."));
        assert!(static_lines[1].starts_with("ip route 10.10.0.0/15 10.12."));
    }

    #[test]
    fn tor_config_redistributes_its_rack_subnet_and_has_no_backups() {
        let (topo, plan, _) = addressed();
        let tor = topo.layer_switches(Layer::Tor).next().unwrap();
        let cfg = switch_config(&topo, &plan, tor, None);
        assert!(cfg.contains("redistribute connected"));
        assert!(cfg.contains(&format!("network {} area 0", plan.subnet_of(tor).unwrap())));
        assert!(!cfg.contains("ip route "));
    }

    #[test]
    fn switch_config_covers_every_switch() {
        let (topo, plan, backups) = addressed();
        let configs: Vec<String> = topo
            .nodes()
            .filter(|n| n.kind().is_switch())
            .map(|n| {
                let block = backups.iter().find(|(owner, _)| *owner == n.id());
                switch_config(&topo, &plan, n.id(), block)
            })
            .collect();
        assert_eq!(configs.len(), topo.switch_count());
        // Every ring member's block carries backups; ToRs carry none.
        let with_backups = configs.iter().filter(|c| c.contains("ip route ")).count();
        assert_eq!(with_backups, backups.len());
    }

    #[test]
    fn backup_next_hops_are_rendered_as_neighbor_addresses() {
        let (topo, plan, backups) = addressed();
        let (agg, routes) = &backups[0];
        let cfg = switch_config(&topo, &plan, *agg, backups.iter().find(|(o, _)| o == agg));
        for route in routes {
            let neighbor_addr = topo.node(route.next_hops[0].node).addr().to_string();
            assert!(
                cfg.contains(&neighbor_addr),
                "config must name {neighbor_addr}: {cfg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a live switch")]
    fn host_config_is_rejected() {
        let (topo, plan, _) = addressed();
        let host = topo.hosts()[0];
        switch_config(&topo, &plan, host, None);
    }
}
