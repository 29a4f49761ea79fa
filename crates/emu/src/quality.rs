//! Extraction seam between the emulator and the routing-quality
//! metrics: snapshots the installed FIBs into a [`QualityInput`].
//!
//! The demand model is uniform all-pairs: every ordered host pair
//! exchanges `1/(H-1)` units, so each host's access link carries
//! exactly 1.0 per direction and fabric-link loads read directly as
//! oversubscription multiples of an access link. Host access links and
//! intra-rack pairs therefore never enter the propagation — the DAGs
//! are switch-level, injected at source ToRs and terminated at the
//! destination ToR.
//!
//! Directed-edge indexing is `link.index() * 2 + dir` with `dir` 0 for
//! the `a() -> b()` direction, so edge liveness can consult the
//! emulator's per-direction physical state (a FIB may still list a hop
//! over a physically dead, not-yet-detected link — the metrics charge
//! that share as undeliverable, mirroring real packet loss).

use dcn_metrics::quality::QualityInput;
use dcn_net::{Layer, LinkClass, NodeId};
use dcn_routing::NextHop;
use dcn_sim::Direction;

use crate::network::Network;

impl Network {
    /// Snapshots the installed forwarding state for routing-quality
    /// scoring. Pure read: safe to call at any FIB-epoch boundary.
    pub fn quality_input(&self) -> QualityInput {
        let topo = self.topology();
        let nodes = topo.node_slots();
        let edges = topo.link_slots() * 2;

        // Per-direction physical liveness and head; fabric capacity is
        // both directions of vertical and across links.
        let mut edge_alive = vec![false; edges];
        let mut edge_head = vec![0; edges];
        let mut fabric_edges: Vec<usize> = Vec::new();
        for link in topo.links() {
            let e = link.id().index() * 2;
            let state = self.link_state(link.id());
            if let (Some(alive), Some(head)) =
                (edge_alive.get_mut(e..e + 2), edge_head.get_mut(e..e + 2))
            {
                alive.copy_from_slice(
                    &[Direction::AToB, Direction::BToA].map(|d| state.is_dir_up(d)),
                );
                head.copy_from_slice(&[link.b().as_u32(), link.a().as_u32()]);
            }
            if matches!(link.class(), LinkClass::Vertical | LinkClass::Across) {
                fabric_edges.extend([e, e + 1]);
            }
        }

        // Rack census: hosts per ToR, in ToR-index order.
        let mut tors = Vec::with_capacity(topo.hosts().len());
        tors.extend(topo.hosts().iter().filter_map(|&h| topo.host_tor(h)));
        tors.sort_unstable();
        let racks: Vec<(NodeId, u32)> = tors
            .chunk_by(|a, b| a == b)
            .filter_map(|rack| Some((*rack.first()?, rack.len() as u32)))
            .collect();
        let total_hosts: u32 = racks.iter().map(|&(_, hosts)| hosts).sum();

        // Unit demand per ordered host pair (read only when there is one).
        let unit = 1.0 / (total_hosts.max(2) - 1) as f64;

        let mut input = QualityInput {
            nodes,
            edges,
            edge_alive,
            edge_head,
            fabric_edges,
            pod_pairs: Vec::new(),
            dags: Vec::with_capacity(racks.len()),
            hops: Vec::new(),
        };
        let mut dag_of: Vec<Option<usize>> = vec![None; nodes];
        for &(dst_tor, dst_hosts) in &racks {
            // Any in-rack host address selects the rack-subnet route;
            // the first host is .2 (the ToR itself holds .1).
            let Some(subnet) = self.plan().subnet_of(dst_tor) else {
                continue;
            };
            let dst_addr = subnet.nth(2);

            let mut inject = Vec::with_capacity(racks.len() - 1);
            for &(src, src_hosts) in racks.iter().filter(|&&(src, _)| src != dst_tor) {
                let demand = f64::from(src_hosts) * f64::from(dst_hosts) * unit;
                inject.push((src.index(), demand));
            }
            // Every switch (every node running a router) has a row;
            // hops toward hosts are not fabric.
            let rows = topo.nodes().filter_map(|node| {
                let sw = node.id();
                let hops = self.router(sw)?.live_hops(dst_addr);
                let hops = hops.filter(|h| topo.node(h.node).kind().is_switch());
                let dir = move |h: &NextHop| usize::from(topo.link(h.link).a() != sw);
                Some((
                    sw.index(),
                    hops.map(move |h| (h.link.index() * 2 + dir(&h)) as u32),
                ))
            });

            if let Some(slot) = dag_of.get_mut(dst_tor.index()) {
                *slot = Some(input.dags.len());
            }
            input.push_dag(dst_tor.index(), inject, rows);
        }
        let dag_of = |tor: NodeId| dag_of.get(tor.index()).copied().flatten();

        // Pod pairs for diversity: one representative ToR per pod (the
        // first with a DAG); with fewer than two pods, fall back to all
        // ordered DAG-ToR pairs so single-pod fabrics still score.
        let mut reps: Vec<NodeId> = topo
            .pods(Layer::Tor)
            .iter()
            .filter_map(|pod| pod.iter().copied().find(|&t| dag_of(t).is_some()))
            .collect();
        if reps.len() < 2 {
            reps = racks
                .iter()
                .map(|&(tor, _)| tor)
                .filter(|&t| dag_of(t).is_some())
                .collect();
        }
        for &src in &reps {
            for &dst in reps.iter().filter(|&&dst| dst != src) {
                if let Some(dag) = dag_of(dst) {
                    input.pod_pairs.push((src.index(), dst.index(), dag));
                }
            }
        }
        input
    }
}
