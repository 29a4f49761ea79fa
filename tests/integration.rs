//! Cross-crate integration: topology → rewiring → configuration →
//! emulation, verified end to end.

use dcn_emu::{EmuConfig, Network};
use dcn_net::{scalability::F2TreeDimensions, FatTree, Layer, LinkClass};
use dcn_routing::RouteOrigin;
use dcn_sim::{SimDuration, SimTime};
use f2tree::{
    layer_backup_summary, network_backup_routes, rewire_fat_tree, Design, F2TreeNetwork, TestBed,
};

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

#[test]
fn the_full_pipeline_from_fat_tree_to_running_f2tree() {
    // 1. A standard fat tree from the net crate...
    let fat = FatTree::new(8).unwrap().build();
    assert_eq!(fat.switch_count(), 80);

    // 2. ...rewired by the core crate into an F2Tree matching Table I...
    let f2 = rewire_fat_tree(fat, 2).unwrap();
    let dims = F2TreeDimensions::for_ports(8);
    assert_eq!(f2.topology.switch_count() as u64, dims.switches());
    assert_eq!(f2.topology.host_count() as u64, dims.nodes());

    // 3. ...configured with Table II backup routes...
    let backups = network_backup_routes(&f2);
    assert_eq!(
        backups.len(),
        f2.agg_rings.iter().map(|r| r.len()).sum::<usize>()
            + f2.core_rings.iter().map(|r| r.len()).sum::<usize>()
    );

    // 4. ...and brought up in the emulator with working forwarding.
    let mut net = Network::new(f2.topology, EmuConfig::default()).unwrap();
    net.install_static_routes(
        backups
            .into_iter()
            .flat_map(|(n, rs)| rs.into_iter().map(move |r| (n, r))),
    );
    let hosts = net.topology().hosts().to_vec();
    let probe = net.add_udp_probe(hosts[0], *hosts.last().unwrap(), SimTime::ZERO);
    net.run_until(ms(100));
    let report = net.udp_probe_report(probe);
    assert!(report.lost <= 2, "healthy network loses nothing");
}

#[test]
fn across_links_are_invisible_until_failure() {
    // Baseline routing must be identical to an un-rewired fabric: the
    // probe's path never uses across links while healthy (§II-D).
    let mut bed = TestBed::build(Design::F2Tree, 8, 4).expect("valid k");
    let (src, dst) = bed.probe_endpoints();
    let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
    let path = bed.net.trace_path(probe);
    assert_eq!(path.len(), 7, "host-tor-agg-core-agg-tor-host");
    for pair in path.windows(2) {
        let link = bed.net.topology().link_between(pair[0], pair[1]).unwrap();
        assert_ne!(
            bed.net.topology().link(link).class(),
            LinkClass::Across,
            "healthy path must avoid across links"
        );
    }
}

#[test]
fn backup_routes_sit_in_every_ring_members_fib() {
    let bed = TestBed::build(Design::F2Tree, 8, 4).expect("valid k");
    for ring in bed.agg_rings.iter().chain(bed.core_rings.iter()) {
        for &member in &ring.members {
            let fib = bed.net.router(member).unwrap().fib();
            let statics: Vec<_> = fib
                .routes()
                .into_iter()
                .filter(|r| r.origin == RouteOrigin::Static)
                .collect();
            assert_eq!(statics.len(), 2, "member {member} has both backups");
        }
    }
}

#[test]
fn structural_and_behavioural_backup_counts_agree() {
    // The Sec. II-A structural analysis (2 downward backups) must be
    // realized behaviourally: failing a downward link leaves the network
    // carrying traffic after detection, through an across link.
    let f2 = F2TreeNetwork::build(8).unwrap();
    let summary = layer_backup_summary(&f2.topology, Layer::Agg);
    assert_eq!(summary.downward_min, 2);

    let mut bed = TestBed::build(Design::F2Tree, 8, 4).expect("valid k");
    let (src, dst) = bed.probe_endpoints();
    let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = bed.probe_path_link(probe, Layer::Agg).unwrap();
    bed.net.fail_link_at(ms(100), link);
    bed.net.run_until(ms(200));
    let path = bed.net.trace_path(probe);
    let uses_across = path.windows(2).any(|pair| {
        bed.net
            .topology()
            .link_between(pair[0], pair[1])
            .is_some_and(|l| bed.net.topology().link(l).class() == LinkClass::Across)
    });
    assert!(uses_across, "fast reroute path uses an across link: {path:?}");
}

#[test]
fn fat_tree_and_f2tree_share_baseline_performance() {
    // Without failures, the rewiring must cost nothing observable.
    let run = |design| {
        let mut bed = TestBed::build(design, 8, 4).expect("valid k");
        let (src, dst) = bed.probe_endpoints();
        let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
        bed.net.run_until(ms(200));
        let report = bed.net.udp_probe_report(probe);
        (
            report.lost,
            report.delay.mean_in(ms(0), ms(200)).unwrap().as_micros(),
        )
    };
    let (fat_lost, fat_delay) = run(Design::FatTree);
    let (f2_lost, f2_delay) = run(Design::F2Tree);
    assert!(fat_lost <= 2 && f2_lost <= 2);
    assert!(
        (fat_delay as i64 - f2_delay as i64).abs() <= 2,
        "baseline delay must match: {fat_delay} vs {f2_delay}"
    );
}

#[test]
fn whole_core_switch_failure_recovers_via_ecmp_within_detection_time() {
    // Footnote 1: a switch failure = all its links failing. Killing the
    // core on the path leaves the source-side agg with live ECMP members,
    // so recovery is detection-bounded.
    let mut bed = TestBed::build(Design::F2Tree, 8, 4).expect("valid k");
    let (src, dst) = bed.probe_endpoints();
    let probe = bed.net.add_udp_probe(src, dst, SimTime::ZERO);
    let anatomy = bed.path_anatomy(probe);
    let links: Vec<_> = bed
        .net
        .topology()
        .neighbors(anatomy.path_core)
        .map(|(l, _)| l)
        .collect();
    for link in links {
        bed.net.fail_link_at(ms(100), link);
    }
    bed.net.run_until(ms(2000));
    let report = bed.net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(ms(100)).unwrap();
    assert!(
        loss.duration.as_millis() <= 65,
        "ECMP + detection bounds switch-failure recovery: {}",
        loss.duration
    );
}
