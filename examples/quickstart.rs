//! Quickstart: build an F²Tree, fail a downward link, watch fast reroute.
//!
//! Run with `cargo run --example quickstart`.

use dcn_emu::EmuConfig;
use dcn_sim::{SimDuration, SimTime};
use f2tree::{network_backup_routes, F2TreeNetwork, TestBed};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the paper's testbed: a rewired 4-port, 3-layer fat tree
    //    (Fig. 1(b)) with one host per rack.
    let f2 = F2TreeNetwork::build_with_hosts(4, 1)?;
    println!(
        "built {}: {} switches, {} hosts, {} across links",
        f2.topology.name(),
        f2.topology.switch_count(),
        f2.topology.host_count(),
        f2.across_links().len(),
    );

    // 2. Generate the Table II backup configuration: two static routes per
    //    aggregation and core switch.
    let backups = network_backup_routes(&f2);
    println!("generated {} backup-route pairs", backups.len());

    // 3. Bring the network up in the packet-level emulator, which installs
    //    those routes.
    let mut bed = TestBed::from_f2tree(f2, EmuConfig::default())?;
    let net = &mut bed.net;

    // 4. Start the paper's probe: 1448B UDP datagrams every 100us from the
    //    leftmost host to the rightmost host.
    let hosts = net.topology().hosts().to_vec();
    let (src, dst) = (hosts[0], *hosts.last().unwrap());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);

    // 5. At t=380ms, tear down the downward ToR-agg link on the probe's
    //    path — the failure the paper's Fig. 2 injects.
    let mut hops = Vec::new();
    net.walk_flow(probe, &mut hops);
    let names: Vec<&str> = hops
        .iter()
        .map(|hop| hop.node)
        .chain([dst])
        .map(|n| net.topology().node(n).name())
        .collect();
    println!("probe path: {}", names.join(" -> "));
    let &[.., down, _access] = hops.as_slice() else {
        panic!("the probe crosses the fabric");
    };
    let fail_at = SimTime::ZERO + SimDuration::from_millis(380);
    net.fail_link_at(fail_at, down.link);

    // 6. Run for two simulated seconds and report.
    net.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    let report = net.udp_probe_report(probe);
    let loss = report
        .connectivity
        .loss_around(fail_at)
        .expect("probe recovers");
    println!(
        "connectivity loss: {} ({} packets lost of {})",
        loss.duration, report.lost, report.sent
    );
    println!(
        "fast-reroute delay: {} (baseline {})",
        report
            .delay
            .mean_in(
                fail_at + SimDuration::from_millis(80),
                fail_at + SimDuration::from_millis(200)
            )
            .expect("rerouted traffic flows"),
        report
            .delay
            .mean_in(SimTime::ZERO, fail_at)
            .expect("baseline traffic flows"),
    );
    println!("events processed: {}", net.events_processed());

    // 7. The deployability artifact: the exact Quagga config block an
    //    operator would paste onto the rerouting switch.
    let agg = down.node;
    let block = backups.iter().find(|&&(owner, _)| owner == agg);
    println!(
        "\n--- {} configuration ---",
        net.topology().node(agg).name()
    );
    print!(
        "{}",
        f2tree::quagga::switch_config(net.topology(), net.plan(), agg, block)
    );
    Ok(())
}
