//! End-to-end emulator tests: the paper's recovery behaviour, replayed.

use dcn_emu::{DropCounters, EmuConfig, FlowId, Network, DEFAULT_TTL};
use dcn_failure::Condition;
use dcn_metrics::ThroughputSeries;
use dcn_net::{AddressingError, FatTree, LinkClass, LinkId, NodeId, Prefix, Topology};
use dcn_routing::{NextHop, Route, RouteOrigin};
use dcn_sim::{SimDuration, SimTime};
use dcn_transport::TcpConfig;
use f2tree::{Design, F2TreeNetwork, TestBed, TestBedError};

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

const FAIL_AT: u64 = 380;

/// Builds a network with the F²Tree backup configuration installed.
fn f2_network(k: u32, hosts_per_tor: u32) -> Network {
    TestBed::build(Design::F2Tree, k, hosts_per_tor)
        .expect("valid k")
        .net
}

fn fat_network(k: u32, hosts_per_tor: u32) -> Network {
    TestBed::build(Design::FatTree, k, hosts_per_tor)
        .expect("valid k")
        .net
}

/// End hosts for the probe: leftmost and rightmost.
fn probe_endpoints(topo: &Topology) -> (NodeId, NodeId) {
    let hosts = topo.hosts();
    (hosts[0], *hosts.last().expect("hosts exist"))
}

/// The downward agg->ToR link on the probe's current path.
fn downward_path_link(net: &Network, probe: FlowId) -> LinkId {
    let path = net.trace_path(probe);
    let dest_tor = path[path.len() - 2];
    let path_agg = path[path.len() - 3];
    net.topology()
        .link_between(path_agg, dest_tor)
        .expect("path link exists")
}

#[test]
fn fat_tree_udp_loss_matches_the_papers_270ms() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(FAIL_AT), link);
    net.run_until(ms(2000));

    let report = net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(ms(FAIL_AT)).unwrap();
    // 60ms detection + 200ms SPF + 10ms FIB (+ flooding): ~270ms.
    let loss_ms = loss.duration.as_millis();
    assert!(
        (265..=285).contains(&loss_ms),
        "fat tree loss should be ~270ms, got {loss_ms}ms"
    );
}

#[test]
fn f2tree_udp_loss_matches_the_papers_60ms() {
    let mut net = f2_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(FAIL_AT), link);
    net.run_until(ms(2000));

    let report = net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(ms(FAIL_AT)).unwrap();
    // Fast reroute: only the 60ms detection delay.
    let loss_ms = loss.duration.as_millis();
    assert!(
        (58..=65).contains(&loss_ms),
        "F2Tree loss should be ~60ms, got {loss_ms}ms"
    );
    // And zero blackholed packets after detection.
    assert_eq!(net.drops().no_route, 0);
}

#[test]
fn f2tree_reroute_adds_exactly_one_hop_of_delay() {
    let mut net = f2_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(FAIL_AT), link);
    net.run_until(ms(2000));

    let report = net.udp_probe_report(probe);
    // Fig. 5: ~100us baseline, ~117us during fast reroute, back to
    // baseline after control-plane convergence.
    let baseline = report.delay.mean_in(ms(0), ms(FAIL_AT)).unwrap();
    let reroute = report.delay.mean_in(ms(460), ms(640)).unwrap();
    let after = report.delay.mean_in(ms(700), ms(2000)).unwrap();
    assert!((95..=105).contains(&baseline.as_micros()), "{baseline}");
    assert!((112..=125).contains(&reroute.as_micros()), "{reroute}");
    assert!((95..=105).contains(&after.as_micros()), "{after}");
}

/// A probe's send times count from its own start: one that starts 10 ms
/// into a run reads its first datagram as sent at 10 ms, and the same
/// delays as the same probe started at zero — not 10 ms more.
#[test]
fn a_probe_that_starts_late_measures_its_delays_from_its_start() {
    const SPORT: u16 = 40_000;
    let run = |start: SimTime| {
        let mut net = fat_network(4, 1);
        let (src, dst) = probe_endpoints(net.topology());
        let probe = net.add_udp_probe_with_port(src, dst, SPORT, start);
        net.run_until(ms(200));
        let report = net.udp_probe_report(probe);
        let first = report.delay.samples().next().expect("the probe arrived");
        (first.sent_at, report.delay.mean_in(SimTime::ZERO, ms(200)))
    };
    let (first_late, late) = run(ms(10));
    let (first_zero, zero) = run(SimTime::ZERO);
    assert_eq!(first_late, ms(10));
    assert_eq!(first_zero, SimTime::ZERO);
    let late = late.expect("the late probe has delays");
    assert!((95..=105).contains(&late.as_micros()), "{late}");
    assert_eq!(Some(late), zero);
}

#[test]
fn packets_lost_shrink_by_about_three_quarters() {
    let run = |mut net: Network| {
        let (src, dst) = probe_endpoints(net.topology());
        let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
        let link = downward_path_link(&net, probe);
        net.fail_link_at(ms(FAIL_AT), link);
        net.run_until(ms(2000));
        net.udp_probe_report(probe).lost
    };
    let fat_lost = run(fat_network(4, 1));
    let f2_lost = run(f2_network(4, 1));
    let reduction = 1.0 - f2_lost as f64 / fat_lost as f64;
    // Paper Table III: 75% reduction (1302 -> 310).
    assert!(
        (0.70..=0.85).contains(&reduction),
        "lost {fat_lost} -> {f2_lost}: reduction {reduction:.2}"
    );
}

#[test]
fn tcp_collapse_is_rto_bound_in_f2tree_and_double_rto_in_fat_tree() {
    let run = |mut net: Network| {
        let (src, dst) = probe_endpoints(net.topology());
        let probe = net.add_tcp_probe(src, dst, SimTime::ZERO);
        let link = {
            // Trace the TCP flow's own path (its hash may differ from UDP).
            let path = net.trace_path(probe);
            let dest_tor = path[path.len() - 2];
            let path_agg = path[path.len() - 3];
            net.topology().link_between(path_agg, dest_tor).unwrap()
        };
        net.fail_link_at(ms(FAIL_AT), link);
        net.run_until(ms(3000));
        let mut series = ThroughputSeries::new();
        series.extend_from_log(net.tcp_delivery_log(probe));
        series
            .collapse_duration(
                SimTime::ZERO,
                ms(FAIL_AT),
                ms(3000),
                SimDuration::from_millis(20),
            )
            .expect("throughput recovers")
    };
    let f2 = run(f2_network(4, 1)).as_millis();
    let fat = run(fat_network(4, 1)).as_millis();
    // Paper Table III / Fig. 4(c): ~220ms vs ~600-700ms.
    assert!(
        (180..=260).contains(&f2),
        "F2Tree collapse ~220ms, got {f2}ms"
    );
    assert!(
        (560..=720).contains(&fat),
        "fat tree collapse ~600-700ms, got {fat}ms"
    );
    assert!(fat > 2 * f2, "fat tree eats at least one doubled RTO");
}

#[test]
fn fixed_transfer_completes_and_is_delivered() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let flow = net.add_transfer(src, dst, 1_000_000, SimTime::ZERO);
    net.run_until(ms(2000));
    assert!(net.is_delivered(flow));
    let stats = net.tcp_flow_stats(flow).expect("TCP flow");
    assert_eq!(stats.delivered, 1_000_000);
}

#[test]
fn partition_aggregate_request_completes_quickly_when_healthy() {
    let mut net = f2_network(8, 4);
    let hosts = net.topology().hosts().to_vec();
    let workers: Vec<NodeId> = hosts[1..9].to_vec();
    net.add_request(ms(10), hosts[0], &workers, 100, 2048);
    net.run_until(ms(1000));
    let stats = net.request_completions();
    assert_eq!(stats.total(), 1);
    assert_eq!(stats.unfinished(), 0);
    let completion = stats.quantile(0.5).unwrap();
    assert!(
        completion.as_millis() < 5,
        "healthy request should finish in a few ms, took {completion}"
    );
    assert_eq!(
        stats.deadline_miss_ratio(SimDuration::from_millis(250)),
        0.0
    );
}

#[test]
fn identical_seeds_replay_identical_traces() {
    let run = || {
        let mut net = f2_network(8, 4);
        let hosts = net.topology().hosts().to_vec();
        let probe = net.add_udp_probe(hosts[0], *hosts.last().unwrap(), SimTime::ZERO);
        let flow = net.add_transfer(hosts[1], hosts[20], 500_000, ms(5));
        let link = downward_path_link(&net, probe);
        net.fail_link_at(ms(100), link);
        net.run_until(ms(600));
        (
            net.events_processed(),
            net.udp_probe_report(probe).received,
            net.udp_probe_report(probe).lost,
            net.is_delivered(flow),
            net.drops(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn k8_f2tree_also_fast_reroutes() {
    // The emulation scale of §IV: an 8-port, 3-layer DCN.
    let mut net = f2_network(8, 4);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(FAIL_AT), link);
    net.run_until(ms(1500));
    let report = net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(ms(FAIL_AT)).unwrap();
    assert!(
        (58..=65).contains(&loss.duration.as_millis()),
        "k=8 F2Tree loss ~60ms, got {}",
        loss.duration
    );
}

#[test]
fn repaired_link_returns_to_service_after_reconvergence() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(100), link);
    // Repair at 1.5s; OSPF reconverges and may use the link again.
    net.apply_failures({
        let mut s = dcn_failure::FailureSchedule::new();
        s.repair(ms(1500), link);
        s
    });
    net.run_until(ms(4000));
    let report = net.udp_probe_report(probe);
    // Traffic flows at the end (no terminal blackhole).
    let tail = report
        .connectivity
        .arrivals()
        .iter()
        .filter(|&&(t, _)| t > ms(3900))
        .count();
    assert!(tail > 900, "probe is healthy at the end, got {tail}");
}

/// One allocation per LSA, N holders: warm start hands every router the
/// originator's own `Arc`, and a flooded re-origination is installed by
/// handle, never by deep copy.
#[test]
fn every_lsdb_shares_the_originators_lsa_allocation() {
    let mut net = fat_network(4, 1);
    let switches: Vec<NodeId> = net
        .topology()
        .nodes()
        .filter(|n| n.kind().is_switch())
        .map(|n| n.id())
        .collect();
    let assert_shared = |net: &Network, min_seq: u64, origins: &[NodeId], when: &str| {
        for &origin in origins {
            let own = net.router(origin).unwrap().lsdb().get(origin).unwrap();
            assert!(own.seq >= min_seq, "{origin} re-originated {when}");
            for &holder in &switches {
                let held = net.router(holder).unwrap().lsdb().get(origin).unwrap();
                assert!(
                    std::ptr::eq(own, held),
                    "{holder} holds its own copy of {origin}'s LSA {when}"
                );
            }
        }
    };
    assert_shared(&net, 1, &switches, "after warm start");

    // One flap (down at 100 ms, up at 1.5 s) of a fabric link: both ends
    // originate twice, and every router installs what was flooded.
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(100), link);
    net.apply_failures({
        let mut s = dcn_failure::FailureSchedule::new();
        s.repair(ms(1500), link);
        s
    });
    net.run_until(ms(4000));
    let (a, b) = net.topology().link(link).endpoints();
    assert_shared(&net, 3, &[a, b], "after the flap converged");
    assert_shared(&net, 1, &switches, "after the flap converged");
}

#[test]
fn unidirectional_failure_detected_by_both_endpoints() {
    let mut net = f2_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let path = net.trace_path(probe);
    let dest_tor = path[path.len() - 2];
    let path_agg = path[path.len() - 3];
    let link = net.topology().link_between(path_agg, dest_tor).unwrap();
    // Fail only the downward (agg -> ToR) direction.
    net.fail_link_direction_at(ms(FAIL_AT), link, path_agg);
    net.run_until(ms(2000));
    let report = net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(ms(FAIL_AT)).unwrap();
    assert!(
        (58..=65).contains(&loss.duration.as_millis()),
        "BFD takes the interface down both ways; F2Tree fast-reroutes: {}",
        loss.duration
    );
}

#[test]
fn centralized_control_plane_converges_after_report_compute_push() {
    use dcn_emu::ControlPlaneMode;
    let config = EmuConfig::builder()
        .control_plane(ControlPlaneMode::Centralized {
            compute_delay: dcn_sim::timers::CONTROLLER_COMPUTE_DELAY,
        })
        .build();
    let topo = FatTree::new(4).unwrap().hosts_per_tor(1).build();
    let mut net = Network::new(topo, config).unwrap();
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(FAIL_AT), link);
    net.run_until(ms(2000));
    let report = net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(ms(FAIL_AT)).unwrap();
    // detect (60) + report (5) + compute (50) + push (5) = 120ms.
    let got = loss.duration.as_millis();
    assert!(
        (118..=126).contains(&got),
        "centralized recovery ~120ms, got {got}ms"
    );
}

#[test]
fn k16_f2tree_scales_and_fast_reroutes() {
    // Table I at N=16: 266 switches, 784 hosts. A short probe run keeps
    // this fast while proving the emulator handles the scale.
    let mut net = f2_network(16, 1);
    assert_eq!(net.topology().switch_count(), 266);
    assert_eq!(net.topology().host_count(), 98);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let link = downward_path_link(&net, probe);
    net.fail_link_at(ms(100), link);
    net.run_until(ms(400));
    let report = net.udp_probe_report(probe);
    let loss = report.connectivity.loss_around(ms(100)).unwrap();
    assert!(
        (58..=65).contains(&loss.duration.as_millis()),
        "k=16 fast reroute: {}",
        loss.duration
    );
}

#[test]
fn congestion_fills_queues_and_tail_drops_without_breaking_tcp() {
    // Eight senders blast one receiver through its single access link:
    // classic incast. Queues overflow, TCP retransmits, and every byte
    // still lands exactly once.
    let mut net = f2_network(8, 4);
    let hosts = net.topology().hosts().to_vec();
    let sink = *hosts.last().unwrap();
    let flows: Vec<_> = (0..8)
        .map(|i| net.add_transfer(hosts[i], sink, 2_000_000, SimTime::ZERO))
        .collect();
    net.run_until(ms(5000));
    assert!(
        net.drops().queue_full > 0,
        "incast must overflow the access-link queue: {:?}",
        net.drops()
    );
    for flow in flows {
        assert!(net.is_delivered(flow), "flow {flow:?} completes");
        let stats = net.tcp_flow_stats(flow).expect("TCP flow");
        assert_eq!(stats.delivered, 2_000_000);
    }
    // The sink's access link carried the aggregate.
    let access = net
        .topology()
        .neighbors(sink)
        .next()
        .map(|(l, _)| l)
        .unwrap();
    assert!(net.link_state(access).transmitted() > 10_000);
}

#[test]
fn flapping_link_grows_the_spf_backoff_but_never_wedges_the_network() {
    // A link flapping every 300ms keeps re-triggering the control plane;
    // the throttle's exponential backoff absorbs the churn and traffic on
    // unaffected paths keeps flowing the whole time.
    let mut net = fat_network(8, 4);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let victim = downward_path_link(&net, probe);
    let mut schedule = dcn_failure::FailureSchedule::new();
    for i in 0..8u64 {
        schedule.fail(ms(200 + i * 600), victim);
        schedule.repair(ms(500 + i * 600), victim);
    }
    net.apply_failures(schedule);
    net.run_until(ms(8000));

    // The detecting switch's throttle backed off beyond the initial
    // 200ms hold under the churn.
    let (a, b) = net.topology().link(victim).endpoints();
    let detecting = if net.topology().node(a).kind().is_switch() {
        a
    } else {
        b
    };
    let hold = net.router(detecting).unwrap().throttle().hold();
    assert!(
        hold > SimDuration::from_millis(200),
        "backoff grew under flapping, hold = {hold}"
    );
    // And the probe is healthy at the end (the link is up after flap 8).
    let report = net.udp_probe_report(probe);
    let tail = report
        .connectivity
        .arrivals()
        .iter()
        .filter(|&&(t, _)| t > ms(7800))
        .count();
    assert!(tail > 1800, "probe flows at the end: {tail}");
}

#[test]
fn transfer_fcts_are_recorded() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let flow = net.add_transfer(src, dst, 500_000, ms(10));
    net.run_until(ms(2000));
    let fct = net.flow_completion_time(flow).expect("finished");
    // 500KB at ~1Gbps with slow start: a handful of milliseconds.
    assert!(fct.as_millis() < 50, "fct {fct}");
    assert_eq!(net.transfer_fcts().len(), 1);
    assert_eq!(net.unfinished_transfers(), 0);
}

// ----------------------------------------------------------------------
// Retransmission timers: one live queue entry per flow
// ----------------------------------------------------------------------

/// A paced probe re-arms its RTO on every new ACK (10 000 times a second
/// against a 200 ms timer). Queueing each arming kept ~2 000 stale entries
/// under every push and pop; one live entry per flow keeps the queue at
/// the packets actually in flight.
#[test]
fn healthy_paced_tcp_probe_keeps_the_event_queue_shallow() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_tcp_probe(src, dst, SimTime::ZERO);
    net.run_until(ms(500));
    let stats = net.tcp_flow_stats(probe).expect("TCP flow");
    assert!(stats.acked > 4_000 * 1448, "the probe ran: {stats:?}");
    assert_eq!(stats.retransmits, 0);
    assert!(
        net.peak_queue_depth() < 64,
        "peak queue depth {}",
        net.peak_queue_depth()
    );
}

/// Steps the network until `observe` changes from its current value and
/// returns the instant it did.
fn run_until_change<T: PartialEq>(net: &mut Network, observe: impl Fn(&Network) -> T) -> SimTime {
    let before = observe(net);
    loop {
        let now = net.step(ms(60_000)).expect("the observed value changes");
        if observe(net) != before {
            return now;
        }
    }
}

/// The shrink case: the RTO backs off during an outage, so the flow's one
/// queued entry sits seconds away; the path heals, a single ACK resets
/// the RTO to base, and the path dies again. The base-RTO deadline is
/// *earlier* than the queued entry and must fire on its own, not wait for
/// the stale later one.
#[test]
fn rto_reset_to_base_fires_before_the_backed_off_entry_still_queued() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_tcp_probe(src, dst, SimTime::ZERO);
    let (access, _) = net.topology().neighbors(src).next().expect("host uplink");
    let retransmits = |n: &Network| n.tcp_flow_stats(probe).expect("TCP flow").retransmits;
    let acked = |n: &Network| n.tcp_flow_stats(probe).expect("TCP flow").acked;

    // Outage from 100 ms: RTOs fire at ~300, ~700 and ~1500 ms, doubling.
    // Healed (and re-detected) well before the third, which gets through.
    net.fail_link_at(ms(100), access);
    net.apply_failures({
        let mut s = dcn_failure::FailureSchedule::new();
        s.repair(ms(1000), access);
        s
    });
    net.run_until(ms(1400));
    assert_eq!(retransmits(&net), 2, "two RTOs fired into the outage");
    let third = run_until_change(&mut net, retransmits);
    assert!(
        (ms(1450)..ms(1550)).contains(&third),
        "third RTO at {third}"
    );
    // Backed off to 1.6 s: the re-armed entry sits past 3 s.

    // Its ACK resets the RTO to base; kill the path again at once, so no
    // further ACK moves the deadline.
    let ack_at = run_until_change(&mut net, acked);
    assert!(
        ack_at < third + SimDuration::from_millis(1),
        "ACK at {ack_at}"
    );
    net.fail_link_at(ack_at + SimDuration::from_micros(10), access);
    let fourth = run_until_change(&mut net, retransmits);
    assert_eq!(
        fourth,
        ack_at + TcpConfig::default().min_rto,
        "retransmits one base RTO after the ACK, not at the backed-off entry"
    );
}

/// A finished transfer leaves no timer behind that does anything: past
/// its last deadline nothing more is sent and nothing was retransmitted.
#[test]
fn completed_transfer_leaves_no_live_timer_behind() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let flow = net.add_transfer(src, dst, 1_000_000, SimTime::ZERO);
    net.run_until(ms(100));
    let stats = net.tcp_flow_stats(flow).expect("TCP flow");
    assert!(stats.complete && net.is_delivered(flow), "{stats:?}");
    let sent = net.total_transmitted();
    let delivered = net.delivered_packets();
    // Base RTO is 200 ms: by 2 s every deadline the transfer ever armed
    // has passed.
    net.run_until(ms(2000));
    assert_eq!(net.total_transmitted(), sent, "no packet after completion");
    assert_eq!(net.delivered_packets(), delivered);
    let stats = net.tcp_flow_stats(flow).expect("TCP flow");
    assert_eq!(stats.retransmits, 0);
    assert_eq!(stats.acked, 1_000_000);
}

/// The packet arena's ownership rule, end to end: whatever way a packet
/// dies — delivered, looped to TTL death (C7), sent into a dead link,
/// tail-dropped, unroutable, or an LSA consumed by its router — its slot
/// is released there, so a drained network holds no packet, and the arena
/// never outgrew the event queue that names its slots.
#[test]
fn no_packet_outlives_its_last_event() {
    let mut bed = TestBed::build(Design::F2Tree, 8, 4).expect("valid k");
    let hosts = bed.topology().hosts().to_vec();

    // A long transfer across the C7 links: its segments run into the dead
    // links until detection, then ping-pong to TTL death until the control
    // plane (LSA floods) converges, then finish.
    let (src, dst) = bed.probe_endpoints().expect("the bed has hosts");
    let long = bed.net.add_transfer(src, dst, 20_000_000, SimTime::ZERO);
    let anatomy = bed.path_anatomy(long);
    for link in bed.scenario_links(&anatomy, Condition::C7) {
        bed.net.fail_link_at(ms(100), link);
    }
    // Incast: eight senders overflow the sink's access-link queue.
    let sink = hosts[64];
    for &sender in &hosts[8..16] {
        bed.net.add_transfer(sender, sink, 500_000, SimTime::ZERO);
    }
    // A sender whose ToR loses every uplink: no route once that is detected.
    let stranded = hosts[32];
    let topo = bed.topology();
    let (_, tor) = topo.neighbors(stranded).next().expect("host uplink");
    let uplinks: Vec<LinkId> = topo
        .neighbors(tor)
        .filter(|&(_, n)| topo.node(n).kind().is_switch())
        .map(|(link, _)| link)
        .collect();
    let (_, far_tor) = topo.neighbors(sink).next().expect("host uplink");
    let net = &mut bed.net;
    let cut_off = net.add_transfer(stranded, sink, 20_000_000, SimTime::ZERO);
    for link in uplinks {
        net.fail_link_at(ms(100), link);
    }

    net.run_until(ms(5000));
    let drops = net.drops();
    assert!(net.delivered_packets() > 10_000);
    assert!(drops.link_down > 0, "{drops:?}");
    assert!(drops.ttl_expired > 0, "{drops:?}");
    assert!(drops.queue_full > 0, "{drops:?}");
    assert!(drops.no_route > 0, "{drops:?}");
    // The sink's ToR, pods away, holds the re-originated LSA of the agg
    // that lost its links: floods crossed the fabric as packets.
    let far_lsdb = net.router(far_tor).expect("ToR runs a router").lsdb();
    let flooded = far_lsdb.get(anatomy.path_agg);
    assert!(flooded.is_some_and(|lsa| lsa.seq > 1), "{flooded:?}");
    assert!(net.is_delivered(long) && !net.is_delivered(cut_off));

    let (live, slots) = net.packets_in_flight();
    assert_eq!(live, 0, "every packet was released where it died");
    let peak = net.peak_queue_depth();
    assert!((1..=peak).contains(&slots), "{slots} slots, {peak} events");
}

/// `install_static_routes` changes forwarding without advancing
/// `fib_epoch`, so it has to drop the flows' forwarding memos itself: a
/// more specific route installed mid-run, with no other forwarding change
/// anywhere near, moves the very next packet onto its link.
#[test]
fn static_route_installed_mid_run_redirects_the_next_packet() {
    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    net.run_until(ms(10));

    let path = net.trace_path(probe);
    let (tor, agg) = (path[1], path[2]);
    let topo = net.topology();
    let taken = topo.link_between(tor, agg).expect("path link exists");
    let (other, other_agg) = topo
        .neighbors(tor)
        .find(|&(link, n)| topo.node(n).kind().is_switch() && link != taken)
        .expect("a k=4 ToR has two uplinks");
    let host_route = Route::new(
        Prefix::host(topo.node(dst).addr()),
        RouteOrigin::Static,
        0,
        vec![NextHop {
            node: other_agg,
            link: other,
        }],
    );
    let sent = |net: &Network| {
        (
            net.link_state(taken).transmitted(),
            net.link_state(other).transmitted(),
        )
    };
    let (epoch, (on_taken, on_other)) = (net.fib_epoch(), sent(&net));
    assert_eq!(on_other, 0, "the probe is the only traffic");

    net.install_static_routes([(tor, host_route)]);
    net.run_until(ms(11));
    assert_eq!(net.fib_epoch(), epoch, "set-up calls leave the epoch alone");
    assert_eq!(
        sent(&net),
        (on_taken, 10),
        "1 ms of probes, all on the new link"
    );
    assert_eq!(net.trace_path(probe)[2], other_agg);
    assert!(net.udp_probe_report(probe).lost <= 2, "and still delivered");
}

/// A fabric at full rate across an F²Tree recovery: the bulk transfer is
/// back at line rate on the detour when reconvergence moves its path
/// upstream, so for a while its packets stand at the same hop count at
/// different switches (old path and new) under one `fib_epoch`. Each must
/// be forwarded by the switch it is at: every counter reads what it read
/// before flows remembered their paths.
#[test]
fn packets_in_flight_across_an_epoch_keep_their_own_decisions() {
    let mut net = f2_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let bulk = net.add_transfer(src, dst, 100_000_000, SimTime::ZERO);
    for flow in [probe, bulk] {
        let link = downward_path_link(&net, flow);
        net.fail_link_at(ms(100), link);
    }
    net.run_until(ms(700));

    assert_eq!(
        net.drops(),
        DropCounters {
            no_route: 0,
            ttl_expired: 0,
            link_down: 708,
            queue_full: 6747,
        }
    );
    assert_eq!(net.delivered_packets(), 88_414);
    assert_eq!(net.events_processed(), 550_810);
}

/// The C7 cell: backup routes at two aggregation switches point at each
/// other, and packets ping-pong between them to TTL death. Every bounce is
/// one more hop count at one of the same two switches, so a memo grows to
/// the TTL and no further, and exactly as many packets die as before.
#[test]
fn c7_ping_pong_fills_a_memo_to_the_ttl_and_no_further() {
    let mut bed = TestBed::build(Design::F2Tree, 8, 1).expect("valid k");
    let (udp, _tcp) = bed.add_aligned_probes(SimTime::ZERO);
    let anatomy = bed.path_anatomy(udp);
    for link in bed.scenario_links(&anatomy, Condition::C7) {
        bed.net.fail_link_at(ms(100), link);
    }
    let mut longest = 0;
    while bed.net.step(ms(600)).is_some() {
        longest = longest.max(bed.net.path_memos().1);
    }
    assert_eq!(
        longest,
        usize::from(DEFAULT_TTL) - 1,
        "one entry per switch hop"
    );
    assert_eq!(bed.net.drops().ttl_expired, 291);
    assert_eq!(bed.net.events_processed(), 92_700);
}

/// A memo lives from a flow's first switch hop to its sender's completion:
/// after a partition-aggregate run in which every request and response
/// finished, none is left.
#[test]
fn completed_transfer_releases_its_memo() {
    let mut net = fat_network(4, 2);
    let hosts = net.topology().hosts().to_vec();
    for (i, &requester) in hosts.iter().enumerate().take(4) {
        let workers: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != requester).collect();
        net.add_request(ms(i as u64), requester, &workers, 2_000, 10_000);
    }
    net.run_until(ms(1));
    let (live, longest) = net.path_memos();
    assert!(
        live > 0 && (1..=5).contains(&longest),
        "{live} memos, {longest} hops"
    );

    net.run_until(ms(1000));
    assert!(net.request_outcomes().iter().all(Option::is_some));
    // Nothing was dropped, so nothing was retransmitted: a late duplicate
    // crossing the fabric after its flow completed would re-create one.
    assert_eq!(net.drops(), DropCounters::default());
    assert_eq!(net.path_memos(), (0, 0));
}

/// `Network::router` answers `None`, as its signature says, for a host
/// and for a `NodeId` that belongs to some other (larger) topology.
#[test]
fn router_of_a_foreign_node_is_none() {
    let net = fat_network(4, 1);
    let (host, _) = probe_endpoints(net.topology());
    assert!(net.router(host).is_none(), "hosts run no router");
    let foreign = NodeId::new(net.topology().node_slots() as u32 + 7);
    assert!(net.router(foreign).is_none());
}

/// A partition-aggregate flow's record is released once nothing can reach
/// it, while transfers and probes keep theirs: after a drained run the
/// flow table holds only the latter, and every flow id ever issued still
/// counts as a slot.
#[test]
fn a_drained_partition_aggregate_run_keeps_only_transfer_and_probe_records() {
    let mut net = fat_network(4, 2);
    let hosts = net.topology().hosts().to_vec();
    let (src, dst) = probe_endpoints(net.topology());
    let probe = net.add_udp_probe(src, dst, SimTime::ZERO);
    let paced = net.add_tcp_probe(dst, src, SimTime::ZERO);
    let transfer = net.add_transfer(hosts[1], hosts[9], 300_000, ms(2));
    let mut request_flows = 0;
    for (i, &requester) in hosts.iter().enumerate().take(4) {
        let workers: Vec<NodeId> = hosts.iter().copied().filter(|&h| h != requester).collect();
        net.add_request(ms(i as u64), requester, &workers, 2_000, 10_000);
        request_flows += 2 * workers.len();
    }
    assert_eq!(
        net.flow_records(),
        (3 + request_flows / 2, 3 + request_flows / 2)
    );

    // Base RTO is 200 ms: by 2 s every timer entry a request or response
    // ever queued has popped.
    net.run_until(ms(2000));
    assert!(net.request_outcomes().iter().all(Option::is_some));
    assert!(net.is_delivered(transfer));
    assert_eq!(net.flow_records(), (3, 3 + request_flows));
    // The kept records still answer.
    assert!(net.udp_probe_report(probe).received > 0);
    assert!(!net.tcp_delivery_log(paced).is_empty());
    let stats = net.tcp_flow_stats(transfer).expect("TCP flow");
    assert_eq!((stats.acked, stats.complete), (300_000, true));
    assert_eq!(net.trace_path(probe).first(), Some(&src));
}

/// A planned TCP flow holds no sender or receiver yet; until its start it
/// reports exactly what a freshly built pair would.
#[test]
fn a_flow_that_has_not_started_reports_like_a_fresh_pair() {
    use dcn_transport::{TcpApp, TcpReceiver, TcpSender};

    let mut net = fat_network(4, 1);
    let (src, dst) = probe_endpoints(net.topology());
    let paced = net.add_tcp_probe(src, dst, ms(10));
    let transfer = net.add_transfer(dst, src, 50_000, ms(10));
    net.run_until(ms(5));

    let key = net.flow_key_with_port(src, dst, 0, dcn_net::Protocol::Tcp);
    for (flow, app, total_bytes) in [
        (paced, TcpApp::Paced, 0),
        (transfer, TcpApp::FixedSize { bytes: 50_000 }, 50_000),
    ] {
        let sender = TcpSender::new(key, TcpConfig::default(), app);
        let receiver = TcpReceiver::new();
        let stats = net.tcp_flow_stats(flow).expect("TCP flow");
        assert_eq!(stats.total_bytes, total_bytes);
        assert_eq!(
            (
                stats.acked,
                stats.delivered,
                stats.retransmits,
                stats.complete
            ),
            (
                sender.acked(),
                receiver.delivered(),
                sender.retransmits(),
                sender.is_complete()
            )
        );
        assert_eq!(net.flow_completion_time(flow), None);
        assert!(!net.is_delivered(flow));
    }
    assert_eq!(
        net.tcp_delivery_log(paced),
        TcpReceiver::new().delivery_log()
    );

    net.run_until(ms(100));
    assert!(!net.tcp_delivery_log(paced).is_empty(), "started at 10 ms");
    assert!(net.is_delivered(transfer));
}

/// A request's data meets a link failure, and after the rerouted
/// retransmissions one stale segment reaches the worker once the request
/// is complete (at 602.079 ms, 72 µs after full delivery). It is still
/// ACKed: every counter equals the emulator's before records were
/// released (2 841 events, 394 deliveries, 2 702 transmissions). No record
/// goes before the duplicate lands, and none while a packet is in flight.
/// (The request's timer entry is also still queued then; the network
/// unit tests cover a duplicate alone keeping a record.)
#[test]
fn a_request_record_outlives_its_late_duplicate() {
    let mut net = fat_network(4, 1);
    let hosts = net.topology().hosts().to_vec();
    net.add_request(SimTime::ZERO, hosts[0], &[hosts[7]], 200_000, 20_000);
    net.fail_link_at(ms(1), LinkId::new(17));
    let mut records = vec![net.flow_records()];
    while let Some(at) = net.step(ms(3000)) {
        let now = net.flow_records();
        if records.last() != Some(&now) {
            if records.last().is_some_and(|&(live, _)| now.0 < live) {
                assert_eq!(net.packets_in_flight().0, 0, "released with a packet alive");
                assert!(
                    at.since(SimTime::ZERO).as_micros() > 602_079,
                    "released at {at}"
                );
            }
            records.push(now);
        }
    }
    assert_eq!(records, [(1, 1), (2, 2), (1, 2), (0, 2)]);
    let done = net.request_outcomes()[0].map(|at| at.since(SimTime::ZERO).as_micros());
    assert_eq!(done, Some(602_278));
    assert_eq!(
        (
            net.events_processed(),
            net.delivered_packets(),
            net.total_transmitted()
        ),
        (2_841, 394, 2_702)
    );
    let drops = DropCounters {
        no_route: 1,
        link_down: 83,
        ..DropCounters::default()
    };
    assert_eq!(net.drops(), drops);
}

/// A host that does not hang off exactly one ToR is a typed addressing
/// error from `Network::new` and `TestBed::from_f2tree`, never a panic:
/// a host that lost its only link, a host linked to another host, and a
/// host added but never linked.
#[test]
fn a_host_off_every_rack_is_an_error_not_a_panic() {
    let orphan = |mut topo: Topology| {
        let host = topo.hosts()[0];
        let (uplink, _) = topo.neighbors(host).next().expect("a host link");
        topo.remove_link(uplink).expect("a live link");
        (topo, host)
    };
    let fat_tree = || FatTree::new(4).expect("k = 4 builds").build();
    let mut chained = fat_tree();
    let (first, extra) = (chained.hosts()[0], chained.add_host("extra"));
    chained
        .add_link(first, extra, LinkClass::HostAccess)
        .expect("both live");
    let mut unlinked = fat_tree();
    let lone = unlinked.add_host("lone");
    // The first host now has two links, so it is the one reported.
    for (topo, host) in [orphan(fat_tree()), (chained, first), (unlinked, lone)] {
        let err = Network::new(topo, EmuConfig::default()).err();
        assert_eq!(err, Some(AddressingError::HostOffRack(host)));
    }

    let mut f2 = F2TreeNetwork::build_with_hosts(4, 1).expect("k = 4 builds");
    let (topo, host) = orphan(f2.topology);
    f2.topology = topo;
    let err = TestBed::from_f2tree(f2, EmuConfig::default()).err();
    let expected = TestBedError::Addressing(AddressingError::HostOffRack(host));
    assert_eq!(err, Some(expected));
}

/// The centralized control plane's counters, pinned: C1 failed at 100 ms
/// and repaired at 600 ms under a 50 ms controller at k = 8, so two
/// controller recomputes land and every switch takes two pushes.
#[test]
fn centralized_control_plane_counters_are_pinned() {
    use dcn_emu::ControlPlaneMode;
    for (design, events, epochs, delivered, drops) in [
        (
            Design::FatTree,
            378_997,
            166,
            55_661,
            DropCounters {
                no_route: 600,
                link_down: 610,
                ..DropCounters::default()
            },
        ),
        (
            Design::F2Tree,
            380_748,
            114,
            56_262,
            DropCounters {
                link_down: 610,
                ..DropCounters::default()
            },
        ),
    ] {
        let config = EmuConfig::builder()
            .control_plane(ControlPlaneMode::Centralized {
                compute_delay: dcn_sim::timers::CONTROLLER_COMPUTE_DELAY,
            })
            .build();
        let mut bed = TestBed::build_with_config(design, 8, 4, config).expect("valid k");
        let (udp, _tcp) = bed.add_aligned_probes(SimTime::ZERO);
        let anatomy = bed.path_anatomy(udp);
        let mut schedule = dcn_failure::FailureSchedule::new();
        for link in bed.scenario_links(&anatomy, Condition::C1) {
            bed.net.fail_link_at(ms(100), link);
            schedule.repair(ms(600), link);
        }
        bed.net.apply_failures(schedule);
        bed.net.run_until(ms(2000));
        assert_eq!(bed.net.events_processed(), events, "{design}");
        assert_eq!(bed.net.fib_epoch(), epochs, "{design}");
        assert_eq!(bed.net.delivered_packets(), delivered, "{design}");
        assert_eq!(bed.net.drops(), drops, "{design}");
    }
}

/// Precomputed fast reroute is a data-plane property: under a 200 ms
/// controller the C2 repair still lands one FIB update after detection,
/// so the probe loses exactly what it loses under distributed OSPF.
#[test]
fn precomputed_frr_repairs_as_fast_under_a_central_controller() {
    use dcn_emu::ControlPlaneMode;
    use dcn_routing::RecoveryMode;
    let c2_loss = |control_plane| {
        let config = EmuConfig::builder()
            .recovery(RecoveryMode::PrecomputedFrr)
            .control_plane(control_plane)
            .build();
        let mut bed = TestBed::build_with_config(Design::F2Tree, 8, 4, config).expect("valid k");
        let (udp, _tcp) = bed.add_aligned_probes(SimTime::ZERO);
        let anatomy = bed.path_anatomy(udp);
        for link in bed.scenario_links(&anatomy, Condition::C2) {
            bed.net.fail_link_at(ms(100), link);
        }
        bed.net.run_until(ms(1000));
        let report = bed.net.udp_probe_report(udp);
        report.connectivity.loss_around(ms(100)).unwrap().duration
    };
    let distributed = c2_loss(ControlPlaneMode::Distributed);
    let centralized = c2_loss(ControlPlaneMode::Centralized {
        compute_delay: SimDuration::from_millis(200),
    });
    assert_eq!(distributed.as_micros(), 70_116);
    assert_eq!(centralized, distributed);
}
