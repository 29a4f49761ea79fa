//! Isolated kernels: one public function of one layer, timed in a loop
//! over state taken from a converged testbed of the workload's own size.
//! They run once, after the traced passes.
//!
//! A kernel bounds what an optimisation of its layer can save: per-hop
//! kernels × `emu.pkt_hops` is the forwarding work of a pass, and
//! `routing.compute_routes_us` × switches × SPF runs is its control-plane
//! work.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use dcn_emu::{EmuConfig, Network};
use dcn_failure::Condition;
use dcn_net::{FatTree, FlowKey, Ipv4Addr, Layer, LinkClass, LinkId, NodeId, Protocol};
use dcn_routing::{compute_routes, ecmp_hash};
use dcn_sim::{Direction, LinkSpec, LinkState, SimDuration, SimTime};
use dcn_sweep::{ExperimentSpec, Workers};
use dcn_transport::{TcpApp, TcpConfig, TcpReceiver, TcpSender, TcpSenderOutput};
use f2tree::{Design, F2TreeNetwork, TestBed};
use f2tree_experiments::conditions::mid_failover_offset;

use crate::procfs::vm_rss_kb;
use crate::stats::fastest;
use crate::workloads::Values;

/// Flow keys per forwarding kernel sweep.
const KEYS: usize = 1024;

/// Fastest wall time of `body` over `reps` repetitions, in ms.
pub fn fastest_ms<R>(reps: usize, mut body: impl FnMut() -> R) -> f64 {
    fastest_ms_prepared(reps, || (), |()| body())
}

/// Like [`fastest_ms`], with an untimed `prepare` step feeding each
/// repetition.
pub fn fastest_ms_prepared<S, R>(
    reps: usize,
    mut prepare: impl FnMut() -> S,
    mut body: impl FnMut(S) -> R,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = prepare();
            let started = Instant::now();
            let out = body(input);
            let elapsed = started.elapsed();
            black_box(out);
            elapsed.as_secs_f64() * 1e3
        })
        .collect();
    fastest(&samples).unwrap_or(0.0)
}

/// ns per call of `body` in the fastest of `rounds` rounds of `calls`
/// calls.
fn ns_per_call(rounds: usize, calls: usize, mut body: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            for i in 0..calls {
                body(i);
            }
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    fastest(&samples).unwrap_or(0.0)
}

/// `KEYS` five-tuples from the first host to every host in turn.
fn flow_keys(bed: &TestBed) -> Vec<FlowKey> {
    let topo = bed.topology();
    let hosts = topo.hosts();
    let src = hosts[0];
    (0..KEYS)
        .map(|i| {
            let dst = hosts[1 + i % (hosts.len() - 1)];
            bed.net
                .flow_key_with_port(src, dst, 40_000 + i as u16, Protocol::Udp)
        })
        .collect()
}

/// ns per `RouterProcess::forward` on switch `node`, over `KEYS` keys.
pub fn forward_ns(bed: &TestBed, node: NodeId) -> f64 {
    let router = bed.net.router(node).expect("kernel node is a switch");
    let keys = flow_keys(bed);
    ns_per_call(21, keys.len() * 16, |i| {
        black_box(router.forward(black_box(&keys[i % keys.len()])));
    })
}

fn build(k: u32, hosts_per_tor: u32) -> TestBed {
    TestBed::build(Design::F2Tree, k, hosts_per_tor).expect("the workload's fabric size builds")
}

/// Every fabric-sized probe and kernel, at the workload's `k`.
pub fn fabric(k: u32, hosts_per_tor: u32, values: &mut Values) {
    // Build-path layers, each on its own: a pass can only time
    // `TestBed::build_with_config` as a whole.
    values.insert(
        "net.topology_build_ms",
        fastest_ms(5, || {
            FatTree::new(k)
                .expect("valid k")
                .hosts_per_tor(hosts_per_tor)
                .build()
        }),
    );
    values.insert(
        "core.rewire_build_ms",
        fastest_ms(5, || {
            F2TreeNetwork::build_with_hosts(k, hosts_per_tor).expect("valid k")
        }),
    );
    values.insert(
        "emu.network_new_ms",
        fastest_ms_prepared(
            5,
            || {
                F2TreeNetwork::build_with_hosts(k, hosts_per_tor)
                    .expect("valid k")
                    .topology
            },
            |topo| Network::new(topo, EmuConfig::default()).expect("addressable"),
        ),
    );

    let bed = build(k, hosts_per_tor);
    let topo = bed.topology();
    let agg = topo
        .layer_switches(Layer::Agg)
        .next()
        .expect("fabric has an aggregation layer");
    let router = bed.net.router(agg).expect("agg runs a router");

    values.insert("routing.forward_ns", forward_ns(&bed, agg));
    let keys = flow_keys(&bed);
    values.insert(
        "routing.ecmp_hash_ns",
        ns_per_call(21, keys.len() * 16, |i| {
            black_box(ecmp_hash(black_box(&keys[i % keys.len()]), 0x5eed));
        }),
    );
    let dsts: Vec<Ipv4Addr> = topo.hosts().iter().map(|&h| topo.node(h).addr()).collect();
    values.insert(
        "routing.live_next_hops_ns",
        ns_per_call(21, dsts.len() * 8, |i| {
            black_box(router.live_next_hops(black_box(dsts[i % dsts.len()])));
        }),
    );
    values.insert(
        "routing.compute_routes_us",
        fastest_ms(15, || compute_routes(router.lsdb(), agg)) * 1e3,
    );
    values.insert("routing.fib_routes", router.fib().len() as f64);
    values.insert("routing.lsdb_lsas", router.lsdb().len() as f64);

    // FRR failure map over the same fabric, fed the way `Network::new`
    // feeds it.
    let passive: BTreeSet<LinkId> = topo
        .links()
        .filter(|l| l.class() == LinkClass::Across)
        .map(|l| l.id())
        .collect();
    let origins: BTreeMap<NodeId, Vec<_>> = topo
        .layer_switches(Layer::Tor)
        .map(|tor| (tor, bed.net.plan().subnet_of(tor).into_iter().collect()))
        .collect();
    values.insert(
        "frr.failure_map_ms",
        fastest_ms(5, || dcn_frr::compute_failure_map(topo, &passive, &origins)),
    );
    let stats = dcn_frr::compute_failure_map(topo, &passive, &origins).stats();
    values.insert(
        "frr.protected_share",
        stats.protected() as f64 / stats.total().max(1) as f64,
    );

    // The same layer in its second use: the agg switch above a failed
    // agg→ToR link, after detection and before reconvergence (non-empty
    // dead set, backup fall-through).
    let mut degraded = build(k, hosts_per_tor);
    let (udp, _tcp) = degraded.add_aligned_probes(SimTime::ZERO);
    let anatomy = degraded.path_anatomy(udp);
    let fail_at = SimTime::ZERO + SimDuration::from_millis(100);
    for link in degraded.scenario_links(&anatomy, Condition::C1) {
        degraded.net.fail_link_at(fail_at, link);
    }
    degraded.net.run_until(fail_at + mid_failover_offset());
    values.insert(
        "routing.forward_degraded_ns",
        forward_ns(&degraded, anatomy.path_agg),
    );

    link_transmit(values);
    tcp_pipe(values);
}

/// Resident memory one freshly built network costs per switch, in kB.
/// Must be called before anything else has touched the heap: a later
/// build reuses freed pages and reads as free.
pub fn build_rss_kb_per_switch(k: u32, hosts_per_tor: u32) -> Option<f64> {
    let topo = F2TreeNetwork::build_with_hosts(k, hosts_per_tor)
        .ok()?
        .topology;
    let switches = topo.switch_count();
    let before = vm_rss_kb()?;
    let net = Network::new(topo, EmuConfig::default()).ok()?;
    let after = vm_rss_kb()?;
    black_box(&net);
    Some(after.saturating_sub(before) as f64 / switches.max(1) as f64)
}

/// `LinkState::transmit` on an idle-enough link: each offer arrives after
/// the previous packet has serialized, so none is dropped.
fn link_transmit(values: &mut Values) {
    let spec = LinkSpec::PAPER_EMULATION;
    let gap = spec.tx_time(1500);
    let mut link = LinkState::new();
    let mut now = SimTime::ZERO;
    values.insert(
        "sim.link_transmit_ns",
        ns_per_call(21, 100_000, |_| {
            now += gap;
            black_box(link.transmit(&spec, Direction::AToB, black_box(now), 1500));
        }),
    );
    assert_eq!(
        link.dropped_queue() + link.dropped_down(),
        0,
        "kernel link must not drop"
    );
}

/// One 1 MB fixed-size transfer over a lossless in-memory pipe: every
/// segment the sender emits is handed to the receiver and its ACK handed
/// straight back. ns per segment.
fn tcp_pipe(values: &mut Values) {
    const BYTES: u64 = 1 << 20;
    let flow = FlowKey::new(
        Ipv4Addr::new(10, 11, 0, 2),
        Ipv4Addr::new(10, 11, 1, 2),
        40_000,
        5001,
        Protocol::Tcp,
    );
    let rtt = SimDuration::from_micros(250);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let mut sender = TcpSender::new(
                flow,
                TcpConfig::default(),
                TcpApp::FixedSize { bytes: BYTES },
            );
            let mut receiver = TcpReceiver::new();
            let mut now = SimTime::ZERO;
            let mut segments = 0u64;
            let started = Instant::now();
            let mut pending = sender.on_start(now);
            while !sender.is_complete() {
                now += rtt;
                let mut next = Vec::new();
                for output in pending.drain(..) {
                    if let TcpSenderOutput::Send(segment) = output {
                        segments += 1;
                        let ack = receiver.on_segment(now, segment);
                        next.extend(sender.on_ack(now, ack));
                    }
                }
                assert!(
                    !next.is_empty() || sender.is_complete(),
                    "lossless pipe stalled"
                );
                pending = next;
            }
            let elapsed = started.elapsed();
            assert_eq!(receiver.delivered(), BYTES);
            elapsed.as_nanos() as f64 / segments as f64
        })
        .collect();
    values.insert("transport.tcp_segment_ns", fastest(&samples).unwrap_or(0.0));
}

/// `RunPlan::run` over 10 000 empty cells on two workers: what the sweep
/// pool charges per cell for claiming, RNG derivation and the ordered
/// merge. µs per cell.
pub fn sweep_dispatch(values: &mut Values) {
    const CELLS: u32 = 10_000;
    let plan = ExperimentSpec::new("bench-dispatch")
        .cells(0..CELLS)
        .workers(Workers::new(2))
        .build();
    let per_run_ms = fastest_ms(9, || plan.run(|ctx| *ctx.cell()));
    values.insert(
        "sweep.dispatch_us_per_cell",
        per_run_ms * 1e3 / f64::from(CELLS),
    );
}
