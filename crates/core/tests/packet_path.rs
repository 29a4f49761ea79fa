//! The packet path, pinned end to end on Table III's bed (k = 4, one
//! host per rack, links failed at 380 ms, 2 s horizon): the fat tree's
//! C1 cell under OSPF, and the F²Tree's C1 and C7 cells under each
//! recovery mode, with the aligned UDP and TCP probes. Per cell it prints
//! the emulator's counters, the UDP probe's census and loss window, every
//! delay sample folded into a count and a sum plus the 10 ms delay points
//! around the failure, and the TCP probe's delivery log folded likewise.
//! A change to how packets are built, sized, forwarded or delivered moves
//! one of these numbers.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p f2tree --test packet_path`.

use std::fmt::Write as _;
use std::path::Path;

use dcn_emu::EmuConfig;
use dcn_failure::Condition;
use dcn_routing::RecoveryMode;
use dcn_sim::{SimDuration, SimTime};
use f2tree::{Design, TestBed};

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

fn render(out: &mut String, design: Design, mode: RecoveryMode, condition: Condition) {
    let config = EmuConfig::builder().recovery(mode).build();
    let mut bed = TestBed::build_with_config(design, 4, 1, config).expect("valid k");
    let (udp, tcp) = bed.add_aligned_probes(SimTime::ZERO);
    let anatomy = bed.path_anatomy(udp);
    for link in bed.scenario_links(&anatomy, condition) {
        bed.net.fail_link_at(ms(380), link);
    }
    bed.net.run_until(ms(2_000));

    let net = &bed.net;
    let w = |out: &mut String, line: String| writeln!(out, "{line}").expect("write to String");
    w(out, format!("# {design} {mode} {condition}"));
    let drops = net.drops();
    w(
        out,
        format!(
            "events={} delivered={} transmitted={} drops=[no_route={} ttl_expired={} \
             link_down={} queue_full={}] peak_queue={} fib_epoch={}",
            net.events_processed(),
            net.delivered_packets(),
            net.total_transmitted(),
            drops.no_route,
            drops.ttl_expired,
            drops.link_down,
            drops.queue_full,
            net.peak_queue_depth(),
            net.fib_epoch(),
        ),
    );
    let report = net.udp_probe_report(udp);
    let loss = report.connectivity.loss_around(ms(380)).map(|loss| {
        (
            loss.last_before.as_nanos(),
            loss.first_after.as_nanos(),
            loss.duration.as_nanos(),
        )
    });
    w(
        out,
        format!(
            "udp sent={} received={} lost={} loss_around={loss:?}",
            report.sent, report.received, report.lost
        ),
    );
    let samples = report.delay.samples().len();
    let sum: u64 = report.delay.samples().map(|s| s.delay.as_nanos()).sum();
    w(out, format!("delay samples={samples} sum_ns={sum}"));
    let points: Vec<String> = report
        .delay
        .downsample(ms(300), ms(800), SimDuration::from_millis(10))
        .into_iter()
        .map(|(_, mean)| mean.map_or("-".to_string(), |d| d.as_nanos().to_string()))
        .collect();
    w(out, format!("delay 300..800ms/10ms: {}", points.join(" ")));
    let log = net.tcp_delivery_log(tcp);
    let bytes: u64 = log.iter().map(|&(_, b)| u64::from(b)).sum();
    w(out, format!("tcp log={} bytes={bytes}", log.len()));
}

#[test]
fn packet_path_matches_golden() {
    let mut got = String::new();
    render(
        &mut got,
        Design::FatTree,
        RecoveryMode::OspfReconvergence,
        Condition::C1,
    );
    for mode in RecoveryMode::ALL {
        for condition in [Condition::C1, Condition::C7] {
            render(&mut got, Design::F2Tree, mode, condition);
        }
    }

    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("packet_path.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "the packet path's counters or probe measurements moved; if the \
         change is intended, regenerate with UPDATE_GOLDEN=1"
    );
}
