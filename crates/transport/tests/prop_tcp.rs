//! Property-based TCP test: reliable delivery under arbitrary loss.
//!
//! A simple lossy-wire harness drives the sender/receiver pair; whatever
//! the loss pattern, every byte must eventually arrive exactly once, in
//! order — the invariant all of the paper's TCP results stand on.

use dcn_net::{FlowKey, Ipv4Addr, Protocol};
use dcn_sim::{SimDuration, SimTime};
use dcn_transport::{TcpApp, TcpConfig, TcpReceiver, TcpSender, TcpSenderOutput};
use proptest::prelude::*;

fn flow() -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 11, 0, 2),
        Ipv4Addr::new(10, 11, 9, 2),
        40_000,
        5001,
        Protocol::Tcp,
    )
}

/// Drives a fixed-size flow over a wire that drops data segments whenever
/// the corresponding bit of `loss` is set (ACKs are lossless for
/// simplicity). Returns (delivered bytes, retransmissions, completed).
fn run_lossy(bytes: u64, loss: &[bool]) -> (u64, u64, bool) {
    let cfg = TcpConfig::default();
    let mut tx = TcpSender::new(flow(), cfg, TcpApp::FixedSize { bytes });
    let mut rx = TcpReceiver::new();
    let mut now = SimTime::ZERO;
    let rtt = SimDuration::from_micros(250);

    let mut outputs = tx.on_start(now);
    let mut rto: Option<(SimTime, u64)> = None;
    let mut completed = false;
    let mut drop_idx = 0usize;

    for _ in 0..10_000 {
        // Realize outputs: segments fly (or drop), timers arm.
        let mut acks = Vec::new();
        for out in outputs.drain(..) {
            match out {
                TcpSenderOutput::Send(seg) => {
                    let dropped = loss.get(drop_idx).copied().unwrap_or(false);
                    drop_idx += 1;
                    if !dropped {
                        acks.push(rx.on_segment(now + rtt / 2, seg));
                    }
                }
                TcpSenderOutput::ArmRto { at, token } => rto = Some((at, token)),
                TcpSenderOutput::ArmPace { .. } => {}
                TcpSenderOutput::Complete { .. } => completed = true,
            }
        }
        if completed {
            break;
        }
        if !acks.is_empty() {
            now += rtt;
            for ack in acks {
                outputs.extend(tx.on_ack(now, ack));
                if tx.is_complete() {
                    completed = true;
                }
            }
            if completed {
                break;
            }
            continue;
        }
        // Silence: fire the RTO.
        match rto.take() {
            Some((at, token)) => {
                now = at.max(now);
                tx.on_rto_into(now, token, &mut outputs);
            }
            None => break,
        }
    }
    (
        rx.delivered(),
        tx.retransmits(),
        completed || tx.is_complete(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any loss pattern: the flow still completes with exactly the right
    /// byte count delivered in order.
    #[test]
    fn delivers_everything_under_arbitrary_loss(
        segments in 1u64..60,
        loss in prop::collection::vec(any::<bool>(), 0..400),
    ) {
        let bytes = segments * 1448;
        let (delivered, _, completed) = run_lossy(bytes, &loss);
        prop_assert!(completed, "flow must complete");
        prop_assert_eq!(delivered, bytes);
    }

    /// A lossless wire never retransmits.
    #[test]
    fn no_spurious_retransmissions(segments in 1u64..60) {
        let bytes = segments * 1448;
        let (delivered, retransmits, completed) = run_lossy(bytes, &[]);
        prop_assert!(completed);
        prop_assert_eq!(delivered, bytes);
        prop_assert_eq!(retransmits, 0);
    }

    /// The receiver's cumulative ACK is monotone under any segment
    /// arrival order.
    #[test]
    fn receiver_ack_is_monotone(order in prop::collection::vec(0usize..32, 1..64)) {
        let mut rx = TcpReceiver::new();
        let mut last = 0u64;
        for &i in &order {
            let ack = rx.on_segment(
                SimTime::ZERO,
                dcn_transport::TcpSegment {
                    seq: (i as u64) * 1448,
                    len: 1448,
                    retransmit: false,
                },
            );
            prop_assert!(ack.ack >= last);
            last = ack.ack;
        }
        prop_assert_eq!(rx.delivered(), last);
    }
}
