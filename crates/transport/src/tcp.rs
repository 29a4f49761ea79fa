//! A NewReno-style TCP model.
//!
//! Faithful to the parts of Linux TCP that shape the paper's results:
//!
//! * **RTO with exponential backoff** — minimum RTO 200 ms, doubling on
//!   each timeout. This is the whole story of Fig. 2(b)/Table III: F²Tree
//!   recovers connectivity within one RTO (→ ~220 ms collapse) while fat
//!   tree loses the first retransmission too and eats a doubled RTO
//!   (→ ~600–700 ms collapse).
//! * **Fast retransmit/recovery** on three duplicate ACKs (NewReno partial
//!   ACKs included).
//! * **Congestion-window validation** (RFC 2861): an application-limited
//!   sender does not grow cwnd. Without this, the paper's paced probe flow
//!   would accumulate a huge cwnd, keep transmitting during an outage, and
//!   fast-retransmit its way around the failure — which the real testbed
//!   (and this model) does *not* do; it waits for the RTO.
//! * **Karn's algorithm** — no RTT samples from retransmitted segments.
//!
//! Deliberately omitted (documented substitutions): the SYN/FIN handshake
//! (flows start in established state, as the paper's long-lived testbed
//! flows effectively do), SACK, and delayed ACKs.

use std::collections::BTreeMap;
use std::fmt;

use dcn_net::FlowKey;
use dcn_sim::{SimDuration, SimTime};

use crate::{PROBE_BYTES, PROBE_INTERVAL};

/// TCP parameters (defaults follow the paper's Linux testbed).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TcpConfig {
    /// Maximum segment size in bytes (paper: 1448).
    pub mss: u32,
    /// Initial congestion window in segments.
    pub init_cwnd: u32,
    /// Initial slow-start threshold in segments.
    pub init_ssthresh: u32,
    /// Minimum (and initial) retransmission timeout — Linux's 200 ms.
    pub min_rto: SimDuration,
    /// Maximum backed-off RTO.
    pub max_rto: SimDuration,
    /// Duplicate ACKs that trigger fast retransmit.
    pub dupack_threshold: u32,
    /// Socket send-buffer bound for paced (app-limited) flows: unsent
    /// bytes beyond `snd_una + send_buffer` are not accepted from the
    /// application (the paced writer stalls, as a blocking `write` would).
    /// Without this bound a long outage would accumulate an unbounded
    /// backlog and burst at line rate on recovery — which real
    /// app-limited senders do not do.
    pub send_buffer: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            init_cwnd: 10,
            init_ssthresh: 64,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            dupack_threshold: 3,
            send_buffer: 262_144,
        }
    }
}

/// How the application feeds the sender.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TcpApp {
    /// A fixed-size transfer (request, response, background flow); the
    /// flow completes when every byte is acknowledged.
    FixedSize {
        /// Total bytes to transfer.
        bytes: u64,
    },
    /// The paper's probe: a paced source writing [`PROBE_BYTES`] every
    /// [`PROBE_INTERVAL`] forever.
    Paced,
}

/// A data segment on the wire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// Offset of the first payload byte.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Whether this is a retransmission (tracing only).
    pub retransmit: bool,
}

/// A cumulative acknowledgment on the wire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TcpAck {
    /// The next byte the receiver expects.
    pub ack: u64,
}

/// Outputs the sender asks its host to realize.
#[derive(Clone, Debug, PartialEq)]
pub enum TcpSenderOutput {
    /// Transmit a segment.
    Send(TcpSegment),
    /// (Re)arm the retransmission timer; older tokens are stale.
    ArmRto {
        /// Expiry instant.
        at: SimTime,
        /// Validity token — deliver back via [`TcpSender::on_rto`].
        token: u64,
    },
    /// Schedule the next application pacing tick.
    ArmPace {
        /// Tick instant.
        at: SimTime,
    },
    /// Every byte of a fixed-size flow is acknowledged.
    Complete {
        /// Completion instant.
        at: SimTime,
    },
}

#[derive(Copy, Clone, Debug)]
struct SentInfo {
    len: u32,
    sent_at: SimTime,
    retransmitted: bool,
}

/// The sending half of a TCP connection.
pub struct TcpSender {
    flow: FlowKey,
    config: TcpConfig,
    app: TcpApp,
    /// Bytes the application has made available.
    released: u64,
    snd_una: u64,
    snd_nxt: u64,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    dupacks: u32,
    /// NewReno recovery point.
    recover: u64,
    in_fast_recovery: bool,
    srtt: Option<f64>,
    rttvar: f64,
    /// Current (possibly backed-off) RTO.
    rto: SimDuration,
    /// Base RTO from the RTT estimator.
    rto_base: SimDuration,
    rto_token: u64,
    rto_armed: bool,
    segments: BTreeMap<u64, SentInfo>,
    /// Highest sequence ever transmitted; transmissions below it after an
    /// RTO rollback are retransmissions (go-back-N recovery).
    high_water: u64,
    completed: bool,
    total_retransmits: u64,
}

impl TcpSender {
    /// Creates a sender in established state.
    pub fn new(flow: FlowKey, config: TcpConfig, app: TcpApp) -> Self {
        let released = match app {
            TcpApp::FixedSize { bytes } => bytes,
            TcpApp::Paced => 0,
        };
        TcpSender {
            flow,
            config,
            app,
            released,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (config.init_cwnd * config.mss) as f64,
            ssthresh: (config.init_ssthresh * config.mss) as f64,
            dupacks: 0,
            recover: 0,
            in_fast_recovery: false,
            srtt: None,
            rttvar: 0.0,
            rto: config.min_rto,
            rto_base: config.min_rto,
            rto_token: 0,
            rto_armed: false,
            segments: BTreeMap::new(),
            high_water: 0,
            completed: false,
            total_retransmits: 0,
        }
    }

    /// The flow's five-tuple.
    pub fn flow(&self) -> FlowKey {
        self.flow
    }

    /// Whether the fixed-size flow has fully completed.
    pub fn is_complete(&self) -> bool {
        self.completed
    }

    /// Bytes acknowledged so far.
    pub fn acked(&self) -> u64 {
        self.snd_una
    }

    /// Total retransmitted segments (statistics).
    pub fn retransmits(&self) -> u64 {
        self.total_retransmits
    }

    /// Current congestion window in bytes (observability).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Starts the flow at `now`.
    pub fn on_start(&mut self, now: SimTime) -> Vec<TcpSenderOutput> {
        let mut out = Vec::new();
        if self.app == TcpApp::Paced {
            self.release_paced();
            out.push(TcpSenderOutput::ArmPace {
                at: now + PROBE_INTERVAL,
            });
        }
        self.transmit_window(now, &mut out);
        out
    }

    /// The application pacing tick fired.
    pub fn on_pace(&mut self, now: SimTime) -> Vec<TcpSenderOutput> {
        if self.app != TcpApp::Paced {
            return Vec::new();
        }
        self.release_paced();
        let mut out = vec![TcpSenderOutput::ArmPace {
            at: now + PROBE_INTERVAL,
        }];
        self.transmit_window(now, &mut out);
        out
    }

    /// Accepts paced application data up to the send-buffer bound.
    fn release_paced(&mut self) {
        let cap = self.snd_una + self.config.send_buffer;
        self.released = (self.released + u64::from(PROBE_BYTES)).min(cap);
    }

    /// An ACK arrived.
    pub fn on_ack(&mut self, now: SimTime, ack: TcpAck) -> Vec<TcpSenderOutput> {
        let mut out = Vec::new();
        if self.completed {
            return out;
        }
        if ack.ack > self.snd_una {
            self.handle_new_ack(now, ack.ack, &mut out);
        } else if ack.ack == self.snd_una && self.snd_nxt > self.snd_una {
            self.handle_dupack(now, &mut out);
        }
        self.transmit_window(now, &mut out);
        self.finish_or_rearm(now, &mut out);
        out
    }

    /// The retransmission timer fired (ignore if `token` is stale).
    pub fn on_rto(&mut self, now: SimTime, token: u64) -> Vec<TcpSenderOutput> {
        let mut out = Vec::new();
        if self.completed || token != self.rto_token || !self.rto_armed {
            return out;
        }
        self.rto_armed = false;
        if self.snd_nxt == self.snd_una {
            return out; // nothing outstanding
        }
        // RFC 6298 5.5–5.7: collapse the window, back the timer off, and
        // slow-start again from snd_una (go-back-N: the retransmission
        // and every hole behind it re-send as the window reopens).
        let flight = (self.snd_nxt - self.snd_una) as f64;
        self.ssthresh = (flight / 2.0).max((2 * self.config.mss) as f64);
        self.cwnd = self.config.mss as f64;
        self.in_fast_recovery = false;
        self.dupacks = 0;
        self.rto = (self.rto * 2).min(self.config.max_rto);
        self.snd_nxt = self.snd_una;
        // transmit_window re-sends the first hole (cwnd is one MSS) and
        // re-arms the timer via finish_or_rearm.
        self.transmit_window(now, &mut out);
        out
    }

    // ------------------------------------------------------------------

    fn handle_new_ack(&mut self, now: SimTime, ack: u64, out: &mut Vec<TcpSenderOutput>) {
        // RTT sample from the first acked, never-retransmitted segment
        // (Karn's algorithm).
        if let Some(info) = self.segments.get(&self.snd_una) {
            if !info.retransmitted && self.snd_una + info.len as u64 <= ack {
                self.sample_rtt(now.since(info.sent_at));
            }
        }
        // Drop bookkeeping for fully acked segments, skipping entries a
        // go-back-N re-segmentation left straddling `ack`.
        let mut from = 0;
        while from < ack {
            let mut acked = self
                .segments
                .range(from..ack)
                .filter(|(&seq, info)| seq + info.len as u64 <= ack)
                .map(|(&seq, _)| seq);
            let Some(seq) = acked.next() else { break };
            from = acked.next().unwrap_or(ack);
            self.segments.remove(&seq);
        }

        let was_cwnd_limited = (self.snd_nxt - self.snd_una) as f64 >= self.cwnd - self.config.mss as f64;
        self.snd_una = ack;
        self.dupacks = 0;
        self.rto = self.rto_base; // successful delivery resets backoff
        self.rto_armed = false; // RFC 6298: restart the timer on new data acked

        if self.in_fast_recovery {
            if ack >= self.recover {
                // Full ACK: leave recovery.
                self.in_fast_recovery = false;
                self.cwnd = self.ssthresh;
            } else {
                // Partial ACK (NewReno): retransmit the next hole.
                self.retransmit_first(now, out);
            }
            return;
        }
        // Congestion-window validation: only grow when cwnd-limited.
        if was_cwnd_limited {
            let mss = self.config.mss as f64;
            if self.cwnd < self.ssthresh {
                self.cwnd += mss; // slow start
            } else {
                self.cwnd += mss * mss / self.cwnd; // congestion avoidance
            }
        }
    }

    fn handle_dupack(&mut self, now: SimTime, out: &mut Vec<TcpSenderOutput>) {
        self.dupacks += 1;
        let mss = self.config.mss as f64;
        if self.in_fast_recovery {
            self.cwnd += mss; // window inflation
            return;
        }
        if self.dupacks == self.config.dupack_threshold {
            let flight = (self.snd_nxt - self.snd_una) as f64;
            self.ssthresh = (flight / 2.0).max(2.0 * mss);
            self.in_fast_recovery = true;
            self.recover = self.snd_nxt;
            self.cwnd = self.ssthresh + self.config.dupack_threshold as f64 * mss;
            self.retransmit_first(now, out);
        }
    }

    fn retransmit_first(&mut self, now: SimTime, out: &mut Vec<TcpSenderOutput>) {
        let len = self
            .segments
            .get(&self.snd_una)
            .map(|i| i.len)
            .unwrap_or_else(|| {
                // The bookkeeping entry can be gone after a partial ACK
                // landed mid-segment; fall back to one MSS bounded by the
                // outstanding byte count.
                (self.snd_nxt - self.snd_una).min(self.config.mss as u64) as u32
            });
        self.segments.insert(
            self.snd_una,
            SentInfo {
                len,
                sent_at: now,
                retransmitted: true,
            },
        );
        self.total_retransmits += 1;
        out.push(TcpSenderOutput::Send(TcpSegment {
            seq: self.snd_una,
            len,
            retransmit: true,
        }));
    }

    fn transmit_window(&mut self, now: SimTime, out: &mut Vec<TcpSenderOutput>) {
        if self.completed {
            return;
        }
        let window_end = self.snd_una + self.cwnd as u64;
        while self.snd_nxt < window_end && self.snd_nxt < self.released {
            let len = (self.released - self.snd_nxt)
                .min(self.config.mss as u64)
                .min(window_end - self.snd_nxt) as u32;
            if len == 0 {
                break;
            }
            let retransmit = self.snd_nxt < self.high_water;
            if retransmit {
                self.total_retransmits += 1;
            }
            self.segments.insert(
                self.snd_nxt,
                SentInfo {
                    len,
                    sent_at: now,
                    retransmitted: retransmit,
                },
            );
            out.push(TcpSenderOutput::Send(TcpSegment {
                seq: self.snd_nxt,
                len,
                retransmit,
            }));
            self.snd_nxt += len as u64;
            self.high_water = self.high_water.max(self.snd_nxt);
        }
        self.finish_or_rearm(now, out);
    }

    fn finish_or_rearm(&mut self, now: SimTime, out: &mut Vec<TcpSenderOutput>) {
        if let TcpApp::FixedSize { bytes } = self.app {
            if !self.completed && self.snd_una >= bytes {
                self.completed = true;
                self.rto_armed = false;
                out.push(TcpSenderOutput::Complete { at: now });
                return;
            }
        }
        if self.snd_nxt > self.snd_una {
            // RFC 6298 5.1: start the timer only when it is not already
            // running — transmissions do not push an armed deadline out.
            if !self.rto_armed {
                self.arm_rto(now, out);
            }
        } else {
            self.rto_armed = false;
        }
    }

    fn arm_rto(&mut self, now: SimTime, out: &mut Vec<TcpSenderOutput>) {
        self.rto_token += 1;
        self.rto_armed = true;
        out.push(TcpSenderOutput::ArmRto {
            at: now + self.rto,
            token: self.rto_token,
        });
    }

    fn sample_rtt(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs_f64();
        let srtt = match self.srtt {
            None => {
                self.rttvar = r / 2.0;
                r
            }
            Some(prev) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (prev - r).abs();
                0.875 * prev + 0.125 * r
            }
        };
        self.srtt = Some(srtt);
        let rto = srtt + 4.0 * self.rttvar;
        self.rto_base = SimDuration::from_secs_f64(rto)
            .max(self.config.min_rto)
            .min(self.config.max_rto);
    }
}

impl fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpSender")
            .field("flow", &self.flow)
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("cwnd", &self.cwnd)
            .field("rto", &self.rto)
            .field("completed", &self.completed)
            .finish()
    }
}

/// The receiving half: cumulative ACKs with out-of-order buffering.
#[derive(Clone, Debug)]
pub struct TcpReceiver {
    next_expected: u64,
    ooo: BTreeMap<u64, u32>,
    delivered_log: Vec<(SimTime, u32)>,
}

impl TcpReceiver {
    /// Creates a receiver in established state.
    pub fn new() -> Self {
        TcpReceiver {
            next_expected: 0,
            ooo: BTreeMap::new(),
            delivered_log: Vec::new(),
        }
    }

    /// Bytes delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.next_expected
    }

    /// Timestamped in-order delivery log `(time, bytes_advanced)`, used by
    /// the metrics crate for throughput binning.
    pub fn delivery_log(&self) -> &[(SimTime, u32)] {
        &self.delivered_log
    }

    /// Processes a data segment and returns the ACK to send back.
    pub fn on_segment(&mut self, now: SimTime, seg: TcpSegment) -> TcpAck {
        let end = seg.seq + seg.len as u64;
        if end > self.next_expected {
            if seg.seq <= self.next_expected {
                self.advance(now, end);
            } else {
                self.ooo.insert(seg.seq, seg.len);
            }
            // Drain contiguous out-of-order data.
            while let Some((&seq, &len)) = self.ooo.first_key_value() {
                if seq <= self.next_expected {
                    self.ooo.pop_first();
                    let seg_end = seq + len as u64;
                    if seg_end > self.next_expected {
                        self.advance(now, seg_end);
                    }
                } else {
                    break;
                }
            }
        }
        TcpAck {
            ack: self.next_expected,
        }
    }

    fn advance(&mut self, now: SimTime, to: u64) {
        let gained = (to - self.next_expected) as u32;
        self.next_expected = to;
        self.delivered_log.push((now, gained));
    }
}

impl Default for TcpReceiver {
    fn default() -> Self {
        TcpReceiver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{Ipv4Addr, Protocol};

    fn flow() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 11, 0, 2),
            Ipv4Addr::new(10, 11, 31, 2),
            40_000,
            5001,
            Protocol::Tcp,
        )
    }

    fn sends(out: &[TcpSenderOutput]) -> Vec<TcpSegment> {
        out.iter()
            .filter_map(|o| match o {
                TcpSenderOutput::Send(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    #[test]
    fn fixed_flow_completes_over_a_perfect_wire() {
        let cfg = TcpConfig::default();
        let mut tx = TcpSender::new(flow(), cfg, TcpApp::FixedSize { bytes: 20_000 });
        let mut rx = TcpReceiver::new();
        let mut pending = sends(&tx.on_start(SimTime::ZERO));
        let mut now = SimTime::ZERO;
        let mut completed = false;
        let mut rounds = 0;
        while !pending.is_empty() && rounds < 100 {
            rounds += 1;
            now += SimDuration::from_micros(250);
            let mut next = Vec::new();
            for seg in pending.drain(..) {
                let ack = rx.on_segment(now, seg);
                let out = tx.on_ack(now, ack);
                completed |= out
                    .iter()
                    .any(|o| matches!(o, TcpSenderOutput::Complete { .. }));
                next.extend(sends(&out));
            }
            pending = next;
        }
        assert!(completed, "flow should complete");
        assert_eq!(rx.delivered(), 20_000);
        assert_eq!(tx.retransmits(), 0);
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let mut tx = TcpSender::new(
            flow(),
            TcpConfig::default(),
            TcpApp::FixedSize { bytes: 1_000_000 },
        );
        let out = tx.on_start(SimTime::ZERO);
        assert_eq!(sends(&out).len(), 10);
        assert!(out
            .iter()
            .any(|o| matches!(o, TcpSenderOutput::ArmRto { .. })));
    }

    #[test]
    fn rto_fires_at_min_rto_and_backs_off_exponentially() {
        let mut tx = TcpSender::new(
            flow(),
            TcpConfig::default(),
            TcpApp::FixedSize { bytes: 100_000 },
        );
        let out = tx.on_start(SimTime::ZERO);
        let TcpSenderOutput::ArmRto { at, token } = out
            .iter()
            .rev()
            .find(|o| matches!(o, TcpSenderOutput::ArmRto { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!((*at - SimTime::ZERO).as_millis(), 200, "initial RTO 200ms");

        // First timeout: retransmit + rearm at 400ms.
        let out = tx.on_rto(*at, *token);
        let segs = sends(&out);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].retransmit);
        assert_eq!(segs[0].seq, 0);
        let TcpSenderOutput::ArmRto { at: at2, token: t2 } = out
            .iter()
            .find(|o| matches!(o, TcpSenderOutput::ArmRto { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!((*at2 - *at).as_millis(), 400, "doubled RTO");

        // Second timeout: 800ms.
        let out = tx.on_rto(*at2, *t2);
        let TcpSenderOutput::ArmRto { at: at3, .. } = out
            .iter()
            .find(|o| matches!(o, TcpSenderOutput::ArmRto { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        assert_eq!((*at3 - *at2).as_millis(), 800);
        assert_eq!(tx.cwnd(), 1448.0, "cwnd collapsed to 1 MSS");
    }

    #[test]
    fn stale_rto_token_is_ignored() {
        let mut tx = TcpSender::new(
            flow(),
            TcpConfig::default(),
            TcpApp::FixedSize { bytes: 100_000 },
        );
        let out = tx.on_start(SimTime::ZERO);
        let first_token = out
            .iter()
            .find_map(|o| match o {
                TcpSenderOutput::ArmRto { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        // An ACK re-arms the timer with a fresh token.
        let mut rx = TcpReceiver::new();
        let ack = rx.on_segment(
            ms(1),
            TcpSegment {
                seq: 0,
                len: 1448,
                retransmit: false,
            },
        );
        tx.on_ack(ms(1), ack);
        // The old token must now be inert.
        let out = tx.on_rto(ms(200), first_token);
        assert!(out.is_empty());
        assert_eq!(tx.retransmits(), 0);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut tx = TcpSender::new(
            flow(),
            TcpConfig::default(),
            TcpApp::FixedSize { bytes: 100_000 },
        );
        let segs = sends(&tx.on_start(SimTime::ZERO));
        assert!(segs.len() >= 4);
        let mut rx = TcpReceiver::new();
        // First segment lost; the rest arrive -> dup ACKs of 0.
        let mut retransmitted = false;
        for seg in &segs[1..] {
            let ack = rx.on_segment(ms(1), *seg);
            assert_eq!(ack.ack, 0);
            let out = tx.on_ack(ms(1), ack);
            let rtx = sends(&out);
            if !rtx.is_empty() {
                assert!(rtx[0].retransmit);
                assert_eq!(rtx[0].seq, 0);
                retransmitted = true;
                break;
            }
        }
        assert!(retransmitted, "fast retransmit after 3 dupacks");
        assert_eq!(tx.retransmits(), 1);
        // The retransmission fills the hole; the cumulative ACK jumps over
        // everything the receiver had buffered (segments 1..=3 arrived
        // before the loop broke at the fast retransmit).
        let ack = rx.on_segment(
            ms(2),
            TcpSegment {
                seq: 0,
                len: 1448,
                retransmit: true,
            },
        );
        assert_eq!(ack.ack, 4 * 1448);
    }

    #[test]
    fn paced_app_limited_flow_does_not_grow_cwnd() {
        // RFC 2861 cwnd validation: the paper's probe flow stays at its
        // initial window because it is never cwnd-limited.
        let cfg = TcpConfig::default();
        let mut tx = TcpSender::new(flow(), cfg, TcpApp::Paced);
        let mut rx = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut outputs = tx.on_start(now);
        for _ in 0..500 {
            now += SimDuration::from_micros(100);
            // Deliver everything instantly, ack instantly.
            for seg in sends(&outputs) {
                let ack = rx.on_segment(now, seg);
                tx.on_ack(now, ack);
            }
            outputs = tx.on_pace(now);
        }
        let init = (cfg.init_cwnd * cfg.mss) as f64;
        assert!(
            tx.cwnd() <= init + 1.0,
            "cwnd grew to {} despite app-limiting",
            tx.cwnd()
        );
    }

    #[test]
    fn cwnd_limited_flow_slow_starts() {
        let cfg = TcpConfig::default();
        let mut tx = TcpSender::new(flow(), cfg, TcpApp::FixedSize { bytes: 10_000_000 });
        let mut rx = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut pending = sends(&tx.on_start(now));
        for _ in 0..6 {
            now += SimDuration::from_micros(250);
            let mut next = Vec::new();
            for seg in pending.drain(..) {
                let ack = rx.on_segment(now, seg);
                next.extend(sends(&tx.on_ack(now, ack)));
            }
            pending = next;
        }
        let init = (cfg.init_cwnd * cfg.mss) as f64;
        assert!(tx.cwnd() > 2.0 * init, "slow start doubled cwnd repeatedly");
    }

    #[test]
    fn receiver_reassembles_out_of_order_data() {
        let mut rx = TcpReceiver::new();
        let t = ms(1);
        assert_eq!(
            rx.on_segment(t, TcpSegment { seq: 1448, len: 1448, retransmit: false }).ack,
            0
        );
        assert_eq!(
            rx.on_segment(t, TcpSegment { seq: 4344, len: 1448, retransmit: false }).ack,
            0
        );
        // Filling the first hole advances past the buffered 1448..2896.
        assert_eq!(
            rx.on_segment(t, TcpSegment { seq: 0, len: 1448, retransmit: false }).ack,
            2896
        );
        // Filling the second hole drains the rest.
        assert_eq!(
            rx.on_segment(t, TcpSegment { seq: 2896, len: 1448, retransmit: false }).ack,
            5792
        );
        assert_eq!(rx.delivered(), 5792);
    }

    #[test]
    fn duplicate_segments_do_not_double_count() {
        let mut rx = TcpReceiver::new();
        let t = ms(1);
        let seg = TcpSegment {
            seq: 0,
            len: 1448,
            retransmit: false,
        };
        assert_eq!(rx.on_segment(t, seg).ack, 1448);
        assert_eq!(rx.on_segment(t, seg).ack, 1448);
        assert_eq!(rx.delivered(), 1448);
        let total: u32 = rx.delivery_log().iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 1448);
    }

    #[test]
    fn outage_then_recovery_is_rto_bound_for_paced_flow() {
        // The Fig. 2(b) mechanism in miniature: a paced flow hits a total
        // outage; no dupacks can form (window full of lost data), so the
        // first repair is the 200ms RTO.
        let cfg = TcpConfig::default();
        let mut tx = TcpSender::new(flow(), cfg, TcpApp::Paced);
        let mut rx = TcpReceiver::new();
        let mut now = SimTime::ZERO;
        let mut outputs = tx.on_start(now);
        let mut rto_deadline = None;
        let mut rto_token = 0;
        // Healthy period: 20ms of paced traffic.
        for _ in 0..200 {
            now += SimDuration::from_micros(100);
            for seg in sends(&outputs) {
                let ack = rx.on_segment(now, seg);
                for o in tx.on_ack(now, ack) {
                    if let TcpSenderOutput::ArmRto { at, token } = o {
                        rto_deadline = Some(at);
                        rto_token = token;
                    }
                }
            }
            outputs = tx.on_pace(now);
            for o in &outputs {
                if let TcpSenderOutput::ArmRto { at, token } = o {
                    rto_deadline = Some(*at);
                    rto_token = *token;
                }
            }
        }
        let outage_start = now;
        // Outage: every transmission is lost; pacing keeps ticking.
        let mut sent_during_outage = 0;
        for _ in 0..100 {
            now += SimDuration::from_micros(100);
            sent_during_outage += sends(&outputs).len();
            outputs = tx.on_pace(now);
        }
        // App-limited cwnd means at most a handful of segments leaked out.
        assert!(
            sent_during_outage < 25,
            "app-limited window must cap outage transmissions, sent {sent_during_outage}"
        );
        // The RTO (armed during the healthy period) is ~200ms out.
        let deadline = rto_deadline.expect("rto armed");
        let wait = deadline.since(outage_start).as_millis();
        assert!(
            (195..=205).contains(&wait),
            "RTO should fire ~200ms after the last good ack, got {wait}ms"
        );
        // Fire it: exactly one retransmission of the first hole.
        let out = tx.on_rto(deadline, rto_token);
        let segs = sends(&out);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].retransmit);
    }

    /// After a go-back-N rollback re-segments the window, a stale entry
    /// that straddles `ack` can sort in front of a fully acked one; a new
    /// ACK drops every entry that ends at or below it and only those.
    #[test]
    fn a_new_ack_drops_fully_acked_entries_behind_a_straddling_one() {
        let mss = u64::from(TcpConfig::default().mss);
        let mut tx = TcpSender::new(
            flow(),
            TcpConfig::default(),
            TcpApp::FixedSize { bytes: 1_000_000 },
        );
        tx.on_start(SimTime::ZERO);
        let straddler = SentInfo {
            len: 4 * mss as u32,
            sent_at: SimTime::ZERO,
            retransmitted: true,
        };
        tx.segments.insert(100, straddler); // [100, 100 + 4 mss)
        let below = |tx: &TcpSender, end: u64| -> Vec<u64> {
            tx.segments.range(..end).map(|(&seq, _)| seq).collect()
        };
        assert_eq!(
            below(&tx, 5 * mss),
            [0, 100, mss, 2 * mss, 3 * mss, 4 * mss]
        );

        // 0, mss and 2 mss go; the straddler in front of the last two ends
        // past the ACK and stays.
        tx.on_ack(ms(1), TcpAck { ack: 3 * mss });
        assert_eq!(below(&tx, 5 * mss), [100, 3 * mss, 4 * mss]);
        // Now the straddler is covered too.
        tx.on_ack(ms(2), TcpAck { ack: 5 * mss });
        assert_eq!(below(&tx, 5 * mss), []);
    }
}
