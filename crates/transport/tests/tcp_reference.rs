//! The TCP sender's reference oracle: `TcpSender` — whose segment book is
//! a seq-sorted ring buffer filled through a caller-owned output buffer —
//! must answer every event exactly as the `BTreeMap`-booked sender it
//! replaced: the same outputs in the same order, and the same `acked`,
//! `retransmits`, `cwnd` and completion after every step.
//!
//! The [`reference`] module is that sender, kept verbatim as test-only code
//! (renamed `ReferenceSender`; the fields the driver reads are `pub`).
//! The [`Pair`] driver feeds both the same stream: data segments lost,
//! duplicated and reordered on the wire, ACKs lost and reordered, ACKs that
//! land mid-segment, RTO firings with current and stale tokens, and pacing
//! ticks.

use dcn_net::{FlowKey, Ipv4Addr, Protocol};
use dcn_sim::{SimDuration, SimTime};
use dcn_transport::{
    TcpAck, TcpApp, TcpConfig, TcpReceiver, TcpSegment, TcpSender, TcpSenderOutput,
};
use proptest::prelude::*;

mod reference {
    use std::collections::BTreeMap;

    use dcn_net::FlowKey;
    use dcn_sim::{SimDuration, SimTime};
    use dcn_transport::{
        TcpAck, TcpApp, TcpConfig, TcpSegment, TcpSenderOutput, PROBE_BYTES, PROBE_INTERVAL,
    };

    #[derive(Copy, Clone, Debug)]
    pub struct SentInfo {
        pub len: u32,
        sent_at: SimTime,
        retransmitted: bool,
    }

    /// The sending half of a TCP connection.
    pub struct ReferenceSender {
        flow: FlowKey,
        config: TcpConfig,
        app: TcpApp,
        /// Bytes the application has made available.
        released: u64,
        snd_una: u64,
        pub snd_nxt: u64,
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
        pub segments: BTreeMap<u64, SentInfo>,
        /// Highest sequence ever transmitted; transmissions below it after an
        /// RTO rollback are retransmissions (go-back-N recovery).
        high_water: u64,
        completed: bool,
        total_retransmits: u64,
    }

    impl ReferenceSender {
        /// Creates a sender in established state.
        pub fn new(flow: FlowKey, config: TcpConfig, app: TcpApp) -> Self {
            let released = match app {
                TcpApp::FixedSize { bytes } => bytes,
                TcpApp::Paced => 0,
            };
            ReferenceSender {
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

            let was_cwnd_limited =
                (self.snd_nxt - self.snd_una) as f64 >= self.cwnd - self.config.mss as f64;
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
}

fn flow() -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 11, 0, 2),
        Ipv4Addr::new(10, 11, 9, 2),
        40_000,
        5001,
        Protocol::Tcp,
    )
}

const MSS: u64 = 1448;

/// One input to a sender.
#[derive(Copy, Clone, Debug)]
enum Event {
    Start,
    Ack(u64),
    Rto(u64),
    Pace,
}

/// The sender under test and the reference, fed the same events.
struct Pair {
    new: TcpSender,
    old: reference::ReferenceSender,
    /// Reused across events, as the emulator reuses its buffer.
    out: Vec<TcpSenderOutput>,
}

impl Pair {
    fn new(app: TcpApp) -> Self {
        let pair = Pair {
            new: TcpSender::new(flow(), TcpConfig::default(), app),
            old: reference::ReferenceSender::new(flow(), TcpConfig::default(), app),
            out: Vec::new(),
        };
        assert_eq!(pair.new.flow(), pair.old.flow());
        pair
    }

    /// Feeds `event` at `now` to both senders, asserts they agree on the
    /// outputs and every observable, and returns the outputs.
    fn step(&mut self, now: SimTime, event: Event) -> Vec<TcpSenderOutput> {
        let expected = match event {
            Event::Start => self.old.on_start(now),
            Event::Ack(ack) => self.old.on_ack(now, TcpAck { ack }),
            Event::Rto(token) => self.old.on_rto(now, token),
            Event::Pace => self.old.on_pace(now),
        };
        self.out.clear();
        match event {
            Event::Start => self.new.on_start_into(now, &mut self.out),
            Event::Ack(ack) => self.new.on_ack_into(now, TcpAck { ack }, &mut self.out),
            Event::Rto(token) => self.new.on_rto_into(now, token, &mut self.out),
            Event::Pace => self.new.on_pace_into(now, &mut self.out),
        }
        assert_eq!(self.out, expected, "outputs of {event:?} at {now}");
        assert_eq!(self.new.acked(), self.old.acked(), "acked after {event:?}");
        assert_eq!(self.new.retransmits(), self.old.retransmits());
        assert_eq!(self.new.cwnd().to_bits(), self.old.cwnd().to_bits());
        assert_eq!(self.new.is_complete(), self.old.is_complete());
        expected
    }

    /// Whether the reference book holds an entry straddling `snd_una`:
    /// it starts below and ends above.
    fn straddles(&self) -> bool {
        let una = self.old.acked();
        (self.old.segments.range(..una)).any(|(&seq, info)| seq + u64::from(info.len) > una)
    }
}

/// The wire both senders share: one receiver, data segments and ACKs in
/// flight, and the latest armed RTO token.
struct World {
    pair: Pair,
    rx: TcpReceiver,
    now: SimTime,
    data: Vec<TcpSegment>,
    acks: Vec<u64>,
    token: Option<u64>,
    straddled: bool,
}

impl World {
    fn new(app: TcpApp) -> Self {
        let mut world = World {
            pair: Pair::new(app),
            rx: TcpReceiver::new(),
            now: SimTime::ZERO,
            data: Vec::new(),
            acks: Vec::new(),
            token: None,
            straddled: false,
        };
        world.feed(Event::Start);
        world
    }

    fn feed(&mut self, event: Event) {
        for output in self.pair.step(self.now, event) {
            match output {
                TcpSenderOutput::Send(seg) => self.data.push(seg),
                TcpSenderOutput::ArmRto { token, .. } => self.token = Some(token),
                TcpSenderOutput::ArmPace { .. } | TcpSenderOutput::Complete { .. } => {}
            }
        }
        self.straddled |= self.pair.straddles();
    }

    /// Applies one scripted operation after up to 205 ms, so round trips
    /// range from a few µs to seconds and the RTO estimator leaves its
    /// 200 ms floor.
    fn apply(&mut self, op: u8, arg: u64) {
        self.now += SimDuration::from_micros(50 * (arg % 4096));
        let pick = |len: usize| (arg as usize) % len.max(1);
        match op {
            // Deliver a data segment, in any order; its ACK goes on the wire.
            0 | 1 if !self.data.is_empty() => {
                let seg = self.data.remove(pick(self.data.len()));
                self.acks.push(self.rx.on_segment(self.now, seg).ack);
            }
            2 if !self.data.is_empty() => {
                self.data.remove(pick(self.data.len()));
            }
            3 if !self.data.is_empty() => {
                let seg = self.data[pick(self.data.len())];
                self.data.push(seg);
            }
            // Deliver an ACK, in any order.
            4 | 5 if !self.acks.is_empty() => {
                let ack = self.acks.remove(pick(self.acks.len()));
                self.feed(Event::Ack(ack));
            }
            6 if !self.acks.is_empty() => {
                let i = pick(self.acks.len());
                if arg % 2 == 0 {
                    self.acks.remove(i);
                } else {
                    self.acks.push(self.acks[i]);
                }
            }
            // The timer fires: with the armed token, or a stale one.
            7 => {
                if let Some(token) = self.token {
                    let token = if arg % 4 == 0 { token - 1 } else { token };
                    self.feed(Event::Rto(token));
                }
            }
            // An ACK that lands anywhere in the outstanding bytes, segment
            // boundary or not.
            8 => {
                let una = self.pair.old.acked();
                let ack = una + arg % (self.pair.old.snd_nxt - una + 1);
                self.feed(Event::Ack(ack));
            }
            9 => self.feed(Event::Pace),
            _ => {}
        }
    }
}

/// The straddler the go-back-N rule exists for: an ACK lands mid-segment,
/// the RTO rolls back and re-sends from it over the old boundaries, and
/// the next ACK covers the re-sent segment but not the old one behind it.
#[test]
fn a_go_back_n_resend_leaves_a_straddler_both_books_agree_on() {
    let mut pair = Pair::new(TcpApp::FixedSize { bytes: 100 * MSS });
    let at = |us| SimTime::ZERO + SimDuration::from_micros(us);
    let token = |outputs: &[TcpSenderOutput]| {
        outputs.iter().rev().find_map(|o| match o {
            TcpSenderOutput::ArmRto { token, .. } => Some(*token),
            _ => None,
        })
    };
    let started = pair.step(at(0), Event::Start);
    assert_eq!(started.len(), 11, "ten segments and a timer");
    // [0, 1448) straddles 700 and stays.
    let acked = pair.step(at(100), Event::Ack(700));
    assert!(pair.straddles());
    // Go-back-N re-sends [700, 2148) over the old [1448, 2896).
    let rto = pair.step(at(300_000), Event::Rto(token(&acked).unwrap()));
    let TcpSenderOutput::Send(resent) = rto[0] else {
        panic!("expected a re-send first, got {rto:?}");
    };
    assert_eq!(
        (resent.seq, resent.len, resent.retransmit),
        (700, 1448, true)
    );
    // [0, 1448) and [700, 2148) go; [1448, 2896) straddles 2148 and stays.
    pair.step(at(300_100), Event::Ack(2148));
    let first = pair.old.segments.first_key_value().map(|(&seq, _)| seq);
    assert_eq!(first, Some(MSS));
    assert!(pair.straddles());
    // The straddler's own ACK clears it (the re-sends at 2148 on now
    // straddle in turn); the books still agree.
    pair.step(at(300_200), Event::Ack(2 * MSS));
    assert!(!pair.old.segments.contains_key(&MSS));
    for ack in (3..=100).map(|n| n * MSS) {
        pair.step(at(300_200 + ack), Event::Ack(ack));
    }
    assert!(pair.new.is_complete());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any event stream: both senders answer every event alike.
    #[test]
    fn the_ring_book_answers_every_event_as_the_btree_book_did(
        segments in 1u64..80,
        tail in 0u64..1448,
        paced in any::<bool>(),
        script in prop::collection::vec((0u8..10, any::<u64>()), 1..400),
    ) {
        let app = if paced {
            TcpApp::Paced
        } else {
            TcpApp::FixedSize { bytes: segments * MSS + tail }
        };
        let mut world = World::new(app);
        for &(op, arg) in &script {
            world.apply(op, arg);
        }
    }
}

/// The stream above does reach the straddler rule, not only in the
/// scripted case.
#[test]
fn random_streams_reach_straddling_entries() {
    let mut straddled = 0;
    for case in 0..64u64 {
        let mut world = World::new(TcpApp::FixedSize { bytes: 60 * MSS });
        let mut x = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..400 {
            // xorshift64: a fixed stream per case.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            world.apply((x % 10) as u8, x >> 8);
        }
        straddled += u32::from(world.straddled);
    }
    assert!(straddled > 0, "no case produced a straddling entry");
}
