//! The event-queue reference oracle: `EventQueue` — its own binary heap
//! that replaces its root in place — must pop exactly what a plain
//! `std::collections::BinaryHeap` pops, key for key and event for event.
//!
//! The [`reference`] module is the `BinaryHeap<Entry<E>>` queue `dcn-sim`
//! shipped before the in-place heap replaced it, kept verbatim as
//! test-only code (its key is a local type: the real one is opaque). The
//! [`Pair`] driver applies every operation to both and compares `len`,
//! `now`, `processed` and `peak_pending` after each step.

use dcn_sim::{EventKey, EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use dcn_sim::SimTime;

    #[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
    pub struct EventKey {
        pub at: SimTime,
        seq: u64,
    }

    struct Entry<E> {
        key: EventKey,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap but we want earliest-first.
            other.key.cmp(&self.key)
        }
    }

    pub struct EventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
        popped: u64,
        peak: usize,
    }

    impl<E> EventQueue<E> {
        pub fn new() -> Self {
            EventQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
                popped: 0,
                peak: 0,
            }
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn schedule(&mut self, at: SimTime, event: E) {
            let key = self.draw_key(at);
            self.schedule_at_key(key, event);
        }

        pub fn draw_key(&mut self, at: SimTime) -> EventKey {
            let seq = self.seq;
            self.seq += 1;
            EventKey { at, seq }
        }

        pub fn schedule_at_key(&mut self, key: EventKey, event: E) {
            assert!(
                key.at >= self.now,
                "scheduled event at {} before current time {}",
                key.at,
                self.now
            );
            self.heap.push(Entry { key, event });
            self.peak = self.peak.max(self.heap.len());
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            debug_assert!(entry.key.at >= self.now);
            self.now = entry.key.at;
            self.popped += 1;
            Some((entry.key.at, entry.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.key.at)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        pub fn processed(&self) -> u64 {
            self.popped
        }

        pub fn peak_pending(&self) -> usize {
            self.peak
        }
    }
}

/// Both queues, driven in lockstep. Events are serial numbers, so a pop
/// that agrees on the event agrees on which scheduling call it came from.
struct Pair {
    real: EventQueue<u32>,
    reference: reference::EventQueue<u32>,
    next_event: u32,
    /// Keys drawn and not yet scheduled, as (reference, real) pairs.
    drawn: Vec<(reference::EventKey, EventKey)>,
    /// The real key of every event scheduled under a drawn key.
    keyed: Vec<(u32, EventKey)>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            real: EventQueue::new(),
            reference: reference::EventQueue::new(),
            next_event: 0,
            drawn: Vec::new(),
            keyed: Vec::new(),
        }
    }

    fn event(&mut self) -> u32 {
        self.next_event += 1;
        self.next_event
    }

    fn in_ns(&self, ns: u64) -> SimTime {
        self.reference.now() + SimDuration::from_nanos(ns)
    }

    /// `schedule` an event `ns` after the current time.
    fn schedule(&mut self, ns: u64) {
        let (at, event) = (self.in_ns(ns), self.event());
        self.real.schedule(at, event);
        self.reference.schedule(at, event);
        self.check();
    }

    /// `draw_key` for `ns` after the current time; queues nothing.
    fn draw(&mut self, ns: u64) {
        let at = self.in_ns(ns);
        let pair = (self.reference.draw_key(at), self.real.draw_key(at));
        assert_eq!(pair.1.time(), at);
        self.drawn.push(pair);
        self.check();
    }

    /// `schedule_at_key` under the `pick`-th outstanding drawn key, unless
    /// the clock has passed it (both queues panic on that, by design).
    fn schedule_drawn(&mut self, pick: usize) {
        if self.drawn.is_empty() {
            return;
        }
        let (reference_key, real_key) = self.drawn.swap_remove(pick % self.drawn.len());
        if reference_key.at < self.reference.now() {
            return;
        }
        let event = self.event();
        self.real.schedule_at_key(real_key, event);
        self.reference.schedule_at_key(reference_key, event);
        self.keyed.push((event, real_key));
        self.check();
    }

    fn pop(&mut self) -> Option<u32> {
        let expected = self.reference.pop();
        let got = self.real.pop();
        assert_eq!(got.map(|(key, event)| (key.time(), event)), expected);
        if let Some((key, event)) = got {
            // An event scheduled under a drawn key hands that key back.
            if let Some(&(_, drawn)) = self.keyed.iter().find(|&&(e, _)| e == event) {
                assert_eq!(key, drawn);
            }
        }
        self.check();
        got.map(|(_, event)| event)
    }

    fn peek(&mut self) {
        assert_eq!(self.real.peek_time(), self.reference.peek_time());
        self.check();
    }

    fn check(&self) {
        assert_eq!(self.real.len(), self.reference.len(), "len");
        assert_eq!(self.real.is_empty(), self.reference.is_empty(), "is_empty");
        assert_eq!(self.real.now(), self.reference.now(), "now");
        assert_eq!(
            self.real.processed(),
            self.reference.processed(),
            "processed"
        );
        assert_eq!(
            self.real.peak_pending(),
            self.reference.peak_pending(),
            "peak_pending"
        );
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.real.is_empty());
    }
}

/// Seven events at distinct instants: a three-level heap.
fn seven() -> Pair {
    let mut pair = Pair::new();
    for ns in [40, 10, 60, 20, 70, 30, 50] {
        pair.schedule(ns);
    }
    pair
}

#[test]
fn pop_then_pop_with_nothing_scheduled_between() {
    let mut pair = seven();
    // Every pop after the first finds the root vacant and removes it.
    pair.drain();
    assert_eq!(pair.pop(), None, "a vacant last root is not an event");
    assert_eq!(pair.real.processed(), 7);
}

#[test]
fn pop_then_two_schedules() {
    let mut pair = seven();
    pair.pop();
    pair.schedule(5); // replaces the vacant root and stays there
    pair.schedule(1); // a plain push that sifts up past it
    assert_eq!(pair.real.len(), 8);
    assert_eq!(pair.real.peak_pending(), 8);
    pair.drain();
}

#[test]
fn a_schedule_later_than_the_vacant_roots_children_sifts_down() {
    let mut pair = seven();
    pair.pop();
    pair.schedule(1_000); // later than everything: sinks to a leaf
    assert_eq!(pair.real.peak_pending(), 7, "a replaced root adds no entry");
    pair.pop();
    pair.schedule(25); // lands mid-heap
    pair.drain();
}

#[test]
fn drain_to_empty_then_schedule() {
    let mut pair = seven();
    pair.drain();
    pair.schedule(0); // same instant as the last pop
    pair.schedule(3);
    assert_eq!(pair.real.len(), 2);
    pair.drain();
    // One event, popped, leaves a vacant root in a one-entry heap.
    pair.schedule(1);
    pair.pop();
    pair.schedule(1);
    pair.drain();
}

#[test]
fn peek_between_pop_and_schedule() {
    let mut pair = seven();
    pair.pop();
    pair.peek(); // removes the vacant root: the schedule below is a push
    pair.schedule(0);
    pair.peek();
    pair.pop();
    pair.peek();
    pair.peek();
    pair.drain();
    pair.peek();
}

#[test]
fn a_drawn_key_replaces_the_vacant_root_ahead_of_later_draws() {
    let mut pair = Pair::new();
    pair.schedule(5);
    pair.draw(5);
    pair.schedule(5);
    pair.schedule(9);
    pair.pop();
    // Scheduled into the vacant root with the smallest key of the heap.
    pair.schedule_drawn(0);
    pair.drain();
}

proptest! {
    /// Random interleavings of `schedule`, `draw_key` + late
    /// `schedule_at_key`, `pop` and `peek_time`: identical popped
    /// sequence, identical counters after every step. Offsets are small
    /// so that same-instant ties are the common case.
    #[test]
    fn any_interleaving_matches_the_reference(
        ops in prop::collection::vec((0u8..10, 0u64..12), 1..600),
    ) {
        let mut pair = Pair::new();
        for &(op, arg) in &ops {
            match op {
                0..=2 => pair.schedule(arg),
                3 => pair.draw(arg),
                4 => pair.schedule_drawn(arg as usize),
                5..=8 => {
                    pair.pop();
                }
                _ => pair.peek(),
            }
        }
        pair.drain();
    }

    /// The emulator's shape: a handful of pending events, and almost
    /// every pop followed by exactly one schedule (a forwarded hop).
    #[test]
    fn pop_one_schedule_one_matches_the_reference(
        hops in prop::collection::vec((0u64..40, 0u8..16), 1..800),
    ) {
        let mut pair = Pair::new();
        for ns in 0..10 {
            pair.schedule(ns * 3);
        }
        for &(ns, kind) in &hops {
            pair.peek();
            if pair.pop().is_none() {
                pair.schedule(ns);
            }
            match kind {
                0 => {}                 // the packet died: nothing scheduled
                1 => {                  // a tick: the packet and the next tick
                    pair.schedule(ns);
                    pair.schedule(ns + 100);
                }
                _ => pair.schedule(ns), // a forwarded hop
            }
        }
        pair.drain();
    }
}
