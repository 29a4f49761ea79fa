//! The discrete-event queue.
//!
//! A deterministic priority queue over `(time, sequence)`: events scheduled
//! for the same instant pop in scheduling order, so identical seeds always
//! replay identical traces.
//!
//! The queue is its own binary min-heap, and it **replaces its root in
//! place**: [`EventQueue::pop`] hands the root's event out and leaves the
//! root behind, vacant; the next `schedule*` overwrites it and sifts down
//! once, so a forwarded packet hop (pop one event, schedule one) is a
//! single sift. The vacant root still carries the smallest key, so the
//! heap property holds around it; a `pop` or `peek_time` that finds it
//! still vacant removes it first. Keys are a total order, so the pop
//! sequence depends on what was scheduled, never on the array's shape.

use std::fmt;

use crate::time::SimTime;

/// An event's place in the queue's total order: its instant, then the
/// order in which keys were drawn for that instant.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    at: SimTime,
    seq: u64,
}

impl EventKey {
    /// The instant the key's event is due.
    pub fn time(self) -> SimTime {
        self.at
    }
}

struct Entry<E> {
    key: EventKey,
    /// `None` marks the vacant root: only there, and only between a `pop`
    /// and whatever follows it.
    event: Option<E>,
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use dcn_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::ZERO + SimDuration::from_millis(2), "later");
/// q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
/// let (key, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(key.time().as_nanos(), 1_000_000);
/// ```
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    seq: u64,
    now: SimTime,
    popped: u64,
    peak: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            peak: 0,
        }
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into
    /// the past is always a simulator bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.draw_key(at);
        self.schedule_at_key(key, event);
    }

    /// Draws the key [`Self::schedule`] would file an event for `at`
    /// under right now, without queueing anything. A timer that is
    /// re-armed far more often than it fires draws a key per arming and
    /// queues only the one that matters ([`Self::schedule_at_key`]): it
    /// then pops exactly where an entry pushed at arming time would
    /// have — after every same-instant event scheduled before the draw,
    /// before every one scheduled after it.
    pub fn draw_key(&mut self, at: SimTime) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        EventKey { at, seq }
    }

    /// Schedules `event` under a key drawn earlier with
    /// [`Self::draw_key`].
    ///
    /// # Panics
    ///
    /// Panics if the key's instant is earlier than the current time, like
    /// [`Self::schedule`].
    pub fn schedule_at_key(&mut self, key: EventKey, event: E) {
        assert!(
            key.at >= self.now,
            "scheduled event at {} before current time {}",
            key.at,
            self.now
        );
        let entry = Entry {
            key,
            event: Some(event),
        };
        match self.heap.first_mut() {
            Some(root) if root.event.is_none() => {
                *root = entry;
                self.sift_down();
            }
            _ => {
                self.heap.push(entry);
                self.sift_up();
            }
        }
        self.peak = self.peak.max(self.heap.len());
    }

    /// Pops the earliest event and advances the clock to it. The key is
    /// the one the event was scheduled under; [`EventKey::time`] is the
    /// new current time.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.remove_vacant_root();
        let root = self.heap.first_mut()?;
        let event = root.event.take()?;
        let key = root.key;
        debug_assert!(key.at >= self.now);
        self.now = key.at;
        self.popped += 1;
        Some((key, event))
    }

    /// The time of the next event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.remove_vacant_root();
        self.heap.first().map(|e| e.key.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.root_is_vacant())
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending events over the queue's lifetime.
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    fn root_is_vacant(&self) -> bool {
        self.heap.first().is_some_and(|root| root.event.is_none())
    }

    /// Nothing replaced the popped root: the last entry takes its place.
    fn remove_vacant_root(&mut self) {
        if self.root_is_vacant() {
            self.heap.swap_remove(0);
            self.sift_down();
        }
    }

    /// Restores the heap below a root that may be out of place. Keys are
    /// compared first; an entry moves only when a child must rise.
    fn sift_down(&mut self) {
        let mut at = 0;
        loop {
            let left = 2 * at + 1;
            let (Some(parent), Some(first)) = (self.heap.get(at), self.heap.get(left)) else {
                return;
            };
            let (child, key) = match self.heap.get(left + 1) {
                Some(second) if second.key < first.key => (left + 1, second.key),
                _ => (left, first.key),
            };
            if parent.key <= key {
                return;
            }
            self.heap.swap(at, child);
            at = child;
        }
    }

    /// Restores the heap above a freshly pushed last entry.
    fn sift_up(&mut self) {
        let mut at = self.heap.len().saturating_sub(1);
        while at > 0 {
            let up = (at - 1) / 2;
            let (Some(child), Some(parent)) = (self.heap.get(at), self.heap.get(up)) else {
                return;
            };
            if parent.key <= child.key {
                return;
            }
            self.heap.swap(at, up);
            at = up;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(30), 3);
        q.schedule(at_ms(10), 1);
        q.schedule(at_ms(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at_ms(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(at_ms(7)));
        q.pop();
        assert_eq!(q.now(), at_ms(7));
        assert!(q.is_empty());
        assert_eq!(q.processed(), 1);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(10), ());
        q.pop();
        q.schedule(at_ms(5), ());
    }

    #[test]
    fn peak_pending_tracks_the_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_pending(), 0);
        q.schedule(at_ms(1), 1);
        q.schedule(at_ms(2), 2);
        q.schedule(at_ms(3), 3);
        assert_eq!(q.peak_pending(), 3);
        q.pop();
        q.pop();
        q.schedule(at_ms(4), 4); // back to 2 pending: peak unchanged
        assert_eq!(q.peak_pending(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn a_key_drawn_early_and_scheduled_late_pops_where_it_was_drawn() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(5), "before the draw");
        let key = q.draw_key(at_ms(5));
        q.schedule(at_ms(5), "after the draw");
        q.schedule(at_ms(1), "earlier instant");
        assert_eq!(q.len(), 3, "drawing a key queues nothing");
        assert_eq!(q.pop().unwrap().1, "earlier instant");
        // Scheduled only now, yet it takes the place it drew.
        q.schedule_at_key(key, "drawn");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["before the draw", "drawn", "after the draw"]);
        assert_eq!(q.now(), at_ms(5));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_a_drawn_key_into_the_past_panics() {
        let mut q = EventQueue::new();
        let key = q.draw_key(at_ms(5));
        q.schedule(at_ms(10), ());
        q.pop();
        q.schedule_at_key(key, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(at_ms(1), "a");
        q.pop();
        q.schedule(at_ms(3), "c");
        q.schedule(at_ms(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop(), None);
    }
}
