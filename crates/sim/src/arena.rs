//! Where in-flight packets live. A packet is written once, when it enters
//! the network; every event that moves it names its 4-byte [`PacketSlot`],
//! and the handler of the event it dies in releases the slot. Freed slots
//! are reused last-in first-out, so the arena is as small as the peak in
//! flight. The arena is a slab of any `T`: the packet type is its user's.

/// Names one live packet of a [`PacketArena`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PacketSlot(u32);

/// A slab of in-flight packets with a LIFO free list.
#[derive(Debug)]
pub struct PacketArena<T> {
    slots: Vec<Option<T>>,
    free: Vec<PacketSlot>,
}

impl<T> Default for PacketArena<T> {
    fn default() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> PacketArena<T> {
    /// Stores `packet` and returns the slot that names it from now on.
    pub fn insert(&mut self, packet: T) -> PacketSlot {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            PacketSlot(self.slots.len() as u32 - 1)
        });
        if let Some(cell) = self.slots.get_mut(slot.0 as usize) {
            *cell = Some(packet);
        }
        slot
    }

    /// The live packet `slot` names; panics if it was already released.
    #[expect(
        clippy::expect_used,
        reason = "an event only names a slot it keeps live"
    )]
    pub fn get_mut(&mut self, slot: PacketSlot) -> &mut T {
        let cell = self.slots.get_mut(slot.0 as usize);
        cell.and_then(Option::as_mut).expect("packet slot is live")
    }

    /// Releases `slot` and hands its packet out — to the host it reached,
    /// or to be dropped; panics if it was already released.
    #[expect(
        clippy::expect_used,
        reason = "an event only names a slot it keeps live"
    )]
    pub fn remove(&mut self, slot: PacketSlot) -> T {
        let cell = self.slots.get_mut(slot.0 as usize);
        let packet = cell.and_then(Option::take).expect("packet slot is live");
        self.free.push(slot);
        packet
    }

    /// Packets currently in the arena.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever created: the most packets that were live at once.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut arena = PacketArena::default();
        let a = arena.insert(1u64);
        let b = arena.insert(2);
        let c = arena.insert(3);
        assert_eq!((arena.live(), arena.slots()), (3, 3));
        assert_eq!(arena.remove(a), 1);
        assert_eq!(arena.remove(c), 3);
        assert_eq!(arena.live(), 1);
        // `c` was freed last, so it is handed out first.
        assert_eq!(arena.insert(4), c);
        assert_eq!(arena.insert(5), a);
        assert_eq!(*arena.get_mut(b), 2);
        assert_eq!(*arena.get_mut(c), 4);
        assert_eq!((arena.live(), arena.slots()), (3, 3));
    }

    #[test]
    #[should_panic(expected = "packet slot is live")]
    fn a_released_slot_cannot_be_read() {
        let mut arena = PacketArena::default();
        let slot = arena.insert(1u64);
        arena.remove(slot);
        arena.get_mut(slot);
    }
}
