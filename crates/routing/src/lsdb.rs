//! Link-state advertisements and the link-state database.

use std::fmt;
use std::sync::Arc;

use dcn_net::{LinkId, NodeId, Prefix};

/// One adjacency reported in an LSA (unit cost, per the paper's
/// "each link is assumed to have the same cost").
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Adjacency {
    /// The neighboring switch.
    pub neighbor: NodeId,
    /// The link used to reach it (multigraph-aware).
    pub link: LinkId,
}

/// A router link-state advertisement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lsa {
    /// The advertising switch.
    pub origin: NodeId,
    /// Monotonic freshness sequence number.
    pub seq: u64,
    /// The origin's live adjacencies at origination time.
    pub neighbors: Vec<Adjacency>,
    /// Prefixes redistributed by the origin (ToRs advertise their rack
    /// subnet; other switches advertise nothing).
    pub prefixes: Vec<Prefix>,
}

/// The per-router link-state database.
///
/// A dense table indexed by `origin.index()`: lookups are one bounds
/// check, and [`Lsdb::iter`] yields LSAs in origin order — SPF and
/// flooding visit the database in a reproducible sequence. LSAs are held
/// by `Arc`, so every router that installed an advertisement shares the
/// originator's one allocation.
#[derive(Clone, Default)]
pub struct Lsdb {
    slots: Vec<Option<Arc<Lsa>>>,
    len: usize,
}

impl Lsdb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Lsdb::default()
    }

    /// Installs `lsa` if it is newer than what is stored; returns whether
    /// it was installed (and should be re-flooded).
    pub fn install(&mut self, lsa: impl Into<Arc<Lsa>>) -> bool {
        let lsa = lsa.into();
        let index = lsa.origin.index();
        if index >= self.slots.len() {
            self.slots.resize(index + 1, None);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "the table was grown to cover `index` just above"
        )]
        let slot = &mut self.slots[index];
        if matches!(slot, Some(existing) if existing.seq >= lsa.seq) {
            return false;
        }
        self.len += usize::from(slot.is_none());
        *slot = Some(lsa);
        true
    }

    /// The stored LSA for `origin`, if any.
    pub fn get(&self, origin: NodeId) -> Option<&Lsa> {
        self.slots.get(origin.index())?.as_deref()
    }

    /// Iterates over all stored LSAs, in origin order.
    pub fn iter(&self) -> impl Iterator<Item = &Lsa> {
        self.slots.iter().filter_map(Option::as_deref)
    }

    /// Number of stored LSAs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One past the largest origin index ever stored: every stored LSA's
    /// `origin.index()` is below this bound (SPF sizes its arrays by it).
    pub(crate) fn index_bound(&self) -> usize {
        self.slots.len()
    }

    /// The table itself: slot `i` holds origin `i`'s LSA.
    pub(crate) fn slots(&self) -> &[Option<Arc<Lsa>>] {
        &self.slots
    }
}

impl fmt::Debug for Lsdb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lsdb").field("lsas", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adj(n: u32, l: u32) -> Adjacency {
        Adjacency {
            neighbor: NodeId::new(n),
            link: LinkId::new(l),
        }
    }

    fn lsa(origin: u32, seq: u64, neighbors: Vec<Adjacency>) -> Lsa {
        Lsa {
            origin: NodeId::new(origin),
            seq,
            neighbors,
            prefixes: vec![],
        }
    }

    #[test]
    fn install_accepts_only_newer() {
        let mut db = Lsdb::new();
        assert!(db.install(lsa(1, 1, vec![adj(2, 0)])));
        assert!(!db.install(lsa(1, 1, vec![])));
        assert!(!db.install(lsa(1, 0, vec![])));
        assert!(db.install(lsa(1, 2, vec![])));
        assert_eq!(db.get(NodeId::new(1)).unwrap().seq, 2);
        assert_eq!(db.len(), 1);
    }
}
