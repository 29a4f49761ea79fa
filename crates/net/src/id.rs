//! Identifier newtypes for topology entities.
//!
//! Using dedicated index newtypes (rather than bare `usize`) keeps node,
//! link, and pod indices statically distinct across the whole workspace
//! (C-NEWTYPE) while remaining `Copy` and hashable for hot-path use.

use std::fmt;

macro_rules! index_newtype {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(
            Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// Returns the raw index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw index as `u32`.
            pub const fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                $name(index)
            }
        }
    };
}

index_newtype!(
    /// Identifies a node (host or switch) within a [`Topology`].
    ///
    /// [`Topology`]: crate::Topology
    NodeId,
    "n"
);

index_newtype!(
    /// Identifies a bidirectional link within a [`Topology`].
    ///
    /// Topologies are multigraphs: two parallel links between the same pair
    /// of switches (as in the k=4 F²Tree testbed rings) have distinct ids.
    ///
    /// [`Topology`]: crate::Topology
    LinkId,
    "l"
);

index_newtype!(
    /// Identifies a pod: a set of switches connected to the same subtree.
    ///
    /// Following the paper (footnote 5, after Aspen trees), aggregation
    /// switches of one pod form a pod, and core switches connected to the
    /// same aggregation-switch index form a pod at the core layer.
    PodId,
    "pod"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.as_u32(), 7);
        assert_eq!(n.to_string(), "n7");
        assert_eq!(NodeId::from(7u32), n);

        assert_eq!(LinkId::new(3).to_string(), "l3");
        assert_eq!(PodId::new(2).to_string(), "pod2");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(LinkId::new(0) < LinkId::new(10));
    }
}
