//! Across-link rings (the structure F²Tree's rewiring creates per pod).
//!
//! Each pod's switches form a ring through *across links*. Ring direction
//! matters: the backup route through the **rightward** across link gets the
//! longer prefix (DCN prefix), the **leftward** one the shorter covering
//! prefix, which is how F²Tree avoids transient loops (paper §II-B). With
//! more across ports (§II-C) the ring also carries *chords* to the members
//! two or more steps away.

use crate::id::{LinkId, NodeId};

/// One pod's across-link ring, in ring order, with chords out to distance
/// `reach` in both directions.
///
/// `chords[d-1][i]` is the across link from `members[i]` to
/// `members[(i + d) % n]` — member `i`'s *rightward* distance-`d` link and
/// the target's *leftward* one. `chords[0]` is the plain ring; a
/// two-member ring has two parallel links there (as in the paper's k=4
/// testbed, Fig. 1(b)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PodRing {
    /// Ring members in order.
    pub members: Vec<NodeId>,
    /// `chords[d-1][i]` connects `members[i]` to its distance-`d`
    /// rightward neighbor.
    pub chords: Vec<Vec<LinkId>>,
}

impl PodRing {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// How far the chords reach (1 for the paper's two-port ring).
    pub fn reach(&self) -> usize {
        self.chords.len()
    }

    /// The ring position of `node`, if it is a member.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.members.iter().position(|&m| m == node)
    }

    /// The member `d` steps right of `node` and the chord to it; `None`
    /// for a non-member, `d = 0` or `d` beyond the reach.
    pub fn right(&self, node: NodeId, d: usize) -> Option<(NodeId, LinkId)> {
        let i = self.position(node)?;
        let link = *self.chords.get(d.checked_sub(1)?)?.get(i)?;
        Some((*self.members.get((i + d) % self.len())?, link))
    }

    /// The member `d` steps left of `node` and the chord to it (that
    /// member's rightward distance-`d` chord); `None` for a non-member,
    /// `d = 0` or `d` beyond the reach.
    pub fn left(&self, node: NodeId, d: usize) -> Option<(NodeId, LinkId)> {
        let i = self.position(node)?;
        let n = self.len();
        let j = (i + n - d % n) % n;
        let link = *self.chords.get(d.checked_sub(1)?)?.get(j)?;
        Some((*self.members.get(j)?, link))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `n`-member ring with chords out to `reach`; link ids count up
    /// level by level.
    fn ring(n: u32, reach: u32) -> PodRing {
        PodRing {
            members: (0..n).map(NodeId::new).collect(),
            chords: (0..reach)
                .map(|d| (0..n).map(|i| LinkId::new(d * n + i)).collect())
                .collect(),
        }
    }

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn neighbors_wrap_around() {
        let r = ring(4, 1);
        assert_eq!(r.right(node(3), 1).map(|(n, _)| n), Some(node(0)));
        assert_eq!(r.left(node(0), 1).map(|(n, _)| n), Some(node(3)));
        assert_eq!(r.right(node(1), 1).map(|(n, _)| n), Some(node(2)));
    }

    #[test]
    fn left_link_is_the_left_neighbors_right_link() {
        let r = ring(4, 1);
        assert_eq!(r.right(node(1), 1), Some((node(2), LinkId::new(1))));
        assert_eq!(r.left(node(1), 1), Some((node(0), LinkId::new(0))));
        assert_eq!(r.left(node(0), 1), Some((node(3), LinkId::new(3))));
    }

    #[test]
    fn two_member_ring_uses_parallel_links() {
        let r = ring(2, 1);
        // Member 0's right link is link 0, its left link is link 1 —
        // distinct parallel links between the same two switches.
        assert_eq!(r.right(node(0), 1), Some((node(1), LinkId::new(0))));
        assert_eq!(r.left(node(0), 1), Some((node(1), LinkId::new(1))));
    }

    #[test]
    fn non_member_queries_return_none() {
        let r = ring(3, 1);
        assert_eq!(r.position(node(9)), None);
        assert_eq!(r.right(node(9), 1), None);
        assert_eq!(r.left(node(9), 1), None);
    }

    #[test]
    fn chords_reach_distance_two_both_ways() {
        let r = ring(5, 2);
        assert_eq!(r.reach(), 2);
        assert_eq!(r.right(node(4), 2), Some((node(1), LinkId::new(9))));
        // Member 0's leftward distance-2 chord is member 3's rightward one.
        assert_eq!(r.left(node(0), 2), Some((node(3), LinkId::new(8))));
    }

    #[test]
    fn out_of_range_distances_return_none() {
        for r in [ring(2, 1), ring(5, 2)] {
            let reach = r.reach();
            for m in [node(0), node(1)] {
                assert_eq!(r.right(m, 0), None);
                assert_eq!(r.left(m, 0), None);
                assert_eq!(r.right(m, reach + 1), None);
                assert_eq!(r.left(m, reach + 1), None);
            }
        }
        let empty = ring(0, 0);
        assert_eq!(empty.right(node(0), 1), None);
        assert_eq!(empty.left(node(0), 1), None);
    }
}
