//! Path diversity: edge-disjoint path counts on the next-hop DAG.
//!
//! For a pod pair `(src, dst)` the score is the maximum number of
//! edge-disjoint paths the *installed routing* actually offers from
//! `src` to `dst` — max-flow with unit edge capacities on the alive
//! next-hop DAG edges. By Menger's theorem that count is an integer any
//! correct augmenting order reaches, so the search is free to be cheap:
//! the residual graph is built once per destination DAG over dense node
//! indices and shared by every pod pair aimed at it, and a pair starts
//! from zero flow by taking a fresh stamp instead of clearing arrays.

use std::fmt;

use super::dag::{NextHopDag, QualityInput};

/// Edge-disjoint path counts for the pod pairs whose DAG exists, in
/// [`QualityInput::pod_pairs`] order.
pub fn pod_pair_diversity(input: &QualityInput) -> Vec<u32> {
    let mut counts = vec![None; input.pod_pairs.len()];
    let mut flow = UnitFlow::new(input.slots());
    for (index, dag) in input.dags.iter().enumerate() {
        let mut built = false;
        let aimed = input
            .pod_pairs
            .iter()
            .zip(&mut counts)
            .filter(|(p, _)| p.2 == index);
        for (&(src, dst, _), count) in aimed {
            if !std::mem::replace(&mut built, true) {
                flow.build(input, dag);
            }
            *count = Some(flow.max_flow(src, dst));
        }
    }
    counts.into_iter().flatten().collect()
}

/// No arc: ends an adjacency list.
const NONE: u32 = u32::MAX;

/// Unit-capacity residual graph of one DAG's alive hops, as per-node
/// arc lists. Arc `2i` is hop `i` forward and arc `2i + 1` its reverse;
/// hop `i` carries flow iff `flow[i]` is the current pair's stamp, and
/// a node is reached iff `seen` holds the current search's stamp.
struct UnitFlow {
    /// First arc out of each node, then each arc's next sibling.
    first: Vec<u32>,
    next: Vec<u32>,
    /// Head node per arc.
    head: Vec<u32>,
    flow: Vec<u32>,
    seen: Vec<u32>,
    stamp: u32,
    /// The arc each node was reached over.
    via: Vec<u32>,
    queue: Vec<u32>,
}

impl UnitFlow {
    fn new(slots: usize) -> Self {
        UnitFlow {
            first: vec![NONE; slots],
            next: Vec::new(),
            head: Vec::new(),
            flow: Vec::new(),
            seen: vec![0; slots],
            stamp: 0,
            via: vec![0; slots],
            queue: Vec::new(),
        }
    }

    /// Rebuilds the residual graph from `dag`'s alive hops.
    #[expect(
        clippy::indexing_slicing,
        reason = "first has a slot per QualityInput::slots, which covers every row and head"
    )]
    fn build(&mut self, input: &QualityInput, dag: &NextHopDag) {
        self.first.fill(NONE);
        self.next.clear();
        self.head.clear();
        for u in 0..dag.rows.len() {
            for v in input
                .hops_of(dag, u)
                .iter()
                .filter_map(|&e| input.live_head(e))
            {
                for (from, to) in [(u, v), (v, u)] {
                    self.next.push(self.first[from]);
                    self.first[from] = self.head.len() as u32;
                    self.head.push(to as u32);
                }
            }
        }
        self.flow.clear();
        self.flow.resize(self.head.len() / 2, 0);
    }

    /// Maximum number of edge-disjoint `src -> dst` paths: augment one
    /// unit along a breadth-first residual path until none is left.
    #[expect(
        clippy::indexing_slicing,
        reason = "arc, hop and node ids all come from the graph build; src and dst are bounds-checked"
    )]
    fn max_flow(&mut self, src: usize, dst: usize) -> u32 {
        if src == dst || src >= self.seen.len() || dst >= self.seen.len() {
            return 0;
        }
        let pair = self.stamp + 1;
        let mut paths = 0;
        loop {
            self.stamp += 1;
            self.seen[src] = self.stamp;
            self.queue.clear();
            self.queue.push(src as u32);
            let mut next = 0;
            while self.seen[dst] != self.stamp {
                let Some(&u) = self.queue.get(next) else {
                    return paths;
                };
                next += 1;
                let mut a = self.first[u as usize];
                while a != NONE {
                    let v = self.head[a as usize] as usize;
                    let residual = (self.flow[a as usize / 2] == pair) != (a & 1 == 0);
                    if residual && self.seen[v] != self.stamp {
                        self.seen[v] = self.stamp;
                        self.via[v] = a;
                        self.queue.push(v as u32);
                    }
                    a = self.next[a as usize];
                }
            }
            let mut v = dst;
            while v != src {
                let a = self.via[v] as usize;
                self.flow[a / 2] = if a & 1 == 0 { pair } else { 0 };
                v = self.head[a ^ 1] as usize;
            }
            paths += 1;
        }
    }
}

/// Stable summary of per-pod-pair edge-disjoint path counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DiversitySummary {
    /// Number of pod pairs scored.
    pub pairs: u64,
    /// Minimum disjoint-path count over the pairs.
    pub min: u32,
    /// Median (nearest-rank) disjoint-path count.
    pub p50: u32,
    /// Maximum disjoint-path count over the pairs.
    pub max: u32,
}

impl DiversitySummary {
    /// Summarizes per-pair counts; `None` when no pair was scored.
    pub fn of(counts: &[u32]) -> Option<Self> {
        if counts.is_empty() {
            return None;
        }
        let mut sorted = counts.to_vec();
        sorted.sort_unstable();
        let mid = (sorted.len() - 1) / 2;
        Some(DiversitySummary {
            pairs: sorted.len() as u64,
            min: sorted.first().copied().unwrap_or(0),
            p50: sorted.get(mid).copied().unwrap_or(0),
            max: sorted.last().copied().unwrap_or(0),
        })
    }
}

impl fmt::Display for DiversitySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min {} p50 {} max {}",
            self.pairs, self.min, self.p50, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scores pod pairs `(src, dst)` on one DAG toward `dst` whose rows
    /// are `(node, [edge])`, edge `e` leading to `heads[e]`.
    fn diversity(
        rows: &[(usize, &[u32])],
        heads: &[u32],
        dead: &[usize],
        pairs: &[(usize, usize)],
    ) -> Vec<u32> {
        let mut edge_alive = vec![true; heads.len()];
        for &e in dead {
            edge_alive[e] = false;
        }
        let mut input = QualityInput {
            nodes: 8,
            edges: heads.len(),
            edge_alive,
            edge_head: heads.to_vec(),
            fabric_edges: Vec::new(),
            pod_pairs: pairs.iter().map(|&(src, dst)| (src, dst, 0)).collect(),
            dags: Vec::new(),
            hops: Vec::new(),
        };
        let rows = rows.iter().map(|&(u, hops)| (u, hops.iter().copied()));
        input.push_dag(pairs[0].1, Vec::new(), rows);
        pod_pair_diversity(&input)
    }

    /// 0 -> {1, 2} -> 3: two edge-disjoint paths to dst 3.
    const DIAMOND: &[(usize, &[u32])] = &[(0, &[0, 1]), (1, &[2]), (2, &[3])];
    const DIAMOND_HEADS: &[u32] = &[1, 2, 3, 3];

    #[test]
    fn diamond_has_two_disjoint_paths() {
        assert_eq!(diversity(DIAMOND, DIAMOND_HEADS, &[], &[(0, 3)]), [2]);
    }

    #[test]
    fn dead_edge_halves_diversity() {
        // Kill 0 -> 2.
        assert_eq!(diversity(DIAMOND, DIAMOND_HEADS, &[1], &[(0, 3)]), [1]);
    }

    #[test]
    fn shared_bottleneck_caps_flow() {
        // 0 -> {1, 2} -> 3 -> 4: both branches merge into one edge.
        let rows: &[(usize, &[u32])] = &[(0, &[0, 1]), (1, &[2]), (2, &[3]), (3, &[4])];
        assert_eq!(diversity(rows, &[1, 2, 3, 3, 4], &[], &[(0, 4)]), [1]);
    }

    #[test]
    fn unreachable_is_zero() {
        assert_eq!(
            diversity(DIAMOND, DIAMOND_HEADS, &[0, 1, 2, 3], &[(0, 3)]),
            [0]
        );
        assert_eq!(diversity(DIAMOND, DIAMOND_HEADS, &[], &[(3, 3)]), [0]);
    }

    #[test]
    fn pairs_sharing_a_dag_each_start_from_zero_flow() {
        // 1 and 2 each have one path; 0 has two: pair order must not leak.
        let pairs = [(1, 3), (0, 3), (2, 3), (0, 3)];
        assert_eq!(diversity(DIAMOND, DIAMOND_HEADS, &[], &pairs), [1, 2, 1, 2]);
    }

    #[test]
    fn augmenting_path_may_cancel_earlier_flow() {
        // s=0 x=1 y=2 t=3. The shortest path s-x-y-t comes first and
        // blocks every other way to t but one that crosses y->x over the
        // reverse arc, cancelling x->y. Left uncancelled, that phantom
        // unit would let s-z-z2-y-x reach t a third time: the cut
        // {s->x, y->t} caps the count at 2.
        let rows: &[(usize, &[u32])] = &[
            (0, &[0, 1, 2]),
            (1, &[3, 4, 5]),
            (2, &[6]),
            (4, &[7]),
            (5, &[8]),
            (6, &[9]),
            (7, &[10]),
            (8, &[11]),
            (9, &[12]),
            (10, &[13]),
            (11, &[14]),
        ];
        let heads = [1, 6, 10, 2, 4, 8, 3, 5, 3, 7, 2, 9, 3, 11, 2];
        assert_eq!(diversity(rows, &heads, &[], &[(0, 3)]), [2]);
    }

    #[test]
    fn summary_nearest_rank() {
        assert_eq!(DiversitySummary::of(&[]), None);
        let s = DiversitySummary::of(&[4, 1, 2, 8]).expect("non-empty");
        assert_eq!(s.pairs, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.p50, 2);
        assert_eq!(s.max, 8);
        assert_eq!(s.to_string(), "n=4 min 1 p50 2 max 8");
    }
}
