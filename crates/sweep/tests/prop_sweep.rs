//! Property tests for the sweep engine's determinism contract: per-cell
//! RNG streams are a pure function of `(master_seed, cell_index)` —
//! pairwise independent of which cells run, in what order, on how many
//! workers.

use dcn_sweep::{cell_rng, cell_seed, ExperimentSpec, Workers};
use proptest::prelude::*;

/// The first `n` draws of cell `index`'s stream.
fn stream_prefix(master_seed: u64, index: usize, n: usize) -> Vec<u64> {
    let mut rng = cell_rng(master_seed, index);
    (0..n).map(|_| rng.gen_u64()).collect()
}

proptest! {
    /// Consuming any number of *other* cells' streams first — in any
    /// order — never perturbs a cell's own stream.
    #[test]
    fn cell_streams_are_execution_order_independent(
        master_seed: u64,
        index in 0usize..64,
        others in prop::collection::vec((0usize..64, 0usize..32), 0..8),
    ) {
        let fresh = stream_prefix(master_seed, index, 16);
        // Interleave arbitrary consumption of other streams.
        for &(other, draws) in &others {
            let mut rng = cell_rng(master_seed, other);
            for _ in 0..draws {
                let _ = rng.gen_u64();
            }
        }
        prop_assert_eq!(stream_prefix(master_seed, index, 16), fresh);
    }

    /// Distinct cells of one plan get pairwise distinct streams (seed
    /// collisions under SplitMix64 mixing would silently correlate
    /// cells).
    #[test]
    fn distinct_cells_get_distinct_streams(master_seed: u64, a in 0usize..256, b in 0usize..256) {
        if a != b {
            prop_assert_ne!(cell_seed(master_seed, a), cell_seed(master_seed, b));
            prop_assert_ne!(stream_prefix(master_seed, a, 4), stream_prefix(master_seed, b, 4));
        }
    }

    /// End to end: a plan whose cells consume unequal amounts of their
    /// streams merges to identical output on any worker count.
    #[test]
    fn sweep_output_is_worker_count_invariant(
        master_seed: u64,
        cells in 1usize..24,
        workers in 2usize..6,
    ) {
        let run = |w: Workers| -> Vec<u64> {
            ExperimentSpec::new("prop")
                .cells(0..cells)
                .master_seed(master_seed)
                .workers(w)
                .build()
                .run(|ctx| {
                    let mut rng = ctx.rng();
                    let draws = 1 + (ctx.index() * 7) % 11;
                    (0..draws).fold(0u64, |acc, _| acc.wrapping_add(rng.gen_u64()))
                })
        };
        prop_assert_eq!(run(Workers::SERIAL), run(Workers::new(workers)));
    }
}
