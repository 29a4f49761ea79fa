//! The `ExperimentSpec` builder and the `RunPlan` it produces.

use dcn_sim::SimRng;

use crate::pool;
use crate::workers::Workers;

/// Builder for a sweep: what to run (the cells), under which master seed,
/// on how many workers.
///
/// A *cell* is one point of the experiment grid — typically a small `Copy`
/// struct naming a design, a scale, a failure scenario, or a seed. The
/// spec owns the enumeration order, and that order is the contract: results
/// come back in it, and each cell's RNG stream is keyed by its position.
///
/// # Examples
///
/// ```
/// use dcn_sweep::{ExperimentSpec, Workers};
///
/// let plan = ExperimentSpec::new("square")
///     .cells([1u64, 2, 3])
///     .workers(Workers::new(2))
///     .build();
/// assert_eq!(plan.run(|ctx| ctx.cell() * ctx.cell()), vec![1, 4, 9]);
/// ```
#[derive(Debug)]
pub struct ExperimentSpec<C> {
    cells: Vec<C>,
    master_seed: u64,
    workers: Workers,
}

impl<C> ExperimentSpec<C> {
    /// Starts an empty spec. The name only labels the sweep at its call
    /// site; it does not affect execution.
    pub fn new(_name: impl Into<String>) -> Self {
        ExperimentSpec {
            cells: Vec::new(),
            master_seed: 0,
            workers: Workers::auto(),
        }
    }

    /// Appends one cell.
    pub fn cell(mut self, cell: C) -> Self {
        self.cells.push(cell);
        self
    }

    /// Appends every cell of an iterator, preserving its order.
    pub fn cells(mut self, cells: impl IntoIterator<Item = C>) -> Self {
        self.cells.extend(cells);
        self
    }

    /// Sets the master seed all per-cell streams derive from (default 0).
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the worker count (default: [`Workers::auto`]).
    pub fn workers(mut self, workers: Workers) -> Self {
        self.workers = workers;
        self
    }

    /// Finalizes the spec into an executable plan.
    pub fn build(self) -> RunPlan<C> {
        RunPlan {
            cells: self.cells,
            master_seed: self.master_seed,
            workers: self.workers,
        }
    }
}

/// An enumerated, seeded, executable sweep.
#[derive(Debug)]
pub struct RunPlan<C> {
    pub(crate) cells: Vec<C>,
    pub(crate) master_seed: u64,
    pub(crate) workers: Workers,
}

impl<C: Sync> RunPlan<C> {
    /// Executes every cell and returns the results **in cell order**,
    /// regardless of worker count or scheduling.
    ///
    /// The closure must be a pure function of the cell and its
    /// [`CellCtx`] (in particular, draw randomness only from
    /// [`CellCtx::rng`]); the engine guarantees the rest of the
    /// determinism contract.
    pub fn run<R, F>(&self, run_cell: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut CellCtx<'_, C>) -> R + Sync,
    {
        pool::execute(self, run_cell)
    }
}

/// Everything one cell execution may depend on besides the experiment
/// configuration itself: the cell, its position, and its RNG stream.
#[derive(Debug)]
pub struct CellCtx<'a, C> {
    cell: &'a C,
    index: usize,
    master_seed: u64,
}

impl<'a, C> CellCtx<'a, C> {
    pub(crate) fn new(cell: &'a C, index: usize, master_seed: u64) -> Self {
        CellCtx {
            cell,
            index,
            master_seed,
        }
    }

    /// The cell under execution.
    pub fn cell(&self) -> &'a C {
        self.cell
    }

    /// The cell's index in plan order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// A fresh instance of this cell's deterministic RNG stream — a pure
    /// function of `(master_seed, index)`, independent of execution order.
    ///
    /// Every call restarts the stream from the cell seed, so a cell that
    /// needs several independent substreams should [`SimRng::fork`] one
    /// instance instead of calling this repeatedly.
    pub fn rng(&self) -> SimRng {
        crate::cell_rng(self.master_seed, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_rng;

    #[test]
    fn results_come_back_in_cell_order() {
        // Cells deliberately finish out of order (later cells are cheaper);
        // the merge must still return plan order.
        let plan = ExperimentSpec::new("order")
            .cells((0u64..16).rev())
            .workers(Workers::new(4))
            .build();
        let out = plan.run(|ctx| *ctx.cell());
        assert_eq!(out, (0u64..16).rev().collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let run = |workers: usize| -> Vec<u64> {
            ExperimentSpec::new("det")
                .cells(0u32..12)
                .master_seed(7)
                .workers(Workers::new(workers))
                .build()
                .run(|ctx| {
                    let mut rng = ctx.rng();
                    // Unequal work per cell provokes different schedules.
                    let draws = 1 + ctx.index() * 13;
                    (0..draws).fold(0u64, |acc, _| acc ^ rng.gen_u64())
                })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(32)); // more workers than cells
    }

    #[test]
    fn cell_rng_seeds_are_order_free_and_distinct() {
        let seed = |master, index| cell_rng(master, index).seed();
        let a = seed(42, 3);
        // Re-deriving after other cells were derived changes nothing.
        let _ = seed(42, 0);
        let _ = seed(42, 9);
        assert_eq!(seed(42, 3), a);
        assert_ne!(seed(42, 3), seed(42, 4));
        assert_ne!(seed(42, 3), seed(43, 3));
    }

    #[test]
    fn empty_plan_runs_to_empty_output() {
        let plan = ExperimentSpec::<u32>::new("empty").build();
        let out: Vec<u32> = plan.run(|ctx| *ctx.cell());
        assert!(out.is_empty());
    }

    #[test]
    fn cell_streams_are_pinned() {
        // Recorded literals: the first draws of three cells under the
        // default master seed, which every seeded artifact depends on.
        let pinned: [(usize, [u64; 4]); 3] = [
            (
                0,
                [
                    15735936254791949455,
                    16975891443929938105,
                    9402683396150578445,
                    3716813056088817492,
                ],
            ),
            (
                1,
                [
                    11269147516535199999,
                    2022349357040755225,
                    14373933191656432411,
                    11703436201883191398,
                ],
            ),
            (
                999,
                [
                    8123342532858077668,
                    4195625453049688564,
                    6786929566507052311,
                    11748844108885637850,
                ],
            ),
        ];
        for (cell, want) in pinned {
            let mut rng = cell_rng(20150701, cell);
            assert_eq!(want.map(|_| rng.gen_u64()), want, "cell {cell}");
        }
        // The context hands a cell exactly that stream.
        let plan = ExperimentSpec::new("pinned")
            .cells(0u32..2)
            .master_seed(20150701)
            .build();
        let first = plan.run(|ctx| ctx.rng().gen_u64());
        assert_eq!(first, [pinned[0].1[0], pinned[1].1[0]]);
    }
}
