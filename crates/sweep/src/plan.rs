//! The `ExperimentSpec` builder and the `RunPlan` it produces.

use dcn_sim::{DetRng, SimRng};

use crate::workers::Workers;
use crate::{cell_seed, pool};

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
    name: String,
    cells: Vec<C>,
    master_seed: u64,
    workers: Workers,
}

impl<C> ExperimentSpec<C> {
    /// Starts an empty spec. The name labels the plan; it does not affect
    /// execution.
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentSpec {
            name: name.into(),
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
            name: self.name,
            cells: self.cells,
            master_seed: self.master_seed,
            workers: self.workers,
        }
    }
}

/// An enumerated, seeded, executable sweep.
#[derive(Debug)]
pub struct RunPlan<C> {
    pub(crate) name: String,
    pub(crate) cells: Vec<C>,
    pub(crate) master_seed: u64,
    pub(crate) workers: Workers,
}

impl<C> RunPlan<C> {
    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells in the plan.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The master seed the plan was built with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The configured worker count.
    pub fn workers(&self) -> Workers {
        self.workers
    }

    /// The cells, in plan order.
    pub fn plan_cells(&self) -> &[C] {
        &self.cells
    }
}

impl<C: Sync> RunPlan<C> {
    /// Executes every cell and returns the results **in cell order**,
    /// regardless of worker count or scheduling.
    ///
    /// The closure must be a pure function of the cell and its
    /// [`CellCtx`] (in particular, draw randomness only from
    /// [`CellCtx::rng`]/[`CellCtx::sim_rng`]); the engine guarantees the
    /// rest of the determinism contract.
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
    total: usize,
    master_seed: u64,
}

impl<'a, C> CellCtx<'a, C> {
    pub(crate) fn new(cell: &'a C, index: usize, total: usize, master_seed: u64) -> Self {
        CellCtx {
            cell,
            index,
            total,
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

    /// Total cells in the plan.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The 64-bit seed of this cell's stream — a pure function of
    /// `(master_seed, index)`, independent of execution order.
    pub fn seed(&self) -> u64 {
        cell_seed(self.master_seed, self.index)
    }

    /// A fresh instance of this cell's deterministic RNG stream.
    ///
    /// Every call restarts the stream from the cell seed, so a cell that
    /// needs several independent substreams should fork a [`SimRng`]
    /// via [`CellCtx::sim_rng`] instead of calling this repeatedly.
    pub fn rng(&self) -> DetRng {
        crate::cell_rng(self.master_seed, self.index)
    }

    /// This cell's stream wrapped in the simulator-facing [`SimRng`]
    /// (distributions + named substream forking).
    pub fn sim_rng(&self) -> SimRng {
        SimRng::new(self.seed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    (0..draws).fold(0u64, |acc, _| acc ^ rng.next_u64())
                })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(32)); // more workers than cells
    }

    #[test]
    fn cell_seed_is_order_free_and_distinct() {
        let a = cell_seed(42, 3);
        // Re-deriving after other cells were derived changes nothing.
        let _ = cell_seed(42, 0);
        let _ = cell_seed(42, 9);
        assert_eq!(cell_seed(42, 3), a);
        assert_ne!(cell_seed(42, 3), cell_seed(42, 4));
        assert_ne!(cell_seed(42, 3), cell_seed(43, 3));
    }

    #[test]
    fn empty_plan_runs_to_empty_output() {
        let plan = ExperimentSpec::<u32>::new("empty").build();
        let out: Vec<u32> = plan.run(|ctx| *ctx.cell());
        assert!(out.is_empty());
    }

    #[test]
    fn sim_rng_matches_seed() {
        let plan = ExperimentSpec::new("seeds").cells([0u8]).master_seed(9).build();
        let outputs = plan.run(|ctx| (ctx.seed(), ctx.sim_rng().gen_u64(), ctx.rng().next_u64()));
        let (seed, via_sim, via_det) = outputs[0];
        assert_eq!(seed, cell_seed(9, 0));
        // SimRng wraps the same DetRng engine, so first draws agree.
        assert_eq!(via_sim, via_det);
    }
}
