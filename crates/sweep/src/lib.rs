//! # dcn-sweep — deterministic parallel sweep engine
//!
//! Every artifact of the paper's evaluation (Tables I–IV, Figs. 2/4/5/6/7)
//! is a sweep over *(design × scale × failure condition × seed)* cells.
//! This crate is the one substrate those sweeps run on:
//!
//! * an [`ExperimentSpec`] builder enumerates the cells and fixes the
//!   master seed and worker count, producing a [`RunPlan`];
//! * [`RunPlan::run`] executes the cells on a `std::thread::scope` worker
//!   pool — no external dependencies — handing each cell a [`CellCtx`]
//!   whose one RNG stream, a [`dcn_sim::SimRng`], is fork `cell_index` of
//!   the master seed;
//! * results are merged **in cell order**, so the output of a sweep is
//!   byte-identical regardless of how many workers ran it or which worker
//!   picked up which cell.
//!
//! The worker count resolves, in priority order: an explicit
//! [`Workers::new`] (the `--workers N` flag), the `DCN_WORKERS`
//! environment variable, and finally [`std::thread::available_parallelism`].
//!
//! The engine reads no clock and reports nothing but the merged results:
//! how long a sweep took is measured from outside (`bench/`), and what
//! happened inside a cell is the cell's own return value.
//!
//! # Examples
//!
//! ```
//! use dcn_sweep::{ExperimentSpec, Workers};
//!
//! // 8 cells; each draws from its own deterministic stream.
//! let plan = ExperimentSpec::new("doc-demo")
//!     .cells(0u32..8)
//!     .master_seed(42)
//!     .workers(Workers::new(4))
//!     .build();
//! let parallel: Vec<u64> = plan.run(|ctx| ctx.rng().gen_u64() ^ u64::from(*ctx.cell()));
//!
//! let serial_plan = ExperimentSpec::new("doc-demo")
//!     .cells(0u32..8)
//!     .master_seed(42)
//!     .workers(Workers::SERIAL)
//!     .build();
//! let serial: Vec<u64> = serial_plan.run(|ctx| ctx.rng().gen_u64() ^ u64::from(*ctx.cell()));
//! assert_eq!(parallel, serial); // worker count never changes the output
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod plan;
mod pool;
mod workers;

pub use plan::{CellCtx, ExperimentSpec, RunPlan};
pub use workers::Workers;

use dcn_sim::SimRng;

/// The derived seed of cell `cell_index` under `master_seed`: the seed of
/// [`cell_rng`]'s stream.
pub fn cell_seed(master_seed: u64, cell_index: usize) -> u64 {
    cell_rng(master_seed, cell_index).seed()
}

/// The deterministic RNG stream of cell `cell_index` under `master_seed`:
/// fork `cell_index` of the master seed ([`SimRng::fork`]). It depends
/// only on the master seed and the cell's position in the plan, never on
/// execution order or worker interleaving.
pub fn cell_rng(master_seed: u64, cell_index: usize) -> SimRng {
    SimRng::new(master_seed).fork(cell_index as u64)
}
