//! # f2tree-experiments — the paper's evaluation, regenerated
//!
//! One runner per table and figure of *Rewiring 2 Links is Enough*
//! (ICDCS 2015):
//!
//! | artifact | module | entry point |
//! |---|---|---|
//! | Table I | [`table1`] | [`table1::run_table1`] |
//! | Table II | [`table2`] | [`table2::run_table2`] |
//! | Fig. 2 + Table III | [`testbed`] | [`testbed::run_table3`] (the C1 cell of [`conditions`] at k = 4) |
//! | Fig. 4 + Fig. 5 + Table IV | [`conditions`] | [`conditions::ConditionGrid::run`] |
//! | Fig. 6 | [`workload`] | [`workload::run_fig6`] |
//! | Fig. 7 | [`fig7`] | [`fig7::run_fig7_sweep`] |
//! | Recovery modes (ospf/f2tree/frr) | [`recovery`] | the same grid |
//! | Routing quality per mode | [`quality`] | the same grid |
//!
//! Fig. 4, Fig. 5, the mode comparison and the quality grid are views
//! ([`conditions::View`]) of one condition grid; a run computes each cell
//! its views read once.
//!
//! The `repro` binary runs everything at paper scale and prints each
//! table; `EXPERIMENTS.md` records paper-vs-measured values.
//!
//! # Examples
//!
//! ```
//! use f2tree_experiments::table1::{format_table1, run_table1};
//!
//! let rows = run_table1(8);
//! println!("{}", format_table1(8, &rows));
//! assert_eq!(rows.len(), 6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifacts;
pub mod conditions;
pub mod extensions;
pub mod plot;
pub mod quality;
pub mod recovery;
pub mod summary;
pub mod fig7;
pub mod table1;
pub mod table2;
pub mod testbed;
pub mod workload;
