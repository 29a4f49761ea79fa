//! # f2bench — the repo benchmark
//!
//! Four workloads, each in its own process, drive the F²Tree emulator
//! through its public functions only and time each layer from outside.
//! An untraced run reports the end-to-end metrics `BENCHMARK.json` bounds;
//! a traced run of the same workload reports the per-layer ledger.
//! `README.md` in this directory defines every workload and metric.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod harness;
pub mod json;
pub mod kernels;
pub mod procfs;
pub mod report;
pub mod span;
pub mod stats;
pub mod workloads;
