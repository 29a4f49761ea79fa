//! `xtask` as a library: the lint pass behind `cargo run -p xtask -- lint`.
//!
//! Two engines, one report. [`clippy`] runs `cargo clippy` over the
//! workspace (reading its stream with [`json`]) and maps lint names to
//! the `determinism`, `panic-safety` and `panic-indexing` families;
//! [`rules`] runs the two token rules clippy cannot express
//! (`timer-constants`, `rng-stream`) over [`lexer`] output for every file
//! [`walk`] finds. [`engine`] merges both and applies the per-file
//! ratchet from [`allowlist`]; [`diag`] defines diagnostics, their text
//! rendering and the `--explain` texts.
//!
//! Exposed as a library so integration tests can run the token pass over
//! fixture crate trees (see `tests/golden_json.rs`).

pub mod allowlist;
pub mod clippy;
pub mod diag;
pub mod engine;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod walk;
