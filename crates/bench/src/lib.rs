//! Experiment harness for the PipeDream reproduction.
//!
//! One module per paper artifact (table or figure). Every module exposes a
//! `run()` returning a structured, `Display`able result, so the same code
//! backs the `repro` binary (which prints the paper-style tables) and the
//! workspace integration tests that assert each result's *shape* against
//! the paper's claims. Performance numbers are not measured here: they
//! come from the ledger (`bench/` at the repository root).
//!
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
//! recorded paper-vs-measured values.

pub mod experiments;
pub mod util;

pub use experiments::*;
