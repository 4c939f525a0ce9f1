//! The MITS campus benchmark.
//!
//! One command runs a named workload through `mits_core::Campus`,
//! prints every end-to-end metric by name with its unit, and checks the
//! outputs; `--trace 1` instead repeats the sessions through the
//! simulator's public calls and reports host time per layer. See
//! `BENCHMARK.json` at the repository root for the metrics and why each
//! workload was chosen.

pub mod checks;
pub mod stats;
pub mod trace;
pub mod workloads;
