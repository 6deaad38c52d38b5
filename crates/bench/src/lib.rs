//! # diads-bench
//!
//! The experiment harness of the DIADS reproduction. Every table and figure of the
//! paper's evaluation has a binary under `src/bin/` that regenerates it, and the
//! `benches/` directory holds micro/macro benchmarks of the main code paths, run on
//! the in-tree [`microbench`] harness.

pub mod harness;
pub mod hotpath;
pub mod microbench;
