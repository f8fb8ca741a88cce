//! Experiment harness: regenerates every table and figure of the Cache
//! Automaton evaluation (Tables 1–5, Figures 7–10, headline summary).
//!
//! Use the `experiments` binary:
//!
//! ```text
//! cargo run --release -p ca-bench --bin experiments -- all
//! cargo run --release -p ca-bench --bin experiments -- table1 --scale 0.1 --kib 64
//! cargo run --release -p ca-bench --bin experiments -- fig9
//! ```
//!
//! Timings — end to end and per layer, with a noise floor — are the job of
//! the separate `benchmark/` package (`cabench`), not of this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod figures;
pub mod markdown;
pub mod suite;
pub mod tables;

pub use suite::{run_all, run_benchmark, BenchResult, DesignResult, RunConfig};
