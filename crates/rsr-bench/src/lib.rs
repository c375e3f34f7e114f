//! Experiment harness for the paper's quantitative claims.
//!
//! Each module under [`experiments`] regenerates one committed
//! `BENCH_*.json` baseline: `paper` turns the paper's statistical claims
//! into gated keys, T1/F1b and T7 measure the IBLT threshold and the Gap
//! protocol, and N1, L1, C1 and P1 measure the transport and solver
//! layers this repo added. Every entry of [`experiments::all`] is one
//! function `run(quick)` returning a markdown section and a
//! [`BenchReport`]. One binary runs any entry by name, or all of them as
//! the full report:
//!
//! ```text
//! cargo run --release -p rsr-bench --bin rsr-exp -- <name>|all [--quick]
//!     [--json-out PATH] [--metrics-out PATH]
//! ```
//!
//! `--json-out` writes the entry's report, which CI compares with the
//! committed `BENCH_*.json` baseline through [`gate`] (see
//! docs/benchmarks.md). `quick` mode shrinks trial counts so the whole
//! suite stays in CI budgets.

pub mod benchjson;
pub mod experiments;
pub mod loadgen;
pub mod table;

pub use benchjson::{gate, BenchReport, Regression, Rule};
pub use table::Table;
