//! Experiment harness for the paper's quantitative claims.
//!
//! Each module under [`experiments`] regenerates one table or figure
//! (T1–T12 and F1 reproduce the paper's evaluation; N1 and P1 measure
//! the transport and solver layers this repo added). Every experiment is
//! a pure function `run(quick: bool) -> String` returning a markdown
//! section, listed in [`experiments::all`]. One binary runs any of them
//! by name, or all of them as the full report (`cargo run --release -p
//! rsr-bench --bin rsr-exp -- <name>|all`); the six `exp_*` binaries
//! are the ones that also [`emit`] machine-readable `BENCH_*.json`
//! reports, which CI gates against committed baselines (see
//! docs/benchmarks.md).
//!
//! `quick` mode shrinks trial counts so the whole suite stays in CI
//! budgets; the full mode is what EXPERIMENTS.md reports.

pub mod benchjson;
pub mod experiments;
pub mod loadgen;
pub mod table;

pub use benchjson::{
    latency_regressions, regressions, success_regressions, thread_regressions, BenchReport,
    Regression,
};
pub use loadgen::Arrival;
pub use table::Table;

/// Parses the conventional `--quick` flag from process args.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parses the conventional `--json` flag: `Some(path)` when present,
/// writing to `default_name` in the working directory unless
/// `--json-out PATH` overrides it (so CI can compare a fresh run
/// against a committed baseline of the same name). A `--json-out` with
/// no following path aborts instead of silently writing to the default
/// location — a CI step expecting the redirected file must not compare
/// a stale one.
pub fn json_out(default_name: &str) -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    let mut path = None;
    let mut wanted = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => wanted = true,
            "--json-out" => {
                wanted = true;
                match args.next() {
                    Some(p) => path = Some(std::path::PathBuf::from(p)),
                    None => {
                        eprintln!("--json-out requires a PATH argument");
                        std::process::exit(2);
                    }
                }
            }
            _ => {}
        }
    }
    wanted.then(|| path.unwrap_or_else(|| std::path::PathBuf::from(default_name)))
}

/// The tail every JSON-emitting `exp_*` binary shares: prints the
/// markdown `report`, after writing `bench` where [`json_out`] says —
/// nowhere unless `--json`/`--json-out` was passed. An unwritable path
/// fails the run instead of passing silently.
pub fn emit(default_name: &str, report: &str, bench: &BenchReport) {
    if let Some(path) = json_out(default_name) {
        std::fs::write(&path, bench.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
    println!("{report}");
}
