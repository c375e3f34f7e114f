//! One module per `rsr-exp` entry, and every entry regenerates a
//! committed `BENCH_*.json` baseline: `paper` gates the paper's
//! statistical claims (EMD quality, the Gap guarantee, sets-of-sets and
//! exact-recon bits, RIBLT error), T1/F1b the IBLT decode threshold, T7
//! the Gap protocol, P1 the assignment solvers, and N1 (transport
//! throughput), L1 (open-loop latency under load) and C1 (continuous
//! reconciliation under churn) the layers this repo added.

use crate::benchjson::BenchReport;

pub mod churn;
pub mod emd_solvers;
pub mod gap;
pub mod iblt_threshold;
pub mod load;
pub mod net;
pub mod paper;

/// An experiment entry: `(ids, name, baseline, run)`. `baseline` names
/// the committed `BENCH_*.json` file the entry's report regenerates;
/// each baseline comes from exactly one entry.
pub type Experiment = (
    &'static str,
    &'static str,
    &'static str,
    fn(bool) -> (String, BenchReport),
);

/// Every experiment, in index order. `paper` carries the paper's gated
/// claims, `net` carries L1 and C1, and `iblt_threshold` carries F1b, so
/// each baseline is one run.
pub fn all() -> &'static [Experiment] {
    const ALL: &[Experiment] = &[
        (
            "T1+F1b",
            "iblt_threshold",
            "BENCH_iblt.json",
            iblt_threshold::run,
        ),
        (
            "T3+T4+T8-T10+T12+F1",
            "paper",
            "BENCH_paper.json",
            paper::run,
        ),
        ("T7", "gap", "BENCH_gap.json", gap::run),
        ("N1+L1+C1", "net", "BENCH_net.json", net::run),
        ("P1", "emd_solvers", "BENCH_emd.json", emd_solvers::run),
    ];
    ALL
}
