//! One module per experiment: T1–T12/F1 reproduce the paper's
//! evaluation; N1 (transport throughput), L1 (open-loop latency under
//! load), C1 (continuous reconciliation under churn), and P1
//! (assignment solvers) measure the layers this repo added.

use crate::benchjson::BenchReport;

pub mod baseline_quadtree;
pub mod churn;
pub mod emd_hamming;
pub mod emd_l2;
pub mod emd_ratio;
pub mod emd_solvers;
pub mod exact_recon;
pub mod gap;
pub mod gap_lowdim;
pub mod hypergraph;
pub mod iblt_threshold;
pub mod load;
pub mod lower_bound;
pub mod mlsh_collision;
pub mod net;
pub mod riblt_error;
pub mod setsofsets;

/// An experiment entry: `(ids, name, baseline, run)`. `baseline` names
/// the committed `BENCH_*.json` file the entry's report regenerates, or
/// is `None` for a table-only experiment, whose report is empty. Each
/// baseline comes from exactly one entry.
pub type Experiment = (
    &'static str,
    &'static str,
    Option<&'static str>,
    fn(bool) -> (String, BenchReport),
);

/// The entry function of a table-only experiment: its markdown section
/// and an empty report.
macro_rules! table_only {
    ($experiment:ident) => {
        |quick| {
            let report = BenchReport::new(stringify!($experiment), quick);
            ($experiment::run(quick), report)
        }
    };
}

/// Every experiment, in index order. `net` carries L1 and C1 and
/// `iblt_threshold` carries F1b, so each baseline is one run.
pub fn all() -> &'static [Experiment] {
    const ALL: &[Experiment] = &[
        (
            "T1+F1b",
            "iblt_threshold",
            Some("BENCH_iblt.json"),
            iblt_threshold::run,
        ),
        ("T2", "mlsh_collision", None, table_only!(mlsh_collision)),
        ("F1", "riblt_error", None, table_only!(riblt_error)),
        ("T3", "emd_hamming", None, table_only!(emd_hamming)),
        ("T4", "emd_l2", None, table_only!(emd_l2)),
        ("T5", "emd_ratio", None, table_only!(emd_ratio)),
        (
            "T6",
            "baseline_quadtree",
            None,
            table_only!(baseline_quadtree),
        ),
        ("T7", "gap", Some("BENCH_gap.json"), gap::run),
        ("T8", "gap_lowdim", None, table_only!(gap_lowdim)),
        ("T9", "lower_bound", None, table_only!(lower_bound)),
        ("T10", "setsofsets", None, table_only!(setsofsets)),
        ("T11", "hypergraph", None, table_only!(hypergraph)),
        ("T12", "exact_recon", None, table_only!(exact_recon)),
        ("N1+L1+C1", "net", Some("BENCH_net.json"), net::run),
        (
            "P1",
            "emd_solvers",
            Some("BENCH_emd.json"),
            emd_solvers::run,
        ),
    ];
    ALL
}
