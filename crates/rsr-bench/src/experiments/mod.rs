//! One module per experiment: T1–T12/F1 reproduce the paper's
//! evaluation; N1 (transport throughput), L1 (open-loop latency under
//! load), and P1 (assignment solvers) measure the layers this repo
//! added.

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

/// An experiment entry: `(id, name, runner)`.
pub type Experiment = (&'static str, &'static str, fn(bool) -> String);

/// Every experiment, in index order.
pub fn all() -> Vec<Experiment> {
    vec![
        (
            "T1",
            "iblt_threshold",
            iblt_threshold::run as fn(bool) -> String,
        ),
        ("T2", "mlsh_collision", mlsh_collision::run),
        ("F1", "riblt_error", riblt_error::run),
        ("T3", "emd_hamming", emd_hamming::run),
        ("T4", "emd_l2", emd_l2::run),
        ("T5", "emd_ratio", emd_ratio::run),
        ("T6", "baseline_quadtree", baseline_quadtree::run),
        ("T7", "gap", gap::run),
        ("T8", "gap_lowdim", gap_lowdim::run),
        ("T9", "lower_bound", lower_bound::run),
        ("T10", "setsofsets", setsofsets::run),
        ("T11", "hypergraph", hypergraph::run),
        ("T12", "exact_recon", exact_recon::run),
        ("N1", "net", net::run),
        ("L1", "load", load::run),
        ("C1", "churn", churn::run),
        ("P1", "emd_solvers", emd_solvers::run),
    ]
}
