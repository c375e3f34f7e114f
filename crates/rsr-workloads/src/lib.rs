//! Synthetic workloads for robust set reconciliation experiments.
//!
//! The paper motivates robust reconciliation with noisy replicated data:
//! "set elements might be geometric coordinates for objects, as determined
//! by sensors … for the same object, each sensor might have slightly
//! different, noisy measurements" (§1). The generators here produce
//! exactly those shapes, deterministically from a seed:
//!
//! * [`planted_emd`] — `n − k` shared points with bounded per-point noise
//!   plus `k` independent outliers per side: the canonical EMD-model
//!   workload (the EMD cells of `rsr-exp paper`);
//! * [`sensor_pairs`] — the Gap-model variant with guaranteed `r1`/`r2`
//!   separation (`rsr-exp gap` and the low-dimension cells of `paper`);
//! * [`trace`] — a line-based, seedable trace format so the same session
//!   batch can be replayed across transports and machines;
//! * [`churn`] — per-round insert/delete drift traces for continuous
//!   reconciliation (rate, skew, bursts), replayable the same way;
//! * [`stats`] — the quantile the harness reports ratios with.

pub mod churn;
pub mod generators;
pub mod stats;
pub mod trace;

pub use churn::{base_set, read_churn, sample_churn, write_churn, ChurnSpec, RoundChurn};
pub use generators::{planted_emd, planted_emd_sparse, sensor_pairs, GapWorkload, Workload};
pub use trace::{
    read_trace, sample_trace, sample_trace_with, write_trace, TraceEntry, TraceMix, TraceProtocol,
};
