//! Discretized metric spaces for robust set reconciliation.
//!
//! The paper (Mitzenmacher & Morgan, PODS 2019) works throughout in a
//! discretized metric space `(U, f)` of the form `U = [Δ]^d` under an `ℓ_p`
//! norm, or `U = {0,1}^d` under the Hamming metric. This crate provides:
//!
//! * [`Point`] — a point of `[Δ]^d` with integer coordinates,
//! * [`Metric`] — the distance functions (`ℓ1`, `ℓ2`, Hamming),
//! * [`GridUniverse`] — the universe `[Δ]^d` itself (bounds, sampling,
//!   clamping, bit-size accounting `log |U| = d·log Δ`),
//! * [`space::MetricSpace`] — a universe paired with a metric, the object
//!   protocols are parameterized by.
//!
//! Coordinates are `i64` internally so that intermediate sums in the robust
//! IBLT (`{−nΔ, …, nΔ}^d` per §2.2 of the paper) never overflow for any
//! realistic `n·Δ`.

pub mod metric;
pub mod point;
pub mod space;
pub mod universe;

pub use metric::Metric;
pub use point::Point;
pub use space::MetricSpace;
pub use universe::GridUniverse;
