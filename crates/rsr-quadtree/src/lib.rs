//! The Chen et al. (SIGMOD 2014) baseline for the EMD model.
//!
//! Reference \[7\] of the paper solves robust set reconciliation in the EMD
//! model with a **randomly offset quadtree**: a hierarchy of grids of
//! geometrically shrinking cell width, all shifted by one shared random
//! offset. At each level every point is *rounded to the center of its
//! cell*, and the multiset of rounded points is summarized in an IBLT.
//! Bob finds the finest level whose IBLT decodes and repairs his set with
//! the decoded cell centers.
//!
//! Rounding to cell centers bounds the per-point error by the cell
//! *diameter*, which in `ℓ1` is `d·width` — this is where the baseline's
//! `O(d)` approximation factor comes from, versus the paper's `O(log n)`
//! (§1: "an O(d) approximation … essentially useless for Hamming space").
//! `tests/baselines.rs` checks this crossover in miniature; the last
//! full d-sweep is recorded in docs/architecture.md.
//!
//! Implementation note (documented substitution): Chen et al. insert the
//! rounded points directly into XOR IBLTs keyed by the point encoding. For
//! dimensions where a point does not fit a 64-bit key we carry the rounded
//! point in a [`rsr_iblt::Riblt`] cell (key = cell hash, value = rounded
//! point). All copies of a key share the same value (the cell center), so
//! the RIBLT's duplicate-key extraction is exact here, and the wire
//! accounting uses the same cell encoding as the paper's protocol — a
//! fair, like-for-like comparison.

pub mod protocol;

pub use protocol::{QuadtreeConfig, QuadtreeOutcome, QuadtreeProtocol};
