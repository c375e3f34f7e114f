//! Earth mover's distance substrate.
//!
//! The EMD model (Definition 3.1) measures protocol quality by
//! `EMD(S_A, S'_B)` relative to `EMD_k(S_A, S_B)`. This crate provides the
//! exact machinery:
//!
//! * [`assignment`] — [`AssignmentSolver`], the two exact solvers:
//!   `Hungarian` (the reference) and the ε-scaling `Auction` (Bob's
//!   repair step in the EMD protocol);
//! * [`hungarian`] — the Kuhn–Munkres assignment algorithm with potentials,
//!   O(n²m) for rectangular `n×m` problems (the "Hungarian method" the
//!   paper invokes for Bob's repair step, §3);
//! * [`mod@emd`] — exact [`emd::emd`] (Definition 3.2) and exact
//!   [`emd::emd_k`] (Definition 3.3) via a dummy-augmented assignment,
//!   both under the Hungarian reference;
//! * [`repair`] — Bob's matched-replacement step (Algorithm 1's last
//!   line), which the EMD protocol runs under the auction;
//! * brute-force reference implementations used by the property tests.

pub mod assignment;
pub mod emd;
pub mod hungarian;
pub mod repair;

pub use assignment::{auction_assign, AssignmentSolver};
pub use emd::{emd, emd_k, emd_k_with_exclusions};
pub use hungarian::{assign, assignment_cost};
pub use repair::replace_matched_with;
