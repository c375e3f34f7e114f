//! Hashing substrate for robust set reconciliation.
//!
//! Implements every hash-shaped object the paper needs:
//!
//! * [`mix`] — strong 64-bit mixing (SplitMix64 finalizer), the workhorse
//!   behind tuple hashing (and, in `rsr-iblt`, cell checksums);
//! * [`pairwise`] — the classic 2-wise independent family
//!   `h(x) = ((a·x + b) mod p) mod 2^bits` over the Mersenne prime
//!   `p = 2^61 − 1` (the paper's "pairwise independent hash function with
//!   range {0,1}^Θ(log n)");
//! * [`lsh`] / [`mlsh`] — the locality-sensitive-hash family trait
//!   (Definition 2.1) and its multi-scale strengthening (Definition 2.2);
//! * [`draws`] — the one form a sampled function takes: a family's draws
//!   stored flat in a [`DrawSet`], one sampled function per draw, evaluated
//!   as a block by one lane kernel (bit-sampling Gap batches, also by
//!   table lookup);
//! * [`bit_sampling`] — the Hamming MLSH of Lemma 2.3;
//! * [`grid`] — the randomly-shifted-lattice ℓ1 MLSH of Lemma 2.4;
//! * [`pstable`] — the 2-stable (Gaussian) ℓ2 MLSH of Lemma 2.5;
//! * [`onesided`] — the one-sided (`p2 = 0`) grid LSH of §E.1/Thm 4.5;
//! * [`keys`] — LSH-vector key construction: multi-resolution prefix keys
//!   for Algorithm 1 and batched Gap-Guarantee keys for §4.1.
//!
//! All randomness is drawn through caller-provided RNGs so that Alice and
//! Bob can derive identical hash functions from a shared seed ("public
//! coins", §2).

pub mod bit_sampling;
pub mod draws;
pub mod grid;
pub mod keys;
pub mod lsh;
pub mod mix;
pub mod mlsh;
pub mod onesided;
pub mod pairwise;
pub mod pstable;

pub use bit_sampling::BitSamplingFamily;
pub use draws::DrawSet;
pub use grid::GridFamily;
pub use lsh::{LshFamily, LshParams};
pub use mlsh::{MlshFamily, MlshParams};
pub use onesided::OneSidedGridFamily;
pub use pairwise::PairwiseHash;
pub use pstable::PStableFamily;
