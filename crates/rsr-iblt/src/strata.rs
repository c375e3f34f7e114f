//! Strata estimator for set-difference size (Eppstein, Goodrich, Uyeda &
//! Varghese, SIGCOMM 2011 — the paper's reference \[10\]).
//!
//! All IBLT-based reconciliation needs an upper bound on the difference
//! size to size its tables. The strata estimator provides one with a
//! single small message: partition keys into geometric strata by the
//! number of trailing zeros of a hash (stratum `i` holds a `2^{−(i+1)}`
//! fraction of keys), keep a small fixed-size IBLT per stratum, subtract
//! the parties' estimators, and find the deepest stratum that still
//! decodes — if stratum `i` decodes to `d_i` differences, the full
//! difference is ≈ `d_i · 2^{i+1}` plus the shallower strata's exact
//! counts.
//!
//! This makes the protocols in `rsr-core` self-sizing: run the estimator
//! first (one extra message), then size the reconciliation tables from
//! its output.

use crate::iblt::Iblt;
use rsr_hash::mix::mix64;

/// Number of strata (covers differences up to ~2^32).
const NUM_STRATA: usize = 32;

/// Cells per stratum IBLT (the classic choice: 80 cells decode ~25 keys
/// per stratum comfortably at q = 3).
const CELLS_PER_STRATUM: usize = 80;

/// A strata estimator: one small IBLT per geometric stratum.
#[derive(Clone, Debug)]
pub struct StrataEstimator {
    strata: Vec<Iblt>,
    seed: u64,
}

impl StrataEstimator {
    /// Creates an empty estimator; both parties must use the same seed.
    pub fn new(seed: u64) -> Self {
        StrataEstimator {
            strata: (0..NUM_STRATA)
                .map(|i| Iblt::new(CELLS_PER_STRATUM, 3, seed ^ ((i as u64 + 1) << 16)))
                .collect(),
            seed,
        }
    }

    /// Stratum of a key: the number of trailing zeros of an independent
    /// hash of the key, capped at the last stratum.
    fn stratum_of(&self, key: u64) -> usize {
        (mix64(key ^ mix64(self.seed ^ 0x57A7)).trailing_zeros() as usize).min(NUM_STRATA - 1)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let s = self.stratum_of(key);
        self.strata[s].insert(key);
    }

    /// Builds an estimator over a whole key set.
    pub fn from_keys(keys: impl IntoIterator<Item = u64>, seed: u64) -> Self {
        let mut e = StrataEstimator::new(seed);
        for k in keys {
            e.insert(k);
        }
        e
    }

    /// Subtracts the other party's estimator (same seed required) and
    /// estimates `|A △ B|`. Returns `None` only if even stratum 0 fails
    /// to decode — practically impossible unless the seeds differ.
    pub fn estimate_difference(mut self, other: &StrataEstimator) -> Option<usize> {
        assert_eq!(self.seed, other.seed, "estimators must share a seed");
        for (mine, theirs) in self.strata.iter_mut().zip(&other.strata) {
            mine.subtract(theirs);
        }
        // Walk from the deepest stratum down; accumulate exact counts of
        // decodable strata until one fails, then scale.
        let mut exact = 0usize;
        for (i, table) in self.strata.into_iter().enumerate().rev() {
            let d = table.decode();
            if d.complete {
                exact += d.inserted.len() + d.deleted.len();
            } else {
                // Stratum i failed: strata 0..=i hold a 1 − 2^{−(i+1)}…
                // fraction; the standard scaling multiplies the deeper
                // exact total by 2^{i+1}.
                let scale = 1usize << (i + 1).min(40);
                return Some(exact.saturating_mul(scale));
            }
        }
        Some(exact)
    }

    /// Wire size in bits (fixed: the estimator is a constant-size
    /// message).
    pub fn wire_bits(&self) -> u64 {
        self.strata.iter().map(|t| t.wire_bits(1 << 16)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(diff: usize, shared: usize, seed: u64) -> usize {
        let a_keys: Vec<u64> = (0..shared as u64)
            .chain(1_000_000..1_000_000 + diff as u64 / 2)
            .collect();
        let b_keys: Vec<u64> = (0..shared as u64)
            .chain(2_000_000..2_000_000 + diff.div_ceil(2) as u64)
            .collect();
        let a = StrataEstimator::from_keys(a_keys, seed);
        let b = StrataEstimator::from_keys(b_keys, seed);
        a.estimate_difference(&b).expect("estimable")
    }

    #[test]
    fn identical_sets_estimate_zero() {
        assert_eq!(estimate(0, 5000, 1), 0);
    }

    #[test]
    fn small_differences_are_exact() {
        // Small diffs decode in every stratum → exact count.
        for diff in [2usize, 10, 40] {
            let est = estimate(diff, 5000, 2);
            assert_eq!(est, diff, "diff {diff} estimated as {est}");
        }
    }

    #[test]
    fn large_differences_estimated_within_factor_3() {
        for diff in [2_000usize, 20_000] {
            let est = estimate(diff, 10_000, 3);
            let ratio = est as f64 / diff as f64;
            assert!(
                (0.33..=3.0).contains(&ratio),
                "diff {diff} estimated as {est} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn estimator_message_is_constant_size() {
        let small = StrataEstimator::from_keys(0..100u64, 4);
        let large = StrataEstimator::from_keys(0..100_000u64, 4);
        assert_eq!(small.wire_bits(), large.wire_bits());
    }

    #[test]
    #[should_panic]
    fn mismatched_seeds_rejected() {
        let a = StrataEstimator::new(1);
        let b = StrataEstimator::new(2);
        let _ = a.estimate_difference(&b);
    }
}
