//! 2-wise independent hashing over the Mersenne prime `2^61 − 1`.
//!
//! The paper repeatedly draws "a pairwise independent hash function with
//! range {0,1}^Θ(log n)" (Algorithm 1's `h`, the Gap protocol's batch
//! hashes). We use the textbook construction `h_{a,b}(x) = ((a·x + b) mod p)
//! mod 2^bits` with `p = 2^61 − 1`, which is 2-universal over inputs
//! `< p` and 2-wise independent up to the final range reduction.

use crate::mix::mix64;
use rand::Rng;

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// Reduces a 128-bit value modulo `2^61 − 1` using the Mersenne identity
/// `2^61 ≡ 1 (mod p)`.
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    let p = MERSENNE_61 as u128;
    let lo = x & p;
    let hi = x >> 61;
    let mut r = lo + hi;
    if r >= p {
        r -= p;
    }
    // One more fold covers the full 128-bit input range.
    let hi2 = r >> 61;
    let mut r = (r & p) + hi2;
    if r >= p {
        r -= p;
    }
    r as u64
}

/// A function `h(x) = ((a·x + b) mod p) mod 2^bits` drawn from the 2-wise
/// independent family over `p = 2^61 − 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    bits: u32,
}

impl PairwiseHash {
    /// Draws a random function with `bits`-bit output (`1 ≤ bits ≤ 61`).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> Self {
        assert!((1..=61).contains(&bits), "output bits must be in 1..=61");
        PairwiseHash {
            a: rng.gen_range(1..MERSENNE_61),
            b: rng.gen_range(0..MERSENNE_61),
            bits,
        }
    }

    /// Evaluates the function. Inputs wider than 61 bits are first reduced
    /// by an *injective-enough* premix: `x mod p` after [`mix64`]; for
    /// protocol purposes collisions of the premix are absorbed into the
    /// protocols' failure probability.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        self.eval_premixed(premix(x))
    }

    /// [`PairwiseHash::eval`] of an input already passed through
    /// [`premix`]: a caller evaluating many functions on one input (the
    /// Gap keyer's entry table) premixes it once.
    #[inline]
    pub(crate) fn eval_premixed(&self, x: u64) -> u64 {
        // `a, b, x < p`, so `a·x + b < 2^123`: two folds in 64-bit words
        // bring it below `p + 4`, and one subtraction makes it canonical.
        let y = self.a as u128 * x as u128 + self.b as u128;
        let r = (y as u64 & MERSENNE_61) + (y >> 61) as u64;
        let r = (r & MERSENNE_61) + (r >> 61);
        let v = if r >= MERSENNE_61 { r - MERSENNE_61 } else { r };
        if self.bits == 61 {
            v
        } else {
            v & ((1u64 << self.bits) - 1)
        }
    }
}

/// The input reduction of [`PairwiseHash::eval`]: [`mix64`], then mod `p`.
/// It does not depend on the function.
#[inline]
pub(crate) fn premix(x: u64) -> u64 {
    mod_mersenne(mix64(x) as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mod_mersenne_agrees_with_naive() {
        let p = MERSENNE_61 as u128;
        for x in [0u128, 1, p - 1, p, p + 1, u64::MAX as u128, u128::MAX] {
            assert_eq!(mod_mersenne(x) as u128, x % p, "x = {x}");
        }
    }

    #[test]
    fn output_respects_bit_width() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = PairwiseHash::sample(&mut rng, 8);
        for x in 0..2000u64 {
            assert!(h.eval(x) < 256);
        }
    }

    #[test]
    fn distinct_functions_disagree_somewhere() {
        let mut rng = StdRng::seed_from_u64(4);
        let h1 = PairwiseHash::sample(&mut rng, 32);
        let h2 = PairwiseHash::sample(&mut rng, 32);
        assert!((0..100).any(|x| h1.eval(x) != h2.eval(x)));
    }

    #[test]
    fn collision_rate_near_uniform() {
        // For 10-bit output, the birthday collision rate of 512 random
        // inputs should be near 1 − exp(−512²/2·1024) ≈ high; instead test
        // pairwise: fraction of colliding pairs ≈ 2^-10.
        let mut rng = StdRng::seed_from_u64(5);
        let h = PairwiseHash::sample(&mut rng, 10);
        let vals: Vec<u64> = (0..512).map(|x| h.eval(x)).collect();
        let mut collisions = 0u32;
        let mut pairs = 0u32;
        for i in 0..vals.len() {
            for j in (i + 1)..vals.len() {
                pairs += 1;
                if vals[i] == vals[j] {
                    collisions += 1;
                }
            }
        }
        let rate = f64::from(collisions) / f64::from(pairs);
        assert!(rate < 4.0 / 1024.0, "collision rate too high: {rate}");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_bits() {
        let mut rng = StdRng::seed_from_u64(6);
        PairwiseHash::sample(&mut rng, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_wide_bits() {
        let mut rng = StdRng::seed_from_u64(7);
        PairwiseHash::sample(&mut rng, 62);
    }
}
