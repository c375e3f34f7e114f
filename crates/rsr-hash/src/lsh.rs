//! Locality sensitive hashing (Definition 2.1 of the paper): the family
//! trait and its `(r1, r2, p1, p2)` parameters. A sampled function is one
//! draw of a [`DrawSet`].

use crate::draws::DrawSet;
use rand::Rng;

/// Parameters `(r1, r2, p1, p2)` of an LSH family (Definition 2.1):
/// points within `r1` collide with probability ≥ `p1`; points farther than
/// `r2` collide with probability ≤ `p2`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LshParams {
    /// Near radius `r1`.
    pub r1: f64,
    /// Far radius `r2 > r1`.
    pub r2: f64,
    /// Near collision probability lower bound `p1`.
    pub p1: f64,
    /// Far collision probability upper bound `p2 < p1`.
    pub p2: f64,
}

impl LshParams {
    /// Creates validated parameters.
    pub fn new(r1: f64, r2: f64, p1: f64, p2: f64) -> Self {
        assert!(r1 < r2, "need r1 < r2 (got {r1}, {r2})");
        assert!(p1 > p2, "need p1 > p2 (got {p1}, {p2})");
        assert!((0.0..=1.0).contains(&p1) && (0.0..=1.0).contains(&p2));
        LshParams { r1, r2, p1, p2 }
    }

    /// The meta-parameter `ρ = log(p1)/log(p2)` ("the key parameter of
    /// interest in the analysis of many approximate nearest neighbor
    /// algorithms", §2.1). For `p2 = 0` (one-sided families) this is 0.
    pub fn rho(&self) -> f64 {
        if self.p2 == 0.0 {
            0.0
        } else {
            self.p1.ln() / self.p2.ln()
        }
    }
}

/// A locality sensitive hash family `H` with respect to some `(U, f)`.
///
/// A family is sampled only in bulk: `sample_draws(rng, s)` draws
/// `g_1, …, g_s ∼ H` as one [`DrawSet`], and one sampled function is one
/// draw of it ([`DrawSet::hash`]).
pub trait LshFamily {
    /// The `(r1, r2, p1, p2)` guarantee this family provides.
    fn params(&self) -> LshParams;

    /// Samples `count` independent functions as one compact block. Draws
    /// split: `count = a + b` spends the RNG exactly as `a` draws then `b`
    /// draws do, and yields the same draws in the same order. A family
    /// defined outside this crate delegates to one inside it, as a
    /// wrapper over several families does.
    fn sample_draws<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> DrawSet;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_of_standard_params() {
        // p1 = 1/2, p2 = 1/4 gives ρ = 1/2.
        let p = LshParams::new(1.0, 2.0, 0.5, 0.25);
        assert!((p.rho() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rho_one_sided_is_zero() {
        let p = LshParams::new(1.0, 2.0, 0.9, 0.0);
        assert_eq!(p.rho(), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_radii() {
        LshParams::new(2.0, 1.0, 0.5, 0.25);
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_probs() {
        LshParams::new(1.0, 2.0, 0.25, 0.5);
    }
}
