//! One-sided grid LSH for `([Δ]^d, ℓ_p)` (Appendix E.1 / Theorem 4.5).
//!
//! "Construct a randomly shifted grid of width r2/d^{1/p}. A point's hash
//! value is the grid cell it falls into. Since the maximum distance apart
//! two points falling in the same grid cell can be is exactly r2, p2 = 0."
//! The near probability is `p1 ≥ 1 − r1·d/r2` (union bound + Jensen), so
//! the family's quality parameter is `ρ̂ = r1·d/r2`.

use crate::draws::DrawSet;
use crate::lsh::{LshFamily, LshParams};
use rand::Rng;

/// The one-sided grid family for `([Δ]^d, ℓ_p)` with gap radii `(r1, r2)`.
#[derive(Clone, Copy, Debug)]
pub struct OneSidedGridFamily {
    dim: usize,
    p: f64,
    r1: f64,
    r2: f64,
}

/// Seed of the tuple hash a one-sided draw applies to its cell.
const CELL_SEED: u64 = 0x05e1_ded1;

impl OneSidedGridFamily {
    /// Creates the family. `p` is the norm exponent (`p ≥ 1`); requires
    /// `r1·d < r2` for a nontrivial guarantee (otherwise `p1 ≤ 0`).
    pub fn new(dim: usize, p: f64, r1: f64, r2: f64) -> Self {
        assert!(dim >= 1);
        assert!(p >= 1.0);
        assert!(0.0 < r1 && r1 < r2);
        OneSidedGridFamily { dim, p, r1, r2 }
    }

    /// The cell width `r2 / d^{1/p}`.
    pub fn cell_width(&self) -> f64 {
        self.r2 / (self.dim as f64).powf(1.0 / self.p)
    }

    /// The quality parameter `ρ̂ = r1·d/r2` of Theorem 4.5.
    pub fn rho_hat(&self) -> f64 {
        self.r1 * self.dim as f64 / self.r2
    }
}

impl LshFamily for OneSidedGridFamily {
    fn sample_draws<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> DrawSet {
        let width = self.cell_width();
        let offsets = (0..count * self.dim)
            .map(|_| rng.gen::<f64>() * width)
            .collect();
        DrawSet::grid(offsets, self.dim, width, CELL_SEED)
    }

    fn params(&self) -> LshParams {
        let p1 = (1.0 - self.rho_hat()).max(f64::MIN_POSITIVE);
        LshParams::new(self.r1, self.r2, p1, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsr_metric::{Metric, Point};

    #[test]
    fn same_cell_implies_within_r2() {
        // p2 = 0 exactly: points hashing together are within r2.
        let dim = 3;
        let fam = OneSidedGridFamily::new(dim, 2.0, 1.0, 30.0);
        let mut rng = StdRng::seed_from_u64(30);
        let m = Metric::L2;
        for _ in 0..2000 {
            let h = fam.sample_draws(&mut rng, 1);
            let x = Point::new((0..dim).map(|_| rng.gen_range(0..100)).collect());
            let y = Point::new((0..dim).map(|_| rng.gen_range(0..100)).collect());
            if h.hash(0, &x) == h.hash(0, &y) && m.distance(&x, &y) > 30.0 + 1e-9 {
                // A mixing collision of the cell tuple is astronomically
                // unlikely; same hash must mean same cell ⇒ within r2.
                panic!(
                    "far points collided: {:?} {:?} dist {}",
                    x,
                    y,
                    m.distance(&x, &y)
                );
            }
        }
    }

    #[test]
    fn near_collision_probability_at_least_p1() {
        let dim = 2;
        let fam = OneSidedGridFamily::new(dim, 1.0, 1.0, 20.0);
        let p1 = fam.params().p1;
        let mut rng = StdRng::seed_from_u64(31);
        let x = Point::new(vec![50, 50]);
        let y = Point::new(vec![51, 50]); // ℓ1 distance 1 = r1
        let trials = 20_000;
        let coll = (0..trials)
            .filter(|_| {
                let h = fam.sample_draws(&mut rng, 1);
                h.hash(0, &x) == h.hash(0, &y)
            })
            .count();
        let emp = coll as f64 / trials as f64;
        assert!(emp >= p1 - 0.02, "emp {emp} < p1 {p1}");
    }

    #[test]
    fn rho_hat_formula() {
        let fam = OneSidedGridFamily::new(4, 2.0, 1.0, 16.0);
        assert!((fam.rho_hat() - 0.25).abs() < 1e-12);
    }
}
