//! Randomly-shifted-lattice MLSH for `([Δ]^d, ℓ1)` (Lemma 2.4).
//!
//! "Our hashing scheme is to round the input points to a randomly shifted
//! orthogonal lattice of width w" (Appendix A). Collision probability for
//! points at ℓ1 distance `x ≤ w` lies between `1 − x/w ≥ e^{−2x/w}` (for
//! `x ≤ 0.79w`) and `(1 − x/(dw))^d ≤ e^{−x/w}`, giving MLSH parameters
//! `(0.79·w, e^{−2/w}, 1/2)`.

use crate::draws::DrawSet;
use crate::lsh::{LshFamily, LshParams};
use crate::mlsh::{MlshFamily, MlshParams};
use rand::Rng;

/// The shifted-grid MLSH family over `([Δ]^d, ℓ1)` with lattice width `w`.
#[derive(Clone, Copy, Debug)]
pub struct GridFamily {
    dim: usize,
    width: f64,
}

/// Seed of the tuple hash a grid draw applies to its cell.
const CELL_SEED: u64 = 0x6e1d_77aa;

impl GridFamily {
    /// Creates the family with lattice width `w > 0` in dimension `d`.
    pub fn new(dim: usize, width: f64) -> Self {
        assert!(dim >= 1);
        assert!(width > 0.0, "lattice width must be positive");
        GridFamily { dim, width }
    }

    /// The lattice width `w`.
    pub fn width(&self) -> f64 {
        self.width
    }
}

impl LshFamily for GridFamily {
    fn sample_draws<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> DrawSet {
        let offsets = (0..count * self.dim)
            .map(|_| rng.gen::<f64>() * self.width)
            .collect();
        DrawSet::grid(offsets, self.dim, self.width, CELL_SEED)
    }

    fn params(&self) -> LshParams {
        let w = self.width;
        let r2 = (0.79 * w).max(2.0);
        // Near points at distance r1 = min(1, w/4) collide with prob ≥ 1 − r1/w.
        let r1 = (w / 4.0).min(1.0).min(r2 / 2.0);
        LshParams::new(r1, r2, 1.0 - r1 / w, (-r2.min(w) / w).exp())
    }
}

impl MlshFamily for GridFamily {
    fn mlsh_params(&self) -> MlshParams {
        MlshParams::new(0.79 * self.width, (-2.0 / self.width).exp(), 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsr_metric::Point;

    fn collision_rate(fam: &GridFamily, x: &Point, y: &Point, trials: u32, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let coll = (0..trials)
            .filter(|_| {
                let h = fam.sample_draws(&mut rng, 1);
                h.hash(0, x) == h.hash(0, y)
            })
            .count();
        coll as f64 / f64::from(trials)
    }

    #[test]
    fn identical_points_always_collide() {
        let fam = GridFamily::new(3, 10.0);
        let p = Point::new(vec![4, 5, 6]);
        assert_eq!(collision_rate(&fam, &p, &p, 200, 1), 1.0);
    }

    #[test]
    fn one_dim_collision_matches_theory() {
        // In 1-d the collision probability is exactly 1 − x/w for x ≤ w.
        let fam = GridFamily::new(1, 16.0);
        let x = Point::new(vec![0]);
        let y = Point::new(vec![4]);
        let emp = collision_rate(&fam, &x, &y, 40_000, 2);
        assert!((emp - 0.75).abs() < 0.02, "got {emp}");
    }

    #[test]
    fn collision_within_mlsh_envelope() {
        let fam = GridFamily::new(4, 20.0);
        let m = fam.mlsh_params();
        let x = Point::new(vec![3, 3, 3, 3]);
        let y = Point::new(vec![5, 4, 3, 3]); // ℓ1 distance 3
        let emp = collision_rate(&fam, &x, &y, 40_000, 3);
        assert!(emp <= m.upper_envelope(3.0) + 0.02);
        assert!(emp >= m.lower_envelope(3.0) - 0.02);
    }

    #[test]
    fn far_points_rarely_collide() {
        let fam = GridFamily::new(2, 4.0);
        let x = Point::new(vec![0, 0]);
        let y = Point::new(vec![100, 100]);
        assert!(collision_rate(&fam, &x, &y, 5_000, 4) < 0.01);
    }
}
