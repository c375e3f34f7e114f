//! Bit-sampling MLSH for Hamming space (Lemma 2.3).
//!
//! The classic Indyk–Motwani LSH for `({0,1}^d, f_H)` samples a random
//! coordinate. To obtain a *multi-scale* family with a tunable base
//! probability the paper pads the points to a virtual width `w ≥ d`:
//! "with probability d/w our hash function will sample a random bit, and
//! with probability 1 − d/w it will be a constant function always equaling
//! 0" (footnote 3). The collision probability between `x, y` is then
//! `1 − f_H(x,y)/w`, which lies in `[e^{−2f/w}, e^{−f/w}]` for
//! `f ≤ 0.79·w`, i.e. MLSH parameters `(0.79·w, e^{−2/w}, 1/2)`.

use crate::draws::DrawSet;
use crate::lsh::{LshFamily, LshParams};
use crate::mlsh::{MlshFamily, MlshParams};
use rand::Rng;

/// The bit-sampling MLSH family over `({0,1}^d, Hamming)` with virtual
/// width `w ≥ d`.
#[derive(Clone, Copy, Debug)]
pub struct BitSamplingFamily {
    dim: usize,
    width: f64,
}

impl BitSamplingFamily {
    /// Creates the family for dimension `d` with virtual width `w ≥ d`.
    pub fn new(dim: usize, width: f64) -> Self {
        assert!(dim >= 1);
        assert!(
            width >= dim as f64,
            "virtual width w = {width} must be ≥ d = {dim}"
        );
        BitSamplingFamily { dim, width }
    }

    /// The virtual width `w`.
    pub fn width(&self) -> f64 {
        self.width
    }
}

impl LshFamily for BitSamplingFamily {
    fn sample_draws<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> DrawSet {
        // Each draw samples a virtual coordinate in [0, w); those ≥ d are
        // padding, and only a real one spends a second RNG call.
        DrawSet::coords((0..count).map(|_| {
            (rng.gen::<f64>() * self.width < self.dim as f64).then(|| rng.gen_range(0..self.dim))
        }))
    }

    fn params(&self) -> LshParams {
        // Any r1 < r2 ≤ 0.79w instantiates Definition 2.1 from the MLSH
        // envelope; we report the canonical single-bit guarantee.
        let w = self.width;
        let r1 = 1.0;
        let r2 = (0.79 * w).max(2.0);
        LshParams::new(r1, r2, 1.0 - r1 / w, 1.0 - r2.min(w) / w)
    }
}

impl MlshFamily for BitSamplingFamily {
    fn mlsh_params(&self) -> MlshParams {
        MlshParams::new(0.79 * self.width, (-2.0 / self.width).exp(), 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsr_metric::{Metric, Point};

    #[test]
    fn exact_collision_probability() {
        // Empirical Pr[h(x) = h(y)] should be ≈ 1 − f_H(x,y)/w.
        let d = 32;
        let w = 64.0;
        let fam = BitSamplingFamily::new(d, w);
        let mut rng = StdRng::seed_from_u64(10);
        let x = Point::from_bits(&vec![false; d]);
        let mut ybits = vec![false; d];
        for b in ybits.iter_mut().take(8) {
            *b = true; // distance 8
        }
        let y = Point::from_bits(&ybits);
        assert_eq!(Metric::Hamming.distance(&x, &y), 8.0);

        let trials = 20_000;
        let mut coll = 0;
        for _ in 0..trials {
            let h = fam.sample_draws(&mut rng, 1);
            if h.hash(0, &x) == h.hash(0, &y) {
                coll += 1;
            }
        }
        let emp = f64::from(coll) / f64::from(trials);
        let expect = 1.0 - 8.0 / w;
        assert!((emp - expect).abs() < 0.02, "emp {emp} vs {expect}");
    }

    #[test]
    fn collision_prob_within_mlsh_envelope() {
        let d = 16;
        let fam = BitSamplingFamily::new(d, 32.0);
        let m = fam.mlsh_params();
        let mut rng = StdRng::seed_from_u64(11);
        for dist in [1usize, 4, 10] {
            let x = Point::from_bits(&vec![false; d]);
            let mut yb = vec![false; d];
            for b in yb.iter_mut().take(dist) {
                *b = true;
            }
            let y = Point::from_bits(&yb);
            let trials = 40_000;
            let coll = (0..trials)
                .filter(|_| {
                    let h = fam.sample_draws(&mut rng, 1);
                    h.hash(0, &x) == h.hash(0, &y)
                })
                .count();
            let emp = coll as f64 / trials as f64;
            let dist = dist as f64;
            assert!(
                emp <= m.upper_envelope(dist) + 0.02,
                "dist {dist}: {emp} above upper {}",
                m.upper_envelope(dist)
            );
            assert!(
                emp >= m.lower_envelope(dist) - 0.02,
                "dist {dist}: {emp} below lower {}",
                m.lower_envelope(dist)
            );
        }
    }

    #[test]
    #[should_panic]
    fn width_below_dim_rejected() {
        BitSamplingFamily::new(10, 5.0);
    }
}
