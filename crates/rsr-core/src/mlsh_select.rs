//! Metric-driven MLSH family selection for Algorithm 1.
//!
//! Theorem 3.4 requires an MLSH family with parameters `(r, p, α)` such
//! that `r ≥ min(M, D2)` and `p ≥ e^{−k/(24·D2)}`, where `M` bounds the
//! maximum pairwise distance. Each of the paper's example families meets
//! this by choosing its width `w` large enough (the paper picks
//! `w = 48·n·d/k` for Corollary 3.5 and `w = Θ(min(M, D2) + D2/k)` for
//! Corollary 3.6); [`select_mlsh`] is the one place those widths are
//! chosen. [`AnyMlsh`] wraps the three families behind one type so
//! the protocols stay non-generic; its draws are the wrapped family's own
//! compact [`DrawSet`], so a keyer dispatches on the family once per call.

use rand::Rng;
use rsr_hash::bit_sampling::BitSamplingFamily;
use rsr_hash::grid::GridFamily;
use rsr_hash::lsh::LshParams;
use rsr_hash::pstable::PStableFamily;
use rsr_hash::{DrawSet, LshFamily, MlshFamily, MlshParams};
use rsr_metric::{Metric, MetricSpace};

/// An MLSH family chosen to match a metric space.
#[derive(Clone, Debug)]
pub enum AnyMlsh {
    /// Bit sampling over Hamming space (Lemma 2.3).
    Hamming(BitSamplingFamily),
    /// Randomly shifted lattice over ℓ1 (Lemma 2.4).
    Grid(GridFamily),
    /// 2-stable Gaussian projection over ℓ2 (Lemma 2.5).
    PStable(PStableFamily),
}

impl LshFamily for AnyMlsh {
    fn sample_draws<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> DrawSet {
        match self {
            AnyMlsh::Hamming(f) => f.sample_draws(rng, count),
            AnyMlsh::Grid(f) => f.sample_draws(rng, count),
            AnyMlsh::PStable(f) => f.sample_draws(rng, count),
        }
    }

    fn params(&self) -> LshParams {
        match self {
            AnyMlsh::Hamming(f) => f.params(),
            AnyMlsh::Grid(f) => f.params(),
            AnyMlsh::PStable(f) => f.params(),
        }
    }
}

impl MlshFamily for AnyMlsh {
    fn mlsh_params(&self) -> MlshParams {
        match self {
            AnyMlsh::Hamming(f) => f.mlsh_params(),
            AnyMlsh::Grid(f) => f.mlsh_params(),
            AnyMlsh::PStable(f) => f.mlsh_params(),
        }
    }
}

/// Selects the MLSH family for `space` meeting Theorem 3.4's requirements
/// for difference budget `k` and EMD upper bound `d2`.
///
/// Width choices (`M` = diameter of the space):
/// * Hamming (`p = e^{−2/w}`): `w ≥ max(d, 48·D2/k)` so that
///   `2/w ≤ k/(24·D2)`; `r = 0.79·w ≥ min(M, D2)` follows since `w ≥ d ≥
///   M` on the binary cube... for general Hamming grids the same bound
///   `w ≥ min(M, D2)/0.79` is enforced explicitly.
/// * ℓ1 grid (`p = e^{−2/w}`): `w ≥ max(48·D2/k, min(M, D2)/0.79)`.
/// * ℓ2 2-stable (`p = e^{−2√(2/π)/w}`): `w ≥ max(48√(2/π)·D2/k,
///   min(M, D2)/0.99)`.
pub fn select_mlsh(space: &MetricSpace, k: usize, d2: f64) -> AnyMlsh {
    let k = k.max(1) as f64;
    let m_bound = space.diameter();
    let reach = m_bound.min(d2);
    match space.metric() {
        Metric::Hamming => {
            let w = (space.dim() as f64)
                .max(48.0 * d2 / k)
                .max(reach / 0.79)
                .max(1.0);
            AnyMlsh::Hamming(BitSamplingFamily::new(space.dim(), w))
        }
        Metric::L1 => {
            let w = (48.0 * d2 / k).max(reach / 0.79).max(1.0);
            AnyMlsh::Grid(GridFamily::new(space.dim(), w))
        }
        Metric::L2 => {
            let c = 2.0 * (2.0 / std::f64::consts::PI).sqrt();
            let w = (24.0 * c * d2 / k).max(reach / 0.99).max(1.0);
            AnyMlsh::PStable(PStableFamily::new(space.dim(), w))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_space_gets_bit_sampling() {
        let space = MetricSpace::hamming(32);
        let fam = select_mlsh(&space, 4, 1000.0);
        assert!(matches!(fam, AnyMlsh::Hamming(_)));
    }

    #[test]
    fn l1_gets_grid_l2_gets_pstable() {
        assert!(matches!(
            select_mlsh(&MetricSpace::l1(100, 3), 4, 500.0),
            AnyMlsh::Grid(_)
        ));
        assert!(matches!(
            select_mlsh(&MetricSpace::l2(100, 3), 4, 500.0),
            AnyMlsh::PStable(_)
        ));
    }

    #[test]
    fn p_requirement_met() {
        // p ≥ e^{−k/(24 D2)} must hold for every metric.
        for space in [
            MetricSpace::hamming(16),
            MetricSpace::l1(64, 2),
            MetricSpace::l2(64, 2),
        ] {
            for (k, d2) in [(1usize, 100.0), (8, 5000.0), (64, 10.0)] {
                let fam = select_mlsh(&space, k, d2);
                let p = fam.mlsh_params().p;
                let required = (-(k as f64) / (24.0 * d2)).exp();
                assert!(
                    p >= required - 1e-12,
                    "{:?} k={k} d2={d2}: p={p} < {required}",
                    space.metric()
                );
            }
        }
    }

    #[test]
    fn r_requirement_met() {
        // r ≥ min(M, D2).
        for space in [
            MetricSpace::hamming(16),
            MetricSpace::l1(64, 2),
            MetricSpace::l2(64, 2),
        ] {
            for (k, d2) in [(1usize, 100.0), (8, 5000.0)] {
                let fam = select_mlsh(&space, k, d2);
                let params = fam.mlsh_params();
                let reach = space.diameter().min(d2);
                assert!(
                    params.r >= reach - 1e-9,
                    "{:?}: r = {} < min(M, D2) = {reach}",
                    space.metric(),
                    params.r
                );
            }
        }
    }

    #[test]
    fn sampled_functions_evaluate() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rsr_metric::Point;
        let mut rng = StdRng::seed_from_u64(70);
        let space = MetricSpace::l2(100, 3);
        let fam = select_mlsh(&space, 4, 200.0);
        let f = fam.sample_draws(&mut rng, 1);
        let p = Point::new(vec![1, 2, 3]);
        assert_eq!(f.hash(0, &p), f.hash(0, &p));
    }
}
