//! Distance functions over `[Δ]^d`.

use crate::point::Point;

/// The metric `f` of the space `(U, f)`.
///
/// The paper's results are stated for `ℓ1` (Lemma 2.4, Cor 4.4), `ℓ2`
/// (Lemma 2.5, Cor 3.6) and the Hamming metric on `{0,1}^d` (Lemma 2.3,
/// Cor 3.5, Cor 4.3, Thm 4.6). Theorem 4.5 covers `ℓ_p` for any
/// `p ∈ [1, 2]`; this crate runs it at the two endpoints, `ℓ1` and `ℓ2`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// `ℓ1` (Manhattan) distance.
    L1,
    /// `ℓ2` (Euclidean) distance.
    L2,
    /// Hamming distance: number of coordinates that differ. On `{0,1}^d`
    /// this coincides with `ℓ1`, but it is well defined for any grid.
    Hamming,
}

impl Metric {
    /// Distance between two points. Panics (debug) on dimension mismatch.
    pub fn distance(&self, a: &Point, b: &Point) -> f64 {
        debug_assert_eq!(a.dim(), b.dim(), "dimension mismatch");
        match *self {
            Metric::L1 => a
                .coords()
                .iter()
                .zip(b.coords())
                .map(|(x, y)| (x - y).abs() as f64)
                .sum(),
            Metric::L2 => a
                .coords()
                .iter()
                .zip(b.coords())
                .map(|(x, y)| {
                    let d = (x - y) as f64;
                    d * d
                })
                .sum::<f64>()
                .sqrt(),
            Metric::Hamming => a
                .coords()
                .iter()
                .zip(b.coords())
                .filter(|(x, y)| x != y)
                .count() as f64,
        }
    }

    /// The `p` exponent of the norm (`Hamming` maps to 1, matching its
    /// behaviour on `{0,1}^d`).
    pub fn p_exponent(&self) -> f64 {
        match *self {
            Metric::L1 | Metric::Hamming => 1.0,
            Metric::L2 => 2.0,
        }
    }

    /// Diameter of `[Δ]^d` under this metric: the distance between opposite
    /// grid corners. Used to derive the paper's default bound
    /// `M = maximum pairwise distance` when no prior knowledge is available.
    pub fn diameter(&self, delta: i64, dim: usize) -> f64 {
        let lo = Point::zero(dim);
        let hi = Point::new(vec![delta - 1; dim]);
        self.distance(&lo, &hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[i64]) -> Point {
        Point::new(v.to_vec())
    }

    #[test]
    fn l1_distance() {
        assert_eq!(Metric::L1.distance(&p(&[0, 0]), &p(&[3, 4])), 7.0);
    }

    #[test]
    fn l2_distance() {
        assert_eq!(Metric::L2.distance(&p(&[0, 0]), &p(&[3, 4])), 5.0);
    }

    #[test]
    fn hamming_counts_differing_coords() {
        assert_eq!(
            Metric::Hamming.distance(&p(&[1, 0, 1]), &p(&[1, 1, 0])),
            2.0
        );
        // On non-binary grids Hamming still counts mismatches.
        assert_eq!(Metric::Hamming.distance(&p(&[5, 7]), &p(&[5, 9])), 1.0);
    }

    #[test]
    fn identity_of_indiscernibles() {
        let a = p(&[2, 3, 4]);
        for m in [Metric::L1, Metric::L2, Metric::Hamming] {
            assert_eq!(m.distance(&a, &a), 0.0);
        }
    }

    #[test]
    fn diameter_of_binary_cube_is_d_under_hamming() {
        assert_eq!(Metric::Hamming.diameter(2, 10), 10.0);
        assert_eq!(Metric::L1.diameter(4, 3), 9.0);
    }
}
