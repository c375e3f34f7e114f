//! Points of the discretized universe `[Δ]^d`.

use std::fmt;

/// A point of `[Δ]^d` with non-negative integer coordinates.
///
/// Coordinates are stored as `i64` so that the same representation can hold
/// intermediate *sums* of points (which live in `{−nΔ, …, nΔ}^d`, see §2.2
/// item 4 of the paper) without a separate type. A `Point` produced by a
/// [`crate::GridUniverse`] always has every coordinate in `[0, Δ−1]`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    coords: Vec<i64>,
}

impl Point {
    /// Creates a point from raw coordinates.
    pub fn new(coords: Vec<i64>) -> Self {
        Point { coords }
    }

    /// Creates the origin of a `dim`-dimensional space.
    pub fn zero(dim: usize) -> Self {
        Point {
            coords: vec![0; dim],
        }
    }

    /// Creates a point from a bit string (for Hamming-space workloads).
    /// `bits[j] == true` becomes coordinate `1`.
    pub fn from_bits(bits: &[bool]) -> Self {
        Point {
            coords: bits.iter().map(|&b| i64::from(b)).collect(),
        }
    }

    /// The dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate accessor.
    pub fn coord(&self, j: usize) -> i64 {
        self.coords[j]
    }

    /// All coordinates as a slice.
    pub fn coords(&self) -> &[i64] {
        &self.coords
    }

    /// Coordinate-wise sum (`self + other`), used by RIBLT value cells.
    pub fn add(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dim(), other.dim());
        Point {
            coords: self
                .coords
                .iter()
                .zip(&other.coords)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Coordinate-wise difference (`self − other`).
    pub fn sub(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dim(), other.dim());
        Point {
            coords: self
                .coords
                .iter()
                .zip(&other.coords)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// True if every coordinate lies in `[0, delta−1]`.
    pub fn in_grid(&self, delta: i64) -> bool {
        self.coords.iter().all(|&c| (0..delta).contains(&c))
    }

    /// Interprets the point as a bit vector (Hamming space); coordinates
    /// other than 0/1 are reported as an error by returning `None`.
    pub fn as_bits(&self) -> Option<Vec<bool>> {
        self.coords
            .iter()
            .map(|&c| match c {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl From<Vec<i64>> for Point {
    fn from(coords: Vec<i64>) -> Self {
        Point::new(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_has_requested_dim() {
        let p = Point::zero(7);
        assert_eq!(p.dim(), 7);
        assert!(p.coords().iter().all(|&c| c == 0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Point::new(vec![1, 2, 3]);
        let b = Point::new(vec![10, -4, 0]);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn from_bits_and_back() {
        let bits = vec![true, false, true, true];
        let p = Point::from_bits(&bits);
        assert_eq!(p.as_bits().unwrap(), bits);
        assert_eq!(p.coord(0), 1);
        assert_eq!(p.coord(1), 0);
    }

    #[test]
    fn as_bits_rejects_non_binary() {
        let p = Point::new(vec![0, 2]);
        assert!(p.as_bits().is_none());
    }

    #[test]
    fn in_grid_bounds() {
        let p = Point::new(vec![0, 9]);
        assert!(p.in_grid(10));
        assert!(!p.in_grid(9));
        let q = Point::new(vec![-1, 3]);
        assert!(!q.in_grid(10));
    }
}
