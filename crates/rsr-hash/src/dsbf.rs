//! Distance-sensitive Bloom filters (Kirsch & Mitzenmacher, ALENEX 2006 —
//! the paper's reference \[18\]).
//!
//! "The idea of using hash-based data structures to handle close matches
//! appears in the work of Kirsch and Mitzenmacher, who consider
//! generalizing Bloom filters … by making use of locality-sensitive hash
//! functions to return a positive result if a query is close to a set
//! element" (§1.1). We build it as an extra substrate and use it in the
//! experiments as a *cheaper but weaker* alternative far-point detector:
//! a DSBF answers "is q near some set element?" with two-sided constant
//! error, whereas the Gap protocol's key comparison gives the paper's
//! one-sided w.h.p. guarantee.
//!
//! Construction: `l` groups, each a concatenation of `m` LSH draws mapped
//! into a `b`-bit array. A query is *near* if at least `τ·l` groups hit a
//! set bit. The `l·m` draws are one [`DrawSet`] and a group is one of its
//! batches of `m`, hashed by the same lane kernel as a Gap key's batches.

use crate::draws::DrawSet;
use crate::lsh::LshFamily;
use rand::Rng;
use rsr_metric::Point;

/// Seed of the tuple hash over one group's `m` draws.
const GROUP_SEED: u64 = 0xd5bf;

/// A distance-sensitive Bloom filter over an LSH family.
pub struct DistanceSensitiveBloom {
    /// `l·m` draws, group-major.
    draws: DrawSet,
    m: usize,
    bits: Vec<Vec<bool>>,
    bits_per_group: usize,
    threshold: f64,
}

impl DistanceSensitiveBloom {
    /// Creates an empty filter: `l` groups of `m` concatenated LSH draws,
    /// `bits_per_group` bits each, near-decision threshold `τ ∈ (0, 1]`.
    pub fn new<F: LshFamily, R: Rng + ?Sized>(
        family: &F,
        l: usize,
        m: usize,
        bits_per_group: usize,
        threshold: f64,
        rng: &mut R,
    ) -> Self {
        assert!(l >= 1 && m >= 1 && bits_per_group >= 2);
        assert!(threshold > 0.0 && threshold <= 1.0);
        DistanceSensitiveBloom {
            draws: family.sample_draws(rng, l * m),
            m,
            bits: vec![vec![false; bits_per_group]; l],
            bits_per_group,
            threshold,
        }
    }

    /// The bucket of `p` in every group, in group order.
    fn buckets(&self, p: &Point) -> impl Iterator<Item = usize> {
        let mut words = vec![0; self.bits.len()];
        self.draws
            .batch_hashes(GROUP_SEED, self.m, std::slice::from_ref(p), &mut words);
        let width = self.bits_per_group as u64;
        words.into_iter().map(move |w| (w % width) as usize)
    }

    /// Inserts a point.
    pub fn insert(&mut self, p: &Point) {
        for (b, bits) in self.buckets(p).zip(&mut self.bits) {
            bits[b] = true;
        }
    }

    /// Fraction of groups whose bucket for `q` is set.
    pub fn hit_fraction(&self, q: &Point) -> f64 {
        let hits = self
            .buckets(q)
            .zip(&self.bits)
            .filter(|&(b, bits)| bits[b])
            .count();
        hits as f64 / self.bits.len() as f64
    }

    /// The near/far decision: true if the hit fraction reaches `τ`.
    pub fn is_near(&self, q: &Point) -> bool {
        self.hit_fraction(q) >= self.threshold
    }

    /// Wire size in bits (the group bit-arrays; the functions are public
    /// coins).
    pub fn wire_bits(&self) -> u64 {
        (self.bits.len() * self.bits_per_group) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_sampling::BitSamplingFamily;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(dim: usize, pts: &[Point], seed: u64) -> DistanceSensitiveBloom {
        let fam = BitSamplingFamily::new(dim, dim as f64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = DistanceSensitiveBloom::new(&fam, 32, 10, 256, 0.5, &mut rng);
        for p in pts {
            f.insert(p);
        }
        f
    }

    fn rand_point(dim: usize, rng: &mut StdRng) -> Point {
        Point::from_bits(&(0..dim).map(|_| rng.gen()).collect::<Vec<bool>>())
    }

    #[test]
    fn members_always_near() {
        let dim = 128;
        let mut rng = StdRng::seed_from_u64(1);
        let pts: Vec<Point> = (0..20).map(|_| rand_point(dim, &mut rng)).collect();
        let f = build(dim, &pts, 2);
        for p in &pts {
            assert_eq!(f.hit_fraction(p), 1.0);
            assert!(f.is_near(p));
        }
    }

    #[test]
    fn close_points_mostly_near() {
        let dim = 128;
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Point> = (0..20).map(|_| rand_point(dim, &mut rng)).collect();
        let f = build(dim, &pts, 4);
        let mut near = 0;
        for p in &pts {
            let mut bits = p.as_bits().unwrap();
            bits[0] = !bits[0]; // distance 1
            if f.is_near(&Point::from_bits(&bits)) {
                near += 1;
            }
        }
        assert!(near >= 17, "only {near}/20 close queries near");
    }

    #[test]
    fn far_points_mostly_far() {
        let dim = 128;
        let mut rng = StdRng::seed_from_u64(5);
        let pts: Vec<Point> = (0..20).map(|_| rand_point(dim, &mut rng)).collect();
        let f = build(dim, &pts, 6);
        let mut far = 0;
        for _ in 0..20 {
            let q = rand_point(dim, &mut rng); // expected distance d/2
            if !f.is_near(&q) {
                far += 1;
            }
        }
        assert!(far >= 15, "only {far}/20 far queries rejected");
    }

    #[test]
    fn hit_fraction_monotone_in_distance() {
        let dim = 128;
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point> = (0..10).map(|_| rand_point(dim, &mut rng)).collect();
        let f = build(dim, &pts, 8);
        let base = &pts[0];
        let frac_at = |dist: usize| -> f64 {
            let mut bits = base.as_bits().unwrap();
            for b in bits.iter_mut().take(dist) {
                *b = !*b;
            }
            f.hit_fraction(&Point::from_bits(&bits))
        };
        assert!(
            frac_at(1) >= frac_at(30),
            "{} < {}",
            frac_at(1),
            frac_at(30)
        );
    }

    #[test]
    fn wire_bits_constant_in_set_size() {
        let dim = 64;
        let mut rng = StdRng::seed_from_u64(9);
        let small: Vec<Point> = (0..5).map(|_| rand_point(dim, &mut rng)).collect();
        let large: Vec<Point> = (0..500).map(|_| rand_point(dim, &mut rng)).collect();
        assert_eq!(
            build(dim, &small, 10).wire_bits(),
            build(dim, &large, 10).wire_bits()
        );
    }
}
