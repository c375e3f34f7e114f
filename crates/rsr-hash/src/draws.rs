//! Compact draw sets: `s` functions of one LSH family, stored flat.
//!
//! Algorithm 1 keys every point by `h(g_1(a), …, g_{s_i}(a))` over
//! `s = Θ(n·d)` draws, and the Gap protocol by `h·m` draws in batches.
//! A [`DrawSet`] holds all of them in the cheapest form the family
//! allows — one `u32` per bit-sampling draw (a coordinate, or a sentinel
//! for the padding constant of footnote 3), one row-major `f64` array for
//! grid offsets or 2-stable directions — and is evaluated as a block, so
//! a caller dispatches on the family once per call instead of once per
//! draw.
//!
//! A draw set is built by [`crate::LshFamily::sample_draws`] from exactly
//! the RNG calls `count` successive [`crate::LshFamily::sample`]s make,
//! and draw `j` hashes every point to the same word as the `j`-th of
//! those functions.

use crate::mix::IncrementalHasher;
use rsr_metric::Point;
use std::ops::Range;

/// Points whose prefix chains [`DrawSet::prefix_hashes`] (and batch
/// chains, [`DrawSet::batch_hashes`]) runs side by side. One point's
/// chain is a dependent sequence of `mix64` steps, so it is
/// latency-bound; independent chains fill the pipeline. Eight beat
/// four by ≈ 1.5× on an x86-64 host and still fit the registers; twelve
/// and sixteen spill and lose.
const LANES: usize = 8;

/// `s` sampled functions of one family. Opaque outside this crate: the
/// keyers here ([`crate::keys`], [`crate::dsbf`]) are what evaluate it,
/// and a new family adds its representation here.
#[derive(Clone, Debug)]
pub struct DrawSet(Kind);

#[derive(Clone, Debug)]
enum Kind {
    Coords(Coords),
    Grid(Grids),
    Projection(Projections),
}

/// Evaluates draw `j` of a set on a point.
trait Eval {
    fn eval(&self, j: usize, p: &Point) -> u64;
}

/// Bit sampling (Lemma 2.3): the coordinate each draw reads, or [`PAD`].
#[derive(Clone, Debug)]
struct Coords(Vec<u32>);

/// A bit-sampling draw that landed on a padding coordinate: the
/// constant-0 function.
const PAD: u32 = u32::MAX;

impl Eval for Coords {
    #[inline]
    fn eval(&self, j: usize, p: &Point) -> u64 {
        match self.0[j] {
            PAD => 0,
            c => p.coord(c as usize) as u64,
        }
    }
}

/// Randomly shifted grids (Lemma 2.4, §E.1): `count × dim` offsets.
#[derive(Clone, Debug)]
struct Grids {
    offsets: Vec<f64>,
    dim: usize,
    width: f64,
    seed: u64,
}

impl Eval for Grids {
    #[inline]
    fn eval(&self, j: usize, p: &Point) -> u64 {
        cell_hash(
            self.seed,
            &self.offsets[j * self.dim..(j + 1) * self.dim],
            self.width,
            p,
        )
    }
}

/// 2-stable projections (Lemma 2.5): `count × dim` directions and one
/// offset per draw.
#[derive(Clone, Debug)]
struct Projections {
    directions: Vec<f64>,
    offsets: Vec<f64>,
    dim: usize,
    width: f64,
}

impl Eval for Projections {
    #[inline]
    fn eval(&self, j: usize, p: &Point) -> u64 {
        bucket(
            &self.directions[j * self.dim..(j + 1) * self.dim],
            self.offsets[j],
            self.width,
            p,
        )
    }
}

/// The grid cell `p` falls in under `offsets`, hashed as a tuple under
/// `seed` — what one grid draw maps a point to.
#[inline]
pub(crate) fn cell_hash(seed: u64, offsets: &[f64], width: f64, p: &Point) -> u64 {
    let mut inc = IncrementalHasher::new(seed);
    for (&c, &offset) in p.coords().iter().zip(offsets) {
        inc.update(((c as f64 + offset) / width).floor() as i64 as u64);
    }
    inc.current()
}

/// The bucket `⌊(r·p + a)/w⌋` of one 2-stable draw.
#[inline]
pub(crate) fn bucket(direction: &[f64], offset: f64, width: f64, p: &Point) -> u64 {
    let dot: f64 = p
        .coords()
        .iter()
        .zip(direction)
        .map(|(&c, &r)| c as f64 * r)
        .sum();
    (((dot + offset) / width).floor() as i64) as u64
}

impl DrawSet {
    /// Bit-sampling draws: `Some(j)` reads coordinate `j`, `None` is the
    /// padding constant.
    pub(crate) fn coords(draws: impl Iterator<Item = Option<usize>>) -> DrawSet {
        DrawSet(Kind::Coords(Coords(
            draws
                .map(|c| c.map_or(PAD, |j| u32::try_from(j).expect("dimension fits u32")))
                .collect(),
        )))
    }

    /// Grid draws: `offsets` holds `dim` offsets per draw, row-major;
    /// every draw hashes its cell tuple under `seed`.
    pub(crate) fn grid(offsets: Vec<f64>, dim: usize, width: f64, seed: u64) -> DrawSet {
        debug_assert_eq!(offsets.len() % dim, 0);
        DrawSet(Kind::Grid(Grids {
            offsets,
            dim,
            width,
            seed,
        }))
    }

    /// 2-stable draws: `directions` holds `dim` entries per draw,
    /// row-major, `offsets` one per draw.
    pub(crate) fn projection(
        directions: Vec<f64>,
        offsets: Vec<f64>,
        dim: usize,
        width: f64,
    ) -> DrawSet {
        debug_assert_eq!(directions.len(), offsets.len() * dim);
        DrawSet(Kind::Projection(Projections {
            directions,
            offsets,
            dim,
            width,
        }))
    }

    /// Number of draws `s`.
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Kind::Coords(e) => e.0.len(),
            Kind::Grid(e) => e.offsets.len() / e.dim,
            Kind::Projection(e) => e.offsets.len(),
        }
    }

    /// Draw `j`'s hash of `p`.
    #[cfg(test)]
    pub(crate) fn hash(&self, j: usize, p: &Point) -> u64 {
        match &self.0 {
            Kind::Coords(e) => e.eval(j, p),
            Kind::Grid(e) => e.eval(j, p),
            Kind::Projection(e) => e.eval(j, p),
        }
    }

    /// Feeds draws `range`, evaluated on `p`, into `inc` in order — one
    /// Bloom-filter group.
    pub(crate) fn feed(&self, range: Range<usize>, p: &Point, inc: &mut IncrementalHasher) {
        fn run(e: &impl Eval, range: Range<usize>, p: &Point, inc: &mut IncrementalHasher) {
            for j in range {
                inc.update(e.eval(j, p));
            }
        }
        match &self.0 {
            Kind::Coords(e) => run(e, range, p, inc),
            Kind::Grid(e) => run(e, range, p, inc),
            Kind::Projection(e) => run(e, range, p, inc),
        }
    }

    /// The hash of every requested prefix of every point's draw vector:
    /// `out[i·L + l]` is `hash_words(seed, [g_1(p_i), …, g_{lens[l]}(p_i)])`
    /// for `L = lens.len()`. One O(s) pass per point, eight points at a
    /// time. Panics unless `lens` is non-decreasing and at most
    /// [`DrawSet::len`], and `out` holds exactly `points.len() · L` words.
    pub(crate) fn prefix_hashes(
        &self,
        seed: u64,
        points: &[Point],
        lens: &[usize],
        out: &mut [u64],
    ) {
        assert!(
            lens.windows(2).all(|w| w[0] <= w[1]),
            "prefix lengths must not decrease"
        );
        assert!(
            lens.last().is_none_or(|&l| l <= self.len()),
            "prefix length exceeds s"
        );
        assert_eq!(
            out.len(),
            points.len() * lens.len(),
            "one word per point and level"
        );
        match &self.0 {
            Kind::Coords(e) => prefix_lanes(e, seed, points, lens, out),
            Kind::Grid(e) => prefix_lanes(e, seed, points, lens, out),
            Kind::Projection(e) => prefix_lanes(e, seed, points, lens, out),
        }
    }

    /// The hash of every batch of `m` consecutive draws over every point:
    /// `out[i·B + b]` is `hash_words(seed, [g_{bm}(p_i), …, g_{bm+m−1}(p_i)])`
    /// for `B = len / m` batches — the Gap keys before their per-batch
    /// pairwise hash. Eight points at a time. Panics unless `m` divides
    /// [`DrawSet::len`] and `out` holds exactly `points.len() · B` words.
    pub(crate) fn batch_hashes(&self, seed: u64, m: usize, points: &[Point], out: &mut [u64]) {
        assert!(
            m >= 1 && self.len().is_multiple_of(m),
            "batches must tile the draws"
        );
        assert_eq!(
            out.len(),
            points.len() * (self.len() / m),
            "one word per point and batch"
        );
        match &self.0 {
            Kind::Coords(e) => batch_lanes(e, seed, m, points, out),
            Kind::Grid(e) => batch_lanes(e, seed, m, points, out),
            Kind::Projection(e) => batch_lanes(e, seed, m, points, out),
        }
    }
}

fn batch_lanes(e: &impl Eval, seed: u64, m: usize, points: &[Point], out: &mut [u64]) {
    if points.is_empty() {
        return;
    }
    let width = out.len() / points.len();
    if points.len() == 1 {
        // A lone point (`BatchKeyer::key`): its batches are independent
        // chains already.
        return batches(e, seed, m, [&points[0]], out);
    }
    let mut blocks = points.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES * width);
    for (block, out) in (&mut blocks).zip(&mut outs) {
        batches(
            e,
            seed,
            m,
            std::array::from_fn::<_, LANES, _>(|i| &block[i]),
            out,
        );
    }
    // As in `prefix_lanes`: a short last block runs every lane, repeating
    // its last point, and keeps the words of the points it has.
    let rest = blocks.remainder();
    if let Some(last) = rest.last() {
        let lanes = std::array::from_fn::<_, LANES, _>(|i| rest.get(i).unwrap_or(last));
        let mut block_out = vec![0; LANES * width];
        batches(e, seed, m, lanes, &mut block_out);
        let tail = outs.into_remainder();
        tail.copy_from_slice(&block_out[..tail.len()]);
    }
}

/// `N` points' batch chains, interleaved draw by draw; `out` is
/// point-major, `out.len() / N` batches per point.
#[inline(always)]
fn batches<const N: usize>(
    e: &impl Eval,
    seed: u64,
    m: usize,
    points: [&Point; N],
    out: &mut [u64],
) {
    let width = out.len() / N;
    let start = IncrementalHasher::new(seed);
    for b in 0..width {
        let mut inc: [IncrementalHasher; N] = std::array::from_fn(|_| start.clone());
        for j in b * m..(b + 1) * m {
            for (inc, p) in inc.iter_mut().zip(points) {
                inc.update(e.eval(j, p));
            }
        }
        for (lane, inc) in inc.iter().enumerate() {
            out[lane * width + b] = inc.current();
        }
    }
}

fn prefix_lanes(e: &impl Eval, seed: u64, points: &[Point], lens: &[usize], out: &mut [u64]) {
    let levels = lens.len();
    if levels == 0 || points.is_empty() {
        return;
    }
    if points.len() == 1 {
        // A lone point (`level_keys`) is one chain: no lanes to fill.
        return chains(e, seed, [&points[0]], lens, out);
    }
    let mut blocks = points.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES * levels);
    for (block, out) in (&mut blocks).zip(&mut outs) {
        chains(
            e,
            seed,
            std::array::from_fn::<_, LANES, _>(|i| &block[i]),
            lens,
            out,
        );
    }
    // A short last block still runs every lane, repeating its last point,
    // and keeps the words of the points it has.
    let rest = blocks.remainder();
    if let Some(last) = rest.last() {
        let lanes = std::array::from_fn::<_, LANES, _>(|i| rest.get(i).unwrap_or(last));
        let mut block_out = vec![0; LANES * levels];
        chains(e, seed, lanes, lens, &mut block_out);
        let tail = outs.into_remainder();
        tail.copy_from_slice(&block_out[..tail.len()]);
    }
}

/// `N` points' prefix chains, interleaved draw by draw.
#[inline(always)]
fn chains<const N: usize>(
    e: &impl Eval,
    seed: u64,
    points: [&Point; N],
    lens: &[usize],
    out: &mut [u64],
) {
    let levels = lens.len();
    let mut inc: [IncrementalHasher; N] = std::array::from_fn(|_| IncrementalHasher::new(seed));
    let mut fed = 0;
    for (level, &len) in lens.iter().enumerate() {
        for j in fed..len {
            for (inc, p) in inc.iter_mut().zip(points) {
                inc.update(e.eval(j, p));
            }
        }
        fed = len;
        for (lane, inc) in inc.iter().enumerate() {
            out[lane * levels + level] = inc.current();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::hash_words;
    use crate::{
        BitSamplingFamily, GridFamily, LshFamily, LshFunction, OneSidedGridFamily, PStableFamily,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn points(dim: usize, count: usize, delta: i64, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0..delta)).collect()))
            .collect()
    }

    /// `sample_draws(count)` spends the RNG exactly as `count` calls of
    /// `sample` do, and draw `j` agrees with the `j`-th function.
    fn agrees_with_sampled_functions<F: LshFamily>(family: &F, dim: usize, delta: i64) {
        let count = 64;
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let draws = family.sample_draws(&mut a, count);
        let functions: Vec<F::Function> = (0..count).map(|_| family.sample(&mut b)).collect();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same RNG calls");
        assert_eq!(draws.len(), count);
        for p in points(dim, 16, delta, 10) {
            for (j, f) in functions.iter().enumerate() {
                assert_eq!(draws.hash(j, &p), f.hash(&p), "draw {j} on {p:?}");
            }
        }
    }

    #[test]
    fn every_family_draws_the_functions_sample_draws() {
        agrees_with_sampled_functions(&BitSamplingFamily::new(24, 40.0), 24, 2);
        agrees_with_sampled_functions(&GridFamily::new(3, 17.0), 3, 100);
        agrees_with_sampled_functions(&PStableFamily::new(3, 17.0), 3, 100);
        agrees_with_sampled_functions(&OneSidedGridFamily::new(2, 1.0, 1.0, 40.0), 2, 100);
    }

    #[test]
    fn prefix_hashes_hash_each_prefix_of_each_point() {
        let family = GridFamily::new(3, 9.0);
        let draws = family.sample_draws(&mut StdRng::seed_from_u64(1), 20);
        let lens = [0, 3, 3, 7, 20];
        // Full lane blocks plus a remainder.
        let pts = points(3, 2 * LANES + 3, 50, 2);
        let mut out = vec![0; pts.len() * lens.len()];
        draws.prefix_hashes(77, &pts, &lens, &mut out);
        for (i, p) in pts.iter().enumerate() {
            let words: Vec<u64> = (0..20).map(|j| draws.hash(j, p)).collect();
            for (l, &len) in lens.iter().enumerate() {
                assert_eq!(out[i * lens.len() + l], hash_words(77, &words[..len]));
            }
        }
    }

    #[test]
    fn feed_hashes_a_range_in_order() {
        let draws = BitSamplingFamily::new(8, 8.0).sample_draws(&mut StdRng::seed_from_u64(3), 12);
        let p = &points(8, 1, 2, 4)[0];
        let mut inc = IncrementalHasher::new(5);
        draws.feed(4..9, p, &mut inc);
        let words: Vec<u64> = (4..9).map(|j| draws.hash(j, p)).collect();
        assert_eq!(inc.current(), hash_words(5, &words));
    }

    #[test]
    fn batch_hashes_hash_each_batch_of_each_point() {
        let family = PStableFamily::new(3, 9.0);
        let draws = family.sample_draws(&mut StdRng::seed_from_u64(6), 12);
        for count in [0, 1, 7, 8, 9, 2 * LANES + 3] {
            let pts = points(3, count, 50, 7);
            let mut out = vec![0; count * 4];
            draws.batch_hashes(88, 3, &pts, &mut out);
            for (i, p) in pts.iter().enumerate() {
                for b in 0..4 {
                    let words: Vec<u64> = (3 * b..3 * b + 3).map(|j| draws.hash(j, p)).collect();
                    assert_eq!(out[i * 4 + b], hash_words(88, &words), "{count} points");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batches must tile the draws")]
    fn batches_that_do_not_tile_are_refused() {
        let draws = BitSamplingFamily::new(8, 8.0).sample_draws(&mut StdRng::seed_from_u64(3), 5);
        draws.batch_hashes(0, 2, &points(8, 1, 2, 4), &mut [0, 0]);
    }

    #[test]
    #[should_panic(expected = "prefix length exceeds s")]
    fn prefix_past_the_draws_is_refused() {
        let draws = BitSamplingFamily::new(8, 8.0).sample_draws(&mut StdRng::seed_from_u64(3), 4);
        draws.prefix_hashes(0, &points(8, 1, 2, 4), &[5], &mut [0]);
    }

    #[test]
    fn bit_sampling_pads_with_the_constant() {
        // w = 64·d: almost every draw is padding, and padding hashes to 0.
        let draws =
            BitSamplingFamily::new(4, 256.0).sample_draws(&mut StdRng::seed_from_u64(5), 400);
        let ones = Point::new(vec![1; 4]);
        let read = (0..400).filter(|&j| draws.hash(j, &ones) == 1).count();
        assert!(
            (1..40).contains(&read),
            "{read} of 400 draws read a coordinate"
        );
    }
}
