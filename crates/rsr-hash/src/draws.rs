//! Draw sets: the one form a sampled LSH function takes.
//!
//! The paper samples functions `g ∼ H` only to evaluate them in bulk:
//! Algorithm 1 keys every point by `h(g_1(a), …, g_{s_i}(a))` over
//! `s = Θ(n·d)` draws, and the Gap protocol by `h·m` draws in batches. A
//! [`DrawSet`] holds `count` draws in the cheapest form the family
//! allows — one `u32` per bit-sampling draw (a coordinate, or a sentinel
//! for the padding constant of footnote 3), one row-major `f64` array for
//! grid offsets or 2-stable directions. One sampled function is one draw
//! of a set, evaluated alone by [`DrawSet::hash`].
//!
//! Keyers evaluate a set as a block through one lane kernel: eight
//! points' hash chains side by side, each emitting a word at every entry
//! of an `ends` list — prefix lengths for Algorithm 1's levels (the chain
//! runs on), batch boundaries for Gap keys (the chain restarts). A caller
//! dispatches on the family once per call instead of once per draw.
//!
//! Bit sampling has a second path for Gap keys: over `{0,1}^d` a batch of
//! `m` draws takes one of `2^m` values, so `DrawSet::batch_lookup`
//! reads each batch's `m` bits and indexes a table the keyer built once
//! from the chain's own definition. A point that reads a coordinate
//! outside `{0,1}` is refused there and goes through the chain.
//!
//! A draw set is built by [`crate::LshFamily::sample_draws`], and a set
//! of `a + b` draws is the set of `a` followed by the set of `b` drawn
//! from the same RNG, which is left in the same state.

use crate::mix::IncrementalHasher;
use rsr_metric::Point;

/// Points whose chains [`DrawSet::prefix_hashes`] and
/// [`DrawSet::batch_hashes`] run side by side. One point's
/// chain is a dependent sequence of `mix64` steps, so it is
/// latency-bound; independent chains fill the pipeline. Eight beat
/// four by ≈ 1.5× on an x86-64 host and still fit the registers; twelve
/// and sixteen spill and lose.
const LANES: usize = 8;

/// `s` sampled functions of one family. Opaque outside this crate apart
/// from [`DrawSet::hash`]: the keyers in [`crate::keys`] evaluate it in
/// bulk, and a new family adds its representation here.
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
fn cell_hash(seed: u64, offsets: &[f64], width: f64, p: &Point) -> u64 {
    let mut inc = IncrementalHasher::new(seed);
    for (&c, &offset) in p.coords().iter().zip(offsets) {
        inc.update(((c as f64 + offset) / width).floor() as i64 as u64);
    }
    inc.current()
}

/// The bucket `⌊(r·p + a)/w⌋` of one 2-stable draw.
#[inline]
fn bucket(direction: &[f64], offset: f64, width: f64, p: &Point) -> u64 {
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

    /// True for bit-sampling draws, the one family
    /// [`DrawSet::batch_lookup`] serves.
    pub(crate) fn is_bit_sampling(&self) -> bool {
        matches!(self.0, Kind::Coords(_))
    }

    /// Number of draws `s`.
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Kind::Coords(e) => e.0.len(),
            Kind::Grid(e) => e.offsets.len() / e.dim,
            Kind::Projection(e) => e.offsets.len(),
        }
    }

    /// Draw `j`'s hash of `p`: the sampled function `g_j` evaluated once.
    /// Keyers evaluate a set in bulk; this is the one-draw form the
    /// collision experiments and the family tests measure.
    pub fn hash(&self, j: usize, p: &Point) -> u64 {
        match &self.0 {
            Kind::Coords(e) => e.eval(j, p),
            Kind::Grid(e) => e.eval(j, p),
            Kind::Projection(e) => e.eval(j, p),
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
        self.hash_chains(seed, points, lens.iter().copied(), false, out);
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
        self.hash_chains(seed, points, (m..=self.len()).step_by(m), true, out);
    }

    /// Bit-sampling Gap entries by lookup: `out[b]` is `table[b·2^m +
    /// v]`, where bit `j` of `v` is draw `bm + j` on `p` (a padding draw
    /// reads 0). Returns `false`, with `out` unspecified, if `p` reads a
    /// coordinate outside `{0,1}`: its batch values are not bits, so no
    /// row entry is its word. Panics unless the draws are bit sampling,
    /// `m` tiles them, and `table` and `out` hold `2^m` words and one
    /// word per batch.
    pub(crate) fn batch_lookup(&self, m: usize, table: &[u64], p: &Point, out: &mut [u64]) -> bool {
        let Kind::Coords(Coords(coords)) = &self.0 else {
            panic!("only bit-sampling batches are bits");
        };
        assert_eq!(table.len(), out.len() << m, "2^m words per batch");
        assert_eq!(coords.len(), out.len() * m, "batches must tile the draws");
        let xs = p.coords();
        // The OR of every value read: at most 1 iff all were bits.
        let mut seen = 0;
        for ((batch, row), entry) in coords
            .chunks_exact(m)
            .zip(table.chunks_exact(1 << m))
            .zip(out)
        {
            let mut v = 0;
            for (j, &c) in batch.iter().enumerate() {
                let x = if c == PAD { 0 } else { xs[c as usize] as u64 };
                seen |= x;
                v |= (x as usize & 1) << j;
            }
            *entry = row[v];
        }
        seen <= 1
    }

    /// Dispatches on the family once, then runs [`drive_lanes`].
    fn hash_chains(
        &self,
        seed: u64,
        points: &[Point],
        ends: impl Iterator<Item = usize> + Clone,
        restart: bool,
        out: &mut [u64],
    ) {
        match &self.0 {
            Kind::Coords(e) => drive_lanes(e, seed, points, ends, restart, out),
            Kind::Grid(e) => drive_lanes(e, seed, points, ends, restart, out),
            Kind::Projection(e) => drive_lanes(e, seed, points, ends, restart, out),
        }
    }
}

/// The block driver: runs every point's chain through [`chains`],
/// [`LANES`] points at a time; `out` is point-major, `out.len() /
/// points.len()` words per point.
fn drive_lanes(
    e: &impl Eval,
    seed: u64,
    points: &[Point],
    ends: impl Iterator<Item = usize> + Clone,
    restart: bool,
    out: &mut [u64],
) {
    if out.is_empty() {
        return;
    }
    let width = out.len() / points.len();
    if let [p] = points {
        // A lone point (`level_keys`, `BatchKeyer::key`) is one chain: no
        // lanes to fill.
        return chains(e, seed, [p], ends, restart, out);
    }
    let mut blocks = points.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES * width);
    for (block, out) in (&mut blocks).zip(&mut outs) {
        let block = std::array::from_fn::<_, LANES, _>(|i| &block[i]);
        chains(e, seed, block, ends.clone(), restart, out);
    }
    // A short last block still runs every lane, repeating its last point,
    // and keeps the words of the points it has.
    let rest = blocks.remainder();
    if let Some(last) = rest.last() {
        let lanes = std::array::from_fn::<_, LANES, _>(|i| rest.get(i).unwrap_or(last));
        let mut block_out = vec![0; LANES * width];
        chains(e, seed, lanes, ends, restart, &mut block_out);
        let tail = outs.into_remainder();
        tail.copy_from_slice(&block_out[..tail.len()]);
    }
}

/// The chain kernel: `N` points' hash chains, interleaved draw by draw.
/// Each lane feeds
/// draws `0, 1, …` in order and emits its running hash at every entry of
/// `ends` (word `w` of lane `i` lands at `out[i · out.len()/N + w]`).
/// With `restart` the chain begins afresh after each word, so word `w`
/// hashes only the draws since the previous end: a batch, not a prefix.
#[inline(always)]
fn chains<const N: usize>(
    e: &impl Eval,
    seed: u64,
    points: [&Point; N],
    ends: impl Iterator<Item = usize>,
    restart: bool,
    out: &mut [u64],
) {
    let width = out.len() / N;
    let start = IncrementalHasher::new(seed);
    let mut inc: [IncrementalHasher; N] = std::array::from_fn(|_| start.clone());
    let mut fed = 0;
    for (w, end) in ends.enumerate() {
        for j in fed..end {
            for (inc, p) in inc.iter_mut().zip(points) {
                inc.update(e.eval(j, p));
            }
        }
        fed = end;
        for (lane, inc) in inc.iter_mut().enumerate() {
            out[lane * width + w] = inc.current();
            if restart {
                *inc = start.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::hash_words;
    use crate::{BitSamplingFamily, GridFamily, LshFamily, OneSidedGridFamily, PStableFamily};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn points(dim: usize, count: usize, delta: i64, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| Point::new((0..dim).map(|_| rng.gen_range(0..delta)).collect()))
            .collect()
    }

    /// `sample_draws(rng, a + b)` is `sample_draws(rng, a)` followed by
    /// `sample_draws(rng, b)`, draw for draw, and leaves the RNG where the
    /// two calls leave it: so `count` one-draw sets are one `count`-draw
    /// set, which is what the collision measurements rely on.
    fn draws_split<F: LshFamily>(family: &F, dim: usize, delta: i64) {
        // Coordinates from 1 up, so a bit-sampling draw's hash names the
        // coordinate it reads and padding (0) differs from every read.
        let pts = points(dim, 16, delta + 1000, 10)
            .into_iter()
            .map(|p| Point::new(p.coords().iter().map(|&c| c + 1).collect()))
            .collect::<Vec<_>>();
        for (a, b) in [(0, 5), (1, 0), (1, 1), (3, 61), (40, 24)] {
            let mut whole = StdRng::seed_from_u64(9);
            let mut split = StdRng::seed_from_u64(9);
            let all = family.sample_draws(&mut whole, a + b);
            let head = family.sample_draws(&mut split, a);
            let tail = family.sample_draws(&mut split, b);
            assert_eq!(whole.gen::<u64>(), split.gen::<u64>(), "same RNG calls");
            assert_eq!((all.len(), head.len(), tail.len()), (a + b, a, b));
            for p in &pts {
                for j in 0..a + b {
                    let part = if j < a {
                        head.hash(j, p)
                    } else {
                        tail.hash(j - a, p)
                    };
                    assert_eq!(all.hash(j, p), part, "draw {j} of {a} + {b} on {p:?}");
                }
            }
        }
    }

    #[test]
    fn bit_sampling_draws_split() {
        draws_split(&BitSamplingFamily::new(24, 40.0), 24, 2);
    }

    #[test]
    fn grid_draws_split() {
        draws_split(&GridFamily::new(3, 17.0), 3, 100);
    }

    #[test]
    fn one_sided_grid_draws_split() {
        draws_split(&OneSidedGridFamily::new(2, 1.0, 1.0, 40.0), 2, 100);
    }

    #[test]
    fn pstable_draws_split() {
        draws_split(&PStableFamily::new(3, 17.0), 3, 100);
    }

    /// Every prefix word of every point equals `hash_words` over the
    /// point's one-draw hashes, for point counts that exercise a lone
    /// chain, a short block, full blocks and full blocks plus a remainder.
    fn prefixes_match_definition<F: LshFamily>(family: &F, dim: usize, delta: i64) {
        let draws = family.sample_draws(&mut StdRng::seed_from_u64(1), 20);
        let lens = [0, 3, 3, 7, 20];
        for count in [0, 1, 7, 8, 9, 2 * LANES + 1] {
            let pts = points(dim, count, delta, 2);
            let mut out = vec![0; pts.len() * lens.len()];
            draws.prefix_hashes(77, &pts, &lens, &mut out);
            for (i, p) in pts.iter().enumerate() {
                let words: Vec<u64> = (0..20).map(|j| draws.hash(j, p)).collect();
                for (l, &len) in lens.iter().enumerate() {
                    assert_eq!(
                        out[i * lens.len() + l],
                        hash_words(77, &words[..len]),
                        "{count} points"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_hashes_hash_each_prefix_of_each_point() {
        prefixes_match_definition(&BitSamplingFamily::new(24, 40.0), 24, 2);
        prefixes_match_definition(&GridFamily::new(3, 9.0), 3, 50);
        prefixes_match_definition(&OneSidedGridFamily::new(2, 1.0, 1.0, 40.0), 2, 100);
        prefixes_match_definition(&PStableFamily::new(3, 9.0), 3, 50);
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
