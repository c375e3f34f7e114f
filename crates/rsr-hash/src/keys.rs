//! LSH-vector key construction.
//!
//! Two key shapes appear in the paper:
//!
//! * **Multi-resolution prefix keys** (Algorithm 1): draw `s` MLSH functions
//!   `g_1, …, g_s`; the level-`i` key of a point `a` is
//!   `h(g_1(a), …, g_{s_i}(a))` for a prefix length `s_i` that doubles with
//!   the level, where `h` is a pairwise-independent hash with `Θ(log n)`-bit
//!   range. [`MultiScaleKeyer`] computes all level keys of a point in one
//!   O(s) pass using an incremental hasher, and keys a batch of points with
//!   their hash chains interleaved.
//! * **Batched Gap keys** (§4.1): `h` batches of `m` LSH values, each batch
//!   collapsed by its own pairwise hash; the key is the vector of the `h`
//!   batch hashes. [`BatchKeyer`] builds those, a side at a time.
//!
//! Both hold their draws as one [`DrawSet`] and evaluate it through its
//! lane kernel: level keys are the chain's words at the prefix lengths,
//! Gap entries its words at every `m`-th draw with the chain restarted
//! between batches. Bit-sampling Gap keys with `m ≤ 8` have a second
//! path: a batch over `{0,1}^d` takes one of `2^m` values, so the keyer
//! tabulates each batch's `2^m` entries from that same definition at
//! sampling time and keys a binary point by `h` lookups. Neither keyer
//! keeps the family it was sampled from: the draws are all it needs.

use crate::draws::DrawSet;
use crate::lsh::LshFamily;
use crate::mix::hash_words;
use crate::pairwise::{premix, PairwiseHash};
use rand::Rng;
use rsr_metric::Point;

/// Seed of the incremental hash over a point's MLSH vector.
const PREFIX_SEED: u64 = 0x4c53_4852;

/// Seed of the tuple hash over one Gap batch.
const BATCH_SEED: u64 = 0x7157_1d2b;

/// Widest bit-sampling batch keyed by table: `h·2^m` words, 2 KiB per
/// batch at `m = 8`. A wider batch keeps the chain.
const TABLE_MAX_M: usize = 8;

/// Multi-resolution prefix keyer for Algorithm 1.
pub struct MultiScaleKeyer {
    draws: DrawSet,
    outer: PairwiseHash,
}

impl MultiScaleKeyer {
    /// Draws `s` functions from `family` and an outer pairwise hash with
    /// `key_bits`-bit range (the paper's `Θ(log n)`).
    pub fn sample<F: LshFamily, R: Rng + ?Sized>(
        family: &F,
        s: usize,
        key_bits: u32,
        rng: &mut R,
    ) -> Self {
        assert!(s >= 1, "need at least one LSH draw");
        MultiScaleKeyer {
            draws: family.sample_draws(rng, s),
            outer: PairwiseHash::sample(rng, key_bits),
        }
    }

    /// Number of drawn functions `s`.
    pub fn num_functions(&self) -> usize {
        self.draws.len()
    }

    /// Computes the key of `p` at every requested prefix length.
    /// `prefix_lens` must be non-decreasing and each ≤ `s`. Runs in O(s).
    /// The one-point case of [`MultiScaleKeyer::keys_into`].
    pub fn level_keys(&self, p: &Point, prefix_lens: &[usize]) -> Vec<u64> {
        let mut keys = vec![0; prefix_lens.len()];
        self.keys_into(std::slice::from_ref(p), prefix_lens, &mut keys);
        keys
    }

    /// Keys every point at every requested prefix length into `out`,
    /// point-major: `out[i·L + l]` is the key of `points[i]` at
    /// `prefix_lens[l]`, `L = prefix_lens.len()`. Interleaves several
    /// points' hash chains, so a batch costs less per point than
    /// [`MultiScaleKeyer::level_keys`] one point at a time. Panics unless
    /// `out` holds exactly `points.len() · L` words.
    pub fn keys_into(&self, points: &[Point], prefix_lens: &[usize], out: &mut [u64]) {
        self.draws
            .prefix_hashes(PREFIX_SEED, points, prefix_lens, out);
        for key in out {
            *key = self.outer.eval(*key);
        }
    }

    /// Key of `p` at a single prefix length.
    pub fn key_at(&self, p: &Point, prefix_len: usize) -> u64 {
        self.level_keys(p, &[prefix_len])[0]
    }
}

/// A Gap-Guarantee key: `h` batch-hash entries.
pub type GapKey = Vec<u64>;

/// Batched keyer for the Gap Guarantee protocol (§4.1): `h` batches of `m`
/// LSH values, each batch collapsed by its own pairwise hash.
pub struct BatchKeyer {
    /// `h·m` draws, batch-major.
    draws: DrawSet,
    m: usize,
    hashers: Vec<PairwiseHash>,
    /// Bit sampling with `m ≤ TABLE_MAX_M` only: word `b·2^m + v` is
    /// batch `b`'s entry for the draw values whose bit `j` is draw
    /// `bm + j`.
    table: Option<Vec<u64>>,
}

impl BatchKeyer {
    /// Draws `h·m` functions plus `h` pairwise batch hashes with
    /// `entry_bits`-bit outputs.
    pub fn sample<F: LshFamily, R: Rng + ?Sized>(
        family: &F,
        h: usize,
        m: usize,
        entry_bits: u32,
        rng: &mut R,
    ) -> Self {
        assert!(h >= 1 && m >= 1);
        let draws = family.sample_draws(rng, h * m);
        let hashers: Vec<PairwiseHash> = (0..h)
            .map(|_| PairwiseHash::sample(rng, entry_bits))
            .collect();
        // Built from the sampled draws alone, with no RNG call, so every
        // later draw is the same with or without a table.
        let table = (draws.is_bit_sampling() && m <= TABLE_MAX_M).then(|| entry_table(&hashers, m));
        BatchKeyer {
            draws,
            m,
            hashers,
            table,
        }
    }

    /// Number of batches `h` (entries per key).
    pub fn h(&self) -> usize {
        self.hashers.len()
    }

    /// Batch size `m` (LSH values per entry).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Computes the key of a point: the vector of `h` batch hashes, each
    /// the pairwise hash of the tuple hash of its batch's `m` values. The
    /// one-point case of [`BatchKeyer::keys`].
    pub fn key(&self, p: &Point) -> GapKey {
        self.keys(std::slice::from_ref(p)).0
    }

    /// Keys every point into one flat buffer, point-major: words
    /// `i·h .. (i+1)·h` are the key of `points[i]`. Also returns how many
    /// points went through the chain. With a table, a point whose read
    /// coordinates are all bits costs `h` lookups; any other point, and
    /// every point of a keyer without a table, goes through the chain,
    /// which interleaves eight points' batch chains so a side costs less
    /// per point than one point at a time. Both paths give the same words.
    pub fn keys(&self, points: &[Point]) -> (Vec<u64>, usize) {
        let h = self.h();
        let mut out = vec![0; points.len() * h];
        let Some(table) = &self.table else {
            self.chain(points, &mut out);
            return (out, points.len());
        };
        let mut chained = 0;
        for (p, key) in points.iter().zip(out.chunks_exact_mut(h)) {
            if !self.draws.batch_lookup(self.m, table, p, key) {
                self.chain(std::slice::from_ref(p), key);
                chained += 1;
            }
        }
        (out, chained)
    }

    /// The chain path of [`BatchKeyer::keys`]: each batch's tuple hash,
    /// then its pairwise hash.
    fn chain(&self, points: &[Point], out: &mut [u64]) {
        self.draws.batch_hashes(BATCH_SEED, self.m, points, out);
        for key in out.chunks_exact_mut(self.h()) {
            for (entry, hasher) in key.iter_mut().zip(&self.hashers) {
                *entry = hasher.eval(*entry);
            }
        }
    }

    /// Number of entry positions two keys agree on: a branchless count
    /// over every entry. Panics unless the keys have equal length.
    pub fn matches(a: &[u64], b: &[u64]) -> usize {
        assert_eq!(a.len(), b.len(), "keys of unequal length");
        a.iter().zip(b).map(|(x, y)| usize::from(x == y)).sum()
    }
}

/// Every batch's entry for every value of its `m` bit-sampling draws:
/// row `b` holds `hashers[b]` over the tuple hash of `v`'s bits, bit `j`
/// the value of the batch's draw `j` — the chain's word for that batch.
/// The `2^m` tuple hashes, and their premix, are the same for every
/// batch, so they are computed once.
fn entry_table(hashers: &[PairwiseHash], m: usize) -> Vec<u64> {
    let mut tuples = [0; 1 << TABLE_MAX_M];
    let mut bits = [0; TABLE_MAX_M];
    for (v, tuple) in tuples[..1 << m].iter_mut().enumerate() {
        for (j, bit) in bits[..m].iter_mut().enumerate() {
            *bit = (v as u64 >> j) & 1;
        }
        *tuple = premix(hash_words(BATCH_SEED, &bits[..m]));
    }
    let mut table = vec![0; hashers.len() << m];
    for (row, hasher) in table.chunks_exact_mut(1 << m).zip(hashers) {
        for (entry, &x) in row.iter_mut().zip(&tuples) {
            *entry = hasher.eval_premixed(x);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_sampling::BitSamplingFamily;
    use crate::{GridFamily, OneSidedGridFamily, PStableFamily};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hamming_pair(d: usize, dist: usize) -> (Point, Point) {
        let x = Point::from_bits(&vec![false; d]);
        let mut yb = vec![false; d];
        for b in yb.iter_mut().take(dist) {
            *b = true;
        }
        (x, Point::from_bits(&yb))
    }

    #[test]
    fn level_keys_match_one_shot_recomputation() {
        let d = 16;
        let fam = BitSamplingFamily::new(d, 32.0);
        let mut rng = StdRng::seed_from_u64(40);
        let keyer = MultiScaleKeyer::sample(&fam, 10, 32, &mut rng);
        let (x, _) = hamming_pair(d, 0);
        let lens = vec![1, 3, 3, 7, 10];
        let keys = keyer.level_keys(&x, &lens);
        assert_eq!(keys.len(), lens.len());
        for (i, &l) in lens.iter().enumerate() {
            assert_eq!(keys[i], keyer.key_at(&x, l), "prefix {l}");
        }
        // Duplicate prefix lengths give identical keys.
        assert_eq!(keys[1], keys[2]);
    }

    #[test]
    fn equal_points_get_equal_keys_at_all_levels() {
        let d = 8;
        let fam = BitSamplingFamily::new(d, 16.0);
        let mut rng = StdRng::seed_from_u64(41);
        let keyer = MultiScaleKeyer::sample(&fam, 12, 30, &mut rng);
        let (x, _) = hamming_pair(d, 0);
        let y = x.clone();
        for l in 1..=12 {
            assert_eq!(keyer.key_at(&x, l), keyer.key_at(&y, l));
        }
    }

    #[test]
    fn longer_prefixes_separate_close_points_more() {
        let d = 64;
        let fam = BitSamplingFamily::new(d, 64.0);
        let (x, y) = hamming_pair(d, 8);
        let trials = 400;
        let mut short_match = 0;
        let mut long_match = 0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(42 + t);
            let keyer = MultiScaleKeyer::sample(&fam, 32, 32, &mut rng);
            if keyer.key_at(&x, 2) == keyer.key_at(&y, 2) {
                short_match += 1;
            }
            if keyer.key_at(&x, 32) == keyer.key_at(&y, 32) {
                long_match += 1;
            }
        }
        assert!(
            short_match > long_match,
            "short {short_match} vs long {long_match}"
        );
    }

    #[test]
    fn batch_keyer_shape_and_determinism() {
        let d = 16;
        let fam = BitSamplingFamily::new(d, 16.0);
        let mut rng = StdRng::seed_from_u64(43);
        let keyer = BatchKeyer::sample(&fam, 5, 3, 20, &mut rng);
        assert_eq!(keyer.h(), 5);
        assert_eq!(keyer.m(), 3);
        let (x, _) = hamming_pair(d, 0);
        assert_eq!(keyer.key(&x), keyer.key(&x));
        assert_eq!(keyer.key(&x).len(), 5);
    }

    #[test]
    fn close_keys_match_more_than_far_keys() {
        let d = 128;
        let fam = BitSamplingFamily::new(d, 128.0);
        let mut rng = StdRng::seed_from_u64(44);
        let keyer = BatchKeyer::sample(&fam, 40, 8, 24, &mut rng);
        let (x, near) = hamming_pair(d, 2);
        let (_, far) = hamming_pair(d, 100);
        let kx = keyer.key(&x);
        let m_near = BatchKeyer::matches(&kx, &keyer.key(&near));
        let m_far = BatchKeyer::matches(&kx, &keyer.key(&far));
        assert!(m_near > m_far, "near {m_near} vs far {m_far}");
    }

    #[test]
    fn batched_keys_equal_one_point_keys() {
        let d = 16;
        let fam = BitSamplingFamily::new(d, 64.0);
        let mut rng = StdRng::seed_from_u64(47);
        let keyer = MultiScaleKeyer::sample(&fam, 40, 32, &mut rng);
        let lens = [0, 2, 2, 9, 40];
        // More points than one block of lanes, and not a multiple of it.
        let points: Vec<Point> = (0..21)
            .map(|i| Point::from_bits(&(0..d).map(|j| (i >> (j % 5)) & 1 == 1).collect::<Vec<_>>()))
            .collect();
        let mut batched = vec![0; points.len() * lens.len()];
        keyer.keys_into(&points, &lens, &mut batched);
        for (p, keys) in points.iter().zip(batched.chunks_exact(lens.len())) {
            assert_eq!(keys, keyer.level_keys(p, &lens), "{p:?}");
        }
    }

    #[test]
    fn batch_key_entries_hash_their_batch_as_a_tuple() {
        let d = 16;
        let fam = BitSamplingFamily::new(d, 16.0);
        let mut rng = StdRng::seed_from_u64(48);
        let keyer = BatchKeyer::sample(&fam, 6, 3, 20, &mut rng);
        let (x, _) = hamming_pair(d, 5);
        for (b, &entry) in keyer.key(&x).iter().enumerate() {
            let batch: Vec<u64> = (3 * b..3 * b + 3)
                .map(|j| keyer.draws.hash(j, &x))
                .collect();
            assert_eq!(entry, keyer.hashers[b].eval(hash_words(BATCH_SEED, &batch)));
        }
    }

    /// `keys` equals `key` point by point, and both equal the definition:
    /// each entry the pairwise hash of its batch's tuple hash.
    fn side_keys_equal_point_keys<F: LshFamily>(family: &F, space_dim: usize, delta: i64) {
        let (h, m) = (6, 3);
        let keyer = BatchKeyer::sample(family, h, m, 30, &mut StdRng::seed_from_u64(49));
        let mut rng = StdRng::seed_from_u64(50);
        for count in [0, 1, 7, 8, 9, 17] {
            let points: Vec<Point> = (0..count)
                .map(|_| Point::new((0..space_dim).map(|_| rng.gen_range(0..delta)).collect()))
                .collect();
            let (side, _) = keyer.keys(&points);
            assert_eq!(side.len(), count * h);
            for (p, key) in points.iter().zip(side.chunks_exact(h)) {
                assert_eq!(key, keyer.key(p), "{count} points");
                let direct: Vec<u64> = (0..h)
                    .map(|b| {
                        let batch: Vec<u64> = (m * b..m * (b + 1))
                            .map(|j| keyer.draws.hash(j, p))
                            .collect();
                        keyer.hashers[b].eval(hash_words(BATCH_SEED, &batch))
                    })
                    .collect();
                assert_eq!(key, direct, "{count} points");
            }
        }
    }

    #[test]
    fn side_keys_equal_point_keys_under_every_family() {
        side_keys_equal_point_keys(&BitSamplingFamily::new(24, 40.0), 24, 2);
        side_keys_equal_point_keys(&GridFamily::new(3, 17.0), 3, 100);
        side_keys_equal_point_keys(&OneSidedGridFamily::new(2, 1.0, 1.0, 40.0), 2, 100);
        side_keys_equal_point_keys(&PStableFamily::new(3, 17.0), 3, 100);
    }

    /// The table path equals the chain's definition: for bit-sampling
    /// draws with padding, at batch sizes on both sides of
    /// `TABLE_MAX_M`, every word of every point — binary, or reading a 2
    /// or a −1, which the table must refuse — is the pairwise hash of its
    /// batch's tuple hash.
    #[test]
    fn table_keys_equal_chain_keys() {
        let d = 12;
        // w = 2d: about half the draws are padding.
        let family = BitSamplingFamily::new(d, 2.0 * d as f64);
        let mut rng = StdRng::seed_from_u64(51);
        for m in [1, 2, 3, 8, 9] {
            let h = 5;
            let keyer = BatchKeyer::sample(&family, h, m, 30, &mut rng);
            assert_eq!(keyer.table.is_some(), m <= TABLE_MAX_M, "m = {m}");
            let direct = |p: &Point| -> Vec<u64> {
                (0..h)
                    .map(|b| {
                        let batch: Vec<u64> = (m * b..m * (b + 1))
                            .map(|j| keyer.draws.hash(j, p))
                            .collect();
                        keyer.hashers[b].eval(hash_words(BATCH_SEED, &batch))
                    })
                    .collect()
            };
            // The coordinate draw `j` reads, if it is not padding.
            let read_by = |j: usize| {
                (0..d).find(|&c| {
                    let mut unit = vec![0; d];
                    unit[c] = 1;
                    keyer.draws.hash(j, &Point::new(unit)) == 1
                })
            };
            let (mut served_seen, mut refused_seen) = (0, 0);
            for count in [0, 1, 7, 8, 9, 17] {
                let points: Vec<Point> = (0..count)
                    .map(|i| {
                        let mut coords: Vec<i64> = (0..d).map(|_| rng.gen_range(0..2)).collect();
                        // Every third point holds a 2 or a −1 where some
                        // draw reads (or, for a padding draw, anywhere).
                        if i % 3 == 2 {
                            let c = read_by(rng.gen_range(0..h * m)).unwrap_or(rng.gen_range(0..d));
                            coords[c] = if rng.gen() { 2 } else { -1 };
                        }
                        Point::new(coords)
                    })
                    .collect();
                let (side, chained) = keyer.keys(&points);
                assert_eq!(side.len(), count * h);
                let refused_before = refused_seen;
                for (p, key) in points.iter().zip(side.chunks_exact(h)) {
                    assert_eq!(key, direct(p), "m = {m}, {count} points, {p:?}");
                    assert_eq!(key, keyer.key(p), "m = {m}, {count} points, {p:?}");
                    if let Some(table) = &keyer.table {
                        // The table serves exactly the points whose read
                        // coordinates are all bits.
                        let reads_bits = (0..h * m).all(|j| keyer.draws.hash(j, p) <= 1);
                        let mut looked_up = vec![0; h];
                        let served = keyer.draws.batch_lookup(m, table, p, &mut looked_up);
                        assert_eq!(served, reads_bits, "m = {m}, {p:?}");
                        if served {
                            assert_eq!(looked_up, key, "m = {m}, {p:?}");
                            served_seen += 1;
                        } else {
                            refused_seen += 1;
                        }
                    }
                }
                let want = if keyer.table.is_some() {
                    refused_seen - refused_before
                } else {
                    count
                };
                assert_eq!(chained, want, "m = {m}, {count} points");
            }
            if keyer.table.is_some() {
                assert!(
                    served_seen > 0 && refused_seen > 0,
                    "m = {m}: {served_seen} served, {refused_seen} refused"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "keys of unequal length")]
    fn keys_of_unequal_length_do_not_match() {
        BatchKeyer::matches(&[1, 2, 3], &[1, 2]);
    }

    #[test]
    fn prefix_zero_is_point_independent() {
        let d = 8;
        let fam = BitSamplingFamily::new(d, 16.0);
        let mut rng = StdRng::seed_from_u64(45);
        let keyer = MultiScaleKeyer::sample(&fam, 4, 16, &mut rng);
        let (x, y) = hamming_pair(d, 5);
        assert_eq!(keyer.key_at(&x, 0), keyer.key_at(&y, 0));
    }

    #[test]
    fn incremental_prefix_hash_is_consistent_with_batch() {
        // The keyer must agree with hashing the explicit prefix directly.
        let d = 8;
        let fam = BitSamplingFamily::new(d, 16.0);
        let mut rng = StdRng::seed_from_u64(46);
        let keyer = MultiScaleKeyer::sample(&fam, 6, 32, &mut rng);
        let (x, _) = hamming_pair(d, 3);
        let gvals: Vec<u64> = (0..6).map(|j| keyer.draws.hash(j, &x)).collect();
        for l in 0..=6usize {
            let direct = keyer.outer.eval(hash_words(PREFIX_SEED, &gvals[..l]));
            assert_eq!(direct, keyer.key_at(&x, l), "prefix {l}");
        }
    }
}
