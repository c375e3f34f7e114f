//! The Robust Invertible Bloom Lookup Table (RIBLT) of §2.2.
//!
//! Differences from a standard IBLT, following the paper's five points:
//!
//! 1. **Breadth-first peeling**: cells that become pure earlier are peeled
//!    earlier (FIFO). This is what makes the error-propagation analysis of
//!    Lemma 3.10 apply.
//! 2. **Sparser tables**: callers size the table so the hyperedge density
//!    `c` satisfies `c < 1/(q(q−1))`, making the hypergraph all trees and
//!    unicyclic components w.h.p. (Lemma B.3). [`RibltConfig::for_pairs`]
//!    applies Algorithm 1's choice `m = 4q²k`.
//! 3. **Key/checksum sums** instead of XORs (`i128` accumulators).
//! 4. **Value sums**: the cell's value accumulator lives in
//!    `{−nΔ, …, nΔ}^d` (`Vec<i64>` per cell).
//! 5. **Duplicate-key extraction**: a cell whose contents are `C` copies of
//!    one key (detected by divisibility of the key and checksum sums) is
//!    peeled even for `|C| > 1`; each extracted value is the coordinate-wise
//!    average `V/C`, clamped into the grid and randomly rounded.
//!
//! When a near-pair with equal keys but different values cancels, the value
//! difference stays behind as an *error* that is added to whatever is
//! peeled from those cells later — the paper's Figure 1.

use crate::layout::CellLayout;
use rand::Rng;
use rsr_metric::Point;

/// Configuration of a Robust IBLT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RibltConfig {
    /// Minimum number of cells `m` (rounded up to a multiple of `q`).
    pub min_cells: usize,
    /// Number of hash functions `q ≥ 3` (Algorithm 1 requires `q ≥ 3`).
    pub q: usize,
    /// Dimension `d` of the stored values.
    pub dim: usize,
    /// Grid side `Δ`: extracted values are clamped into `[0, Δ−1]`.
    pub delta: i64,
    /// Table seed (shared between the parties via public coins).
    pub seed: u64,
}

impl RibltConfig {
    /// Algorithm 1's sizing: `m = 4q²k` cells for a target of at most `4k`
    /// surviving pairs, giving density `c = 4k/m = 1/q² < 1/(q(q−1))`.
    pub fn for_pairs(k: usize, q: usize, dim: usize, delta: i64, seed: u64) -> Self {
        assert!(q >= 3, "Algorithm 1 requires q ≥ 3");
        RibltConfig {
            min_cells: 4 * q * q * k.max(1),
            q,
            dim,
            delta,
            seed,
        }
    }
}

/// One sum cell.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SumCell {
    count: i64,
    key_sum: i128,
    check_sum: i128,
    value_sum: Vec<i64>,
}

impl SumCell {
    fn empty(dim: usize) -> Self {
        SumCell {
            count: 0,
            key_sum: 0,
            check_sum: 0,
            value_sum: vec![0; dim],
        }
    }

    fn is_clean(&self) -> bool {
        self.count == 0 && self.key_sum == 0 && self.check_sum == 0
    }
}

/// A decoded key–value pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedPair {
    /// The recovered key.
    pub key: u64,
    /// The recovered value (grid point, clamped and rounded).
    pub value: Point,
}

/// Result of decoding an RIBLT.
#[derive(Clone, Debug, Default)]
pub struct RibltDecode {
    /// Pairs recovered with positive sign (inserting party's survivors).
    pub inserted: Vec<DecodedPair>,
    /// Pairs recovered with negative sign (deleting party's survivors).
    pub deleted: Vec<DecodedPair>,
    /// True if every key was recovered (all counts and key sums zero).
    pub complete: bool,
}

/// The Robust IBLT.
#[derive(Clone, Debug)]
pub struct Riblt {
    config: RibltConfig,
    layout: CellLayout,
    cells: Vec<SumCell>,
}

impl Riblt {
    /// Creates an empty table.
    pub fn new(config: RibltConfig) -> Self {
        let layout = CellLayout::new(config.min_cells, config.q, config.seed);
        Riblt {
            config,
            layout,
            cells: (0..layout.num_cells())
                .map(|_| SumCell::empty(config.dim))
                .collect(),
        }
    }

    /// Number of cells `m`.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The configuration.
    pub fn config(&self) -> &RibltConfig {
        &self.config
    }

    /// Inserts a key–value pair (Alice's side in Algorithm 1).
    pub fn insert(&mut self, key: u64, value: &Point) {
        self.update(key, value, 1);
    }

    /// Deletes a key–value pair (Bob's side in Algorithm 1).
    pub fn delete(&mut self, key: u64, value: &Point) {
        self.update(key, value, -1);
    }

    fn update(&mut self, key: u64, value: &Point, sign: i64) {
        assert_eq!(value.dim(), self.config.dim, "value dimension mismatch");
        // Single-pass hashing: one base hash yields the checksum and all
        // q cell indices.
        let base = self.layout.key_hash(key);
        let check = CellLayout::check_of_hash(base) as i128;
        for i in 0..self.layout.q() {
            let cell = &mut self.cells[self.layout.cell_of_hash(base, i)];
            cell.count += sign;
            cell.key_sum += sign as i128 * key as i128;
            cell.check_sum += sign as i128 * check;
            for (acc, &v) in cell.value_sum.iter_mut().zip(value.coords()) {
                *acc += sign * v;
            }
        }
    }

    /// If the cell's contents are consistent with `C` copies of a single
    /// key *that hashes to this cell*, returns that key.
    fn pure_key(&self, idx: usize) -> Option<u64> {
        let cell = &self.cells[idx];
        if cell.count == 0 {
            return None;
        }
        let ci = cell.count as i128;
        if cell.key_sum % ci != 0 || cell.check_sum % ci != 0 {
            return None;
        }
        let key = cell.key_sum / ci;
        if !(0..=u64::MAX as i128).contains(&key) {
            return None;
        }
        let key = key as u64;
        if cell.check_sum / ci != self.layout.check_of(key) as i128 {
            return None;
        }
        // Guard against accidental arithmetic coincidences: the key must
        // actually map to this cell.
        if !self.layout.cells_of(key).contains(&idx) {
            return None;
        }
        Some(key)
    }

    /// Decodes the table with the breadth-first peeling process of §2.2.
    ///
    /// `rng` drives the randomized rounding of averaged values (§2.2 item
    /// 5); the rounding is the only randomness, so decoding is otherwise
    /// deterministic given the table contents.
    pub fn decode<R: Rng + ?Sized>(mut self, rng: &mut R) -> RibltDecode {
        let mut result = RibltDecode::default();
        let mut queue: std::collections::VecDeque<usize> = (0..self.cells.len())
            .filter(|&i| self.pure_key(i).is_some())
            .collect();
        // Honest peeling empties the source cell of every peel, and a
        // clean cell holds no key a later peel removes, so it makes at
        // most one peel per cell. A received table need not be a sum of
        // keys (one holding a key in a single cell re-plants it in the
        // key's other cells, which peel it back, forever), so the bound
        // is enforced, not assumed — it is what caps the pairs a hostile
        // table can make decode fabricate.
        let mut budget = self.cells.len();
        while let Some(idx) = queue.pop_front() {
            let Some(key) = self.pure_key(idx) else {
                continue; // stale
            };
            if budget == 0 {
                break;
            }
            budget -= 1;
            // Snapshot the cell before mutation.
            let snapshot = self.cells[idx].clone();
            let copies = snapshot.count.unsigned_abs() as usize;
            // Extract `copies` values, each the (clamped, randomly
            // rounded) coordinate-wise average V/C.
            for _ in 0..copies {
                let value = self.round_average(&snapshot, rng);
                let pair = DecodedPair { key, value };
                if snapshot.count > 0 {
                    result.inserted.push(pair);
                } else {
                    result.deleted.push(pair);
                }
            }
            // Subtract the snapshot from every cell the key hashes to
            // (including idx itself, which becomes clean). This moves any
            // accumulated value error into the sibling cells — the paper's
            // error-propagation mechanism.
            for i in 0..self.layout.q() {
                let cell_idx = self.layout.cell_in_partition(key, i);
                let cell = &mut self.cells[cell_idx];
                cell.count -= snapshot.count;
                cell.key_sum -= snapshot.key_sum;
                cell.check_sum -= snapshot.check_sum;
                for (acc, &v) in cell.value_sum.iter_mut().zip(&snapshot.value_sum) {
                    *acc -= v;
                }
                if cell_idx != idx && self.pure_key(cell_idx).is_some() {
                    queue.push_back(cell_idx);
                }
            }
        }
        result.complete = self.cells.iter().all(SumCell::is_clean);
        result
    }

    /// Computes one extracted value: `V/C` per coordinate, shifted into the
    /// grid and randomly rounded (probability of rounding up equal to the
    /// fractional remainder), per §2.2 item 5.
    fn round_average<R: Rng + ?Sized>(&self, cell: &SumCell, rng: &mut R) -> Point {
        let c = cell.count as f64;
        let coords = cell
            .value_sum
            .iter()
            .map(|&v| {
                let avg = v as f64 / c;
                let clamped = avg.clamp(0.0, (self.config.delta - 1) as f64);
                let floor = clamped.floor();
                let frac = clamped - floor;
                let up = frac > 0.0 && rng.gen::<f64>() < frac;
                floor as i64 + i64::from(up)
            })
            .collect();
        Point::new(coords)
    }

    /// Wire size in bits with counts/sums sized for at most `n_bound`
    /// pairs — the paper's `O(d·log(Δn))` bits per cell (§3). Exactly
    /// matches [`Riblt::to_bytes`] (which pads only to the final byte).
    pub fn wire_bits(&self, n_bound: usize) -> u64 {
        let widths = crate::wire::CellWidths::sum(n_bound, self.config.delta);
        self.cells.len() as u64 * widths.per_cell(self.config.dim)
    }

    /// Writes the cell contents into an in-progress [`crate::bits::BitWriter`],
    /// so the table can ride inside a larger protocol message (the EMD
    /// message packs one table per level). Adds exactly
    /// [`Riblt::wire_bits`] bits.
    pub fn write_to(&self, w: &mut crate::bits::BitWriter, n_bound: usize) {
        let widths = crate::wire::CellWidths::sum(n_bound, self.config.delta);
        let before = w.bit_len();
        for cell in &self.cells {
            crate::wire::put_i64(w, cell.count, widths.count);
            crate::wire::put_i128(w, cell.key_sum, widths.key);
            crate::wire::put_i128(w, cell.check_sum, widths.check);
            for &v in &cell.value_sum {
                crate::wire::put_i64(w, v, widths.value);
            }
        }
        debug_assert_eq!(w.bit_len() - before, self.wire_bits(n_bound));
    }

    /// Reads a table previously written with [`Riblt::write_to`] from an
    /// in-progress [`crate::bits::BitReader`], given the shared
    /// configuration. Returns `None` on buffer exhaustion or a count
    /// exceeding `n_bound`.
    pub fn read_from(
        r: &mut crate::bits::BitReader<'_>,
        config: RibltConfig,
        n_bound: usize,
    ) -> Option<Riblt> {
        let mut table = Riblt::new(config);
        let widths = crate::wire::CellWidths::sum(n_bound, config.delta);
        for cell in &mut table.cells {
            let count = crate::wire::get_i64(r, widths.count)?;
            if count.unsigned_abs() > n_bound as u64 {
                return None;
            }
            cell.count = count;
            cell.key_sum = crate::wire::get_i128(r, widths.key)?;
            cell.check_sum = crate::wire::get_i128(r, widths.check)?;
            for v in cell.value_sum.iter_mut() {
                *v = crate::wire::get_i64(r, widths.value)?;
            }
        }
        Some(table)
    }

    /// Serializes the cell contents (construction parameters travel as
    /// public coins; rebuild with [`Riblt::from_bytes`]).
    pub fn to_bytes(&self, n_bound: usize) -> Vec<u8> {
        let mut w = crate::bits::BitWriter::with_capacity(self.wire_bits(n_bound));
        self.write_to(&mut w, n_bound);
        w.finish()
    }

    /// Reconstructs a table from [`Riblt::to_bytes`] output plus the
    /// shared configuration. Returns `None` on truncated input or a
    /// count exceeding `n_bound`.
    pub fn from_bytes(bytes: &[u8], config: RibltConfig, n_bound: usize) -> Option<Riblt> {
        let mut r = crate::bits::BitReader::new(bytes);
        Riblt::read_from(&mut r, config, n_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(cells: usize, dim: usize, delta: i64, seed: u64) -> RibltConfig {
        RibltConfig {
            min_cells: cells,
            q: 3,
            dim,
            delta,
            seed,
        }
    }

    fn p(v: &[i64]) -> Point {
        Point::new(v.to_vec())
    }

    #[test]
    fn exact_roundtrip_without_noise() {
        let mut t = Riblt::new(cfg(90, 2, 100, 1));
        let items = [(10u64, p(&[1, 2])), (20, p(&[3, 4])), (30, p(&[5, 6]))];
        for (k, v) in &items {
            t.insert(*k, v);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let d = t.decode(&mut rng);
        assert!(d.complete);
        let mut got: Vec<_> = d
            .inserted
            .iter()
            .map(|x| (x.key, x.value.clone()))
            .collect();
        got.sort();
        let mut want = items.to_vec();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn insert_delete_same_pair_cancels_exactly() {
        let mut t = Riblt::new(cfg(90, 2, 100, 2));
        t.insert(5, &p(&[7, 7]));
        t.delete(5, &p(&[7, 7]));
        let mut rng = StdRng::seed_from_u64(0);
        let d = t.decode(&mut rng);
        assert!(d.complete);
        assert!(d.inserted.is_empty() && d.deleted.is_empty());
    }

    #[test]
    fn cancelled_near_pair_leaves_value_residual() {
        // Same key, different values: keys cancel, value error remains.
        let mut t = Riblt::new(cfg(90, 2, 100, 3));
        t.insert(5, &p(&[7, 7]));
        t.delete(5, &p(&[8, 7]));
        let d = t.clone().decode(&mut StdRng::seed_from_u64(0));
        assert!(d.complete); // keys all cancelled
        assert!(d.inserted.is_empty() && d.deleted.is_empty());
        // The error sits in every one of key 5's cells, so a later copy of
        // the key decodes with it absorbed.
        t.insert(5, &p(&[20, 20]));
        let d = t.decode(&mut StdRng::seed_from_u64(0));
        assert!(d.complete);
        let got: Vec<_> = d
            .inserted
            .iter()
            .map(|x| (x.key, x.value.clone()))
            .collect();
        assert_eq!(got, [(5, p(&[19, 20]))]);
    }

    #[test]
    fn error_propagates_into_cohabiting_key() {
        // Deterministically build the Figure 1 situation: find a second key
        // sharing a cell with the cancelled pair; its extracted value
        // absorbs the error.
        let config = cfg(60, 1, 1000, 4);
        let layout = CellLayout::new(config.min_cells, config.q, config.seed);
        let base_cells = layout.cells_of(5);
        let other = (6..10_000u64)
            .find(|&k| layout.cells_of(k).iter().any(|c| base_cells.contains(c)))
            .expect("some key shares a cell");
        let mut t = Riblt::new(config);
        t.insert(5, &p(&[100]));
        t.delete(5, &p(&[104])); // error −4 in key 5's cells
        t.insert(other, &p(&[500]));
        let mut rng = StdRng::seed_from_u64(0);
        let d = t.decode(&mut rng);
        assert!(d.complete);
        assert_eq!(d.inserted.len(), 1);
        let got = d.inserted[0].value.coord(0);
        // Which of `other`'s q cells peels first decides whether the error
        // is absorbed (496) or left behind as a residual (500).
        assert!(got == 496 || got == 500, "got {got}");
    }

    #[test]
    fn duplicate_keys_average_and_round() {
        // Two copies of key 9 with values 10 and 13 → average 11.5,
        // rounded to 11 or 12.
        let mut t = Riblt::new(cfg(90, 1, 100, 5));
        t.insert(9, &p(&[10]));
        t.insert(9, &p(&[13]));
        let mut rng = StdRng::seed_from_u64(1);
        let d = t.decode(&mut rng);
        assert!(d.complete);
        assert_eq!(d.inserted.len(), 2);
        for pair in &d.inserted {
            assert_eq!(pair.key, 9);
            assert!(
                pair.value.coord(0) == 11 || pair.value.coord(0) == 12,
                "got {}",
                pair.value.coord(0)
            );
        }
    }

    #[test]
    fn randomized_rounding_is_unbiased() {
        // Average 11.5 should round up about half the time.
        let mut ups = 0;
        let trials = 2000;
        for s in 0..trials {
            let mut t = Riblt::new(cfg(90, 1, 100, 6));
            t.insert(9, &p(&[10]));
            t.insert(9, &p(&[13]));
            let mut rng = StdRng::seed_from_u64(s);
            let d = t.decode(&mut rng);
            ups += d
                .inserted
                .iter()
                .filter(|pair| pair.value.coord(0) == 12)
                .count();
        }
        let frac = ups as f64 / (2 * trials) as f64;
        assert!((frac - 0.5).abs() < 0.05, "rounding biased: {frac}");
    }

    #[test]
    fn extracted_values_stay_in_grid() {
        // Negative averages clamp to 0; large ones clamp to Δ−1.
        let mut t = Riblt::new(cfg(90, 1, 50, 7));
        t.insert(3, &p(&[0]));
        t.delete(3, &p(&[49])); // residual −49
        t.insert(4, &p(&[0]));
        // If key 4 shares a cell with key 3 its value picks up −49 → clamped.
        let mut rng = StdRng::seed_from_u64(2);
        let d = t.decode(&mut rng);
        for pair in d.inserted.iter().chain(&d.deleted) {
            assert!((0..50).contains(&pair.value.coord(0)));
        }
    }

    #[test]
    fn mixed_sides_reconcile() {
        let mut t = Riblt::new(cfg(120, 2, 100, 8));
        // Shared pairs cancel; two Alice-only and one Bob-only survive.
        for k in 0..20u64 {
            let v = p(&[k as i64, 1]);
            t.insert(k, &v);
            t.delete(k, &v);
        }
        t.insert(100, &p(&[9, 9]));
        t.insert(101, &p(&[8, 8]));
        t.delete(200, &p(&[7, 7]));
        let mut rng = StdRng::seed_from_u64(3);
        let d = t.decode(&mut rng);
        assert!(d.complete);
        assert_eq!(d.inserted.len(), 2);
        assert_eq!(d.deleted.len(), 1);
        assert_eq!(d.deleted[0].key, 200);
        assert_eq!(d.deleted[0].value, p(&[7, 7]));
    }

    #[test]
    fn overloaded_table_incomplete() {
        let mut t = Riblt::new(cfg(30, 1, 100, 9));
        for k in 0..500u64 {
            t.insert(k, &p(&[1]));
        }
        let mut rng = StdRng::seed_from_u64(4);
        let d = t.decode(&mut rng);
        assert!(!d.complete);
    }

    #[test]
    fn a_key_held_in_one_cell_only_fabricates_at_most_one_pair_per_cell() {
        // A well-formed table no honest party builds, at Algorithm 1's
        // shape (k = 4, q = 3, Hamming d = 64) and the largest declared n:
        // key `x` in one of its q cells, every other cell zero. Peeling it
        // plants −x in x's other cells, which peel it straight back, and
        // every lap extracts a d-coordinate pair; only the peel budget
        // stops it.
        let n_bound = u32::MAX as usize;
        let config = RibltConfig::for_pairs(4, 3, 64, 2, 9);
        let layout = CellLayout::new(config.min_cells, config.q, config.seed);
        let x = 0xfeed_u64;
        let lone = layout.cells_of(x)[0];
        let widths = crate::wire::CellWidths::sum(n_bound, config.delta);
        let mut w = crate::bits::BitWriter::new();
        for idx in 0..layout.num_cells() {
            let (count, key, check) = if idx == lone {
                (1, x as i128, layout.check_of(x) as i128)
            } else {
                (0, 0, 0)
            };
            crate::wire::put_i64(&mut w, count, widths.count);
            crate::wire::put_i128(&mut w, key, widths.key);
            crate::wire::put_i128(&mut w, check, widths.check);
            for _ in 0..config.dim {
                crate::wire::put_i64(&mut w, count, widths.value);
            }
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 43_218);
        let table = Riblt::from_bytes(&bytes, config, n_bound).expect("well-formed");
        let cells = table.num_cells();
        let d = table.decode(&mut StdRng::seed_from_u64(0));
        assert!(!d.complete);
        assert!(
            d.inserted.len() + d.deleted.len() <= cells,
            "{} + {} pairs from {cells} cells",
            d.inserted.len(),
            d.deleted.len()
        );
    }

    #[test]
    fn algorithm1_sizing_density_below_threshold() {
        let c = RibltConfig::for_pairs(10, 3, 4, 100, 0);
        // 4k pairs in m = 4q²k cells → density 1/q² < 1/(q(q−1)).
        let density = (4.0 * 10.0) / c.min_cells as f64;
        assert!(density < 1.0 / (3.0 * 2.0));
    }

    #[test]
    fn wire_bits_grows_with_dim_and_delta() {
        let a = Riblt::new(cfg(60, 2, 100, 10));
        let b = Riblt::new(cfg(60, 8, 100, 10));
        let c = Riblt::new(cfg(60, 2, 1_000_000, 10));
        assert!(b.wire_bits(100) > a.wire_bits(100));
        assert!(c.wire_bits(100) > a.wire_bits(100));
    }

    #[test]
    fn large_random_reconciliation() {
        let mut rng = StdRng::seed_from_u64(11);
        let k = 15;
        let config = RibltConfig::for_pairs(k, 3, 3, 1000, 12);
        let mut t = Riblt::new(config);
        // 500 shared exact pairs cancel.
        for i in 0..500u64 {
            let v = p(&[(i % 1000) as i64, 3, 4]);
            t.insert(i, &v);
            t.delete(i, &v);
        }
        // k distinct survivors per side.
        let mut want_a = vec![];
        let mut want_b = vec![];
        for i in 0..k as u64 {
            let va = p(&[rng.gen_range(0..1000), 1, 2]);
            let vb = p(&[rng.gen_range(0..1000), 5, 6]);
            t.insert(10_000 + i, &va);
            t.delete(20_000 + i, &vb);
            want_a.push((10_000 + i, va));
            want_b.push((20_000 + i, vb));
        }
        let d = t.decode(&mut rng);
        assert!(d.complete);
        let mut got_a: Vec<_> = d
            .inserted
            .iter()
            .map(|x| (x.key, x.value.clone()))
            .collect();
        got_a.sort();
        assert_eq!(got_a, want_a);
        let mut got_b: Vec<_> = d.deleted.iter().map(|x| (x.key, x.value.clone())).collect();
        got_b.sort();
        assert_eq!(got_b, want_b);
    }
}
