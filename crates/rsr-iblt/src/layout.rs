//! Partitioned key→cells mapping shared by the IBLT and RIBLT.
//!
//! Each key hashes to `q` *distinct* cells. Following §2.2 ("we assume
//! these cells are distinct; for example, one can use a partitioned hash
//! table, with each hash function mapping to m/q cells"), the `m` cells are
//! split into `q` equal partitions and hash function `i` selects one cell
//! inside partition `i`.
//!
//! **Single-pass hashing.** One `mix64` invocation per key
//! ([`CellLayout::key_hash`]) feeds *both* the cell checksum
//! ([`CellLayout::check_of_hash`] takes the low [`CHECKSUM_BITS`] bits)
//! and all `q` cell indices ([`CellLayout::cell_of_hash`] derives each
//! partition slot from the same base hash). Insert/subtract/peel touch
//! every key through this path, so an update costs `q + 1` mixes instead
//! of the `2q + 2` the split checksum-plus-per-partition scheme cost.
//! Because the checksum and the cell indices share one base hash, they
//! cannot desynchronize: any consumer re-deriving purity or edge
//! structure (the decoder, [`crate::hypergraph::Hypergraph::from_layout`])
//! goes through this module.
//!
//! **Struct-of-arrays cells.** [`CellStore`] keeps counts / key XORs /
//! checksum XORs as three separate slices so the cell-wise subtract and
//! the purity scan are straight-line loops over primitive arrays the
//! compiler can vectorize, instead of strided walks over an
//! array-of-structs.

use rsr_hash::mix::mix64;

/// Width in bits of a cell checksum: 62, so RIBLT sums of up to `2^64`
/// checksums still fit an `i128`.
pub const CHECKSUM_BITS: u32 = 62;

/// The cell layout of a table: `q` partitions of `m/q` cells each, with a
/// per-table seed so independently created tables use independent hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellLayout {
    q: usize,
    cells_per_partition: usize,
    seed: u64,
    /// `mix64(seed ⊕ tag)`, precomputed so [`CellLayout::key_hash`] is a
    /// single mix. Derived from `seed`, so derived equality stays exact.
    seed_mix: u64,
}

impl CellLayout {
    /// Creates a layout with *at least* `min_cells` cells in `q ≥ 2`
    /// partitions (the cell count is rounded up to a multiple of `q`).
    pub fn new(min_cells: usize, q: usize, seed: u64) -> Self {
        assert!(q >= 2, "need q ≥ 2 hash functions, got {q}");
        assert!(min_cells >= q, "need at least q cells");
        let cells_per_partition = min_cells.div_ceil(q);
        CellLayout {
            q,
            cells_per_partition,
            seed,
            seed_mix: mix64(seed ^ 0xA24B_AED4_963E_E407),
        }
    }

    /// Number of hash functions `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Total number of cells `m` (a multiple of `q`).
    pub fn num_cells(&self) -> usize {
        self.q * self.cells_per_partition
    }

    /// Table seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The single per-key hash: one `mix64` whose output feeds both the
    /// checksum and every cell index.
    #[inline]
    pub fn key_hash(&self, key: u64) -> u64 {
        mix64(key ^ self.seed_mix)
    }

    /// The cell checksum carried by a base hash: its low
    /// [`CHECKSUM_BITS`] bits (62, so RIBLT sums of up to `2^64`
    /// checksums still fit an `i128`).
    #[inline]
    pub fn check_of_hash(base: u64) -> u64 {
        base & ((1u64 << CHECKSUM_BITS) - 1)
    }

    /// Checksum of a key (`check_of_hash ∘ key_hash`).
    #[inline]
    pub fn check_of(&self, key: u64) -> u64 {
        Self::check_of_hash(self.key_hash(key))
    }

    /// The cell a base hash selects inside partition `i`.
    #[inline]
    pub fn cell_of_hash(&self, base: u64, i: usize) -> usize {
        debug_assert!(i < self.q);
        let h = mix64(base ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        i * self.cells_per_partition + (h % self.cells_per_partition as u64) as usize
    }

    /// The cell of `key` inside partition `i`.
    #[inline]
    pub fn cell_in_partition(&self, key: u64, i: usize) -> usize {
        self.cell_of_hash(self.key_hash(key), i)
    }

    /// True if a key with base hash `base` maps to cell `idx < m`: the
    /// cell it selects in `idx`'s partition is `idx` itself. One mix
    /// and no allocation, where [`CellLayout::cells_of`] makes `q` and a
    /// `Vec`.
    #[inline]
    pub(crate) fn hash_selects(&self, base: u64, idx: usize) -> bool {
        self.cell_of_hash(base, idx / self.cells_per_partition) == idx
    }

    /// The `q` distinct cell indices of `key`, in partition order.
    pub fn cells_of(&self, key: u64) -> Vec<usize> {
        let base = self.key_hash(key);
        (0..self.q).map(|i| self.cell_of_hash(base, i)).collect()
    }

    /// The shared purity predicate: an XOR cell decodes one key exactly
    /// when its count is `±1` and the checksum of its key XOR matches its
    /// checksum XOR under this layout's hash. Returns the sign
    /// (`count`). The IBLT peeler and the hypergraph degree-1 analysis
    /// both resolve purity through this one helper, so a change to the
    /// hash path cannot leave them disagreeing.
    #[inline]
    pub fn pure_cell_sign(&self, count: i64, key_xor: u64, check_xor: u64) -> Option<i64> {
        if (count == 1 || count == -1) && self.check_of(key_xor) == check_xor {
            Some(count)
        } else {
            None
        }
    }
}

/// Struct-of-arrays XOR-cell storage: `counts`, `key_xors`, `check_xors`
/// as three parallel slices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellStore {
    counts: Vec<i64>,
    key_xors: Vec<u64>,
    check_xors: Vec<u64>,
}

impl CellStore {
    /// `n` empty cells.
    pub fn new(n: usize) -> Self {
        CellStore {
            counts: vec![0; n],
            key_xors: vec![0; n],
            check_xors: vec![0; n],
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if the store has no cells.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The count slice.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// The key-XOR slice.
    pub fn key_xors(&self) -> &[u64] {
        &self.key_xors
    }

    /// The checksum-XOR slice.
    pub fn check_xors(&self) -> &[u64] {
        &self.check_xors
    }

    /// The count of cell `idx`.
    #[inline]
    pub fn count(&self, idx: usize) -> i64 {
        self.counts[idx]
    }

    /// The key XOR of cell `idx`.
    #[inline]
    pub fn key_xor(&self, idx: usize) -> u64 {
        self.key_xors[idx]
    }

    /// The checksum XOR of cell `idx`.
    #[inline]
    pub fn check_xor(&self, idx: usize) -> u64 {
        self.check_xors[idx]
    }

    /// Applies one signed key update to cell `idx`.
    #[inline]
    pub fn apply(&mut self, idx: usize, sign: i64, key: u64, check: u64) {
        self.counts[idx] += sign;
        self.key_xors[idx] ^= key;
        self.check_xors[idx] ^= check;
    }

    /// Overwrites cell `idx` (deserialization).
    pub fn set(&mut self, idx: usize, count: i64, key_xor: u64, check_xor: u64) {
        self.counts[idx] = count;
        self.key_xors[idx] = key_xor;
        self.check_xors[idx] = check_xor;
    }

    /// Cell-wise subtraction (`self − other`), one tight loop per field
    /// so each vectorizes independently.
    pub fn subtract(&mut self, other: &CellStore) {
        assert_eq!(self.len(), other.len(), "cell count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a -= b;
        }
        for (a, b) in self.key_xors.iter_mut().zip(&other.key_xors) {
            *a ^= b;
        }
        for (a, b) in self.check_xors.iter_mut().zip(&other.check_xors) {
            *a ^= b;
        }
    }

    /// True if cell `idx` carries nothing.
    #[inline]
    pub fn cell_is_empty(&self, idx: usize) -> bool {
        self.counts[idx] == 0 && self.key_xors[idx] == 0 && self.check_xors[idx] == 0
    }

    /// True if every cell is empty — three branch-free OR-reductions.
    pub fn all_empty(&self) -> bool {
        self.counts.iter().fold(0i64, |a, &c| a | c) == 0
            && self.key_xors.iter().fold(0u64, |a, &k| a | k) == 0
            && self.check_xors.iter().fold(0u64, |a, &c| a | c) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_distinct_and_in_partition() {
        let layout = CellLayout::new(30, 3, 99);
        for key in 0..500u64 {
            let cells = layout.cells_of(key);
            assert_eq!(cells.len(), 3);
            let per = layout.num_cells() / 3;
            for (i, &c) in cells.iter().enumerate() {
                assert!(c >= i * per && c < (i + 1) * per, "cell {c} partition {i}");
            }
            // Distinctness follows from partitioning.
            let set: std::collections::HashSet<_> = cells.iter().collect();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn rounds_cells_up_to_multiple_of_q() {
        let layout = CellLayout::new(10, 3, 0);
        assert_eq!(layout.num_cells(), 12);
        assert_eq!(layout.q(), 3);
    }

    #[test]
    fn seed_changes_mapping() {
        let a = CellLayout::new(30, 3, 1);
        let b = CellLayout::new(30, 3, 2);
        assert!((0..100u64).any(|k| a.cells_of(k) != b.cells_of(k)));
    }

    #[test]
    fn deterministic() {
        let layout = CellLayout::new(64, 4, 7);
        assert_eq!(layout.cells_of(42), layout.cells_of(42));
    }

    #[test]
    fn single_pass_paths_agree() {
        // The convenience accessors and the base-hash forms are the same
        // function — the invariant that lets update loops hash once.
        let layout = CellLayout::new(60, 4, 23);
        for key in 0..200u64 {
            let base = layout.key_hash(key);
            assert_eq!(layout.check_of(key), CellLayout::check_of_hash(base));
            for i in 0..4 {
                assert_eq!(
                    layout.cell_in_partition(key, i),
                    layout.cell_of_hash(base, i)
                );
            }
        }
    }

    #[test]
    fn hash_selects_exactly_the_cells_of_a_key() {
        let layout = CellLayout::new(60, 3, 31);
        for key in 0..200u64 {
            let base = layout.key_hash(key);
            let cells = layout.cells_of(key);
            for idx in 0..layout.num_cells() {
                assert_eq!(layout.hash_selects(base, idx), cells.contains(&idx));
            }
        }
    }

    #[test]
    fn checksum_fits_width() {
        let layout = CellLayout::new(30, 3, 9);
        for key in 0..1000u64 {
            assert!(layout.check_of(key) < (1u64 << CHECKSUM_BITS));
        }
    }

    #[test]
    fn pure_cell_sign_requires_matching_checksum() {
        let layout = CellLayout::new(30, 3, 13);
        let key = 12345u64;
        let check = layout.check_of(key);
        assert_eq!(layout.pure_cell_sign(1, key, check), Some(1));
        assert_eq!(layout.pure_cell_sign(-1, key, check), Some(-1));
        assert_eq!(layout.pure_cell_sign(2, key, check), None);
        assert_eq!(layout.pure_cell_sign(1, key, check ^ 1), None);
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let layout = CellLayout::new(100, 4, 3);
        let per = layout.num_cells() / 4;
        let mut counts = vec![0u32; per];
        for key in 0..(per as u64 * 100) {
            counts[layout.cell_in_partition(key, 0) % per] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 2 * min, "very uneven spread: {min}..{max}");
    }

    #[test]
    fn cell_store_apply_and_subtract_cancel() {
        let mut a = CellStore::new(8);
        let mut b = CellStore::new(8);
        a.apply(3, 1, 0xABCD, 0x1234);
        b.apply(3, 1, 0xABCD, 0x1234);
        b.apply(5, -1, 7, 9);
        a.subtract(&b);
        assert!(a.cell_is_empty(3));
        assert!(!a.cell_is_empty(5));
        assert_eq!(a.count(5), 1);
        assert_eq!(a.key_xor(5), 7);
        assert!(!a.all_empty());
        a.apply(5, -1, 7, 9);
        assert!(a.all_empty());
    }

    #[test]
    #[should_panic]
    fn q_one_rejected() {
        CellLayout::new(10, 1, 0);
    }
}
