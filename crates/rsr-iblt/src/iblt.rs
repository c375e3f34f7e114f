//! The standard XOR-based IBLT (keys only).
//!
//! Used for exact set reconciliation (§2.2: "Bob constructs an O(d) cell
//! IBLT by adding each of his set elements to it… Alice … deletes each of
//! her set elements from it"), the sets-of-sets rounds and continuous
//! rounds. Cells hold a
//! count, a key XOR and a checksum XOR; a cell is *pure* when its count is
//! ±1 and its checksum matches the checksum of its key XOR. Peeling pure
//! cells recovers the symmetric difference.
//!
//! Decoding is breadth-first peeling and nothing else (Theorem 2.6): the
//! final emptiness check decides [`IbltDecode::complete`], so a table
//! that stalls on a 2-core — or a received table that was never a sum of
//! keys — is reported incomplete, never mis-decoded. Why there is no
//! second stage behind the peeler is recorded in `docs/architecture.md`
//! ("Decode: peeling only").

use crate::layout::{CellLayout, CellStore};
use std::sync::{Arc, OnceLock};

/// A standard IBLT holding 64-bit keys.
///
/// The table is *signed*: [`Iblt::insert`] adds a key, [`Iblt::delete`]
/// removes one (possibly never inserted, driving the count negative). In
/// reconciliation the inserting party's survivors decode with count `+1`
/// and the deleting party's with `−1`.
#[derive(Clone, Debug)]
pub struct Iblt {
    layout: CellLayout,
    cells: CellStore,
}

/// Result of decoding an IBLT.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IbltDecode {
    /// Keys recovered with positive sign (inserted-side survivors).
    pub inserted: Vec<u64>,
    /// Keys recovered with negative sign (deleted-side survivors).
    pub deleted: Vec<u64>,
    /// True if the table fully emptied (every key recovered).
    pub complete: bool,
    /// Keys recovered by peeling pure cells.
    pub peeled: usize,
    /// Always 0: the decoder has no stage after peeling. Kept only
    /// because `benchmark/src/probes.rs` reads it.
    pub solved: usize,
}

/// Process-wide decode counters, resolved once and recorded behind
/// [`rsr_obs::enabled`].
struct DecodeMetrics {
    peeled: Arc<rsr_obs::Counter>,
    failed: Arc<rsr_obs::Counter>,
}

fn decode_metrics() -> &'static DecodeMetrics {
    static METRICS: OnceLock<DecodeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rsr_obs::global();
        DecodeMetrics {
            peeled: reg.counter("iblt_decode_peeled_total"),
            failed: reg.counter("iblt_decode_failed_total"),
        }
    })
}

impl Iblt {
    /// Creates an empty table with at least `min_cells` cells and `q` hash
    /// functions, seeded by `seed`.
    pub fn new(min_cells: usize, q: usize, seed: u64) -> Self {
        let layout = CellLayout::new(min_cells, q, seed);
        Iblt {
            layout,
            cells: CellStore::new(layout.num_cells()),
        }
    }

    /// Number of cells `m`.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of hash functions `q`.
    pub fn q(&self) -> usize {
        self.layout.q()
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        self.update(key, 1);
    }

    /// Deletes a key (count may go negative).
    pub fn delete(&mut self, key: u64) {
        self.update(key, -1);
    }

    fn update(&mut self, key: u64, sign: i64) {
        // Single-pass hashing: one base hash feeds the checksum and all
        // q cell indices (q + 1 mixes per update in total).
        let base = self.layout.key_hash(key);
        let check = CellLayout::check_of_hash(base);
        for i in 0..self.layout.q() {
            self.cells
                .apply(self.layout.cell_of_hash(base, i), sign, key, check);
        }
    }

    /// Subtracts another table cell-wise (`self − other`). Both tables must
    /// share layout parameters and seed. After `a.subtract(&b)`, keys in
    /// both tables cancel; `a`'s survivors decode positive, `b`'s negative.
    pub fn subtract(&mut self, other: &Iblt) {
        assert_eq!(self.layout, other.layout, "layout mismatch");
        self.cells.subtract(&other.cells);
    }

    /// A cell-identical copy of the table, retained as the baseline a
    /// later delta is measured against with [`Iblt::delta_since`]. A
    /// continuous party builds the same delta from its journal instead;
    /// this pair is the reference its property test compares against.
    pub fn snapshot(&self) -> Iblt {
        self.clone()
    }

    /// The table containing exactly the keys whose membership changed
    /// since `snapshot` was taken: `self − snapshot`, cell-wise. Because
    /// the table size tracks the *churn bound* rather than the set size,
    /// this costs O(m) cell operations however large the underlying set
    /// has grown. Keys inserted since the snapshot decode positive, keys
    /// deleted decode negative. Panics if the layouts differ (like
    /// [`Iblt::subtract`]).
    pub fn delta_since(&self, snapshot: &Iblt) -> Iblt {
        let mut delta = self.clone();
        delta.subtract(snapshot);
        delta
    }

    fn is_pure(&self, idx: usize) -> bool {
        self.layout
            .pure_cell_sign(
                self.cells.count(idx),
                self.cells.key_xor(idx),
                self.cells.check_xor(idx),
            )
            .is_some()
    }

    /// Indices of all currently pure cells — the IBLT face of the
    /// hypergraph's degree-1 vertices (see the regression test tying the
    /// two together in `hypergraph.rs`).
    pub fn pure_cells(&self) -> Vec<usize> {
        (0..self.cells.len()).filter(|&i| self.is_pure(i)).collect()
    }

    /// Decodes the table by breadth-first peeling of pure cells. The
    /// table is consumed back to the state it would have after removing
    /// every recovered key; on complete success it is empty.
    pub fn decode(mut self) -> IbltDecode {
        let mut result = IbltDecode::default();
        // Honest peeling empties the source cell of every peel and only
        // removes keys afterwards, so it makes at most one peel per cell.
        // A received table need not be a sum of keys (one holding a key
        // in a single cell re-plants it in the key's other cells, which
        // peel it back, forever), so the bound is enforced, not assumed.
        let mut budget = self.cells.len();
        let mut queue: std::collections::VecDeque<usize> = self.pure_cells().into();
        while let Some(idx) = queue.pop_front() {
            if !self.is_pure(idx) {
                continue; // stale entry
            }
            if budget == 0 {
                break;
            }
            budget -= 1;
            let key = self.cells.key_xor(idx);
            let sign = self.cells.count(idx);
            if sign > 0 {
                result.inserted.push(key);
            } else {
                result.deleted.push(key);
            }
            result.peeled += 1;
            self.update(key, -sign);
            let base = self.layout.key_hash(key);
            for i in 0..self.layout.q() {
                let cell = self.layout.cell_of_hash(base, i);
                if self.is_pure(cell) {
                    queue.push_back(cell);
                }
            }
        }
        result.complete = self.cells.all_empty();
        if rsr_obs::enabled() {
            let m = decode_metrics();
            m.peeled.add(result.peeled as u64);
            if !result.complete {
                m.failed.inc();
            }
        }
        result
    }

    /// Wire size in bits of the serialized table, with counts sized for
    /// at most `n_bound` items. Exactly matches [`Iblt::to_bytes`] (which
    /// pads only to the final byte).
    pub fn wire_bits(&self, n_bound: usize) -> u64 {
        self.cells.len() as u64 * crate::wire::CellWidths::xor(n_bound).per_cell(0)
    }

    /// Writes the cell contents into an in-progress [`BitWriter`](crate::bits::BitWriter), so the
    /// table can ride inside a larger protocol message. Adds exactly
    /// [`Iblt::wire_bits`] bits.
    pub fn write_to(&self, w: &mut crate::bits::BitWriter, n_bound: usize) {
        let widths = crate::wire::CellWidths::xor(n_bound);
        let before = w.bit_len();
        for idx in 0..self.cells.len() {
            crate::wire::put_i64(w, self.cells.count(idx), widths.count);
            w.write(self.cells.key_xor(idx), widths.key);
            w.write(self.cells.check_xor(idx), widths.check);
        }
        debug_assert_eq!(w.bit_len() - before, self.wire_bits(n_bound));
    }

    /// Reads a table previously written with [`Iblt::write_to`] from an
    /// in-progress [`BitReader`](crate::bits::BitReader), given the shared construction parameters.
    /// Returns `None` on buffer exhaustion or a count exceeding `n_bound`.
    pub fn read_from(
        r: &mut crate::bits::BitReader<'_>,
        min_cells: usize,
        q: usize,
        seed: u64,
        n_bound: usize,
    ) -> Option<Iblt> {
        let mut table = Iblt::new(min_cells, q, seed);
        let widths = crate::wire::CellWidths::xor(n_bound);
        for idx in 0..table.cells.len() {
            let count = crate::wire::get_i64(r, widths.count)?;
            if count.unsigned_abs() > n_bound as u64 {
                return None;
            }
            let key_xor = r.read(widths.key)?;
            let check_xor = r.read(widths.check)?;
            table.cells.set(idx, count, key_xor, check_xor);
        }
        Some(table)
    }

    /// Serializes the cell contents. The construction parameters (cell
    /// count, `q`, seed) are shared via public coins and not resent; the
    /// peer rebuilds with [`Iblt::from_bytes`] and the same parameters.
    pub fn to_bytes(&self, n_bound: usize) -> Vec<u8> {
        let mut w = crate::bits::BitWriter::with_capacity(self.wire_bits(n_bound));
        self.write_to(&mut w, n_bound);
        w.finish()
    }

    /// Reconstructs a table from [`Iblt::to_bytes`] output plus the
    /// shared construction parameters. Returns `None` if the buffer is
    /// too short or a count exceeds `n_bound`.
    pub fn from_bytes(
        bytes: &[u8],
        min_cells: usize,
        q: usize,
        seed: u64,
        n_bound: usize,
    ) -> Option<Iblt> {
        let mut r = crate::bits::BitReader::new(bytes);
        Iblt::read_from(&mut r, min_cells, q, seed, n_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_recovers_inserted_keys() {
        let mut t = Iblt::new(40, 3, 1);
        let keys = [3u64, 17, 99, 12345];
        for &k in &keys {
            t.insert(k);
        }
        let d = t.decode();
        assert!(d.complete);
        let mut got = d.inserted.clone();
        got.sort_unstable();
        assert_eq!(got, {
            let mut v = keys.to_vec();
            v.sort_unstable();
            v
        });
        assert!(d.deleted.is_empty());
        assert_eq!(d.peeled, 4);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut t = Iblt::new(40, 3, 2);
        t.insert(5);
        t.insert(6);
        t.delete(5);
        let d = t.decode();
        assert!(d.complete);
        assert_eq!(d.inserted, vec![6]);
        assert!(d.deleted.is_empty());
    }

    #[test]
    fn deleted_side_keys_surface_with_negative_sign() {
        let mut t = Iblt::new(40, 3, 3);
        t.delete(1000);
        t.delete(2000);
        let d = t.decode();
        assert!(d.complete);
        assert!(d.inserted.is_empty());
        let mut got = d.deleted.clone();
        got.sort_unstable();
        assert_eq!(got, vec![1000, 2000]);
    }

    #[test]
    fn set_reconciliation_roundtrip() {
        // Bob inserts his set, Alice deletes hers; survivors are the
        // symmetric difference with signs telling whose side each is on.
        let bob: Vec<u64> = (0..1000).collect();
        let alice: Vec<u64> = (5..1005).collect();
        let mut t = Iblt::new(80, 3, 4);
        for &k in &bob {
            t.insert(k);
        }
        for &k in &alice {
            t.delete(k);
        }
        let d = t.decode();
        assert!(d.complete);
        let mut bob_only = d.inserted.clone();
        bob_only.sort_unstable();
        assert_eq!(bob_only, (0..5).collect::<Vec<u64>>());
        let mut alice_only = d.deleted.clone();
        alice_only.sort_unstable();
        assert_eq!(alice_only, (1000..1005).collect::<Vec<u64>>());
    }

    #[test]
    fn subtract_equals_insert_delete() {
        let mut a = Iblt::new(150, 3, 9);
        let mut b = Iblt::new(150, 3, 9);
        for k in 0..50u64 {
            a.insert(k);
        }
        for k in 25..75u64 {
            b.insert(k);
        }
        a.subtract(&b);
        let d = a.decode();
        assert!(d.complete);
        assert_eq!(d.inserted.len(), 25); // 0..25 only in a
        assert_eq!(d.deleted.len(), 25); // 50..75 only in b
    }

    #[test]
    fn overloaded_table_reports_incomplete() {
        let mut t = Iblt::new(12, 3, 5);
        for k in 0..200u64 {
            t.insert(k);
        }
        let d = t.decode();
        assert!(!d.complete);
    }

    #[test]
    fn duplicate_insertions_block_pure_cells_but_do_not_lie() {
        // Two copies of the same key produce count-2 cells whose XORs
        // cancel; peeling must not fabricate anything from them.
        let mut t = Iblt::new(40, 3, 6);
        t.insert(77);
        t.insert(77);
        let d = t.decode();
        assert!(!d.complete);
        assert!(d.inserted.is_empty() && d.deleted.is_empty());
    }

    #[test]
    fn a_key_held_in_one_cell_only_fails_in_bounded_time() {
        // A well-formed 84-cell table no honest party builds: key `x` in
        // one of its q cells, every other cell zero. Peeling it plants −x
        // in x's other cells, which peel it straight back; without the
        // peel budget this never returns.
        let (cells, q, seed, n_bound) = (84, 3, 9, 1 << 20);
        let layout = CellLayout::new(cells, q, seed);
        let x = 0xfeed_u64;
        let lone = layout.cells_of(x)[0];
        let widths = crate::wire::CellWidths::xor(n_bound);
        let mut w = crate::bits::BitWriter::new();
        for idx in 0..layout.num_cells() {
            let (count, key, check) = if idx == lone {
                (1, x, layout.check_of(x))
            } else {
                (0, 0, 0)
            };
            crate::wire::put_i64(&mut w, count, widths.count);
            w.write(key, widths.key);
            w.write(check, widths.check);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 1575);
        let table = Iblt::from_bytes(&bytes, cells, q, seed, n_bound).expect("well-formed");
        let d = table.decode();
        assert!(!d.complete);
        assert!(d.peeled <= cells, "peels are bounded by the cell count");
    }

    #[test]
    fn wire_bits_scales_with_cells() {
        let t = Iblt::new(30, 3, 7);
        let t2 = Iblt::new(60, 3, 7);
        assert!(t2.wire_bits(100) > t.wire_bits(100));
    }

    #[test]
    fn delta_since_decodes_only_the_churn() {
        // A resident table over a large set, snapshotted, then churned:
        // the delta decodes exactly the churn, with signs, regardless of
        // how many keys the base set holds.
        let mut table = Iblt::new(60, 3, 11);
        for k in 0..10_000u64 {
            table.insert(k);
        }
        let snap = table.snapshot();
        table.insert(20_001);
        table.insert(20_002);
        table.delete(7); // present in the base set
        let d = table.delta_since(&snap).decode();
        assert!(d.complete);
        let mut ins = d.inserted.clone();
        ins.sort_unstable();
        assert_eq!(ins, vec![20_001, 20_002]);
        assert_eq!(d.deleted, vec![7]);
        // The snapshot itself is untouched by the churn.
        assert!(snap.delta_since(&snap).decode().complete);
    }

    #[test]
    fn snapshot_of_equal_sets_is_cell_identical() {
        // Two parties building tables over the same set with shared
        // parameters produce byte-identical tables — the invariant that
        // lets continuous rounds subtract their snapshots implicitly.
        let mut a = Iblt::new(50, 3, 21);
        let mut b = Iblt::new(50, 3, 21);
        for k in [5u64, 900, 31, 77, 12] {
            a.insert(k);
        }
        for k in [12u64, 77, 31, 900, 5] {
            b.insert(k);
        }
        assert_eq!(a.to_bytes(100), b.to_bytes(100));
    }

    #[test]
    #[should_panic]
    fn subtract_layout_mismatch_panics() {
        let mut a = Iblt::new(30, 3, 1);
        let b = Iblt::new(60, 3, 1);
        a.subtract(&b);
    }
}
