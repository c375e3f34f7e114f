//! Invertible Bloom Lookup Tables (IBLTs) and the Robust IBLT (RIBLT).
//!
//! An IBLT (Goodrich & Mitzenmacher, Allerton 2011) is a hash table with
//! `m` cells and `q` hash functions per key that supports insertions,
//! deletions (including deletions of keys never inserted — counts go
//! negative), and *inversion*: listing every key currently in the table via
//! a peeling process, provided the load is below the `q`-core threshold of
//! the underlying random hypergraph (Theorem 2.6 of the paper).
//!
//! The paper's EMD protocol needs a stronger variant, the **Robust IBLT**
//! (§2.2): cells aggregate by *sums* instead of XOR, peeling runs in
//! breadth-first (FIFO) order, the table is kept sparse
//! (`c < 1/(q(q−1))`), and cells holding several copies of the *same key
//! with different values* can still be peeled — the values are averaged and
//! randomly rounded back into the grid. The error a cancelled near-pair
//! leaves behind propagates through peeling exactly as in the paper's
//! Figure 1; `rsr-exp paper` gates the end-to-end error against the
//! planted error mass (Lemma 3.10).
//!
//! Modules:
//!
//! * [`layout`] — the partitioned key→cells mapping shared by both
//!   tables (single-pass key+checksum hashing, struct-of-arrays cells);
//! * [`iblt`] — the standard XOR IBLT (keys only), used for exact set
//!   reconciliation, the sets-of-sets rounds and continuous rounds;
//! * [`riblt`] — the Robust IBLT (key–value pairs, values are grid
//!   points), decoded one way: breadth-first peeling with randomized
//!   rounding;
//! * [`hypergraph`] — the hypergraph a layout induces and its peeling
//!   process, the structural reference the decoder is tested against;
//! * [`bits`] and [`wire`] — the bit-packed cell codec both tables ship
//!   through: a word-at-a-time bit writer/reader (with runs of
//!   equal-width fields for a RIBLT cell's coordinate sums) and the
//!   per-field widths sized from the sender's declared set size.

pub mod bits;
pub mod hypergraph;
pub mod iblt;
pub mod layout;
pub mod riblt;
pub mod wire;

pub use iblt::{Iblt, IbltDecode};
pub use layout::{CellLayout, CellStore};
pub use riblt::{Riblt, RibltConfig, RibltDecode};
