//! Sets-of-sets reconciliation (the substrate behind the Gap protocol).
//!
//! In the multisets-of-sets reconciliation problem (Mitzenmacher & Morgan,
//! PODS 2018 — reference \[22\] of the paper), Alice and Bob each hold a
//! parent multiset of child sets, and Bob wants Alice to end up knowing his
//! multiset, with communication proportional to the number of *differing
//! child sets* rather than the parent size. The Gap Guarantee protocol
//! (§4.1) invokes this with child sets = LSH-derived keys.
//!
//! ## Protocol (3 rounds, Bob → Alice)
//!
//! 1. **Bob → Alice**: an IBLT over *occurrence-tagged fingerprints* of his
//!    child sets. (Tagging the `r`-th occurrence of an identical child set
//!    with its rank `r` makes duplicate children distinct IBLT keys, so
//!    multiset semantics come out of a plain IBLT.)
//! 2. **Alice → Bob**: Alice subtracts her own tagged fingerprints and
//!    decodes the difference; she sends back the list of fingerprints only
//!    Bob has.
//! 3. **Bob → Alice**: the full contents of exactly those child sets.
//!
//! Alice then splices: her multiset, minus her Alice-only children, plus
//! the received Bob-only children, reproduces Bob's multiset exactly. Every
//! received child is verified against its requested fingerprint.
//!
//! ## Relation to Theorem E.1 (documented substitution)
//!
//! The PODS'18 protocol transmits only the *differing entries* of differing
//! child sets, which saves roughly a `log n / log log n` factor on large
//! child sets. We transmit whole differing child sets (simpler, and
//! bit-accounted honestly). The communication remains
//! `O(#differing children · (child size + log n))`, preserving every
//! qualitative claim the Gap experiments test: proportionality to the
//! number of differences, independence from the parent-set size, and the
//! 3-round structure.

pub mod protocol;
pub mod wire;

pub use protocol::{
    estimate_fp_cells, reconcile, AliceState, ChildSet, Round1, Round2, Round3, SosConfig,
    SosError, SosOutcome,
};
