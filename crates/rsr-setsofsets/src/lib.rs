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
//! Each side fingerprints its children once, eight hash chains side by
//! side: Bob in round 1 (kept in [`BobState`] for round 3), Alice in
//! round 2 (kept in [`AliceState`] for the finish).
//!
//! Alice then splices: her multiset, minus her Alice-only children, plus
//! the received Bob-only children, reproduces Bob's multiset exactly. The
//! finish returns that as a [`Splice`] — a mask over Alice's children plus
//! the received ones — so a caller that only reads Bob's multiset need not
//! copy it.
//!
//! Both requests are checked before any work proportional to them: Bob
//! refuses a round 2 naming more children than he holds, or one
//! fingerprint twice; Alice refuses a round 3 that does not carry exactly
//! the requested fingerprints, each once, and verifies every received
//! child against them. Each refusal is a typed [`SosError`].
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
    estimate_fp_cells, reconcile, AliceState, BobState, ChildSet, Round1, Round2, Round3,
    SosConfig, SosError, SosOutcome, Splice,
};
