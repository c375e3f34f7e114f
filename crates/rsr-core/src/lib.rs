//! The paper's protocols: robust set reconciliation in the EMD and Gap
//! Guarantee models.
//!
//! * [`emd_protocol`] — Algorithm 1: multi-resolution MLSH keys in Robust
//!   IBLTs; one message Alice → Bob; `O(log n)`-approximate EMD repair
//!   (Theorem 3.4, Corollary 3.5).
//! * [`emd_scaled`] — the Corollary 3.6 wrapper: split `[D1, D2]` into
//!   `O(log(D2/D1))` constant-ratio intervals and run Algorithm 1 in
//!   parallel on each.
//! * [`gap_protocol`] — the four-round Gap Guarantee protocol of §4.1
//!   (Theorem 4.2): LSH-batch keys, sets-of-sets reconciliation, far-key
//!   detection, far-point transmission.
//! * [`gap_low_dim`] — the Theorem 4.5 variant for low-dimensional `ℓ_p`
//!   spaces built on the one-sided (`p2 = 0`) grid LSH.
//! * [`set_recon`] — exact set reconciliation (the `EMD_k = 0` fallback the
//!   paper mentions in §3).
//! * [`mlsh_select`] — metric-driven choice of MLSH family and width,
//!   implementing the parameter requirements of Theorem 3.4
//!   (`r ≥ min(M, D2)`, `p ≥ e^{−k/(24·D2)}`).
//! * [`lower_bound`] — the Theorem 4.6 reduction from the index problem
//!   (with a greedy Gilbert–Varshamov code standing in for Reed–Muller):
//!   the hard instances the Gap protocol is run on.
//! * [`transcript`] — bit-exact communication accounting (measured sizes,
//!   message and round counts).
//! * [`channel`] / [`session`] — the two-party message-passing substrate:
//!   every protocol is an Alice/Bob pair of session state machines
//!   exchanging encoded [`channel::Frame`]s; the `run(&alice, &bob)`
//!   entry points drive a pair with [`session::drive_in_memory`], the
//!   one serial loop.
//! * [`continuous`] — long-lived incremental sessions: each party keeps
//!   its set plus a journal of the keys changed since the last settle,
//!   and a round reconciles a delta table built from that journal, with
//!   an Idle→Syncing→Settled lifecycle.
//! * [`executor`] — [`executor::Half`], a session half and its
//!   transcript with the one wake sequence `Half::step`, which
//!   `rsr-net`'s reactors run inline for every record they read; and
//!   [`executor::drive_batch`], which runs in-process pairs on a few
//!   scoped threads through the serial loop.
//! * [`wire`] — codecs for non-table payloads (point lists, `u64` lists),
//!   built on `rsr-iblt`'s shared bit codec.

pub mod channel;
pub mod continuous;
pub mod emd_protocol;
pub mod emd_scaled;
pub mod executor;
pub mod gap_low_dim;
pub mod gap_protocol;
pub mod lower_bound;
pub mod mlsh_select;
pub mod session;
pub mod set_recon;
pub mod transcript;
pub mod wire;

pub use channel::Frame;
pub use continuous::{
    shared, AliceRound, BobRound, ContinuousConfig, ContinuousError, ContinuousParty,
    ContinuousSession, SessionPhase, SharedParty,
};
pub use emd_protocol::{
    EmdAliceSession, EmdBobSession, EmdFailure, EmdMessage, EmdOutcome, EmdProtocol,
    EmdProtocolConfig,
};
pub use emd_scaled::{ScaledEmdAliceSession, ScaledEmdBobSession, ScaledEmdProtocol};
pub use executor::{drive_batch, DynSession, Half, PairOutcome};
pub use gap_low_dim::low_dim_gap_config;
pub use gap_protocol::{
    verify_gap_guarantee, GapAliceSession, GapBobSession, GapConfig, GapError, GapOutcome,
    GapProtocol,
};
pub use session::{drive_in_memory, DriveError, Session};
pub use set_recon::{exact_reconcile, ExactOutcome, ExactReconError};
pub use transcript::{Party, Transcript};
