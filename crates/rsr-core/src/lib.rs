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
//! * [`continuous`] — long-lived incremental sessions: resident
//!   churn-sized tables, snapshot subtraction, per-round delta
//!   reconciliation with an Idle→Syncing→Settled lifecycle.
//! * [`executor`] — the worker-pool executor: an idle worker takes the
//!   next wake from one FIFO, borrows its session [`executor::Half`] for
//!   one step and hands it back, holding no session between wakes; and
//!   the in-process parallel [`executor::drive_batch`] driver.
//!   `rsr-net`'s connection slots lend it their one-shot halves.
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
pub use executor::{
    drive_batch, with_executor, DynSession, Events, ExecEvent, Half, Injector, PairOutcome, Seat,
    Wait,
};
pub use gap_low_dim::low_dim_gap_config;
pub use gap_protocol::{
    verify_gap_guarantee, GapAliceSession, GapBobSession, GapConfig, GapError, GapOutcome,
    GapProtocol,
};
pub use session::{drive_in_memory, DriveError, Session};
pub use set_recon::{exact_reconcile, ExactOutcome, ExactReconError};
pub use transcript::{Party, Transcript};
