//! A TCP transport for `rsr-core`'s sessions: a multi-session
//! reconciliation server and one client driver, both built on the same
//! readiness reactor.
//!
//! Every protocol is a pair of Alice/Bob session state machines that
//! only exchange byte-exact [`Frame`](rsr_core::channel::Frame)s; this
//! crate carries those frames over sockets and hands the transcripts
//! back bit for bit. Three layers, std-only:
//!
//! * [`codec`] — the length-prefixed record grammar, three kinds (`OPEN`,
//!   `FRAME`, `DONE`): every record carries a session id, and a `FRAME`
//!   record carries a session-layer `Frame` (label, payload, exact bit
//!   length) verbatim, so transcript accounting on the two endpoints
//!   agrees bit for bit.
//! * [`ReconServer`] — many concurrent sessions multiplexed over many
//!   connections: each connection holds the Bob half of every session
//!   it opened (created on demand by a [`SessionFactory`]), and the
//!   reactor that accepted the connection steps a half inline for every
//!   record that wakes it, one-shot halves and continuous rounds alike.
//!   A server runs R reactor threads ([`default_shards`], or
//!   `with_shards(R)`) however many connections are live. It keeps per-session
//!   [`Transcript`](rsr_core::transcript::Transcript)s and
//!   per-connection byte counters that must — and are tested to — agree
//!   with the in-memory driver's accounting.
//! * [`Driver`] — the one client: `Driver::new(addr).conns(n)` then
//!   [`Driver::batch`] (closed loop), [`Driver::load`] (open loop), or
//!   [`Driver::connect`] for a [`ConnectedDriver`] whose pool runs many
//!   rounds — including **continuous** sessions, whose resident state
//!   spans rounds under one wire id, each round one `FRAME` each way
//!   (see [`SessionPlan::open_continuous`]). It plays Alice for every
//!   [`SessionPlan`], steps every half on one reactor on the caller's
//!   thread, and returns one [`DriverReport`].
//!
//! See `docs/transport.md` for the wire layout and error-handling rules.

mod client;
pub mod codec;
pub mod driver;
mod obs;
mod reactor;
pub mod server;

pub use client::SessionPlan;
pub use codec::{
    read_record, write_record, NetError, Record, RecordDecoder, SessionSpec, MAX_RECORD_BYTES,
    PROTO_CONT, PROTO_EMD, PROTO_GAP, PROTO_SCALED_EMD, STATUS_OK, STATUS_SESSION_ERROR,
    STATUS_UNKNOWN_SESSION,
};
pub use driver::{ConnectedDriver, Driver, DriverReport, RunReport, RunSession};
pub use server::{
    default_shards, ConnectionReport, NetSession, ReconServer, SessionFactory, SessionSummary,
    MAX_DEFAULT_SHARDS,
};
