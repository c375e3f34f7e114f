//! [`ReconServer`]: many reconciliation sessions multiplexed over many
//! connections, driven by R readiness reactors that step every session
//! half on the thread that reads its record.
//!
//! The server plays **Bob** for every session. A [`SessionFactory`]
//! supplies the Bob half on demand: when a connection `OPEN`s a session
//! id, the factory builds the session — from the `OPEN`'s negotiated
//! [`SessionSpec`] when the client sent one, from the id alone otherwise.
//! The connection keeps the half in the id's row, and each wake — its
//! opening say (for Bob-initiated protocols like the Gap protocol that
//! is round 1), then one per frame routed to it by session id — runs
//! one step on the reactor, which queues what it said before it reads
//! the next record. When a session's Bob half finishes, the server
//! reports `DONE` with [`STATUS_OK`](crate::codec::STATUS_OK); a
//! protocol error is reported with
//! [`STATUS_SESSION_ERROR`](crate::codec::STATUS_SESSION_ERROR) and the
//! session dropped, leaving every other session — on this connection
//! and every other — untouched. An id the factory does not know, and a
//! `FRAME` for an id that was never opened, get
//! [`STATUS_UNKNOWN_SESSION`](crate::codec::STATUS_UNKNOWN_SESSION).
//!
//! A session whose `OPEN` spec is marked continuous works differently:
//! [`SessionFactory::open_continuous`] supplies a *resident*
//! [`ContinuousParty`](rsr_core::continuous::ContinuousParty) that
//! stays on the connection across rounds. A round is one `FRAME` each
//! way: the client's delta runs a one-round Bob over the party on the
//! reactor thread, and the round's reply frame is queued before the
//! next record is read; the reply is the ack, no `DONE` follows. A
//! failed round is answered `DONE(1)` and leaves the party resident,
//! rolled back, for a retry. The id stays
//! live until the client sends `DONE` or closes the connection.
//!
//! [`ReconServer::serve`] runs R reactor threads, the caller's among
//! them ([`ReconServer::with_shards`]); [`ReconServer::serve_one`] runs
//! one reactor on the caller's thread. Sockets are nonblocking and
//! readiness comes from `netpoll`. The reactors share the listener: a
//! free reactor takes the next connection and keeps it for its life, so
//! the server runs R threads no matter how many connections are live. A
//! connection that goes silent past the idle deadline is torn down
//! instead of leaking state forever; see
//! [`ReconServer::with_idle_timeout`].
//!
//! Each connection keeps one [`Transcript`] per session — entry-for-
//! entry what the in-memory driver would have recorded — plus
//! whole-connection frame and wire-byte counters, returned as a
//! [`ConnectionReport`]. See `docs/transport.md` ("Execution model")
//! for the full scheduling story.

use crate::codec::{NetError, SessionSpec};
use crate::reactor::{run_server_reactor, BUDGET_RECHECK, DEFAULT_IDLE_TIMEOUT};
use rsr_core::continuous::SharedParty;
use rsr_core::transcript::Transcript;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A [`rsr_core::session::Session`] with its error type erased to
/// `String` and a `Send` bound, so one server holds sessions of
/// different protocols behind one object type on any of its reactors.
/// This is `rsr-core`'s [`rsr_core::executor::DynSession`], re-exported
/// under the name the transport layer has always used; it stays
/// blanket-implemented for every sendable `Session` whose error
/// displays.
pub use rsr_core::executor::DynSession as NetSession;

/// Cap on [`default_shards`]: session concurrency rarely benefits from
/// more reactors than this, and an unbounded default would spawn a
/// thread per hardware thread on large hosts.
pub const MAX_DEFAULT_SHARDS: usize = 8;

/// The default reactor count of a [`ReconServer`]: available
/// parallelism, capped at [`MAX_DEFAULT_SHARDS`], at least 1. It is per
/// server, not per connection: the server runs this many threads no
/// matter how many connections are live.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_DEFAULT_SHARDS)
}

/// Builds the server-side (Bob) half of a session on demand. The boxed
/// session may borrow from the factory — protocol objects and point sets
/// live in the factory, sessions are views over them.
pub trait SessionFactory: Send + Sync {
    /// The single required method: the Bob session for `session_id`,
    /// given whatever negotiation the `OPEN` carried — `Some(spec)`
    /// when the client put protocol and instance parameters on the
    /// wire, `None` for a bare open, where the factory must know the id
    /// out of band. Return `None`
    /// for an id/spec combination this factory cannot serve; the
    /// server answers with
    /// [`STATUS_UNKNOWN_SESSION`](crate::codec::STATUS_UNKNOWN_SESSION).
    fn open_spec(
        &self,
        session_id: u64,
        spec: Option<&SessionSpec>,
    ) -> Option<Box<dyn NetSession + '_>>;

    /// The resident Bob party for an `OPEN` whose spec is marked
    /// [`continuous`](SessionSpec::continuous): the server keeps the
    /// returned party alive on the connection and runs one
    /// [`BobRound`](rsr_core::continuous::BobRound) over it per round,
    /// on the reactor thread, each begun by the client's delta `FRAME`.
    /// The default refuses (one-shot factories need not know continuous
    /// mode exists).
    fn open_continuous(&self, session_id: u64, spec: &SessionSpec) -> Option<SharedParty> {
        let _ = (session_id, spec);
        None
    }
}

/// One session's server-side record within a [`ConnectionReport`].
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// The session id the connection used.
    pub id: u64,
    /// Every frame that crossed the connection for this session, both
    /// directions, with measured bit sizes — the same transcript the
    /// in-memory driver would produce.
    pub transcript: Transcript,
    /// `None` if the session completed; the protocol or protocol-order
    /// error otherwise — for a continuous session, its first failed
    /// round's, even when a retry settled.
    pub error: Option<String>,
}

/// Aggregate accounting for one served connection.
#[derive(Debug, Default)]
pub struct ConnectionReport {
    /// Per-session summaries, in the order sessions were opened.
    pub sessions: Vec<SessionSummary>,
    /// Frames received from the client for a session id it had opened
    /// (all sessions). This counts a frame even when the addressed
    /// session has already finished and the frame is dropped as stale,
    /// so on error interleavings it can exceed the number of frames
    /// sessions actually consumed.
    pub frames_in: usize,
    /// Frames sent to the client (all sessions).
    pub frames_out: usize,
    /// Raw bytes read from the socket, record headers included.
    pub wire_bytes_in: u64,
    /// Raw bytes written to the socket, record headers included.
    pub wire_bytes_out: u64,
}

impl ConnectionReport {
    /// Sessions that ran to completion.
    pub fn completed(&self) -> usize {
        self.sessions.iter().filter(|s| s.error.is_none()).count()
    }

    /// Sessions that ended in an error.
    pub fn failed(&self) -> usize {
        self.sessions.len() - self.completed()
    }

    /// Total payload bits across every session transcript; the wire-byte
    /// counters exceed the byte form of this only by record headers.
    pub fn payload_bits(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| s.transcript.total_bits())
            .sum()
    }
}

/// A listening reconciliation server: one [`SessionFactory`] serving
/// every connection from R reactor threads.
pub struct ReconServer<F: SessionFactory> {
    listener: TcpListener,
    factory: Arc<F>,
    reactors: usize,
    idle_timeout: Option<Duration>,
}

impl<F: SessionFactory> ReconServer<F> {
    /// Binds `addr` (use port 0 for an ephemeral port). Connections are
    /// served by [`default_shards`] reactors unless
    /// [`ReconServer::with_shards`] overrides it, and torn down after
    /// 30 s of wire silence unless [`ReconServer::with_idle_timeout`]
    /// says otherwise.
    pub fn bind(addr: impl ToSocketAddrs, factory: Arc<F>) -> io::Result<ReconServer<F>> {
        Ok(ReconServer {
            listener: TcpListener::bind(addr)?,
            factory,
            reactors: default_shards(),
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
        })
    }

    /// Sets the number of reactor threads [`ReconServer::serve`] runs.
    pub fn with_shards(mut self, reactors: usize) -> ReconServer<F> {
        assert!(reactors >= 1, "a server needs at least one reactor");
        self.reactors = reactors;
        self
    }

    /// Sets (or disables, with `None`) the idle deadline: a connection
    /// with no wire activity for this long is torn down — its live
    /// sessions report "connection closed mid-session" and every other
    /// connection is untouched. Without a deadline, a client that
    /// connects and never speaks would hold connection state forever.
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> ReconServer<F> {
        self.idle_timeout = timeout;
        self
    }

    /// The bound address — needed after binding port 0.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts one connection and serves it to completion on one reactor
    /// on the calling thread. Returns the per-connection accounting;
    /// `Err` only for transport-level failures (the connection is then
    /// dead), never for per-session protocol errors.
    pub fn serve_one(&self) -> Result<ConnectionReport, NetError> {
        self.listener.set_nonblocking(true)?;
        let mut outcome = None;
        run_server_reactor(
            &*self.factory,
            &self.listener,
            &AtomicUsize::new(1),
            None,
            self.idle_timeout,
            &mut |res| outcome = Some(res),
        )?;
        outcome.expect("the reactor reports its one connection before it returns")
    }

    /// Accept loop over R reactor threads, the calling thread one of
    /// them: at most `max_conns` connections (`None` = until the
    /// listener fails), each served by the free reactor that accepted
    /// it. A reactor with nothing left to accept or serve waits for the
    /// others, so the thread count stays R for the whole call.
    /// Connection reports are discarded here — use
    /// [`ReconServer::serve_one`] when the caller wants them.
    pub fn serve(&self, max_conns: Option<usize>) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let budget = AtomicUsize::new(max_conns.unwrap_or(usize::MAX));
        let all_done = Barrier::new(self.reactors);
        let recheck = (self.reactors > 1).then_some(BUDGET_RECHECK);
        let reactor = || {
            let served = run_server_reactor(
                &*self.factory,
                &self.listener,
                &budget,
                recheck,
                self.idle_timeout,
                &mut |_res| {},
            );
            if served.is_err() {
                // A failed listener or poll: no reactor accepts again.
                budget.store(0, Ordering::Relaxed);
            }
            all_done.wait();
            served
        };
        let served = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.reactors).map(|_| s.spawn(reactor)).collect();
            let mine = reactor();
            others
                .into_iter()
                .map(|other| other.join().expect("a reactor panicked"))
                .fold(mine, Result::and)
        });
        served.map_err(|e| match e {
            NetError::Io(e) => e,
            other => io::Error::other(other),
        })
    }
}
