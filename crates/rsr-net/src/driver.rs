//! [`Driver`]: the one client surface for every way of running
//! reconciliation sessions over the wire.
//!
//! ```text
//! Driver::new(addr).conns(4).batch(plans)                // closed loop
//! Driver::new(addr).idle_timeout(t).load(scheduled)      // open loop
//! Driver::new(addr).connect()?                           // many rounds
//! ```
//!
//! Both modes return one [`DriverReport`] — per-connection
//! [`RunReport`]s holding per-session [`RunSession`]s, where open-loop
//! timing fields are simply `None` for batch runs. The round engine
//! (`client.rs`) writes these reports directly; nothing is reshaped on
//! the way out.
//!
//! One-shot [`Driver::batch`]/[`Driver::load`] connect, run one round,
//! and tear the pool down. [`Driver::connect`] instead hands back a
//! [`ConnectedDriver`] whose connections persist between rounds — the
//! shape continuous sessions need: open with round 0 in one `batch`
//! call, keep churning and driving later rounds in further calls, then
//! [`ConnectedDriver::close_session`] and
//! [`ConnectedDriver::finish`].

use crate::client::{drain_pool, run_round, ConnPlan, PoolConn, SessionPlan};
use crate::codec::NetError;
use rsr_core::transcript::Transcript;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One session's record in a [`RunReport`] — the union of the batch and
/// open-loop per-session shapes. Batch runs leave the timing fields
/// `None`.
#[derive(Clone, Debug)]
pub struct RunSession {
    /// The session id used on the wire.
    pub id: u64,
    /// Both directions of the session's traffic with measured bit
    /// sizes. For a continuous round this is that round's segment only;
    /// accumulate across rounds caller-side (or read the server's
    /// whole-session summary).
    pub transcript: Transcript,
    /// `None` if both halves completed; the first error otherwise.
    pub error: Option<String>,
    /// Open-loop only: when the session was scheduled to arrive,
    /// offset from the run's start.
    pub scheduled: Option<Duration>,
    /// Open-loop only: when the generator actually injected it.
    pub injected: Option<Duration>,
    /// Open-loop only: when it fully settled (local half done, and the
    /// server's `DONE` received — for a continuous round, its reply
    /// frame); `None` also when it never settled.
    pub settled: Option<Duration>,
}

impl RunSession {
    /// True when both the local Alice half and the server's Bob half
    /// finished cleanly.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Open-loop latency under the coordinated-omission rule: settle
    /// time minus *scheduled* arrival (docs/loadgen.md). `None` for
    /// batch-mode sessions and sessions that never settled.
    pub fn latency(&self) -> Option<Duration> {
        match (self.settled, self.scheduled) {
            (Some(settled), Some(scheduled)) => Some(settled.saturating_sub(scheduled)),
            _ => None,
        }
    }
}

/// What one run did on one connection.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Per-session reports, in plan (batch) or schedule (load) order.
    pub sessions: Vec<RunSession>,
    /// The connection's span of the run: start to last settle for a
    /// clean open-loop run, start to loop end otherwise; wall-clock
    /// around the whole round in batch mode (shared by every
    /// connection, since the round runs them together).
    pub elapsed: Duration,
    /// Frames sent to the server (all sessions).
    pub frames_out: usize,
    /// Frames received from the server and routed to a known session
    /// id.
    pub frames_in: usize,
    /// Raw bytes written, record headers included.
    pub wire_bytes_out: u64,
    /// Raw bytes read, record headers included.
    pub wire_bytes_in: u64,
    /// The connection-level failure, when this connection's transport
    /// died mid-run (every unsettled session then carries a matching
    /// per-session error); `None` for an orderly run.
    pub transport_error: Option<NetError>,
}

impl RunReport {
    /// Sessions that completed on both endpoints.
    pub fn completed(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_ok()).count()
    }

    /// Sessions that failed (locally or server-side).
    pub fn failed(&self) -> usize {
        self.sessions.len() - self.completed()
    }

    /// Total payload bits across every session transcript.
    pub fn payload_bits(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| s.transcript.total_bits())
            .sum()
    }

    /// The largest `injected - scheduled` lag across an open-loop run —
    /// the generator's own tardiness, reported so a cell can prove its
    /// numbers are trustworthy. Zero for batch runs, which have no
    /// schedule.
    pub fn max_inject_lag(&self) -> Duration {
        self.sessions
            .iter()
            .filter_map(|s| match (s.injected, s.scheduled) {
                (Some(injected), Some(scheduled)) => Some(injected.saturating_sub(scheduled)),
                _ => None,
            })
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// One run's outcome across every connection — the single report type
/// both driver modes return.
#[derive(Debug, Default)]
pub struct DriverReport {
    /// One report per connection, in pool order.
    pub conns: Vec<RunReport>,
}

impl DriverReport {
    /// Every session across every connection, pool order then plan
    /// order.
    pub fn sessions(&self) -> impl Iterator<Item = &RunSession> {
        self.conns.iter().flat_map(|c| c.sessions.iter())
    }

    /// Sessions that completed on both endpoints, across the run.
    pub fn completed(&self) -> usize {
        self.conns.iter().map(RunReport::completed).sum()
    }

    /// Sessions that failed, across the run.
    pub fn failed(&self) -> usize {
        self.conns.iter().map(RunReport::failed).sum()
    }

    /// Total payload bits across the run.
    pub fn payload_bits(&self) -> u64 {
        self.conns.iter().map(RunReport::payload_bits).sum()
    }

    /// The run's wall-clock span: the widest per-connection span.
    pub fn elapsed(&self) -> Duration {
        self.conns
            .iter()
            .map(|c| c.elapsed)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// The first connection-level failure, if any connection died.
    pub fn transport_error(&self) -> Option<&NetError> {
        self.conns.iter().find_map(|c| c.transport_error.as_ref())
    }
}

/// Builder for a client run against a
/// [`ReconServer`](crate::server::ReconServer).
pub struct Driver<A: ToSocketAddrs> {
    addr: A,
    conns: usize,
    idle_timeout: Option<Duration>,
}

impl<A: ToSocketAddrs> Driver<A> {
    /// A driver for `addr`: one connection, no idle deadline.
    pub fn new(addr: A) -> Driver<A> {
        Driver {
            addr,
            conns: 1,
            idle_timeout: None,
        }
    }

    /// Sets the connection-pool width (≥ 1).
    pub fn conns(mut self, conns: usize) -> Driver<A> {
        assert!(conns >= 1, "a driver needs at least one connection");
        self.conns = conns;
        self
    }

    /// Ignored: a driver runs all its connections on the caller's
    /// thread. Kept for callers that still name a width.
    pub fn shards(self, _shards: usize) -> Driver<A> {
        self
    }

    /// Bounds how long a connection tolerates a silent server with
    /// sessions in flight before that connection fails with a transport
    /// error (other connections are untouched). Mirrors the server's
    /// [`with_idle_timeout`](crate::server::ReconServer::with_idle_timeout):
    /// both ends of the wire take the same knob, on their builders.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Driver<A> {
        self.idle_timeout = timeout;
        self
    }

    /// Connects the pool and keeps it: rounds run on the returned
    /// [`ConnectedDriver`] until [`ConnectedDriver::finish`].
    pub fn connect(self) -> io::Result<ConnectedDriver> {
        let mut pool = Vec::with_capacity(self.conns);
        for _ in 0..self.conns {
            pool.push(PoolConn::new(TcpStream::connect(&self.addr)?)?);
        }
        Ok(ConnectedDriver {
            pool,
            idle_timeout: self.idle_timeout,
        })
    }

    /// One-shot closed-loop run: connects, runs `batches[i]` on
    /// connection `i`, and tears the pool down. For a single connection
    /// pass one batch.
    pub fn batch(self, batches: Vec<Vec<SessionPlan<'_>>>) -> Result<DriverReport, NetError> {
        let mut driver = self.connect()?;
        let report = driver.batch(batches)?;
        driver.finish();
        Ok(report)
    }

    /// One-shot open-loop run: for connection `i`, session `j` of
    /// `loads[i].0` is injected at offset `loads[i].1[j]` from the
    /// run's start regardless of in-flight work; then the pool is torn
    /// down. Latency follows the coordinated-omission rule — see
    /// [`RunSession::latency`].
    pub fn load(
        self,
        loads: Vec<(Vec<SessionPlan<'_>>, Vec<Duration>)>,
    ) -> Result<DriverReport, NetError> {
        let mut driver = self.connect()?;
        let report = driver.load(loads)?;
        driver.finish();
        Ok(report)
    }
}

/// A connected driver: a pool of connections to one server, all driven
/// by a single reactor loop on the caller's thread — C connections cost
/// no thread at all. The pool persists
/// between rounds, which is what continuous sessions (and any
/// multi-round workload) need; a connection that fails mid-round takes
/// only its own sessions down and drops out of the pool.
pub struct ConnectedDriver {
    pool: Vec<PoolConn>,
    idle_timeout: Option<Duration>,
}

impl ConnectedDriver {
    /// Runs one closed-loop round; see [`Driver::batch`]. Callable
    /// repeatedly — session ids must be fresh per connection except for
    /// continuous rounds, which deliberately re-use their session's id.
    /// A connection-level failure is reported in that connection's
    /// [`transport_error`](RunReport::transport_error), never as a
    /// call-level `Err`; a refused call (`Err`) has sent nothing and
    /// used up none of its ids.
    pub fn batch(&mut self, batches: Vec<Vec<SessionPlan<'_>>>) -> Result<DriverReport, NetError> {
        self.round(batches.into_iter().map(|plans| (plans, None)).collect())
    }

    /// Runs one open-loop round; see [`Driver::load`].
    pub fn load(
        &mut self,
        loads: Vec<(Vec<SessionPlan<'_>>, Vec<Duration>)>,
    ) -> Result<DriverReport, NetError> {
        self.round(
            loads
                .into_iter()
                .map(|(plans, schedule)| (plans, Some(schedule)))
                .collect(),
        )
    }

    fn round(&mut self, plans: Vec<ConnPlan<'_>>) -> Result<DriverReport, NetError> {
        let conns = run_round(&mut self.pool, plans, self.idle_timeout)?;
        Ok(DriverReport { conns })
    }

    /// Retires a continuous session on connection `conn`: the server
    /// drops its resident party and the id's continuous standing on the
    /// connection ends. Errors if the id was never opened as continuous
    /// there.
    pub fn close_session(&mut self, conn: usize, id: u64) -> Result<(), NetError> {
        self.pool
            .get_mut(conn)
            .ok_or(NetError::Malformed("no such connection in the pool"))?
            .retire(id)
    }

    /// How many connections the pool was built with.
    pub fn conns(&self) -> usize {
        self.pool.len()
    }

    /// Connections still usable for further rounds.
    pub fn live_conns(&self) -> usize {
        self.pool.iter().filter(|c| c.is_live()).count()
    }

    /// Half-closes every live connection and drains the server's EOFs,
    /// bounded by a grace period.
    pub fn finish(self) {
        drain_pool(self.pool);
    }
}
