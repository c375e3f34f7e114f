//! The client's round engine: [`run_round`] drives every session of a
//! round, on every pooled connection, from one readiness reactor on the
//! caller's thread, and writes the [`RunReport`]s the
//! [`Driver`](crate::Driver) surface returns.
//!
//! The client plays **Alice** for every session it runs. A one-shot
//! session `OPEN`s — optionally carrying a negotiated [`SessionSpec`] so
//! the server can build its Bob half from the wire instead of
//! out-of-band trace state — and settles on the server's `DONE`. A
//! continuous round queues its delta `FRAME` (round 0 after its `OPEN`)
//! and settles when the server's one reply `FRAME` arrives.
//!
//! Every local half, of either kind, lives in its session's [`Slot`]
//! between wakes, and every wake steps it right where the record that
//! wakes it was read. The reactor loop owns every socket: nonblocking
//! reads run through the incremental record decoder, routed to slots by
//! id — wake-on-frame, each record waking exactly one half — while
//! produced frames queue per connection and drain as sockets accept
//! them. No reader threads, no writer threads, no workers: a client
//! drives C connections on the caller's thread alone.
//!
//! The loop itself keeps only what is cross-connection — the poll set
//! and the termination test. Everything per-connection is a phase on
//! [`RoundConn`], run in a fixed order each iteration: inject what is
//! due, flush and sweep deadlines, contribute poll interest, drain a
//! readable socket, and finally turn into the connection's report.
//!
//! Failure is scoped tightly. A session-level failure (local decode
//! error, server error status) marks that one session failed and the
//! round carries on. A *connection*-level failure — abrupt disconnect,
//! truncated record, idle timeout — settles every unsettled session on
//! that connection with an error and drops its local half, and leaves
//! every other connection's sessions untouched; it is that connection's
//! [`transport_error`](RunReport::transport_error), never a call-level
//! `Err`. Connections stay pooled between rounds; one that failed or
//! was closed by the server drops out of the pool.

use crate::codec::{NetError, Record, SessionSpec, STATUS_OK, STATUS_SESSION_ERROR};
use crate::driver::{RunReport, RunSession};
use crate::reactor::{sooner, timed_out, ConnIo, READ_CHUNK};
use crate::server::NetSession;
use netpoll::{PollFd, POLLIN};
use rsr_core::channel::Frame;
use rsr_core::continuous::{AliceRound, ContinuousError, SharedParty};
use rsr_core::executor::Half;
use rsr_core::transcript::{Party, Transcript};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One session a round will run: its wire id, the Alice half, and an
/// optional [`SessionSpec`] to carry on the `OPEN` so the server builds
/// its Bob half from the wire instead of out-of-band state.
pub struct SessionPlan<'s> {
    /// The session id to use on the wire — unique per connection across
    /// the connection's whole lifetime (rounds included), except that a
    /// *continuous* session reuses its id across its rounds.
    pub id: u64,
    /// Negotiation to send with the `OPEN`; `None` sends the legacy
    /// bare open and leaves instance lookup to the server's factory.
    pub spec: Option<SessionSpec>,
    /// The local Alice half.
    pub session: Box<dyn NetSession + 's>,
    /// For a continuous session, the round index this plan drives:
    /// `Some(0)` opens the session (the spec must be marked continuous)
    /// and runs round 0; `Some(r > 0)` runs round `r` on the
    /// already-open id, sending only the round's delta `FRAME`. `None`
    /// is an ordinary one-shot session.
    pub round: Option<u32>,
}

impl<'s> SessionPlan<'s> {
    /// A plan with no negotiation spec (the server's factory resolves
    /// the id by itself).
    pub fn new(id: u64, session: Box<dyn NetSession + 's>) -> SessionPlan<'s> {
        SessionPlan {
            id,
            spec: None,
            session,
            round: None,
        }
    }

    /// Attaches a negotiation spec to send with the `OPEN`.
    pub fn with_spec(mut self, spec: SessionSpec) -> SessionPlan<'s> {
        self.spec = Some(spec);
        self
    }

    /// Opens a **continuous** session: sends `OPEN` with `spec` marked
    /// continuous, then drives round 0 of `party` (which must be fresh —
    /// no rounds settled yet). The server's factory builds its resident
    /// Bob half from the spec; later rounds ride
    /// [`SessionPlan::next_round`] under the same id.
    pub fn open_continuous(
        id: u64,
        spec: SessionSpec,
        party: &SharedParty,
    ) -> Result<SessionPlan<'static>, ContinuousError> {
        let alice = AliceRound::begin(party)?;
        let round = alice.round();
        if round != 0 {
            // Dropping the unstarted round rolls the party back.
            return Err(ContinuousError::Round(format!(
                "open_continuous needs a fresh party, this one is at round {round}"
            )));
        }
        Ok(SessionPlan {
            id,
            spec: Some(spec.into_continuous()),
            session: Box::new(alice),
            round: Some(0),
        })
    }

    /// Drives the next incremental round of an already-open continuous
    /// session: only the delta `FRAME` travels, no `OPEN`. After a failed
    /// round the id stays open on the server, so this is also the retry.
    pub fn next_round(
        id: u64,
        party: &SharedParty,
    ) -> Result<SessionPlan<'static>, ContinuousError> {
        let alice = AliceRound::begin(party)?;
        let round = alice.round();
        Ok(SessionPlan {
            id,
            spec: None,
            session: Box::new(alice),
            round: Some(round),
        })
    }
}

/// Per-session error when the transport under it died.
const FAILED_BEFORE_SETTLE: &str = "connection failed before session settled";
/// Per-session error when the server closed cleanly first.
const CLOSED_BEFORE_SETTLE: &str = "connection closed before session settled";
/// Per-session error when the server settled a session (or a round)
/// its local half has not finished.
const INCOMPLETE: &str = "server finished but the local session is incomplete";

/// How long a round keeps trying to drain already-queued output after
/// every session resolved, before giving the connection up as wedged.
const FLUSH_GRACE: Duration = Duration::from_secs(5);
/// How long [`drain_pool`] waits for the server's EOFs.
const FINISH_GRACE: Duration = Duration::from_secs(5);

/// One connection's share of a round: its sessions plus, in open-loop
/// mode, their arrival schedule.
pub(crate) type ConnPlan<'s> = (Vec<SessionPlan<'s>>, Option<Vec<Duration>>);

/// A pooled connection between rounds.
pub(crate) struct PoolConn {
    /// The live socket, or why it is gone — surfaced when a later round
    /// still names this connection.
    link: Result<ConnIo, String>,
    /// Session ids ever used on this connection; reuse would collide
    /// with the server's per-connection id map.
    used: HashSet<u64>,
    /// Ids opened as continuous sessions — the one sanctioned form of
    /// id reuse: each later round names the same id again.
    continuous: HashSet<u64>,
}

impl PoolConn {
    pub(crate) fn new(stream: TcpStream) -> io::Result<PoolConn> {
        Ok(PoolConn {
            link: Ok(ConnIo::new(stream)?),
            used: HashSet::new(),
            continuous: HashSet::new(),
        })
    }

    /// Still usable for further rounds.
    pub(crate) fn is_live(&self) -> bool {
        self.link.is_ok()
    }

    /// Retires a continuous session: sends `DONE` under its id so the
    /// server drops the resident party, and frees the id's continuous
    /// standing on this connection. Queued output is flushed best-effort
    /// here and drains fully on the next round or in [`drain_pool`].
    pub(crate) fn retire(&mut self, id: u64) -> Result<(), NetError> {
        if !self.continuous.remove(&id) {
            return Err(NetError::Malformed(
                "id is not open as a continuous session on this connection",
            ));
        }
        // A dead connection already took the server-side state with it.
        let Ok(io) = self.link.as_mut() else {
            return Ok(());
        };
        io.queue(&Record::Done {
            session: id,
            status: STATUS_OK,
            message: String::new(),
        })?;
        io.try_flush()
    }
}

/// Validates a whole call — every plan on every connection — and
/// changes nothing: ids are committed by [`RoundConn::new`] only once
/// the call is accepted, so a refused call leaves the pool exactly as
/// it was and a corrected retry may name the same ids.
fn admit(pool: &[PoolConn], plans: &[ConnPlan<'_>]) -> Result<(), NetError> {
    if plans.len() != pool.len() {
        return Err(NetError::Malformed("one session plan per connection"));
    }
    for (conn, (sessions, schedule)) in pool.iter().zip(plans) {
        if let Some(schedule) = schedule {
            if schedule.len() != sessions.len() {
                return Err(NetError::Malformed(
                    "arrival schedule length must match session count",
                ));
            }
            if schedule.windows(2).any(|w| w[0] > w[1]) {
                return Err(NetError::Malformed(
                    "arrival schedule must be non-decreasing",
                ));
            }
        }
        let mut seen = HashSet::with_capacity(sessions.len());
        for s in sessions {
            if !seen.insert(s.id) {
                return Err(NetError::Malformed("duplicate session id in batch"));
            }
            let continuous_spec = s.spec.as_ref().is_some_and(|spec| spec.continuous);
            let refusal = match s.round {
                // One-shot sessions and continuous opens burn a fresh id.
                None | Some(0) if conn.used.contains(&s.id) => {
                    "session id reused on this connection"
                }
                Some(0) if !continuous_spec => "continuous round 0 needs a spec marked continuous",
                None if continuous_spec => "a continuous spec needs a round index on its plan",
                // Later rounds are the sanctioned reuse — but only of an
                // id this connection actually opened as continuous.
                Some(1..) if !conn.continuous.contains(&s.id) => {
                    "continuous round for a session this connection never opened"
                }
                _ => continue,
            };
            return Err(NetError::Malformed(refusal));
        }
    }
    Ok(())
}

/// Engine-side state of one session of a round, beside the
/// [`RunSession`] the report carries for it.
struct Slot<'s> {
    /// The local Alice half between wakes — a one-shot session or a
    /// continuous round alike. It is at home or does not exist.
    half: Option<Box<Half<'s>>>,
    /// A continuous round: it settles when the server's one reply
    /// `FRAME` arrives — the reply is the ack — not on `DONE`.
    round: bool,
    /// The server said `DONE` (or we abandoned / lost the connection):
    /// nothing further is expected on the wire for it.
    settled: bool,
    /// The local half finished, failed or was dropped, and its
    /// transcript is in the report. (Also set directly for sessions
    /// that were never injected.)
    local_done: bool,
}

impl Slot<'_> {
    fn resolved(&self) -> bool {
        self.settled && self.local_done
    }
}

/// Sessions already on the wire (`injected` = the slots before
/// `next_up`) and not yet settled — the ones an idle deadline protects.
fn in_flight(injected: &[Slot<'_>]) -> bool {
    injected.iter().any(|s| !s.settled)
}

fn all_resolved(slots: &[Slot<'_>]) -> bool {
    slots.iter().all(Slot::resolved)
}

/// One connection's state machine while a round runs. It borrows the
/// pooled socket and writes the connection's [`RunReport`] in place.
struct RoundConn<'p, 's> {
    /// The socket, while this connection can carry traffic: `None` once
    /// it failed or the server closed it — this round or an earlier one.
    io: Option<&'p mut ConnIo>,
    /// Why the connection leaves the pool after this round, if it does.
    gone: Option<String>,
    /// What the round returns for this connection.
    report: RunReport,
    /// Parallel to `report.sessions`.
    slots: Vec<Slot<'s>>,
    wire_to_slot: HashMap<u64, usize>,
    pending: std::vec::IntoIter<SessionPlan<'s>>,
    /// Open-loop arrival offsets from `t0`; `None` injects everything at
    /// once and leaves the per-session timing fields unset.
    schedule: Option<Vec<Duration>>,
    next_up: usize,
    /// The socket's byte counters when the round started.
    base_in: u64,
    base_out: u64,
    /// Set when every slot resolved but output is still draining.
    flush_deadline: Option<Instant>,
    /// The round's shared clock.
    t0: Instant,
    idle_timeout: Option<Duration>,
}

impl<'p, 's> RoundConn<'p, 's> {
    /// Commits an admitted plan's ids to the connection and sets up its
    /// round. Sessions planned for a connection an earlier round lost
    /// resolve at once with the reason it is gone.
    fn new(
        conn: &'p mut PoolConn,
        (sessions, schedule): ConnPlan<'s>,
        t0: Instant,
        idle_timeout: Option<Duration>,
    ) -> RoundConn<'p, 's> {
        for s in &sessions {
            conn.used.insert(s.id);
            if s.round == Some(0) {
                conn.continuous.insert(s.id);
            }
        }
        let (io, lost) = match &mut conn.link {
            Ok(io) => (Some(io), None),
            Err(why) => (None, Some(why.clone())),
        };
        let report = RunReport {
            sessions: sessions
                .iter()
                .enumerate()
                .map(|(i, s)| RunSession {
                    id: s.id,
                    transcript: Transcript::new(),
                    error: lost.clone(),
                    scheduled: schedule.as_ref().map(|at| at[i]),
                    injected: None,
                    settled: None,
                })
                .collect(),
            ..RunReport::default()
        };
        let slots = sessions
            .iter()
            .map(|s| Slot {
                half: None,
                round: s.round.is_some(),
                settled: lost.is_some(),
                local_done: lost.is_some(),
            })
            .collect();
        RoundConn {
            base_in: io.as_ref().map_or(0, |io| io.wire_bytes_in),
            base_out: io.as_ref().map_or(0, |io| io.wire_bytes_out),
            io,
            gone: None,
            report,
            slots,
            wire_to_slot: sessions
                .iter()
                .enumerate()
                .map(|(i, s)| (s.id, i))
                .collect(),
            pending: sessions.into_iter(),
            schedule,
            next_up: 0,
            flush_deadline: None,
            t0,
            idle_timeout,
        }
    }

    /// Stamps slot `s`'s settle time on its transition to fully
    /// settled. Open-loop only: batch runs report no per-session timing.
    fn note_progress(&mut self, s: usize) {
        let session = &mut self.report.sessions[s];
        if self.schedule.is_some() && self.slots[s].resolved() && session.settled.is_none() {
            session.settled = Some(self.t0.elapsed());
        }
    }

    /// Queues `record` unless the connection is already gone.
    fn queue(&mut self, record: &Record) -> Result<(), NetError> {
        match self.io.as_deref_mut() {
            Some(io) => io.queue(record),
            None => Ok(()),
        }
    }

    /// Reports the bytes the socket moved since the round started.
    fn tally(&mut self, io: &ConnIo) {
        self.report.wire_bytes_in = io.wire_bytes_in - self.base_in;
        self.report.wire_bytes_out = io.wire_bytes_out - self.base_out;
    }

    /// Stops using the socket: its byte counts go into the report and
    /// the pool is told `why` the connection left it.
    fn unlink(&mut self, why: String) -> Option<&'p mut ConnIo> {
        let io = self.io.take()?;
        self.tally(io);
        self.gone = Some(why);
        Some(io)
    }

    /// Marks the connection failed mid-round: kills the socket and
    /// settles every unsettled session with an error. A connection that
    /// is already gone has nothing left to fail.
    fn fail(&mut self, e: NetError) {
        let Some(io) = self.unlink(e.to_string()) else {
            return;
        };
        if rsr_obs::enabled() {
            let unsettled = self.slots.iter().filter(|s| !s.settled).count();
            rsr_obs::global_ring().push(
                "net_client_conn_failed",
                unsettled as u64,
                io.wire_bytes_in,
            );
        }
        io.kill();
        let msg = format!("{FAILED_BEFORE_SETTLE}: {e}");
        self.report.transport_error = Some(e);
        self.settle_leftovers(&msg);
    }

    /// The server closed its side cleanly; anything unsettled becomes a
    /// per-session error but the report carries no transport error.
    fn close_clean(&mut self) {
        if self.unlink("connection closed by server".into()).is_some() {
            self.settle_leftovers(CLOSED_BEFORE_SETTLE);
        }
    }

    /// Settles every unsettled session with `msg` and drops its local
    /// half, so the round can terminate instead of waiting on it
    /// forever.
    fn settle_leftovers(&mut self, msg: &str) {
        for s in 0..self.slots.len() {
            let slot = &mut self.slots[s];
            if slot.settled {
                continue;
            }
            slot.settled = true;
            self.report.sessions[s]
                .error
                .get_or_insert_with(|| msg.to_owned());
            match slot.half.take() {
                Some(half) => self.finish_half(s, *half, Some(INCOMPLETE.into())),
                // Never injected, its half already finished, or it is
                // the half stepping now, which closes when its step ends.
                None => slot.local_done = true,
            }
            self.note_progress(s);
        }
    }

    /// Phase 1: injects every session that is due (all of them at once
    /// without a schedule).
    fn inject_due(&mut self) {
        let elapsed = self.t0.elapsed();
        while self.next_up < self.slots.len() {
            let Some(io) = self.io.as_deref_mut() else {
                return;
            };
            let s = self.next_up;
            if self.schedule.as_ref().is_some_and(|at| elapsed < at[s]) {
                return;
            }
            let plan = self.pending.next().expect("pending matches slots");
            io.last_activity = Instant::now();
            if self.schedule.is_some() {
                self.report.sessions[s].injected = Some(self.t0.elapsed());
            }
            self.next_up += 1;
            // A one-shot session and round 0 open the id (round 0's spec
            // marked continuous); a later round sends only its delta —
            // the id is already resident on the server.
            if plan.round.is_none_or(|round| round == 0) {
                let open = Record::Open {
                    session: plan.id,
                    spec: plan.spec,
                };
                if let Err(e) = self.queue(&open) {
                    self.fail(e);
                    continue;
                }
            }
            self.wake(s, Box::new(Half::new(Party::Alice, plan.session)), None);
        }
    }

    /// Steps slot `s`'s half once with `incoming` (its opening say when
    /// `None`), here on the caller's thread, queueing what it says; then
    /// keeps it in the slot for its next frame, or closes it.
    fn wake(&mut self, s: usize, mut half: Box<Half<'s>>, incoming: Option<Frame>) {
        let session = self.report.sessions[s].id;
        let outcome = half.step(incoming, |frame| {
            self.report.frames_out += 1;
            if let Err(e) = self.queue(&Record::Frame { session, frame }) {
                self.fail(e);
            }
        });
        let slot = &mut self.slots[s];
        let error = match outcome {
            Ok(false) if !slot.settled => return slot.half = Some(half),
            Ok(false) => Some(INCOMPLETE.to_owned()),
            Ok(true) => None,
            Err(e) => Some(e),
        };
        self.finish_half(s, *half, error);
    }

    /// Closes slot `s`'s local half: its transcript goes into the report
    /// and `error`, if any, onto the session.
    fn finish_half(&mut self, s: usize, half: Half<'s>, error: Option<String>) {
        let session = &mut self.report.sessions[s];
        session.transcript = half.into_transcript();
        let slot = &mut self.slots[s];
        slot.local_done = true;
        let mut abandon = None;
        if let Some(e) = error {
            // A local failure before the server settled abandons the
            // session, so a Bob blocked on this Alice cannot wedge the
            // connection. A round settled there once its reply arrived.
            if !slot.settled {
                slot.settled = true;
                abandon = Some(Record::Done {
                    session: session.id,
                    status: STATUS_SESSION_ERROR,
                    message: e.clone(),
                });
            }
            session.error.get_or_insert(e);
        }
        self.note_progress(s);
        if let Some(Err(e)) = abandon.map(|done| self.queue(&done)) {
            self.fail(e);
        }
    }

    /// Phase 2: flushes queued output, then sweeps the idle deadline
    /// and the post-resolution flush deadline.
    fn flush_and_sweep(&mut self, now: Instant) {
        let Some(io) = self.io.as_deref_mut() else {
            return;
        };
        let mut failure = io.try_flush().err();
        if failure.is_none() && in_flight(&self.slots[..self.next_up]) {
            if let Some(idle) = io.idle_expired(now, self.idle_timeout) {
                failure = Some(timed_out(format!(
                    "no wire activity for {idle:?} with sessions in flight"
                )));
            }
        }
        if failure.is_none() && all_resolved(&self.slots) && io.wants_write() {
            let deadline = *self.flush_deadline.get_or_insert(now + FLUSH_GRACE);
            if now >= deadline {
                failure = Some(timed_out(
                    "output stalled after every session resolved".into(),
                ));
            }
        }
        if let Some(e) = failure {
            self.fail(e);
        }
    }

    /// The termination test's share: every slot resolved and, while the
    /// connection lives, its output drained.
    fn round_over(&self) -> bool {
        all_resolved(&self.slots) && !self.io.as_deref().is_some_and(ConnIo::wants_write)
    }

    /// Phase 3: this connection's poll interest, with its nearest wake-up
    /// — next scheduled arrival, idle deadline, flush deadline — folded
    /// into `deadline`.
    fn poll_interest(&self, deadline: &mut Option<Instant>) -> Option<PollFd> {
        let io = self.io.as_deref()?;
        if let Some(schedule) = &self.schedule {
            if self.next_up < self.slots.len() {
                sooner(deadline, self.t0 + schedule[self.next_up]);
            }
        }
        if in_flight(&self.slots[..self.next_up]) {
            if let Some(at) = io.idle_deadline(self.idle_timeout) {
                sooner(deadline, at);
            }
        }
        if let Some(flush) = self.flush_deadline {
            sooner(deadline, flush);
        }
        io.poll_fd()
    }

    /// Phase 4: drains a readable socket, waking the halves its records
    /// address.
    fn drain_readable(&mut self, scratch: &mut [u8]) {
        while let Some(io) = self.io.as_deref_mut() {
            let routed = match io.read_record(scratch) {
                Ok(Some(record)) => self.route_server_record(record),
                Ok(None) if io.read_closed => return self.close_clean(),
                Ok(None) => return,
                Err(e) => Err(e),
            };
            if let Err(e) = routed {
                return self.fail(e);
            }
        }
    }

    /// Applies one server record. `Err` means the server violated the
    /// record contract and the connection is done for.
    fn route_server_record(&mut self, record: Record) -> Result<(), NetError> {
        match record {
            Record::Open { .. } => Err(NetError::Malformed("server sent an open record")),
            Record::Frame { session, frame } => {
                let s = self.lookup(session)?;
                self.report.frames_in += 1;
                let slot = &mut self.slots[s];
                // A round's one reply frame is the server's ack: the
                // round settled there. Settled first, a local failure on
                // the reply does not DONE the id away server-side.
                slot.settled |= slot.round;
                match slot.half.take() {
                    Some(half) => self.wake(s, half, Some(frame)),
                    // Stale: its half already closed.
                    None => self.note_progress(s),
                }
                Ok(())
            }
            Record::Done {
                session,
                status,
                message,
            } => {
                let s = self.lookup(session)?;
                self.slots[s].settled = true;
                if status != STATUS_OK {
                    let e = format!("server status {status}: {message}");
                    self.report.sessions[s].error.get_or_insert(e);
                }
                // A half still at home closes (a round's rolls back).
                match self.slots[s].half.take() {
                    Some(half) => self.finish_half(s, *half, Some(INCOMPLETE.into())),
                    None => self.note_progress(s),
                }
                Ok(())
            }
        }
    }

    /// Resolves a wire session id to its slot index; a record for an id
    /// this round never injected is a contract violation.
    fn lookup(&self, wire: u64) -> Result<usize, NetError> {
        self.wire_to_slot
            .get(&wire)
            .copied()
            .filter(|&s| s < self.next_up)
            .ok_or(NetError::Malformed(
                "record for a session id not in the batch",
            ))
    }

    /// Phase 5: the connection's finished report, and why it leaves the
    /// pool if it does. `loop_end` is when the round's loop ended on the
    /// shared clock, `wall` the wall clock around the whole round.
    fn finish(mut self, loop_end: Duration, wall: Duration) -> (RunReport, Option<String>) {
        if let Some(io) = self.io.take() {
            self.tally(io);
        }
        let mut report = self.report;
        if self.schedule.is_none() {
            report.elapsed = wall;
            return (report, self.gone);
        }
        for session in &mut report.sessions {
            if session.injected.is_none() {
                session.injected = Some(loop_end);
                session.error.get_or_insert_with(|| {
                    "load run ended before this session was injected".into()
                });
            }
        }
        // The honest span: to the last settle when everything completed,
        // to the loop's end when anything failed or never settled.
        let last_settle = report.sessions.iter().filter_map(|s| s.settled).max();
        report.elapsed = match last_settle {
            Some(at) if report.failed() == 0 => at,
            _ => loop_end,
        };
        (report, self.gone)
    }
}

/// Runs one round: admits `plans` (one per pooled connection, in pool
/// order), injects each connection's sessions — on schedule in
/// open-loop mode, immediately otherwise — routes wire records to the
/// halves they wake, and runs until every session on every connection is
/// resolved. Returns one report per connection; `Err` only for a
/// refused call, never for connection failures (those are
/// per-connection outcomes). Connections that failed or were closed by
/// the server drop out of the pool.
pub(crate) fn run_round<'s>(
    pool: &mut [PoolConn],
    plans: Vec<ConnPlan<'s>>,
    idle_timeout: Option<Duration>,
) -> Result<Vec<RunReport>, NetError> {
    let entered = Instant::now();
    admit(pool, &plans)?;
    let t0 = Instant::now();
    let mut state: Vec<RoundConn<'_, 's>> = pool
        .iter_mut()
        .zip(plans)
        .map(|(conn, plan)| RoundConn::new(conn, plan, t0, idle_timeout))
        .collect();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_conns: Vec<usize> = Vec::new();
    loop {
        for rc in &mut state {
            rc.inject_due();
        }

        let now = Instant::now();
        for rc in &mut state {
            rc.flush_and_sweep(now);
        }

        if state.iter().all(RoundConn::round_over) {
            break;
        }

        // Wait for readiness: sockets, the next scheduled arrival, or the
        // nearest idle/flush deadline.
        fds.clear();
        fd_conns.clear();
        let mut deadline: Option<Instant> = None;
        for (c, rc) in state.iter().enumerate() {
            if let Some(fd) = rc.poll_interest(&mut deadline) {
                fds.push(fd);
                fd_conns.push(c);
            }
        }
        let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        if rsr_obs::enabled() {
            crate::obs::net_metrics().client_polls.inc();
        }
        if let Err(e) = netpoll::wait(&mut fds, timeout) {
            // Poll failure is unrecoverable for the whole round: fail
            // every live connection and settle out.
            for rc in &mut state {
                rc.fail(io::Error::new(e.kind(), e.to_string()).into());
            }
            continue;
        }

        for (fd, &c) in fds.iter().zip(&fd_conns) {
            if fd.readable() {
                state[c].drain_readable(&mut scratch);
            }
        }
    }
    let loop_end = t0.elapsed();

    let wall = entered.elapsed();
    let (reports, gone): (Vec<_>, Vec<_>) = state
        .into_iter()
        .map(|rc| rc.finish(loop_end, wall))
        .unzip();
    for (conn, why) in pool.iter_mut().zip(gone) {
        if let Some(why) = why {
            conn.link = Err(why);
        }
    }
    Ok(reports)
}

/// Half-closes every live connection (shutdown of the write side — the
/// server sees EOF, finishes, and closes) and drains the read sides to
/// EOF, bounded by a grace period. Errors at this point are ignored:
/// the connections are being thrown away.
pub(crate) fn drain_pool(pool: Vec<PoolConn>) {
    let mut ios: Vec<ConnIo> = pool.into_iter().filter_map(|c| c.link.ok()).collect();
    for io in &ios {
        io.shutdown_write();
    }
    let deadline = Instant::now() + FINISH_GRACE;
    let mut scratch = vec![0u8; READ_CHUNK];
    while !ios.is_empty() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let mut fds: Vec<PollFd> = ios.iter().map(|io| PollFd::new(io.fd(), POLLIN)).collect();
        if netpoll::wait(&mut fds, Some(deadline - now)).is_err() {
            return;
        }
        let mut keep = Vec::with_capacity(ios.len());
        for (io, fd) in ios.into_iter().zip(&fds) {
            let mut io = io;
            if !fd.readable() || !io.drain_read(&mut scratch) {
                keep.push(io);
            }
        }
        ios = keep;
    }
}
