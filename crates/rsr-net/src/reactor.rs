//! The readiness reactor: nonblocking sockets polled by `netpoll`, and
//! every session half stepped on the reactor that reads its record.
//!
//! This module holds what both endpoints are built from — [`ConnIo`]
//! (one socket's record stream) and the deadline helpers — and the
//! server's half: [`ServerConn`], one connection's state machine, and
//! [`run_server_reactor`], the loop that drives the connections one
//! reactor accepted. The client's half (`client.rs`) is the same shape
//! over the same pieces.
//!
//! * Every connection's stream runs in nonblocking mode; one `poll(2)`
//!   per iteration multiplexes read/write readiness across all of the
//!   reactor's connections (plus the listener, while the accept budget
//!   lasts).
//! * Incoming bytes run through the incremental
//!   [`RecordDecoder`](crate::codec::RecordDecoder); each complete record
//!   wakes the one session half it addresses.
//! * **The connection owns every half, and the reactor steps it.** A
//!   wire id's row ([`Entry`]) keeps its half between wakes — a one-shot
//!   session or a continuous round alike — and the record that wakes it
//!   runs one [`Half::step`] right here, before the next record is read.
//!   The paper's protocols strictly alternate, so a half never has a
//!   second wake pending while it steps.
//! * A server runs R reactors (`ReconServer::with_shards(R)`). They share
//!   the listener and an accept budget; a reactor accepts at most one
//!   connection per wake, so a burst of connects spreads over the
//!   reactors that are free, and a connection stays on the reactor that
//!   accepted it for its life.
//! * Outgoing records queue in a per-connection buffer and drain as the
//!   socket accepts them. Control replies (unknown session id, duplicate
//!   `OPEN`) go straight to the same buffer.
//!
//! Everything a server connection knows about a wire id is one row of
//! one table ([`Entry`]: the half, the resident continuous party, the
//! summary), and one function — [`ServerConn::admit`] — decides what a
//! record may do with the id it names; `docs/transport.md` prints that
//! decision as a table. Each loop iteration runs the connection's
//! phases in a fixed order: `poll_interest`, then (after the poll and
//! the accept) `drain_readable` → `on_record`, `flush_and_sweep`, and
//! `finish` once the connection has nothing left to do.
//!
//! Disconnects are first-class: EOF mid-record is a truncation error, a
//! half still in flight when its connection ends closes with
//! [`CLOSED_MID_SESSION`], and a connection that goes silent past the
//! idle deadline is torn down instead of pinned forever. One
//! connection's death never touches sessions on another connection.

use crate::codec::{
    write_record, NetError, Record, RecordDecoder, SessionSpec, STATUS_OK, STATUS_SESSION_ERROR,
    STATUS_UNKNOWN_SESSION,
};
use crate::obs::net_metrics;
use crate::server::{ConnectionReport, SessionFactory, SessionSummary};
use netpoll::{listener_fd, stream_fd, PollFd, POLLIN, POLLOUT};
use rsr_core::channel::Frame;
use rsr_core::continuous::{BobRound, SharedParty};
use rsr_core::executor::Half;
use rsr_core::transcript::{Party, Transcript};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Close reason for sessions the client abandoned via `DONE`; the
/// reactor recognizes it and does not echo a `DONE` back.
pub(crate) const ABANDONED: &str = "abandoned by client";
/// Error recorded for sessions still live when their connection went
/// away (EOF, transport failure, or idle teardown).
pub(crate) const CLOSED_MID_SESSION: &str = "connection closed mid-session";

/// How long a server connection may sit with no wire activity before
/// the reactor tears it down (override with
/// [`ReconServer::with_idle_timeout`](crate::server::ReconServer::with_idle_timeout)).
/// Without a deadline a client that connects and never speaks — or dies
/// without a FIN reaching us — would hold its connection state forever.
pub(crate) const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a reactor that shares the accept budget with others wakes
/// while it polls the listener, to see whether another reactor spent the
/// last of the budget (or failed and zeroed it): nothing else would end
/// its wait once no connection is left to arrive.
pub(crate) const BUDGET_RECHECK: Duration = Duration::from_millis(20);

/// Read-chunk size for draining a readable socket.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Folds `at` into `deadline`, keeping whichever comes sooner.
pub(crate) fn sooner(deadline: &mut Option<Instant>, at: Instant) {
    *deadline = Some(deadline.map_or(at, |d| d.min(at)));
}

/// The transport error for `what` running out of time.
pub(crate) fn timed_out(what: String) -> NetError {
    io::Error::new(io::ErrorKind::TimedOut, what).into()
}

/// Nonblocking record-stream state for one connection: incremental
/// decode on the way in, a drain-as-writable buffer on the way out,
/// plus the activity clock and wire-byte accounting both endpoints
/// report.
pub(crate) struct ConnIo {
    stream: TcpStream,
    decoder: RecordDecoder,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// We saw EOF (or gave up on the read half).
    pub read_closed: bool,
    pub last_activity: Instant,
    pub wire_bytes_in: u64,
    pub wire_bytes_out: u64,
}

impl ConnIo {
    pub fn new(stream: TcpStream) -> io::Result<ConnIo> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        Ok(ConnIo {
            stream,
            decoder: RecordDecoder::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            read_closed: false,
            last_activity: Instant::now(),
            wire_bytes_in: 0,
            wire_bytes_out: 0,
        })
    }

    pub fn fd(&self) -> i32 {
        stream_fd(&self.stream)
    }

    /// This connection's entry in the next `poll(2)`; `None` when it
    /// waits for neither direction (read half closed, output drained).
    pub fn poll_fd(&self) -> Option<PollFd> {
        let mut events = 0;
        if !self.read_closed {
            events |= POLLIN;
        }
        if self.wants_write() {
            events |= POLLOUT;
        }
        (events != 0).then(|| PollFd::new(self.fd(), events))
    }

    pub fn wants_write(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }

    /// When wire silence since the last activity runs past `idle`, if a
    /// deadline is set at all. Whether the deadline *applies* — sessions
    /// in flight, no resident state — is the endpoint's call.
    pub fn idle_deadline(&self, idle: Option<Duration>) -> Option<Instant> {
        idle.map(|idle| self.last_activity + idle)
    }

    /// The deadline `idle`, if wire silence has outlasted it by `now`.
    pub fn idle_expired(&self, now: Instant, idle: Option<Duration>) -> Option<Duration> {
        idle.filter(|&idle| now.duration_since(self.last_activity) >= idle)
    }

    /// The next complete record, counting its wire bytes (only whole
    /// records count). Reads the socket — until `WouldBlock` — only when
    /// the decoder runs dry. `Ok(None)` means no more for now, or ever
    /// once [`ConnIo::read_closed`] is set: the peer closed at a record
    /// boundary. An EOF mid-record is the truncation error.
    pub fn read_record(&mut self, scratch: &mut [u8]) -> Result<Option<Record>, NetError> {
        loop {
            if let Some((record, n)) = self.decoder.next_record()? {
                self.wire_bytes_in += n;
                return Ok(Some(record));
            }
            if self.read_closed {
                return self.decoder.truncation().map_or(Ok(None), Err);
            }
            match self.stream.read(scratch) {
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    self.last_activity = Instant::now();
                    if rsr_obs::enabled() {
                        net_metrics().bytes_in.add(n as u64);
                    }
                    self.decoder.feed(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Serializes `record` into the output buffer (counted as written —
    /// the bytes are committed, the socket just hasn't taken them yet).
    pub fn queue(&mut self, record: &Record) -> Result<(), NetError> {
        let n = write_record(&mut self.outbuf, record)?;
        self.wire_bytes_out += n;
        if rsr_obs::enabled() {
            net_metrics()
                .writebuf
                .set_max((self.outbuf.len() - self.out_pos) as i64);
        }
        Ok(())
    }

    /// Writes buffered output until `WouldBlock` or the buffer drains.
    pub fn try_flush(&mut self) -> Result<(), NetError> {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection write side closed",
                    )
                    .into())
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                    if rsr_obs::enabled() {
                        net_metrics().bytes_out.add(n as u64);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > READ_CHUNK {
            // Keep the buffer from growing without bound when the peer
            // reads slower than sessions produce.
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads and discards until `WouldBlock`; returns `true` when the
    /// stream is finished (EOF or error). Used while draining a
    /// half-closed connection to its end.
    pub fn drain_read(&mut self, scratch: &mut [u8]) -> bool {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }
    }

    /// Best-effort shutdown of both halves; the conn is done for.
    pub fn kill(&mut self) {
        self.stream.shutdown(Shutdown::Both).ok();
        self.read_closed = true;
    }

    /// Half-close: no more writes from us, reads keep working.
    pub fn shutdown_write(&self) {
        self.stream.shutdown(Shutdown::Write).ok();
    }
}

/// What a connection knows about one wire id it admitted. Rows are never
/// removed: a retired id (no half, nothing resident) stays used —
/// re-opening it is a duplicate — and its summary is the report's.
struct Entry<'f> {
    /// The id's session half between wakes — a one-shot Bob, or a
    /// continuous round that has not finished — alike. It is at home or
    /// does not exist.
    half: Option<Box<Half<'f>>>,
    /// A continuous session's Bob party, resident between rounds until
    /// the client `DONE`s the id or the connection ends. A failed round
    /// rolls it back and leaves it here, so the client may retry.
    resident: Option<SharedParty>,
    summary: SessionSummary,
}

/// What [`ServerConn::admit`] lets a record do.
enum Plan<'c> {
    /// `OPEN` of a fresh id: ask the factory for its Bob half.
    Open { spec: Option<SessionSpec> },
    /// `FRAME` on a resident continuous id: run a round over `party`,
    /// with `frame` as its delta.
    Begin {
        party: &'c SharedParty,
        frame: Frame,
    },
    /// `FRAME` for the half in flight under the id.
    Route { frame: Frame },
    /// `FRAME` for an admitted id with nothing in flight and nothing
    /// resident (its session resolved or was abandoned, or its
    /// continuous session was retired): counted, then dropped.
    Stale,
    /// Client `DONE`: drop the half in flight, if any, and the resident
    /// party, if any. Ids with neither are left as they are.
    Retire,
    /// Not allowed: answer with this `DONE`.
    Refuse { status: u8, message: &'static str },
}

/// One server connection's state machine, riding on [`ConnIo`].
struct ServerConn<'f> {
    io: ConnIo,
    table: HashMap<u64, Entry<'f>>,
    /// Wire ids in open order, for the report.
    order: Vec<u64>,
    /// Rows with a half in flight and rows holding a resident party: the
    /// sums over `table` the per-iteration phases ask for, kept by the
    /// only methods that set or clear those fields.
    in_flight: usize,
    residents: usize,
    frames_in: usize,
    frames_out: usize,
    /// First transport-level failure: the socket is unusable, nothing
    /// further is queued at it, and the connection reports `Err`.
    error: Option<NetError>,
}

impl<'f> ServerConn<'f> {
    fn new(io: ConnIo) -> ServerConn<'f> {
        ServerConn {
            io,
            table: HashMap::new(),
            order: Vec::new(),
            in_flight: 0,
            residents: 0,
            frames_in: 0,
            frames_out: 0,
            error: None,
        }
    }

    fn dead(&self) -> bool {
        self.error.is_some()
    }

    /// Ready to leave the reactor: nothing more will be read and the
    /// output has drained (a dead socket drains nowhere and does not
    /// wait).
    fn finished(&self) -> bool {
        self.io.read_closed && (self.dead() || !self.io.wants_write())
    }

    /// Whether the idle deadline applies. It spares a connection at
    /// between-round quiescence — resident continuous state, no one-shot
    /// session in flight: a continuous client legitimately goes silent
    /// between churn rounds, and tearing it down would throw away the
    /// very state that makes the next round O(churn). The client owns the
    /// session lifetime (an explicit `DONE` or EOF frees the state); a
    /// connection with a session *in flight* still answers to the
    /// deadline.
    fn answers_to_idle_deadline(&self) -> bool {
        let quiescent = self.in_flight == 0 && self.residents > 0;
        !self.io.read_closed && !self.dead() && !quiescent
    }

    /// The row for `wire`, claimed on first use: from then on the id is
    /// used and the report lists it.
    fn entry(&mut self, wire: u64) -> &mut Entry<'f> {
        self.table.entry(wire).or_insert_with(|| {
            self.order.push(wire);
            Entry {
                half: None,
                resident: None,
                summary: SessionSummary {
                    id: wire,
                    transcript: Transcript::new(),
                    error: None,
                },
            }
        })
    }

    /// The single admission point: what `record` may do, given what the
    /// connection knows of the wire id it names. An `OPEN` of any
    /// flavour needs an id never admitted before; a `FRAME` needs an id
    /// that was opened, and on a resident continuous id it begins a
    /// round. Decides only — [`ServerConn::on_record`] acts.
    fn admit(&self, record: Record) -> Plan<'_> {
        let entry = self.table.get(&record.session());
        let refuse = |status, message| Plan::Refuse { status, message };
        match record {
            Record::Open { spec, .. } => match entry {
                None => Plan::Open { spec },
                Some(_) => refuse(STATUS_SESSION_ERROR, "session opened twice"),
            },
            Record::Frame { frame, .. } => match entry {
                None => refuse(STATUS_UNKNOWN_SESSION, "unknown session id"),
                Some(entry) if entry.half.is_some() => Plan::Route { frame },
                Some(entry) => match &entry.resident {
                    Some(party) => Plan::Begin { party, frame },
                    None => Plan::Stale,
                },
            },
            Record::Done { .. } => Plan::Retire,
        }
    }

    /// Applies one client record. `Err` means the record could not be
    /// honored at the transport level (a queue failure); protocol-level
    /// problems (unknown ids, duplicate opens) answer with a status
    /// `DONE` instead.
    fn on_record<F: SessionFactory + ?Sized>(
        &mut self,
        record: Record,
        factory: &'f F,
    ) -> Result<(), NetError> {
        let wire = record.session();
        match self.admit(record) {
            Plan::Refuse { status, message } => self.refuse(wire, status, message),
            // A continuous open installs resident state; round 0 runs at
            // the first FRAME.
            Plan::Open { spec: Some(spec) } if spec.continuous => {
                match factory.open_continuous(wire, &spec) {
                    Some(party) => {
                        self.entry(wire).resident = Some(party);
                        self.residents += 1;
                        Ok(())
                    }
                    None => self.refuse(
                        wire,
                        STATUS_UNKNOWN_SESSION,
                        "factory does not serve continuous sessions",
                    ),
                }
            }
            Plan::Open { spec } => match factory.open_spec(wire, spec.as_ref()) {
                Some(session) => {
                    self.start(wire, Half::new(Party::Bob, session), None);
                    Ok(())
                }
                None => self.refuse(wire, STATUS_UNKNOWN_SESSION, "unknown session id"),
            },
            // The round runs here, to completion; the party stays
            // resident whatever its outcome.
            Plan::Begin { party, frame } => {
                let bob = BobRound::begin(party);
                self.frames_in += 1;
                match bob {
                    Ok(bob) => {
                        self.start(wire, Half::new(Party::Bob, Box::new(bob)), Some(frame));
                        Ok(())
                    }
                    Err(e) => {
                        let e = e.to_string();
                        let summary = &mut self.entry(wire).summary;
                        summary.error.get_or_insert_with(|| e.clone());
                        self.refuse(wire, STATUS_SESSION_ERROR, e)
                    }
                }
            }
            Plan::Route { frame } => {
                self.frames_in += 1;
                let half = self.entry(wire).half.take().expect("admitted as in flight");
                self.wake(wire, half, Some(frame));
                Ok(())
            }
            Plan::Stale => {
                self.frames_in += 1;
                Ok(())
            }
            // The client gave up on the session; drop our half. For a
            // continuous id this is the orderly whole-session teardown:
            // the resident party is freed, the settled rounds' summary
            // stays.
            Plan::Retire => {
                let Some(entry) = self.table.get_mut(&wire) else {
                    return Ok(());
                };
                if entry.resident.take().is_some() {
                    self.residents -= 1;
                }
                if let Some(half) = entry.half.take() {
                    self.settle(wire, *half, Some(ABANDONED.into()));
                }
                Ok(())
            }
        }
    }

    /// Answers `wire` with a status `DONE`.
    fn refuse(
        &mut self,
        wire: u64,
        status: u8,
        message: impl Into<String>,
    ) -> Result<(), NetError> {
        self.io.queue(&Record::Done {
            session: wire,
            status,
            message: message.into(),
        })
    }

    /// Puts `half` in flight under `wire` (claiming the row) and wakes
    /// it.
    fn start(&mut self, wire: u64, half: Half<'f>, incoming: Option<Frame>) {
        self.in_flight += 1;
        self.wake(wire, Box::new(half), incoming);
    }

    /// Steps `wire`'s half once with `incoming`, here on the reactor
    /// thread, queueing what it says; then keeps it in the row for its
    /// next frame, or closes it.
    fn wake(&mut self, wire: u64, mut half: Box<Half<'f>>, incoming: Option<Frame>) {
        let outcome = half.step(incoming, |frame| self.send(wire, frame));
        let error = match outcome {
            Ok(false) => return self.entry(wire).half = Some(half),
            Ok(true) => None,
            Err(e) => Some(e),
        };
        self.settle(wire, *half, error);
    }

    /// Closes `wire`'s half for good: its transcript joins the summary,
    /// and the client hears the outcome — `DONE(0)` for a finished
    /// one-shot session (a round's reply frame was its answer), `DONE(1)`
    /// for an error, nothing when the client or the connection left.
    fn settle(&mut self, wire: u64, half: Half<'f>, error: Option<String>) {
        self.in_flight -= 1;
        let entry = self.entry(wire);
        entry.summary.transcript.append(half.into_transcript());
        let (status, message) = match error {
            None if entry.resident.is_some() => return,
            None => (STATUS_OK, String::new()),
            Some(e) => {
                entry.summary.error.get_or_insert_with(|| e.clone());
                if e == ABANDONED || e == CLOSED_MID_SESSION {
                    return;
                }
                (STATUS_SESSION_ERROR, e)
            }
        };
        self.reply(&Record::Done {
            session: wire,
            status,
            message,
        });
    }

    /// Queues `record` at a socket that can still take it.
    fn reply(&mut self, record: &Record) {
        if !self.dead() {
            if let Err(e) = self.io.queue(record) {
                self.fail(e);
            }
        }
    }

    /// Queues one of `wire`'s frames.
    fn send(&mut self, wire: u64, frame: Frame) {
        self.frames_out += 1;
        let record = Record::Frame {
            session: wire,
            frame,
        };
        self.reply(&record);
    }

    /// Marks the connection failed: the first error sticks and the
    /// socket is shut down.
    fn fail(&mut self, e: NetError) {
        self.error.get_or_insert(e);
        if rsr_obs::enabled() {
            net_metrics().conns_failed.inc();
            rsr_obs::global_ring().push(
                "net_conn_failed",
                self.in_flight as u64,
                self.io.wire_bytes_in,
            );
        }
        self.io.kill();
    }

    /// This connection's poll interest, with its idle deadline — when it
    /// answers to one — folded into `deadline`.
    fn poll_interest(
        &self,
        idle: Option<Duration>,
        deadline: &mut Option<Instant>,
    ) -> Option<PollFd> {
        if self.answers_to_idle_deadline() {
            if let Some(at) = self.io.idle_deadline(idle) {
                sooner(deadline, at);
            }
        }
        self.io.poll_fd()
    }

    /// Drains a readable socket: every complete record is applied, and
    /// an EOF ends the connection's reading for good.
    fn drain_readable<F: SessionFactory + ?Sized>(&mut self, scratch: &mut [u8], factory: &'f F) {
        if self.io.read_closed {
            return;
        }
        loop {
            let applied = match self.io.read_record(scratch) {
                Ok(Some(record)) => self.on_record(record, factory),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            if let Err(e) = applied {
                return self.fail(e);
            }
        }
        if self.io.read_closed {
            // Clean EOF. Replies already queued keep draining — the peer
            // only half-closed its write side. EOF is also the implicit
            // teardown of resident continuous state: the parties drop
            // here, not with the last queued byte.
            for entry in self.table.values_mut() {
                entry.resident = None;
            }
            self.residents = 0;
        }
    }

    /// Flushes queued output, then sweeps the idle deadline.
    fn flush_and_sweep(&mut self, now: Instant, idle: Option<Duration>) {
        if self.dead() {
            return;
        }
        if let Err(e) = self.io.try_flush() {
            return self.fail(e);
        }
        if !self.answers_to_idle_deadline() {
            return;
        }
        if let Some(idle) = self.io.idle_expired(now, idle) {
            if rsr_obs::enabled() {
                net_metrics().conns_idle_closed.inc();
                rsr_obs::global_ring().push(
                    "net_idle_teardown",
                    self.in_flight as u64,
                    idle.as_millis() as u64,
                );
            }
            let e = timed_out(format!("connection idle for {idle:?}, tearing it down"));
            self.fail(e);
        }
    }

    /// The finished connection's outcome: `Ok(report)` for an orderly
    /// close (per-session errors and mid-session EOF included), `Err`
    /// when the transport itself failed.
    fn finish(mut self) -> Result<ConnectionReport, NetError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let rows = self.order.iter().filter_map(|id| self.table.remove(id));
        let summary = |mut entry: Entry<'_>| {
            // A half still waiting for the client closes with the
            // connection.
            if let Some(half) = entry.half.take() {
                entry.summary.transcript.append(half.into_transcript());
                let error = &mut entry.summary.error;
                error.get_or_insert_with(|| CLOSED_MID_SESSION.into());
            }
            entry.summary
        };
        Ok(ConnectionReport {
            sessions: rows.map(summary).collect(),
            frames_in: self.frames_in,
            frames_out: self.frames_out,
            wire_bytes_in: self.io.wire_bytes_in,
            wire_bytes_out: self.io.wire_bytes_out,
        })
    }
}

/// Runs one server reactor on the calling thread: it accepts from
/// `listener` while the shared `budget` lasts — one connection per wake,
/// claiming a unit before it calls `accept` — and serves what it
/// accepted until each connection closes, tearing a connection down
/// after `idle_timeout` of wire silence (`None` disables the sweep).
/// `recheck` bounds each wait while the listener is polled, for a
/// reactor that shares the budget with others. Finished connections are
/// handed to `sink` in completion order (see [`ServerConn::finish`]).
/// Returns once the budget is spent and every connection is finished;
/// `Err` only for listener- or poll-level failures.
pub(crate) fn run_server_reactor<F: SessionFactory + ?Sized>(
    factory: &F,
    listener: &TcpListener,
    budget: &AtomicUsize,
    recheck: Option<Duration>,
    idle_timeout: Option<Duration>,
    sink: &mut dyn FnMut(Result<ConnectionReport, NetError>),
) -> Result<(), NetError> {
    let mut conns: Vec<ServerConn<'_>> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut fds: Vec<PollFd> = Vec::new();
    // Which connection each polled fd belongs to; `None` is the listener.
    let mut fd_conns: Vec<Option<usize>> = Vec::new();
    loop {
        let accepting = budget.load(Ordering::Relaxed) > 0;
        if !accepting && conns.is_empty() {
            return Ok(());
        }
        // Wait for readiness: the listener, sockets, or the nearest
        // deadline.
        fds.clear();
        fd_conns.clear();
        let mut deadline: Option<Instant> = None;
        if accepting {
            fds.push(PollFd::new(listener_fd(listener), POLLIN));
            fd_conns.push(None);
            if let Some(every) = recheck {
                sooner(&mut deadline, Instant::now() + every);
            }
        }
        for (c, conn) in conns.iter().enumerate() {
            if let Some(fd) = conn.poll_interest(idle_timeout, &mut deadline) {
                fds.push(fd);
                fd_conns.push(Some(c));
            }
        }
        let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        netpoll::wait(&mut fds, timeout)?;
        if rsr_obs::enabled() {
            note_poll_return(&fds, &fd_conns);
        }

        if accepting && fds[0].readable() {
            if let Some(stream) = accept_one(listener, budget)? {
                let io = ConnIo::new(stream)?;
                if rsr_obs::enabled() {
                    net_metrics().conns_accepted.inc();
                    net_metrics().conns_live.inc();
                }
                conns.push(ServerConn::new(io));
            }
        }

        // Drain readable connections, stepping every half they wake.
        for (fd, c) in fds.iter().zip(&fd_conns) {
            if let (true, Some(c)) = (fd.readable(), *c) {
                conns[c].drain_readable(&mut scratch, factory);
            }
        }

        // Flush, sweep idlers, retire finished connections.
        let now = Instant::now();
        let mut c = 0;
        while c < conns.len() {
            conns[c].flush_and_sweep(now, idle_timeout);
            if !conns[c].finished() {
                c += 1;
                continue;
            }
            if rsr_obs::enabled() {
                net_metrics().conns_live.dec();
            }
            sink(conns.swap_remove(c).finish());
        }
    }
}

/// Accepts one connection when a unit of the shared `budget` is left.
/// The unit is claimed before the call and given back when the listener
/// had nothing — another reactor may have taken the connection. The
/// budget is a count that publishes no other data, so its operations
/// are `Relaxed`.
fn accept_one(listener: &TcpListener, budget: &AtomicUsize) -> Result<Option<TcpStream>, NetError> {
    let claim = budget.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1));
    if claim.is_err() {
        return Ok(None);
    }
    match listener.accept() {
        Ok((stream, _peer)) => Ok(Some(stream)),
        Err(e) => {
            budget.fetch_add(1, Ordering::Relaxed);
            match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(None),
                _ => Err(e.into()),
            }
        }
    }
}

/// Classifies one `poll(2)` return for the wake-reason counters. The
/// listener rides in the slot whose `fd_conns` entry is `None`; any
/// other ready fd is a connection. A return with no registered fd ready
/// means a deadline expired — an idle sweep, or the budget recheck — and
/// counts under `net_reactor_wakes_other`.
fn note_poll_return(fds: &[PollFd], fd_conns: &[Option<usize>]) {
    let m = net_metrics();
    m.polls.inc();
    let (mut accept, mut readable, mut writable) = (false, false, false);
    for (fd, conn) in fds.iter().zip(fd_conns) {
        if conn.is_none() {
            accept |= fd.readable();
        } else {
            readable |= fd.readable();
            writable |= fd.writable();
        }
    }
    if accept {
        m.wakes_accept.inc();
    }
    if readable {
        m.wakes_readable.inc();
    }
    if writable {
        m.wakes_writable.inc();
    }
    if !(accept || readable || writable) {
        m.wakes_other.inc();
    }
}
