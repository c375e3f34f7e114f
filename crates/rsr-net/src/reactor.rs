//! The readiness reactor: nonblocking sockets polled by `netpoll`,
//! feeding **one** shared session executor for every connection.
//!
//! This module holds what both endpoints are built from — [`ConnIo`]
//! (one socket's record stream), [`Routes`] (executor id → connection)
//! and the deadline helpers — and the server's half: [`ServerConn`], one
//! connection's state machine, and [`run_server_reactor`], the loop that
//! drives every connection of the process. The client's half
//! (`client.rs`) is the same shape over the same pieces.
//!
//! * Every connection's stream runs in nonblocking mode; a
//!   [`netpoll::Poller`] multiplexes read/write readiness across all of
//!   them (plus the listener, server-side).
//! * Incoming bytes run through the incremental
//!   [`RecordDecoder`](crate::codec::RecordDecoder); complete records
//!   are routed into **one** process-wide sharded executor
//!   ([`rsr_core::executor`]) shared by every connection. Worker-shard
//!   count is fixed at startup — total threads are `1 + shards`
//!   regardless of how many connections are live.
//! * Outgoing records queue in a per-connection buffer and drain as the
//!   socket accepts them; the executor's `notify` hook pokes the
//!   poller's waker so frames produced by worker shards interrupt a
//!   blocked `poll(2)` immediately.
//! * The reactor is the only thread touching sockets, so control
//!   replies (unknown session id, duplicate `OPEN`) are written straight
//!   to the connection's output buffer.
//! * A continuous round never enters the executor. It runs to completion
//!   on the reactor thread within the record that begins it: the
//!   client's delta `FRAME` goes through [`step`] and the reply `FRAME`
//!   is queued before the next record is read. The executor is for
//!   one-shot sessions, whose CPU-bound halves are worth a shard.
//!
//! Everything a server connection knows about a wire id is one row of
//! one table ([`Entry`]: the one-shot session in flight, the resident
//! continuous party, the summary), and one function —
//! [`ServerConn::admit`] — decides what a record may do with the id it
//! names; `docs/transport.md` prints that decision as a table. Each
//! loop iteration runs the connection's phases in a fixed order:
//! `poll_interest`, then (after the poll and the accepts)
//! `drain_readable` → `on_record`, `on_event`, `flush_and_sweep`, and
//! `finish` once the connection has nothing left to do.
//!
//! Disconnects are first-class: EOF mid-record is a truncation error,
//! EOF with sessions in flight closes each local half with
//! [`CLOSED_MID_SESSION`] so every session reports in, and a connection
//! that goes silent past the idle deadline is torn down instead of
//! pinned forever. One connection's death never touches sessions on
//! another connection — they share shards, not fate.

use crate::codec::{
    write_record, NetError, Record, RecordDecoder, SessionSpec, STATUS_OK, STATUS_SESSION_ERROR,
    STATUS_UNKNOWN_SESSION,
};
use crate::obs::net_metrics;
use crate::server::{ConnectionReport, NetSession, SessionFactory, SessionSummary};
use netpoll::{listener_fd, stream_fd, PollFd, Poller, POLLIN, POLLOUT};
use rsr_core::channel::Frame;
use rsr_core::continuous::{BobRound, SharedParty};
use rsr_core::executor::{step, with_executor_notified, ExecEvent, Injector, Notify};
use rsr_core::transcript::{Party, Transcript};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
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

/// Read-chunk size for draining a readable socket.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Placement salt for the two-choice session→shard assignment on both
/// endpoints. Fixed so a replayed trace lands on the same shards
/// everywhere.
pub(crate) const PLACEMENT_SEED: u64 = 0x2c01_ce5e_ed00_7357;

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

/// Executor id → (connection, the connection's own key for the
/// session). Wire ids are per-connection names; the shared executor
/// needs process-unique ones, handed out in submission order.
pub(crate) struct Routes<K> {
    next_exec: u64,
    live: HashMap<u64, (usize, K)>,
}

impl<K: Copy> Routes<K> {
    pub fn new() -> Routes<K> {
        Routes {
            next_exec: 0,
            live: HashMap::new(),
        }
    }

    /// A fresh executor id routed to `key` on connection `conn`.
    pub fn assign(&mut self, conn: usize, key: K) -> u64 {
        let exec = self.next_exec;
        self.next_exec += 1;
        self.live.insert(exec, (conn, key));
        exec
    }

    /// Whose event `ev` is. A session's last event (`Done`, `Stranded`)
    /// drops its route, and the executor forgets the id with it.
    pub fn resolve(&mut self, ev: &ExecEvent, injector: &mut Injector<'_>) -> (usize, K) {
        match ev {
            ExecEvent::Frame { id, .. } => self.live.get(id).copied(),
            ExecEvent::Done { id, .. } | ExecEvent::Stranded { id, .. } => {
                injector.forget(*id);
                self.live.remove(id)
            }
        }
        .expect("every executor event belongs to a routed session")
    }
}

/// What a connection knows about one wire id it admitted. Rows are never
/// removed: a retired id (`running` and `resident` both `None`) stays
/// used — re-opening it is a duplicate — and its summary is the report's.
struct Entry {
    /// The executor id of the one-shot session in flight under the id.
    running: Option<u64>,
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
    /// `FRAME` for the one-shot session in flight under the id.
    Route { exec: u64, frame: Frame },
    /// `FRAME` for an admitted id with nothing in flight and nothing
    /// resident (its session resolved, or its continuous session was
    /// retired): counted, then dropped.
    Stale,
    /// Client `DONE`: close the half in flight, if any, and drop the
    /// resident party, if any. Ids with neither are left as they are.
    Retire { exec: Option<u64> },
    /// Not allowed: answer with this `DONE`.
    Refuse { status: u8, message: &'static str },
}

/// Runs one continuous round to completion on the calling thread: Bob
/// over the resident `party`, with the client's `delta`. The delta
/// carries its round index, and `BobRound` fails the round if it
/// disagrees with the party. Returns the reply frame; `Err` is a failed
/// round, rolled back so the client may retry it.
fn serve_round(
    party: &SharedParty,
    delta: Frame,
    transcript: &mut Transcript,
) -> Result<Option<Frame>, String> {
    let mut bob = BobRound::begin(party).map_err(|e| e.to_string())?;
    let mut reply = None;
    let send = |frame| reply = Some(frame);
    step(&mut bob, Party::Bob, transcript, Some(delta), None, send)?;
    Ok(reply)
}

/// One server connection's state machine, riding on [`ConnIo`].
struct ServerConn {
    io: ConnIo,
    /// This connection's index in the reactor, for [`Routes`].
    slot: usize,
    table: HashMap<u64, Entry>,
    /// Wire ids in open order, for the report.
    order: Vec<u64>,
    /// Rows with a session in flight, and rows holding a resident party:
    /// the two sums over `table` the per-iteration phases ask for, kept
    /// by the only methods that set or clear those fields.
    in_flight: usize,
    residents: usize,
    frames_in: usize,
    frames_out: usize,
    /// First transport-level failure: the socket is unusable, nothing
    /// further is queued at it, and the connection reports `Err`.
    error: Option<NetError>,
}

impl ServerConn {
    fn new(io: ConnIo, slot: usize) -> ServerConn {
        ServerConn {
            io,
            slot,
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

    /// Ready to leave the reactor: nothing more will be read, every
    /// submitted session has reported, and the output has drained (a
    /// dead socket drains nowhere and does not wait).
    fn finished(&self) -> bool {
        self.io.read_closed && self.in_flight == 0 && (self.dead() || !self.io.wants_write())
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
    fn entry(&mut self, wire: u64) -> &mut Entry {
        self.table.entry(wire).or_insert_with(|| {
            self.order.push(wire);
            Entry {
                running: None,
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
        let running = entry.and_then(|e| e.running);
        let refuse = |status, message| Plan::Refuse { status, message };
        match record {
            Record::Open { spec, .. } => match entry {
                None => Plan::Open { spec },
                Some(_) => refuse(STATUS_SESSION_ERROR, "session opened twice"),
            },
            Record::Frame { frame, .. } => match (entry, running) {
                (None, _) => refuse(STATUS_UNKNOWN_SESSION, "unknown session id"),
                (Some(_), Some(exec)) => Plan::Route { exec, frame },
                (Some(entry), None) => match &entry.resident {
                    Some(party) => Plan::Begin { party, frame },
                    None => Plan::Stale,
                },
            },
            Record::Done { .. } => Plan::Retire { exec: running },
        }
    }

    /// Applies one client record. `Err` means the record could not be
    /// honored at the transport level (a queue failure); protocol-level
    /// problems (unknown ids, duplicate opens) answer with a status
    /// `DONE` instead.
    fn on_record<'f, F: SessionFactory + ?Sized>(
        &mut self,
        record: Record,
        factory: &'f F,
        routes: &mut Routes<u64>,
        injector: &mut Injector<'f>,
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
                    self.start(wire, session, routes, injector);
                    Ok(())
                }
                None => self.refuse(wire, STATUS_UNKNOWN_SESSION, "unknown session id"),
            },
            // The round runs here, to completion; the party stays
            // resident whatever its outcome.
            Plan::Begin { party, frame } => {
                let party = Arc::clone(party);
                self.frames_in += 1;
                let summary = &mut self.entry(wire).summary;
                match serve_round(&party, frame, &mut summary.transcript) {
                    Ok(reply) => {
                        if let Some(frame) = reply {
                            self.send(wire, frame, injector);
                        }
                        Ok(())
                    }
                    Err(e) => {
                        summary.error.get_or_insert_with(|| e.clone());
                        self.refuse(wire, STATUS_SESSION_ERROR, e)
                    }
                }
            }
            Plan::Route { exec, frame } => {
                self.frames_in += 1;
                injector.deliver(exec, frame);
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
            Plan::Retire { exec } => {
                if let Some(exec) = exec {
                    injector.close(exec, ABANDONED);
                }
                let entry = self.table.get_mut(&wire);
                if entry.and_then(|e| e.resident.take()).is_some() {
                    self.residents -= 1;
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

    /// Puts a fresh id's one-shot `session` in flight under `wire`.
    fn start<'f>(
        &mut self,
        wire: u64,
        session: Box<dyn NetSession + 'f>,
        routes: &mut Routes<u64>,
        injector: &mut Injector<'f>,
    ) {
        let exec = routes.assign(self.slot, wire);
        self.entry(wire).running = Some(exec);
        self.in_flight += 1;
        injector.submit(exec, Party::Bob, session);
    }

    /// Queues `record` at a socket that can still take it.
    fn reply(&mut self, record: &Record, injector: &Injector<'_>) {
        if !self.dead() {
            if let Err(e) = self.io.queue(record) {
                self.fail(injector, e);
            }
        }
    }

    /// Queues one of `wire`'s frames.
    fn send(&mut self, wire: u64, frame: Frame, injector: &Injector<'_>) {
        self.frames_out += 1;
        let record = Record::Frame {
            session: wire,
            frame,
        };
        self.reply(&record, injector);
    }

    /// Applies one executor event for the one-shot session in flight
    /// under `wire`: a frame to send, or the session reporting in.
    fn on_event(&mut self, wire: u64, ev: ExecEvent, injector: &Injector<'_>) {
        let (transcript, error) = match ev {
            ExecEvent::Frame { frame, .. } => return self.send(wire, frame, injector),
            ExecEvent::Done {
                transcript, error, ..
            } => (transcript, error),
            ExecEvent::Stranded { transcript, .. } => {
                (transcript, Some(Cow::Borrowed(CLOSED_MID_SESSION)))
            }
        };
        // Events are routed here by `start`, which claimed the row.
        let Some(entry) = self.table.get_mut(&wire) else {
            return;
        };
        entry.running = None;
        entry.summary.transcript.append(transcript);
        if let Some(e) = &error {
            entry.summary.error.get_or_insert_with(|| e.to_string());
        }
        self.in_flight -= 1;
        let (status, message) = match error.as_deref() {
            // The client walked away (or the connection did); answering
            // would be noise.
            Some(ABANDONED | CLOSED_MID_SESSION) => return,
            Some(reason) => (STATUS_SESSION_ERROR, reason.to_owned()),
            None => (STATUS_OK, String::new()),
        };
        let done = Record::Done {
            session: wire,
            status,
            message,
        };
        self.reply(&done, injector);
    }

    /// Closes every half in flight so each reports in (as `Done` with
    /// [`CLOSED_MID_SESSION`]) and the connection can retire — without
    /// the closes, those halves never produce an event and the reactor
    /// would wait on them forever.
    fn close_in_flight(&self, injector: &Injector<'_>) {
        for exec in self.table.values().filter_map(|e| e.running) {
            injector.close(exec, CLOSED_MID_SESSION);
        }
    }

    /// Marks the connection failed: the first error sticks, the socket
    /// is shut down, and the halves in flight are closed.
    fn fail(&mut self, injector: &Injector<'_>, e: NetError) {
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
        self.close_in_flight(injector);
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
    fn drain_readable<'f, F: SessionFactory + ?Sized>(
        &mut self,
        scratch: &mut [u8],
        factory: &'f F,
        routes: &mut Routes<u64>,
        injector: &mut Injector<'f>,
    ) {
        if self.io.read_closed {
            return;
        }
        loop {
            let applied = match self.io.read_record(scratch) {
                Ok(Some(record)) => self.on_record(record, factory, routes, injector),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            if let Err(e) = applied {
                return self.fail(injector, e);
            }
        }
        if self.io.read_closed {
            // Clean EOF. Sessions in flight get their local halves
            // closed so they report in; replies already queued (and any
            // frames the workers are still finishing) keep draining —
            // the peer only half-closed its write side. EOF is also the
            // implicit teardown of resident continuous state: the
            // parties drop here, not with the last queued byte.
            self.close_in_flight(injector);
            for entry in self.table.values_mut() {
                entry.resident = None;
            }
            self.residents = 0;
        }
    }

    /// Flushes queued output, then sweeps the idle deadline.
    fn flush_and_sweep(&mut self, now: Instant, idle: Option<Duration>, injector: &Injector<'_>) {
        if self.dead() {
            return;
        }
        if let Err(e) = self.io.try_flush() {
            return self.fail(injector, e);
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
            self.fail(injector, e);
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
        Ok(ConnectionReport {
            sessions: rows.map(|entry| entry.summary).collect(),
            frames_in: self.frames_in,
            frames_out: self.frames_out,
            wire_bytes_in: self.io.wire_bytes_in,
            wire_bytes_out: self.io.wire_bytes_out,
        })
    }
}

/// Runs the server reactor: everything accepted from `listener` — at
/// most `max_conns` connections, `None` = until the listener fails — is
/// served over one shared `shards`-wide executor until it closes, and
/// torn down after `idle_timeout` of wire silence (`None` disables the
/// sweep). Finished connections are handed to `sink` in completion order
/// (see [`ServerConn::finish`]). Returns `Err` only for
/// listener/poller-level failures.
pub(crate) fn run_server_reactor<F: SessionFactory + ?Sized>(
    factory: &F,
    listener: &TcpListener,
    shards: usize,
    idle_timeout: Option<Duration>,
    max_conns: Option<usize>,
    sink: &mut dyn FnMut(Result<ConnectionReport, NetError>),
) -> Result<(), NetError> {
    let (mut poller, waker) = Poller::new()?;
    let notify: Notify = Arc::new(move || waker.wake());
    listener.set_nonblocking(true)?;
    let mut accept_budget = max_conns.unwrap_or(usize::MAX);

    with_executor_notified(
        shards,
        PLACEMENT_SEED,
        Some(notify),
        |_scope, mut injector, events| {
            let mut conns: Vec<Option<ServerConn>> = Vec::new();
            let mut routes = Routes::new();
            let mut scratch = vec![0u8; READ_CHUNK];
            let mut fds: Vec<PollFd> = Vec::new();
            let mut fd_slots: Vec<Option<usize>> = Vec::new();

            // Done when no more connections can arrive and none remain.
            while accept_budget > 0 || conns.iter().any(Option::is_some) {
                // Wait for readiness: the listener, sockets, the nearest
                // idle deadline, or the executor's waker.
                fds.clear();
                fd_slots.clear();
                if accept_budget > 0 {
                    fds.push(PollFd::new(listener_fd(listener), POLLIN));
                    fd_slots.push(None);
                }
                let mut deadline: Option<Instant> = None;
                for (slot, conn) in conns.iter().enumerate() {
                    let Some(conn) = conn else { continue };
                    if let Some(fd) = conn.poll_interest(idle_timeout, &mut deadline) {
                        fds.push(fd);
                        fd_slots.push(Some(slot));
                    }
                }
                let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
                poller.wait(&mut fds, timeout)?;
                if rsr_obs::enabled() {
                    note_poll_return(&fds, &fd_slots);
                }

                if accept_budget > 0 && fds[0].readable() {
                    accept_ready(listener, &mut accept_budget, &mut conns)?;
                }

                // Drain readable connections into the executor.
                for (fd, slot) in fds.iter().zip(&fd_slots) {
                    if let (true, Some(slot)) = (fd.readable(), *slot) {
                        if let Some(conn) = conns[slot].as_mut() {
                            conn.drain_readable(&mut scratch, factory, &mut routes, &mut injector);
                        }
                    }
                }

                // Route executor events back to their connections.
                while let Some(ev) = events.try_recv() {
                    let (slot, wire) = routes.resolve(&ev, &mut injector);
                    let conn = conns[slot].as_mut().expect("conn outlives its sessions");
                    conn.on_event(wire, ev, &injector);
                }

                // Flush, sweep idlers, retire finished connections.
                let now = Instant::now();
                for conn_slot in &mut conns {
                    let Some(conn) = conn_slot.as_mut() else {
                        continue;
                    };
                    conn.flush_and_sweep(now, idle_timeout, &injector);
                    if conn.finished() {
                        if rsr_obs::enabled() {
                            net_metrics().conns_live.dec();
                        }
                        sink(conn_slot.take().expect("checked above").finish());
                    }
                }
            }
            Ok(())
        },
    )
}

/// Accepts everything the listener has ready, up to the budget; each new
/// connection takes the first free slot.
fn accept_ready(
    listener: &TcpListener,
    budget: &mut usize,
    conns: &mut Vec<Option<ServerConn>>,
) -> Result<(), NetError> {
    while *budget > 0 {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        *budget -= 1;
        let io = ConnIo::new(stream)?;
        if rsr_obs::enabled() {
            net_metrics().conns_accepted.inc();
            net_metrics().conns_live.inc();
        }
        let slot = conns.iter().position(Option::is_none).unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        conns[slot] = Some(ServerConn::new(io, slot));
    }
    Ok(())
}

/// Classifies one `poll(2)` return for the wake-reason counters. The
/// listener rides in the slot whose `fd_slots` entry is `None`; any
/// other ready fd is a connection. A return with no registered fd ready
/// means the executor's waker fired or the idle-sweep deadline expired —
/// `netpoll` keeps the waker's readiness internal, so the two are
/// indistinguishable here and share `net_reactor_wakes_other`.
fn note_poll_return(fds: &[PollFd], fd_slots: &[Option<usize>]) {
    let m = net_metrics();
    m.polls.inc();
    let (mut accept, mut readable, mut writable) = (false, false, false);
    for (fd, slot) in fds.iter().zip(fd_slots) {
        if slot.is_none() {
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
