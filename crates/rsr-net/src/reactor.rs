//! The readiness reactor: nonblocking sockets polled by `netpoll`,
//! feeding **one** shared session executor for every connection.
//!
//! PR 6's transport spent two threads per connection (a blocking reader
//! and a blocking writer) plus a full executor pool per connection —
//! thread count grew linearly with accepted connections, and the
//! blocking reads hid a family of disconnect bugs: a client that hung
//! up early could deadlock the load loop forever (the local halves of
//! unsettled sessions were never closed, and the event stream never
//! ended), a silent client pinned a server thread for the life of the
//! process, and abrupt disconnects surfaced as `join().expect(...)`
//! panics instead of errors.
//!
//! This module replaces all of that with a single-threaded reactor per
//! endpoint process:
//!
//! * Every connection's stream is switched to nonblocking mode; a
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
//! * Because the reactor is the only thread touching sockets, control
//!   replies (unknown session id, duplicate `OPEN`) are written
//!   straight to the connection's output buffer — the injected-event
//!   detour the writer-thread design needed is gone.
//!
//! Disconnects are first-class here, not accidents: EOF mid-record is
//! diagnosed exactly like the blocking reader would
//! ([`RecordDecoder::truncation`](crate::codec::RecordDecoder::truncation)),
//! EOF with sessions still live closes each local half with
//! [`CLOSED_MID_SESSION`] so every session reports in, and a connection
//! that goes silent past the idle deadline is torn down instead of
//! pinned forever. One connection's death never touches sessions on
//! another connection — they share shards, not fate.

use crate::codec::{
    write_record, NetError, Record, RecordDecoder, SessionSpec, STATUS_OK, STATUS_SESSION_ERROR,
    STATUS_UNKNOWN_SESSION,
};
use crate::obs::net_metrics;
use crate::server::{ConnectionReport, SessionFactory, SessionSummary};
use netpoll::{listener_fd, stream_fd, PollFd, Poller, POLLIN, POLLOUT};
use rsr_core::continuous::{BobRound, SharedParty};
use rsr_core::executor::{with_executor_notified, ExecEvent, Notify};
use rsr_core::transcript::{Party, Transcript};
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

    /// The poll(2) events this connection currently cares about; `0`
    /// when it wants neither (e.g. read half closed, output drained).
    pub fn interest(&self) -> i16 {
        let mut events = 0;
        if !self.read_closed {
            events |= POLLIN;
        }
        if self.wants_write() {
            events |= POLLOUT;
        }
        events
    }

    pub fn wants_write(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }

    /// Reads until `WouldBlock` or EOF, feeding the decoder. Sets
    /// [`ConnIo::read_closed`] on EOF; complete records are then pulled
    /// with [`ConnIo::next_record`].
    pub fn fill(&mut self, scratch: &mut [u8]) -> Result<(), NetError> {
        while !self.read_closed {
            match self.stream.read(scratch) {
                Ok(0) => self.read_closed = true,
                Ok(n) => {
                    self.last_activity = Instant::now();
                    if rsr_obs::enabled() {
                        net_metrics().bytes_in.add(n as u64);
                    }
                    self.decoder.feed(&scratch[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Next complete record, counting its wire bytes — only whole
    /// records count, exactly like the blocking reader's accounting.
    pub fn next_record(&mut self) -> Result<Option<Record>, NetError> {
        match self.decoder.next_record()? {
            Some((record, n)) => {
                self.wire_bytes_in += n;
                Ok(Some(record))
            }
            None => Ok(None),
        }
    }

    /// The truncation error an EOF at the current decode position
    /// implies, if any.
    pub fn eof_truncation(&self) -> Option<NetError> {
        self.decoder.truncation()
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

/// Server-reactor configuration.
pub(crate) struct ServerOpts {
    pub shards: usize,
    /// Tear down a connection after this much wire silence; `None`
    /// disables the sweep (a test server may legitimately sit idle).
    pub idle_timeout: Option<Duration>,
    /// Stop accepting after this many connections, counting any handed
    /// in directly; `None` = accept until the listener fails.
    pub max_conns: Option<usize>,
}

/// Per-connection server state riding on top of [`ConnIo`].
struct ServerConn {
    io: ConnIo,
    /// Wire session id → executor session id. Ids on the wire are
    /// per-connection names; the shared executor needs process-unique
    /// ids, so the reactor remaps at the boundary. Finished sessions
    /// stay mapped — a re-`OPEN` of a used id is still a duplicate.
    wire_to_exec: HashMap<u64, u64>,
    /// Wire ids in open order, for the report.
    order: Vec<u64>,
    summaries: HashMap<u64, SessionSummary>,
    /// Resident continuous state: wire id → the Bob party that survives
    /// between rounds. Entries live until the client `DONE`s the id (or
    /// the connection ends); each `ROUND` record spins a fresh one-round
    /// executor session over the mapped party.
    continuous: HashMap<u64, SharedParty>,
    /// Executor ids currently running a continuous round, mapped to the
    /// round index — a clean finish is acknowledged with `ROUND`, not
    /// `DONE`, and its transcript is appended to the session's summary.
    round_of_exec: HashMap<u64, u32>,
    /// Sessions submitted and not yet reported back by the executor.
    live: usize,
    frames_in: usize,
    frames_out: usize,
    /// First transport-level failure; the connection reports `Err`.
    error: Option<NetError>,
    /// Socket unusable — queue nothing further at it.
    dead: bool,
}

impl ServerConn {
    fn new(io: ConnIo) -> ServerConn {
        ServerConn {
            io,
            wire_to_exec: HashMap::new(),
            order: Vec::new(),
            summaries: HashMap::new(),
            continuous: HashMap::new(),
            round_of_exec: HashMap::new(),
            live: 0,
            frames_in: 0,
            frames_out: 0,
            error: None,
            dead: false,
        }
    }

    /// Ready to leave the reactor: nothing more will be read, every
    /// submitted session has reported, and the output has drained (a
    /// dead socket drains nowhere and does not wait).
    fn finished(&self) -> bool {
        self.io.read_closed && self.live == 0 && (self.dead || !self.io.wants_write())
    }

    /// Between-round quiescence: the connection holds resident
    /// continuous state and no round is in flight. The idle sweep spares
    /// such connections — a continuous client legitimately goes silent
    /// between churn rounds, and tearing it down would throw away the
    /// very state that makes the next round O(churn). The client owns
    /// the session lifetime (an explicit `DONE` or EOF frees the state);
    /// a connection with a round *in flight* still answers to the
    /// deadline.
    fn quiescent(&self) -> bool {
        self.live == 0 && !self.continuous.is_empty()
    }

    fn into_outcome(mut self) -> Result<ConnectionReport, NetError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut report = ConnectionReport {
            sessions: Vec::with_capacity(self.order.len()),
            frames_in: self.frames_in,
            frames_out: self.frames_out,
            wire_bytes_in: self.io.wire_bytes_in,
            wire_bytes_out: self.io.wire_bytes_out,
        };
        for id in self.order {
            let summary = self
                .summaries
                .remove(&id)
                .expect("every submitted session reports Done or Stranded");
            report.sessions.push(summary);
        }
        Ok(report)
    }
}

/// Runs the server reactor: every stream in `initial` plus everything
/// accepted from `listener` (when given) is served over one shared
/// executor until it closes. Finished connections are handed to `sink`
/// in completion order — `Ok(report)` for an orderly close (including
/// per-session errors and mid-session EOF), `Err` when the transport
/// itself failed. Returns `Err` only for listener/poller-level
/// failures.
pub(crate) fn run_server_reactor<F: SessionFactory + ?Sized>(
    factory: &F,
    listener: Option<&TcpListener>,
    initial: Vec<TcpStream>,
    opts: &ServerOpts,
    sink: &mut dyn FnMut(Result<ConnectionReport, NetError>),
) -> Result<(), NetError> {
    let (mut poller, waker) = Poller::new()?;
    let notify: Notify = Arc::new(move || waker.wake());
    if let Some(listener) = listener {
        listener.set_nonblocking(true)?;
    }

    let mut conns: Vec<Option<ServerConn>> = Vec::new();
    for stream in initial {
        conns.push(Some(ServerConn::new(ConnIo::new(stream)?)));
        if rsr_obs::enabled() {
            // Handed-in streams count as accepted: the reactor serves
            // them exactly like listener arrivals.
            net_metrics().conns_accepted.inc();
            net_metrics().conns_live.inc();
        }
    }
    // Accept budget: the handed-in streams count against `max_conns`.
    let mut accept_budget = opts
        .max_conns
        .map(|max| max.saturating_sub(conns.len()))
        .unwrap_or(usize::MAX);
    if listener.is_none() {
        accept_budget = 0;
    }

    with_executor_notified(
        opts.shards,
        PLACEMENT_SEED,
        Some(notify),
        |_scope, mut injector, events| {
            // Executor session id → (connection slot, wire session id).
            let mut routes: HashMap<u64, (usize, u64)> = HashMap::new();
            let mut next_exec: u64 = 0;
            let mut scratch = vec![0u8; READ_CHUNK];
            let mut fds: Vec<PollFd> = Vec::new();
            let mut fd_slots: Vec<Option<usize>> = Vec::new();

            loop {
                // Done when no more connections can arrive and none remain.
                if accept_budget == 0 && conns.iter().all(Option::is_none) {
                    return Ok(());
                }

                fds.clear();
                fd_slots.clear();
                if accept_budget > 0 {
                    if let Some(listener) = listener {
                        fds.push(PollFd::new(listener_fd(listener), POLLIN));
                        fd_slots.push(None);
                    }
                }
                let mut deadline: Option<Instant> = None;
                for (slot, conn) in conns.iter().enumerate() {
                    let Some(conn) = conn else { continue };
                    let interest = conn.io.interest();
                    if interest != 0 {
                        fds.push(PollFd::new(conn.io.fd(), interest));
                        fd_slots.push(Some(slot));
                    }
                    if let Some(idle) = opts.idle_timeout {
                        if !conn.io.read_closed && !conn.dead && !conn.quiescent() {
                            let at = conn.io.last_activity + idle;
                            deadline = Some(deadline.map_or(at, |d: Instant| d.min(at)));
                        }
                    }
                }
                let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
                poller.wait(&mut fds, timeout)?;
                if rsr_obs::enabled() {
                    note_poll_return(&fds, &fd_slots);
                }

                // Accept everything that is ready.
                let mut accepted_now = Vec::new();
                if let Some(listener) = listener {
                    if accept_budget > 0 && fds.first().is_some_and(PollFd::readable) {
                        while accept_budget > 0 {
                            match listener.accept() {
                                Ok((stream, _peer)) => {
                                    accepted_now.push(stream);
                                    accept_budget -= 1;
                                }
                                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                                Err(e) => return Err(e.into()),
                            }
                        }
                    }
                }
                for stream in accepted_now {
                    let conn = ServerConn::new(ConnIo::new(stream)?);
                    if rsr_obs::enabled() {
                        net_metrics().conns_accepted.inc();
                        net_metrics().conns_live.inc();
                    }
                    match conns.iter_mut().find(|c| c.is_none()) {
                        Some(empty) => *empty = Some(conn),
                        None => conns.push(Some(conn)),
                    }
                }

                // Drain readable connections into the executor.
                for (fd, slot) in fds.iter().zip(&fd_slots) {
                    let Some(slot) = *slot else { continue };
                    if !fd.readable() {
                        continue;
                    }
                    read_into_executor(
                        factory,
                        &mut conns,
                        slot,
                        &mut routes,
                        &mut next_exec,
                        &mut injector,
                        &mut scratch,
                    );
                }

                // Route executor events back to their connections.
                while let Some(ev) = events.try_recv() {
                    match ev {
                        ExecEvent::Frame { id, frame } => {
                            let &(slot, wire) = routes.get(&id).expect("routed session");
                            if let Some(conn) = conns[slot].as_mut() {
                                conn.frames_out += 1;
                                if !conn.dead {
                                    let rec = Record::Frame {
                                        session: wire,
                                        frame,
                                    };
                                    if let Err(e) = conn.io.queue(&rec) {
                                        fail_conn(conn, &injector, e);
                                    }
                                }
                            }
                        }
                        ExecEvent::Done {
                            id,
                            transcript,
                            error,
                        } => {
                            let (slot, wire) = routes.remove(&id).expect("routed session");
                            let conn = conns[slot].as_mut().expect("conn outlives its sessions");
                            conn.live -= 1;
                            let round = conn.round_of_exec.remove(&id);
                            let reply = match (round, error.as_deref()) {
                                // A settled continuous round: acknowledge
                                // with ROUND so the wire id stays live for
                                // the next round (a DONE would retire it).
                                (Some(r), None) => Some(Record::Round {
                                    session: wire,
                                    round: r,
                                }),
                                (None, None) => Some(Record::Done {
                                    session: wire,
                                    status: STATUS_OK,
                                    message: String::new(),
                                }),
                                // The client walked away (or the
                                // connection did); echoing DONE at it
                                // would be noise.
                                (_, Some(ABANDONED)) | (_, Some(CLOSED_MID_SESSION)) => None,
                                (_, Some(reason)) => Some(Record::Done {
                                    session: wire,
                                    status: STATUS_SESSION_ERROR,
                                    message: reason.to_owned(),
                                }),
                            };
                            if let Some(rec) = reply {
                                if !conn.dead {
                                    if let Err(e) = conn.io.queue(&rec) {
                                        fail_conn(conn, &injector, e);
                                    }
                                }
                            }
                            if round.is_some() {
                                // A failed round retires the resident
                                // state — the client saw a DONE and will
                                // not send further rounds for this id.
                                if error.is_some() {
                                    conn.continuous.remove(&wire);
                                }
                                let summary = conn
                                    .summaries
                                    .get_mut(&wire)
                                    .expect("continuous OPEN seeds the summary");
                                summary.transcript.append(transcript);
                                if let Some(e) = error {
                                    summary.error.get_or_insert(e.into_owned());
                                }
                            } else {
                                conn.summaries.insert(
                                    wire,
                                    SessionSummary {
                                        id: wire,
                                        transcript,
                                        error: error.map(|e| e.into_owned()),
                                    },
                                );
                            }
                        }
                        ExecEvent::Stranded { id, transcript } => {
                            let (slot, wire) = routes.remove(&id).expect("routed session");
                            let conn = conns[slot].as_mut().expect("conn outlives its sessions");
                            conn.live -= 1;
                            if conn.round_of_exec.remove(&id).is_some() {
                                let summary = conn
                                    .summaries
                                    .get_mut(&wire)
                                    .expect("continuous OPEN seeds the summary");
                                summary.transcript.append(transcript);
                                summary
                                    .error
                                    .get_or_insert_with(|| CLOSED_MID_SESSION.into());
                            } else {
                                conn.summaries.insert(
                                    wire,
                                    SessionSummary {
                                        id: wire,
                                        transcript,
                                        error: Some(CLOSED_MID_SESSION.into()),
                                    },
                                );
                            }
                        }
                        // The reactor writes control replies directly;
                        // nothing injects.
                        ExecEvent::Injected { .. } => {}
                    }
                }

                // Flush, sweep idlers, retire finished connections.
                let now = Instant::now();
                for conn_slot in &mut conns {
                    let Some(conn) = conn_slot.as_mut() else {
                        continue;
                    };
                    if !conn.dead {
                        if let Err(e) = conn.io.try_flush() {
                            fail_conn(conn, &injector, e);
                        }
                    }
                    if let Some(idle) = opts.idle_timeout {
                        if !conn.io.read_closed
                            && !conn.dead
                            && !conn.quiescent()
                            && now.duration_since(conn.io.last_activity) >= idle
                        {
                            let e = io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("connection idle for {idle:?}, tearing it down"),
                            );
                            if rsr_obs::enabled() {
                                net_metrics().conns_idle_closed.inc();
                                rsr_obs::global_ring().push(
                                    "net_idle_teardown",
                                    conn.live as u64,
                                    idle.as_millis() as u64,
                                );
                            }
                            fail_conn(conn, &injector, e.into());
                        }
                    }
                    if conn.finished() {
                        let conn = conn_slot.take().expect("checked above");
                        if rsr_obs::enabled() {
                            net_metrics().conns_live.dec();
                        }
                        sink(conn.into_outcome());
                    }
                }
            }
        },
    )
}

/// Marks a connection failed: shuts the socket down, and closes every
/// still-live session's executor half so each reports in (as `Done`
/// with [`CLOSED_MID_SESSION`]) and the connection can retire. This is
/// the fix for the deadlock the blocking design hid — without the
/// closes, live halves never produce an event and the reactor would
/// wait on them forever.
fn fail_conn(conn: &mut ServerConn, injector: &rsr_core::executor::Injector<'_>, e: NetError) {
    if conn.error.is_none() {
        conn.error = Some(e);
    }
    conn.dead = true;
    if rsr_obs::enabled() {
        net_metrics().conns_failed.inc();
        rsr_obs::global_ring().push("net_conn_failed", conn.live as u64, conn.io.wire_bytes_in);
    }
    conn.io.kill();
    for &exec in conn.wire_to_exec.values() {
        // Stale closes (sessions already finished) are no-ops.
        injector.close(exec, CLOSED_MID_SESSION);
    }
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

/// Drains one readable connection: fill from the socket, decode, route
/// every complete record into the executor, and handle EOF.
#[allow(clippy::too_many_arguments)]
fn read_into_executor<'f, F: SessionFactory + ?Sized>(
    factory: &'f F,
    conns: &mut [Option<ServerConn>],
    slot: usize,
    routes: &mut HashMap<u64, (usize, u64)>,
    next_exec: &mut u64,
    injector: &mut rsr_core::executor::Injector<'f>,
    scratch: &mut [u8],
) {
    let Some(conn) = conns[slot].as_mut() else {
        return;
    };
    if let Err(e) = conn.io.fill(scratch) {
        fail_conn(conn, injector, e);
        return;
    }
    loop {
        match conn.io.next_record() {
            Ok(Some(record)) => {
                if let Err(e) =
                    handle_server_record(factory, conn, slot, record, routes, next_exec, injector)
                {
                    fail_conn(conn, injector, e);
                    return;
                }
            }
            Ok(None) => break,
            Err(e) => {
                fail_conn(conn, injector, e);
                return;
            }
        }
    }
    if conn.io.read_closed {
        if let Some(e) = conn.io.eof_truncation() {
            fail_conn(conn, injector, e);
        } else {
            // Clean EOF. Sessions still live get their local halves
            // closed so they report in (stale closes of finished
            // halves are no-ops); replies already queued (and any
            // frames the workers are still finishing) keep draining —
            // the peer only half-closed its write side. EOF is also
            // the implicit teardown of resident continuous state: the
            // parties drop with the connection.
            for &exec in conn.wire_to_exec.values() {
                injector.close(exec, CLOSED_MID_SESSION);
            }
            conn.continuous.clear();
        }
    }
}

/// Applies one client record to the server state. `Err` means the
/// record itself could not be honored at the transport level (a queue
/// failure); protocol-level problems (unknown ids, duplicate opens)
/// answer with a status `DONE` instead.
fn handle_server_record<'f, F: SessionFactory + ?Sized>(
    factory: &'f F,
    conn: &mut ServerConn,
    slot: usize,
    record: Record,
    routes: &mut HashMap<u64, (usize, u64)>,
    next_exec: &mut u64,
    injector: &mut rsr_core::executor::Injector<'f>,
) -> Result<(), NetError> {
    let mut submit =
        |conn: &mut ServerConn, wire: u64, spec: Option<&SessionSpec>| -> Result<bool, NetError> {
            match factory.open_spec(wire, spec) {
                Some(session) => {
                    let exec = *next_exec;
                    *next_exec += 1;
                    conn.wire_to_exec.insert(wire, exec);
                    conn.order.push(wire);
                    conn.live += 1;
                    routes.insert(exec, (slot, wire));
                    injector.submit(exec, Party::Bob, session);
                    Ok(true)
                }
                None => {
                    conn.io.queue(&Record::Done {
                        session: wire,
                        status: STATUS_UNKNOWN_SESSION,
                        message: "unknown session id".into(),
                    })?;
                    Ok(false)
                }
            }
        };

    match record {
        Record::Open {
            session: wire,
            spec,
        } => {
            if conn.wire_to_exec.contains_key(&wire) || conn.continuous.contains_key(&wire) {
                conn.io.queue(&Record::Done {
                    session: wire,
                    status: STATUS_SESSION_ERROR,
                    message: "session opened twice".into(),
                })?;
            } else if let Some(spec) = spec.filter(|s| s.continuous) {
                // A continuous open installs resident state and seeds
                // the session's (initially empty) summary; the first
                // executor work happens at the first ROUND.
                match factory.open_continuous(wire, &spec) {
                    Some(party) => {
                        conn.continuous.insert(wire, party);
                        conn.order.push(wire);
                        conn.summaries.insert(
                            wire,
                            SessionSummary {
                                id: wire,
                                transcript: Transcript::new(),
                                error: None,
                            },
                        );
                    }
                    None => {
                        conn.io.queue(&Record::Done {
                            session: wire,
                            status: STATUS_UNKNOWN_SESSION,
                            message: "factory does not serve continuous sessions".into(),
                        })?;
                    }
                }
            } else {
                submit(conn, wire, spec.as_ref())?;
            }
        }
        Record::Frame {
            session: wire,
            frame,
        } => {
            if !conn.wire_to_exec.contains_key(&wire) {
                // A frame for a continuous session outside any round is
                // stale (its round already resolved); count and drop it.
                if conn.continuous.contains_key(&wire) {
                    conn.frames_in += 1;
                    return Ok(());
                }
                // A first frame without OPEN implicitly opens the
                // session (Alice-initiated protocols over a bare
                // TcpChannel).
                if !submit(conn, wire, None)? {
                    return Ok(());
                }
            }
            conn.frames_in += 1;
            let exec = conn.wire_to_exec[&wire];
            injector.deliver(exec, frame);
        }
        Record::Done { session: wire, .. } => {
            // The client gave up on the session; drop our half. Unknown
            // or already-finished ids are no-ops. For a continuous id
            // this is the orderly whole-session teardown: the resident
            // party is freed, the settled rounds' summary stays.
            if let Some(&exec) = conn.wire_to_exec.get(&wire) {
                injector.close(exec, ABANDONED);
            }
            conn.continuous.remove(&wire);
        }
        Record::Round {
            session: wire,
            round,
        } => {
            let Some(party) = conn.continuous.get(&wire) else {
                conn.io.queue(&Record::Done {
                    session: wire,
                    status: STATUS_UNKNOWN_SESSION,
                    message: "round for a session not open as continuous".into(),
                })?;
                return Ok(());
            };
            let bob = match BobRound::begin(party) {
                Ok(bob) if bob.round() == round => bob,
                Ok(bob) => {
                    // Desync: the client's round counter disagrees with
                    // the resident state (e.g. a half-settled previous
                    // round). Fail loudly and retire the id — dropping
                    // `bob` unstarted rolls the server party back.
                    let msg = format!(
                        "continuous round desync: client at round {round}, server at {}",
                        bob.round()
                    );
                    drop(bob);
                    conn.continuous.remove(&wire);
                    conn.io.queue(&Record::Done {
                        session: wire,
                        status: STATUS_SESSION_ERROR,
                        message: msg,
                    })?;
                    return Ok(());
                }
                Err(e) => {
                    conn.continuous.remove(&wire);
                    conn.io.queue(&Record::Done {
                        session: wire,
                        status: STATUS_SESSION_ERROR,
                        message: format!("cannot begin round {round}: {e}"),
                    })?;
                    return Ok(());
                }
            };
            let exec = *next_exec;
            *next_exec += 1;
            // Replaces the previous round's (finished) mapping, so
            // frames and the client's eventual DONE route to the round
            // in flight.
            conn.wire_to_exec.insert(wire, exec);
            conn.live += 1;
            conn.round_of_exec.insert(exec, round);
            routes.insert(exec, (slot, wire));
            injector.submit(exec, Party::Bob, Box::new(bob));
        }
    }
    Ok(())
}
