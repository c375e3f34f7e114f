//! A sharded, fixed-size worker-pool executor for poll-style sessions.
//!
//! The serial drivers in [`crate::session`] run one session (or one
//! Alice/Bob pair) at a time. This module drives *many* sessions
//! concurrently over a small fixed pool of worker shards:
//!
//! * **Placement** — each session is assigned to a shard by the
//!   power-of-two-choices rule ([`Placement`]): hash the session id into
//!   two candidate shards and take the currently lighter one. The
//!   balanced-allocation literature shows this keeps per-shard load
//!   near-uniform without any global coordination, which is exactly what
//!   a transport that opens sessions on the fly needs.
//! * **Ready queues** — each shard owns one FIFO mailbox, which *is* its
//!   ready queue: an entry wakes exactly the session it addresses (each
//!   shard message carries the session id), so a session blocked waiting
//!   for its peer simply has no entries and can never stall its shard.
//! * **Wake-on-frame** — delivering a frame ([`Injector::deliver`])
//!   enqueues a wake for that one session; the shard worker runs one
//!   [`step`] of it — `on_frame`, then `poll_send` until the session has
//!   nothing more to say — emitting every produced frame as an
//!   [`ExecEvent`].
//!
//! The executor never touches a socket: frames *out of* sessions surface
//! on the [`Events`] stream and frames *into* sessions enter through the
//! [`Injector`], so the same engine drives the in-process
//! [`drive_batch`] driver and `rsr-net`'s multiplexed connections.
//! Workers keep one [`Transcript`] per session, recording both
//! directions in processing order — entry-for-entry what the serial
//! drivers record for the same session. [`step`] is that sequence, and
//! the one definition of it: a transport that runs a cheap session
//! inline on its own thread calls the same function.

use crate::channel::Frame;
use crate::session::Session;
use crate::transcript::{Party, Transcript};
use rsr_obs::{AtomicHistogram, Counter, Gauge, Span};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Registry handles for the executor's process-wide metrics, resolved
/// once. Record sites are gated on [`rsr_obs::enabled`]; with metrics
/// off the whole layer costs one relaxed load per site. Gauges are
/// cumulative across every executor the process runs — their high-water
/// marks are process peaks, and a mid-run [`rsr_obs::set_enabled`]
/// toggle can skew an in-flight gauge by the few events that crossed
/// the flip (counters are immune).
struct ExecMetrics {
    /// Sessions adopted by a worker shard (`exec_sessions_submitted`).
    submitted: Arc<Counter>,
    /// Sessions that finished cleanly (`exec_sessions_completed`).
    completed: Arc<Counter>,
    /// Sessions ending in a protocol error or close
    /// (`exec_sessions_failed`).
    failed: Arc<Counter>,
    /// Sessions alive at executor shutdown (`exec_sessions_stranded`).
    stranded: Arc<Counter>,
    /// Currently resident sessions across all shards
    /// (`exec_sessions_live`).
    live: Arc<Gauge>,
    /// Events queued on the consumer stream (`exec_event_queue`).
    event_queue: Arc<Gauge>,
    /// Session open → first emitted frame, µs (`exec_first_frame_us`).
    first_frame_us: Arc<AtomicHistogram>,
    /// Session open → Done/error, µs (`exec_settle_us`).
    settle_us: Arc<AtomicHistogram>,
    /// One `on_frame` call, µs — the decode cost for sketch-carrying
    /// frames (`exec_on_frame_us`).
    on_frame_us: Arc<AtomicHistogram>,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rsr_obs::global();
        ExecMetrics {
            submitted: reg.counter("exec_sessions_submitted"),
            completed: reg.counter("exec_sessions_completed"),
            failed: reg.counter("exec_sessions_failed"),
            stranded: reg.counter("exec_sessions_stranded"),
            live: reg.gauge("exec_sessions_live"),
            event_queue: reg.gauge("exec_event_queue"),
            first_frame_us: reg.histogram("exec_first_frame_us"),
            settle_us: reg.histogram("exec_settle_us"),
            on_frame_us: reg.histogram("exec_on_frame_us"),
        }
    })
}

/// Per-shard registry handles (`exec_shard{i}_mailbox` /
/// `exec_shard{i}_sessions`), resolved when an executor starts. Shard
/// indices are stable across executors in one process, so successive
/// executors share the same gauges.
#[derive(Clone)]
struct ShardObs {
    /// Queued-but-unprocessed mailbox entries on this shard.
    mailbox: Arc<Gauge>,
    /// Sessions resident on this shard.
    occupancy: Arc<Gauge>,
}

impl ShardObs {
    fn for_shard(shard: usize) -> ShardObs {
        let reg = rsr_obs::global();
        ShardObs {
            mailbox: reg.gauge(&format!("exec_shard{shard}_mailbox")),
            occupancy: reg.gauge(&format!("exec_shard{shard}_sessions")),
        }
    }
}

/// A wakeup hook a consumer can hang on the event stream: called after
/// *every* event append, so a consumer that blocks somewhere other than
/// [`Events::recv`]
/// (e.g. a socket readiness loop in `poll(2)`) learns there is something
/// to drain. Must be cheap and must never block; implementations
/// typically flip an atomic and poke a self-pipe.
pub type Notify = Arc<dyn Fn() + Send + Sync>;

/// The event stream's sending half: an mpsc sender plus the optional
/// consumer wakeup hook, so no append can be lost on a consumer that
/// waits outside the channel.
#[derive(Clone)]
struct EventTx {
    tx: mpsc::Sender<ExecEvent>,
    notify: Option<Notify>,
}

impl EventTx {
    fn send(&self, ev: ExecEvent) -> Result<(), mpsc::SendError<ExecEvent>> {
        let sent = self.tx.send(ev);
        if sent.is_ok() && rsr_obs::enabled() {
            exec_metrics().event_queue.inc();
        }
        if let Some(notify) = &self.notify {
            notify();
        }
        sent
    }
}

/// A [`Session`] with its error type erased to `String` and a `Send`
/// bound so it can move onto a worker shard. Blanket-implemented for
/// every sendable `Session` whose error displays; `rsr-net` re-exports
/// this trait as `NetSession`.
pub trait DynSession: Send {
    /// See [`Session::poll_send`].
    fn poll_send(&mut self) -> Result<Option<Frame>, String>;
    /// See [`Session::on_frame`].
    fn on_frame(&mut self, frame: Frame) -> Result<(), String>;
    /// See [`Session::is_done`].
    fn is_done(&self) -> bool;
    /// See [`Session::protocol`].
    fn protocol(&self) -> &'static str {
        "session"
    }
}

impl<S> DynSession for S
where
    S: Session + Send,
    S::Error: fmt::Display,
{
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Session::poll_send(self).map_err(|e| e.to_string())
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        Session::on_frame(self, frame).map_err(|e| e.to_string())
    }

    fn is_done(&self) -> bool {
        Session::is_done(self)
    }

    fn protocol(&self) -> &'static str {
        Session::protocol(self)
    }
}

/// `splitmix64` — a cheap, well-mixed hash for shard candidate choice.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Power-of-two-choices session→shard placement.
///
/// `place` hashes the session id (salted two ways) into two candidate
/// shards and picks whichever currently holds fewer sessions, ties going
/// to the first candidate. Placement is deterministic in the sequence of
/// `place` calls: same seed, same ids, same order — same shards,
/// anywhere.
#[derive(Clone, Debug)]
pub struct Placement {
    seed: u64,
    loads: Vec<usize>,
}

impl Placement {
    /// A placement over `shards` shards (at least one), all empty.
    pub fn new(shards: usize, seed: u64) -> Placement {
        assert!(shards >= 1, "placement needs at least one shard");
        Placement {
            seed,
            loads: vec![0; shards],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.loads.len()
    }

    /// Sessions placed on each shard so far.
    pub fn loads(&self) -> &[usize] {
        &self.loads
    }

    /// The two candidate shards for `id` (may coincide).
    pub fn candidates(&self, id: u64) -> (usize, usize) {
        let n = self.loads.len() as u64;
        let a = splitmix64(id ^ self.seed) % n;
        let b = splitmix64(id.rotate_left(32) ^ self.seed ^ 0x5bf0_3635_dee1_91b5) % n;
        (a as usize, b as usize)
    }

    /// Places `id` on the lighter of its two candidates and records the
    /// load.
    pub fn place(&mut self, id: u64) -> usize {
        let (a, b) = self.candidates(id);
        let shard = if self.loads[b] < self.loads[a] { b } else { a };
        self.loads[shard] += 1;
        shard
    }

    /// Records a session placed on an explicitly chosen shard (used when
    /// a caller pins related sessions together).
    pub fn note_pinned(&mut self, shard: usize) {
        self.loads[shard] += 1;
    }
}

/// What the executor tells its consumer.
#[derive(Debug)]
pub enum ExecEvent {
    /// A session produced a frame for its peer. The frame is already
    /// recorded in the session's transcript.
    Frame {
        /// The producing session.
        id: u64,
        /// The produced frame.
        frame: Frame,
    },
    /// A session left the executor: it finished (`error: None`), hit a
    /// protocol error, or was closed via [`Injector::close`]. Carries
    /// the session's transcript — both directions, processing order.
    Done {
        /// The finished session.
        id: u64,
        /// Everything that crossed the session, with measured sizes.
        transcript: Transcript,
        /// `None` on clean completion. Borrowed for the executor's own
        /// static reasons (and any static [`Injector::close`] reason),
        /// owned only when a session produced a dynamic error string.
        error: Option<Cow<'static, str>>,
    },
    /// The executor shut down (every [`Injector`] clone dropped) while
    /// this session was still live. Its transcript is what had crossed
    /// so far.
    Stranded {
        /// The abandoned session.
        id: u64,
        /// The partial transcript.
        transcript: Transcript,
    },
}

/// One entry in a shard's ready queue.
enum ShardMsg<'env> {
    /// Adopt a session and pump its opening say.
    Open {
        id: u64,
        party: Party,
        session: Box<dyn DynSession + 'env>,
    },
    /// Wake `id` with an incoming frame.
    Frame { id: u64, frame: Frame },
    /// Drop `id`, reporting `reason`; stale ids are ignored.
    Close { id: u64, reason: Cow<'static, str> },
}

/// The feeding half of a running executor: submits sessions, delivers
/// frames, and closes sessions.
pub struct Injector<'env> {
    shard_txs: Vec<mpsc::Sender<ShardMsg<'env>>>,
    shard_obs: Vec<ShardObs>,
    placement: Placement,
    /// Where each submitted session runs, until the consumer
    /// [`forget`](Injector::forget)s it.
    shard_of: HashMap<u64, usize>,
}

impl<'env> Injector<'env> {
    /// Submits a session under a fresh id, placing it by two-choice, and
    /// returns the chosen shard. `party` is the side this session plays:
    /// frames it produces are recorded in its transcript as sent by
    /// `party`, frames delivered to it as sent by `party.peer()`. The
    /// worker immediately pumps everything the session can already say.
    ///
    /// Panics if `id` was already submitted — id allocation is the
    /// caller's contract (transports check before submitting).
    pub fn submit(&mut self, id: u64, party: Party, session: Box<dyn DynSession + 'env>) -> usize {
        let shard = self.placement.place(id);
        self.submit_placed(shard, id, party, session);
        shard
    }

    /// Submits a session pinned to an explicit shard — used to co-locate
    /// related sessions (e.g. the two halves of an in-process pair).
    pub fn submit_on(
        &mut self,
        shard: usize,
        id: u64,
        party: Party,
        session: Box<dyn DynSession + 'env>,
    ) {
        self.placement.note_pinned(shard);
        self.submit_placed(shard, id, party, session);
    }

    fn submit_placed(
        &mut self,
        shard: usize,
        id: u64,
        party: Party,
        session: Box<dyn DynSession + 'env>,
    ) {
        let previous = self.shard_of.insert(id, shard);
        assert!(previous.is_none(), "session id {id} submitted twice");
        self.note_enqueued(shard);
        // A send only fails if the worker died; its panic resurfaces when
        // the executor scope joins, so losing the message is moot.
        let _ = self.shard_txs[shard].send(ShardMsg::Open { id, party, session });
    }

    fn note_enqueued(&self, shard: usize) {
        if rsr_obs::enabled() {
            self.shard_obs[shard].mailbox.inc();
        }
    }

    /// Wakes `id` with an incoming frame. Returns `false` if the id is
    /// not tracked — never submitted, or already forgotten — and the
    /// frame is dropped; frames for sessions that already finished are
    /// silently dropped by the worker as stale.
    pub fn deliver(&self, id: u64, frame: Frame) -> bool {
        match self.shard_of.get(&id) {
            Some(&shard) => {
                self.note_enqueued(shard);
                let _ = self.shard_txs[shard].send(ShardMsg::Frame { id, frame });
                true
            }
            None => false,
        }
    }

    /// Closes `id` with `reason`: if the session is still live its worker
    /// emits [`ExecEvent::Done`] with that reason; a stale or unknown id
    /// is a no-op. Returns `false` only for ids not tracked.
    pub fn close(&self, id: u64, reason: impl Into<Cow<'static, str>>) -> bool {
        match self.shard_of.get(&id) {
            Some(&shard) => {
                self.note_enqueued(shard);
                let _ = self.shard_txs[shard].send(ShardMsg::Close {
                    id,
                    reason: reason.into(),
                });
                true
            }
            None => false,
        }
    }

    /// Stops tracking `id`. The consumer calls this when the session's
    /// [`ExecEvent::Done`] or [`ExecEvent::Stranded`] arrives — the last
    /// event the id will ever produce — so an executor that outlives its
    /// sessions (a server's) holds state only for the live ones. Later
    /// [`deliver`](Injector::deliver)s and [`close`](Injector::close)s
    /// of the id are dropped here instead of by the worker.
    pub fn forget(&mut self, id: u64) {
        self.shard_of.remove(&id);
    }

    /// The shard `id` runs on, while it is tracked.
    pub fn shard_of(&self, id: u64) -> Option<usize> {
        self.shard_of.get(&id).copied()
    }

    /// Cumulative sessions placed per shard (never decremented — this is
    /// the placement balance, not the live count).
    pub fn loads(&self) -> &[usize] {
        self.placement.loads()
    }
}

/// One poll of the event stream.
#[derive(Debug)]
pub enum Wait {
    /// An event arrived.
    Event(ExecEvent),
    /// Nothing arrived within the given timeout.
    Timeout,
    /// The executor is fully shut down: every worker and every
    /// [`Injector`] is gone and the stream is drained.
    Closed,
}

/// The consuming half of a running executor.
pub struct Events {
    rx: mpsc::Receiver<ExecEvent>,
}

impl Events {
    fn note_drained(ev: ExecEvent) -> ExecEvent {
        if rsr_obs::enabled() {
            exec_metrics().event_queue.dec();
        }
        ev
    }

    /// Blocks for the next event; `None` once the stream is closed and
    /// drained.
    pub fn recv(&self) -> Option<ExecEvent> {
        self.rx.recv().ok().map(Self::note_drained)
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<ExecEvent> {
        self.rx.try_recv().ok().map(Self::note_drained)
    }

    /// Blocks up to `timeout` (forever if `None`) for the next event.
    pub fn next(&self, timeout: Option<Duration>) -> Wait {
        match timeout {
            None => match self.rx.recv() {
                Ok(ev) => Wait::Event(Self::note_drained(ev)),
                Err(_) => Wait::Closed,
            },
            Some(t) => match self.rx.recv_timeout(t) {
                Ok(ev) => Wait::Event(Self::note_drained(ev)),
                Err(mpsc::RecvTimeoutError::Timeout) => Wait::Timeout,
                Err(mpsc::RecvTimeoutError::Disconnected) => Wait::Closed,
            },
        }
    }
}

/// Runs `f` with a live sharded executor: `shards` worker threads, a
/// two-choice [`Placement`] salted with `placement_seed`, an
/// [`Injector`] to feed it and an [`Events`] stream to drain it. The
/// scope is passed through so transports can spawn their reader/writer
/// threads alongside the workers.
///
/// Shutdown is by dropping: when every [`Injector`] (there is exactly
/// one unless `f` moved it into a scoped thread) is gone, workers finish
/// their queues, emit [`ExecEvent::Stranded`] for sessions still live,
/// and exit; the event stream then reports [`Wait::Closed`]. Everything
/// `f` spawned is joined before `with_executor` returns.
pub fn with_executor<'env, R>(
    shards: usize,
    placement_seed: u64,
    f: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>, Injector<'env>, Events) -> R,
) -> R {
    with_executor_notified(shards, placement_seed, None, f)
}

/// [`with_executor`] with a consumer wakeup hook: `notify` (when given)
/// runs after every event append, from whichever thread appended it.
/// This is how a consumer that blocks in a socket readiness wait rather
/// than on [`Events::recv`] — `rsr-net`'s reactor — hears the executor:
/// the hook pokes the reactor's waker, the reactor drains
/// [`Events::try_recv`] on its next iteration.
pub fn with_executor_notified<'env, R>(
    shards: usize,
    placement_seed: u64,
    notify: Option<Notify>,
    f: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>, Injector<'env>, Events) -> R,
) -> R {
    assert!(shards >= 1, "executor needs at least one shard");
    std::thread::scope(|s| {
        let (tx, event_rx) = mpsc::channel();
        let event_tx = EventTx { tx, notify };
        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_obs = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<ShardMsg<'env>>();
            shard_txs.push(tx);
            let obs = ShardObs::for_shard(shard);
            shard_obs.push(obs.clone());
            let worker_events = event_tx.clone();
            s.spawn(move || shard_worker(rx, worker_events, obs));
        }
        // Only workers append events: the stream closes when the last
        // of them exits.
        drop(event_tx);
        let injector = Injector {
            shard_txs,
            shard_obs,
            placement: Placement::new(shards, placement_seed),
            shard_of: HashMap::new(),
        };
        f(s, injector, Events { rx: event_rx })
    })
}

/// Metrics state carried per adopted session while recording is on:
/// the phase clock behind the executor's settle histograms.
struct SlotObs {
    opened_at: Instant,
    first_frame_seen: bool,
}

impl SlotObs {
    fn open() -> SlotObs {
        let m = exec_metrics();
        m.submitted.inc();
        m.live.inc();
        SlotObs {
            opened_at: Instant::now(),
            first_frame_seen: false,
        }
    }

    fn note_frame_out(&mut self) {
        if !self.first_frame_seen {
            self.first_frame_seen = true;
            exec_metrics()
                .first_frame_us
                .record(self.opened_at.elapsed().as_micros() as u64);
        }
    }

    /// The session left the executor: settle timing plus the outcome
    /// counter (`Ok` completion, error/close, or stranded shutdown).
    fn settle(&self, outcome: &Option<Cow<'static, str>>, stranded: bool) {
        let m = exec_metrics();
        m.live.dec();
        m.settle_us
            .record(self.opened_at.elapsed().as_micros() as u64);
        if stranded {
            m.stranded.inc();
        } else if outcome.is_none() {
            m.completed.inc();
        } else {
            m.failed.inc();
        }
    }
}

/// Wakes `session` once — the sequence every driver of a session runs,
/// so transcript order has one definition. An `incoming` frame is
/// recorded as sent by `party.peer()` and handed to `on_frame` (timed
/// into `on_frame_us`, when given). Then `poll_send` is pumped until the
/// session has nothing more to say: each frame is recorded as sent by
/// `party`, counted under `session_frames_<proto>` /
/// `session_bits_<proto>` while recording is on, and passed to `send`.
/// Returns whether the session is done; `Err` is the session's own
/// error.
pub fn step(
    session: &mut (dyn DynSession + '_),
    party: Party,
    transcript: &mut Transcript,
    incoming: Option<Frame>,
    on_frame_us: Option<&AtomicHistogram>,
    mut send: impl FnMut(Frame),
) -> Result<bool, String> {
    if let Some(frame) = incoming {
        transcript.record_from(party.peer(), frame.label.clone(), frame.bit_len);
        let _span = on_frame_us.map(Span::new);
        session.on_frame(frame)?;
    }
    let mut counters = None;
    while let Some(frame) = session.poll_send()? {
        transcript.record_from(party, frame.label.clone(), frame.bit_len);
        if rsr_obs::enabled() {
            let (frames, bits) = counters.get_or_insert_with(|| {
                let (reg, proto) = (rsr_obs::global(), session.protocol());
                (
                    reg.counter(&format!("session_frames_{proto}")),
                    reg.counter(&format!("session_bits_{proto}")),
                )
            });
            frames.inc();
            bits.add(frame.bit_len);
        }
        send(frame);
    }
    Ok(session.is_done())
}

/// A session adopted by a shard worker.
struct WorkerSlot<'env> {
    session: Box<dyn DynSession + 'env>,
    party: Party,
    transcript: Transcript,
    obs: Option<SlotObs>,
}

fn shard_worker(rx: mpsc::Receiver<ShardMsg<'_>>, events: EventTx, shard_obs: ShardObs) {
    let mut slots: HashMap<u64, WorkerSlot<'_>> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        if rsr_obs::enabled() {
            shard_obs.mailbox.dec();
        }
        match msg {
            ShardMsg::Open { id, party, session } => {
                let mut slot = WorkerSlot {
                    session,
                    party,
                    transcript: Transcript::new(),
                    obs: rsr_obs::enabled().then(SlotObs::open),
                };
                if wake(id, &mut slot, None, &events) {
                    if slot.obs.is_some() {
                        shard_obs.occupancy.inc();
                    }
                    slots.insert(id, slot);
                }
            }
            ShardMsg::Frame { id, frame } => {
                // Stale: the session already finished (or was closed) —
                // exactly the serial transports' "drop late frames" rule.
                let Some(slot) = slots.get_mut(&id) else {
                    continue;
                };
                if !wake(id, slot, Some(frame), &events) {
                    if let Some(slot) = slots.remove(&id) {
                        if slot.obs.is_some() {
                            shard_obs.occupancy.dec();
                        }
                    }
                }
            }
            ShardMsg::Close { id, reason } => {
                if let Some(mut slot) = slots.remove(&id) {
                    if slot.obs.is_some() {
                        shard_obs.occupancy.dec();
                    }
                    emit_done(id, &mut slot, &events, Some(reason));
                }
            }
        }
    }
    // Every injector is gone: whatever is still live is stranded.
    for (id, slot) in slots {
        if let Some(obs) = &slot.obs {
            shard_obs.occupancy.dec();
            obs.settle(&None, true);
        }
        let _ = events.send(ExecEvent::Stranded {
            id,
            transcript: slot.transcript,
        });
    }
}

/// Emits [`ExecEvent::Done`], recording the session's settle metrics.
fn emit_done(
    id: u64,
    slot: &mut WorkerSlot<'_>,
    events: &EventTx,
    error: Option<Cow<'static, str>>,
) {
    if let Some(obs) = &slot.obs {
        obs.settle(&error, false);
    }
    let transcript = std::mem::take(&mut slot.transcript);
    let _ = events.send(ExecEvent::Done {
        id,
        transcript,
        error,
    });
}

/// Runs one [`step`] of `slot`, emitting its frames and — when it
/// finishes or errors — its `Done`. Returns whether the slot is still
/// live.
fn wake(id: u64, slot: &mut WorkerSlot<'_>, incoming: Option<Frame>, events: &EventTx) -> bool {
    let on_frame_us = slot.obs.as_ref().map(|_| &*exec_metrics().on_frame_us);
    let WorkerSlot {
        session,
        party,
        transcript,
        obs,
    } = slot;
    let send = |frame| {
        if let Some(obs) = obs {
            obs.note_frame_out();
        }
        let _ = events.send(ExecEvent::Frame { id, frame });
    };
    let outcome = step(
        &mut **session,
        *party,
        transcript,
        incoming,
        on_frame_us,
        send,
    );
    let error = match outcome {
        Ok(false) => return true,
        Ok(true) => None,
        Err(e) => Some(Cow::Owned(e)),
    };
    emit_done(id, slot, events, error);
    false
}

/// One session pair's result from [`drive_batch`].
#[derive(Debug)]
pub struct PairOutcome {
    /// The shard the pair ran on.
    pub shard: usize,
    /// The Alice half's transcript: both directions, processing order —
    /// entry-for-entry what the serial drivers record for the same pair.
    pub transcript: Transcript,
    /// `None` when both halves completed; the first error otherwise
    /// (protocol errors from either half, or a stall).
    pub error: Option<String>,
}

impl PairOutcome {
    /// True when both halves ran to completion.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// How long [`drive_batch`] waits with *no* executor activity at all
/// before declaring the remaining pairs stalled. This must exceed the
/// longest single-frame computation any session performs; it is a
/// deadlock backstop for buggy protocols (the serial driver's
/// [`crate::session::DriveError::Stalled`]), not a pacing knob.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Error string reported for pairs that stop making progress, matching
/// the serial driver's stall diagnosis.
pub const STALLED: &str = "sessions stalled without finishing";

/// Drives a batch of in-process Alice/Bob session pairs to completion
/// over a sharded executor — the parallel counterpart of calling
/// [`crate::session::drive_in_memory`] on each pair in turn.
///
/// Both halves of a pair are pinned to one shard (a pair is one logical
/// session, like a multiplexed connection's one local half), chosen by
/// two-choice placement; distinct pairs run concurrently across shards.
/// The caller thread routes every frame a half emits to its peer —
/// wake-on-frame, exactly the dispatch the networked transports use.
///
/// Returns one [`PairOutcome`] per input pair, in input order.
///
/// Driving a batch of real protocol sessions across 2 shards — the
/// transcripts are bit-identical to what the serial driver records:
///
/// ```
/// use rsr_core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
/// use rsr_core::executor::{drive_batch, DynSession, DEFAULT_STALL_TIMEOUT};
/// use rsr_metric::{MetricSpace, Point};
///
/// let space = MetricSpace::hamming(8);
/// let pts: Vec<Point> = (0..8i64)
///     .map(|i| Point::new((0..8).map(|b| (i >> b) & 1).collect()))
///     .collect();
/// let cfg = EmdProtocolConfig::for_space(&space, pts.len(), 1);
/// let protos: Vec<EmdProtocol> = (0..4)
///     .map(|seed| EmdProtocol::new(space, cfg, seed))
///     .collect();
///
/// let pairs: Vec<(Box<dyn DynSession + '_>, Box<dyn DynSession + '_>)> = protos
///     .iter()
///     .map(|proto| {
///         (
///             Box::new(proto.alice_session(&pts)) as Box<dyn DynSession>,
///             Box::new(proto.bob_session(&pts)) as Box<dyn DynSession>,
///         )
///     })
///     .collect();
/// let outcomes = drive_batch(2, 0x5eed, pairs, DEFAULT_STALL_TIMEOUT);
/// assert_eq!(outcomes.len(), 4);
/// for (proto, outcome) in protos.iter().zip(&outcomes) {
///     assert!(outcome.is_ok());
///     let serial = proto.run(&pts, &pts).unwrap();
///     assert_eq!(outcome.transcript.total_bits(), serial.transcript.total_bits());
/// }
/// ```
pub fn drive_batch<'env>(
    shards: usize,
    placement_seed: u64,
    pairs: Vec<(Box<dyn DynSession + 'env>, Box<dyn DynSession + 'env>)>,
    stall_timeout: Duration,
) -> Vec<PairOutcome> {
    with_executor(shards, placement_seed, |_scope, mut injector, events| {
        let n = pairs.len();
        let mut outcomes = Vec::with_capacity(n);
        for (i, (alice, bob)) in pairs.into_iter().enumerate() {
            let alice_id = (i as u64) * 2;
            let shard = injector.submit(alice_id, Party::Alice, alice);
            injector.submit_on(shard, alice_id + 1, Party::Bob, bob);
            outcomes.push(PairOutcome {
                shard,
                transcript: Transcript::new(),
                error: None,
            });
        }
        let mut finished = vec![[false, false]; n];
        let mut pending = n * 2;
        let mut stalled = false;
        while pending > 0 {
            match events.next(Some(stall_timeout)) {
                Wait::Event(ExecEvent::Frame { id, frame }) => {
                    injector.deliver(id ^ 1, frame);
                }
                Wait::Event(ExecEvent::Done {
                    id,
                    transcript,
                    error,
                }) => {
                    let (pair, half) = ((id / 2) as usize, (id % 2) as usize);
                    injector.forget(id);
                    if finished[pair][half] {
                        continue;
                    }
                    finished[pair][half] = true;
                    pending -= 1;
                    if half == 0 {
                        outcomes[pair].transcript = transcript;
                    }
                    if let Some(e) = error {
                        outcomes[pair].error.get_or_insert(e.into_owned());
                        // The peer can make no further progress; a stale
                        // close (peer already finished) is a no-op.
                        injector.close(id ^ 1, "peer session failed");
                    }
                }
                Wait::Event(ExecEvent::Stranded { .. }) => {}
                Wait::Timeout if !stalled => {
                    // No worker produced anything for a whole window:
                    // close every unfinished half; their Done events (and
                    // any frames a slow worker was still computing) drain
                    // the loop.
                    stalled = true;
                    for (pair, halves) in finished.iter().enumerate() {
                        for (half, done) in halves.iter().enumerate() {
                            if !done {
                                injector.close((pair as u64) * 2 + half as u64, STALLED);
                            }
                        }
                    }
                }
                Wait::Timeout => break, // closes did not drain: workers are gone
                Wait::Closed => break,
            }
        }
        outcomes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_iblt::bits::BitWriter;

    /// Greets with `burst` frames, waits for the same number back.
    struct Pong {
        to_send: usize,
        expect: usize,
        echo: bool,
    }

    impl DynSession for Pong {
        fn poll_send(&mut self) -> Result<Option<Frame>, String> {
            if self.to_send > 0 {
                self.to_send -= 1;
                let mut w = BitWriter::new();
                w.write(self.to_send as u64, 16);
                return Ok(Some(Frame::seal("pong", w)));
            }
            Ok(None)
        }

        fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
            self.expect -= 1;
            if self.echo {
                self.to_send += 1;
            }
            Ok(())
        }

        fn is_done(&self) -> bool {
            self.to_send == 0 && self.expect == 0
        }
    }

    fn chat_pair(burst: usize) -> (Box<dyn DynSession>, Box<dyn DynSession>) {
        (
            Box::new(Pong {
                to_send: burst,
                expect: burst,
                echo: false,
            }),
            Box::new(Pong {
                to_send: 0,
                expect: burst,
                echo: true,
            }),
        )
    }

    #[test]
    fn drive_batch_completes_pairs_across_shards() {
        let pairs: Vec<_> = (1..=40).map(chat_pair).collect();
        let outcomes = drive_batch(4, 0, pairs, Duration::from_secs(5));
        assert_eq!(outcomes.len(), 40);
        for (i, out) in outcomes.iter().enumerate() {
            assert!(out.is_ok(), "pair {i}: {:?}", out.error);
            // Alice's transcript holds her burst and the echo back.
            assert_eq!(out.transcript.num_messages(), 2 * (i + 1));
            assert_eq!(out.transcript.total_bits(), 2 * (i as u64 + 1) * 16);
            assert!(out.shard < 4);
        }
    }

    #[test]
    fn drive_batch_matches_serial_round_count() {
        let outcomes = drive_batch(2, 7, vec![chat_pair(3)], Duration::from_secs(5));
        let t = &outcomes[0].transcript;
        // 3 alice frames then 3 bob echoes: two direction changes.
        assert_eq!(t.num_rounds(), 2);
        let senders: Vec<_> = t.entries_with_sender().map(|(s, _, _)| s).collect();
        assert_eq!(
            senders,
            vec![
                Some(Party::Alice),
                Some(Party::Alice),
                Some(Party::Alice),
                Some(Party::Bob),
                Some(Party::Bob),
                Some(Party::Bob),
            ]
        );
    }

    /// Claims to be unfinished but never speaks.
    struct Mute;

    impl DynSession for Mute {
        fn poll_send(&mut self) -> Result<Option<Frame>, String> {
            Ok(None)
        }

        fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
            Ok(())
        }

        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn stalled_pairs_are_closed_not_deadlocked() {
        let pairs: Vec<(Box<dyn DynSession>, Box<dyn DynSession>)> = vec![
            (Box::new(Mute), Box::new(Mute)),
            chat_pair(2), // a healthy pair in the same batch still completes
        ];
        let outcomes = drive_batch(2, 0, pairs, Duration::from_millis(100));
        assert_eq!(outcomes[0].error.as_deref(), Some(STALLED));
        assert!(outcomes[1].is_ok(), "{:?}", outcomes[1].error);
    }

    /// Errors as soon as the peer says anything.
    struct Rejecting;

    impl DynSession for Rejecting {
        fn poll_send(&mut self) -> Result<Option<Frame>, String> {
            Ok(None)
        }

        fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
            Err("bad frame".into())
        }

        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn pair_error_reports_first_cause() {
        let pairs: Vec<(Box<dyn DynSession>, Box<dyn DynSession>)> =
            vec![(chat_pair(1).0, Box::new(Rejecting))];
        let outcomes = drive_batch(1, 0, pairs, Duration::from_secs(5));
        assert_eq!(outcomes[0].error.as_deref(), Some("bad frame"));
    }

    #[test]
    fn placement_two_choice_is_deterministic_and_balanced() {
        let mut a = Placement::new(8, 42);
        let mut b = Placement::new(8, 42);
        let shards_a: Vec<_> = (0..4096).map(|id| a.place(id)).collect();
        let shards_b: Vec<_> = (0..4096).map(|id| b.place(id)).collect();
        assert_eq!(shards_a, shards_b, "same seed, same order, same shards");
        let mean = 4096 / 8;
        for (shard, &load) in a.loads().iter().enumerate() {
            assert!(
                load <= 2 * mean,
                "shard {shard} holds {load} sessions, over 2x the mean {mean}"
            );
        }
        // A different seed reshuffles at least something.
        let mut c = Placement::new(8, 43);
        let shards_c: Vec<_> = (0..4096).map(|id| c.place(id)).collect();
        assert_ne!(shards_a, shards_c);
    }

    #[test]
    fn injector_reports_unknown_ids() {
        with_executor(2, 0, |_s, mut injector, _events| {
            assert!(!injector.deliver(9, Frame::seal("x", BitWriter::new())));
            assert!(!injector.close(9, "nope"));
            let shard = injector.submit(9, Party::Alice, Box::new(Mute));
            assert_eq!(injector.shard_of(9), Some(shard));
            assert!(injector.deliver(9, Frame::seal("x", BitWriter::new())));
        });
    }

    #[test]
    fn stranded_sessions_surface_on_shutdown() {
        let stranded = with_executor(1, 0, |_s, mut injector, events| {
            injector.submit(5, Party::Bob, Box::new(Mute));
            drop(injector);
            let mut ids = Vec::new();
            while let Some(ev) = events.recv() {
                if let ExecEvent::Stranded { id, .. } = ev {
                    ids.push(id);
                }
            }
            ids
        });
        assert_eq!(stranded, vec![5]);
    }

    #[test]
    fn next_times_out_while_sessions_live() {
        with_executor(1, 0, |_s, mut injector, events| {
            injector.submit(1, Party::Alice, Box::new(Mute));
            // A live but silent session: the stream must report Timeout,
            // not Closed — the executor is still running.
            match events.next(Some(Duration::from_millis(50))) {
                Wait::Timeout => {}
                other => panic!("expected Timeout, got {other:?}"),
            }
            drop(injector);
            // Shutdown strands the mute session; Closed comes only
            // after that event has drained, never instead of it.
            match events.next(Some(Duration::from_secs(5))) {
                Wait::Event(ExecEvent::Stranded { id, .. }) => assert_eq!(id, 1),
                other => panic!("expected Stranded, got {other:?}"),
            }
            match events.next(Some(Duration::from_secs(5))) {
                Wait::Closed => {}
                other => panic!("expected Closed, got {other:?}"),
            }
        });
    }

    #[test]
    fn next_drains_pending_events_before_reporting_closed() {
        with_executor(1, 0, |_s, mut injector, events| {
            // Alice's opening frame is queued by the worker; dropping
            // the injector right behind the submit shuts the executor
            // down with that event (and the stranding) still unread.
            injector.submit(9, Party::Alice, chat_pair(1).0);
            drop(injector);
            // Events queued before every injector went away must still
            // surface; Closed is only ever the end of a drained stream.
            match events.next(None) {
                Wait::Event(ExecEvent::Frame { id, .. }) => assert_eq!(id, 9),
                other => panic!("expected the queued Frame event, got {other:?}"),
            }
            match events.next(Some(Duration::from_secs(5))) {
                Wait::Event(ExecEvent::Stranded { id, .. }) => assert_eq!(id, 9),
                other => panic!("expected Stranded, got {other:?}"),
            }
            match events.next(Some(Duration::from_secs(5))) {
                Wait::Closed => {}
                other => panic!("expected Closed, got {other:?}"),
            }
        });
    }

    #[test]
    fn forgetting_settled_sessions_leaves_the_injector_tracking_nothing() {
        const N: u64 = 64;
        with_executor(2, 0, |_s, mut injector, events| {
            for id in 0..N {
                // Nothing to send, nothing expected: done at adoption.
                let idle = Pong {
                    to_send: 0,
                    expect: 0,
                    echo: false,
                };
                injector.submit(id, Party::Bob, Box::new(idle));
            }
            assert_eq!(injector.shard_of.len(), N as usize);
            let loads_before = injector.loads().to_vec();
            for _ in 0..N {
                match events.next(Some(Duration::from_secs(5))) {
                    Wait::Event(ExecEvent::Done { id, error, .. }) => {
                        assert!(error.is_none());
                        injector.forget(id);
                    }
                    other => panic!("expected Done, got {other:?}"),
                }
            }
            assert!(injector.shard_of.is_empty(), "every settled id forgotten");
            // Placement balance is cumulative: forgetting leaves it be.
            assert_eq!(injector.loads(), loads_before);
            assert_eq!(injector.shard_of(0), None);
            assert!(!injector.close(0, "stale"));
        });
    }
}
