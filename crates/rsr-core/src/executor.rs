//! A fixed-size pool of worker shards that runs poll-style session
//! halves one wake at a time, and holds none of them between wakes.
//!
//! The serial loop [`crate::session::drive_in_memory`] runs one
//! Alice/Bob pair at a time. This module spreads the work of *many*
//! sessions over a small fixed pool of workers:
//!
//! * **A half lives with its driver.** A [`Half`] — the session, the
//!   side it plays, its transcript — is owned by whoever drives it, in a
//!   [`Seat`]: a connection's slot in `rsr-net`, or a side of one of
//!   [`drive_batch`]'s pairs. Dropping it closes the session.
//! * **An idle worker borrows it for one wake.** [`Injector::lend`]
//!   puts a half, and the frame to wake it with, on the pool's one FIFO
//!   of wakes; the first idle worker takes it, runs one [`Half::step`] —
//!   `on_frame`, then `poll_send` until the half has nothing more to say
//!   — and sends the half back on the [`Events`] stream with the frames
//!   it said and its outcome. A wake never waits while a worker idles,
//!   and no half is tied to a worker. The paper's protocols alternate,
//!   so a half has at most one wake pending; a frame that arrives for a
//!   half while it is lent waits in its seat and is applied, in arrival
//!   order, once it returns.
//!
//! [`Half::step`] is the one wake sequence: a transport that runs a
//! cheap session inline on its own thread calls the same method, and
//! every transcript records both directions in processing order —
//! entry-for-entry what the serial loop records for the same session.

use crate::channel::Frame;
use crate::session::Session;
use crate::transcript::{Party, Transcript};
use rsr_obs::{AtomicHistogram, Counter, Gauge, Span};
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Registry handles for the executor's process-wide metrics, resolved
/// once. Record sites are gated on [`rsr_obs::enabled`]; with metrics
/// off the whole layer costs one relaxed load per site. Gauges are
/// cumulative across every executor the process runs — their high-water
/// marks are process peaks, and a mid-run [`rsr_obs::set_enabled`]
/// toggle can skew an in-flight gauge by the few events that crossed
/// the flip (counters are immune).
struct ExecMetrics {
    /// Halves lent to the pool, counted at their first lend
    /// (`exec_sessions_submitted`).
    submitted: Arc<Counter>,
    /// Lent halves that finished cleanly (`exec_sessions_completed`).
    completed: Arc<Counter>,
    /// Lent halves ending in a protocol error, or dropped unfinished
    /// (`exec_sessions_failed`).
    failed: Arc<Counter>,
    /// Lent halves not yet settled (`exec_sessions_live`).
    live: Arc<Gauge>,
    /// Returned halves not yet drained (`exec_event_queue`).
    event_queue: Arc<Gauge>,
    /// First lend → first said frame, µs (`exec_first_frame_us`).
    first_frame_us: Arc<AtomicHistogram>,
    /// First lend → done/error/drop, µs (`exec_settle_us`).
    settle_us: Arc<AtomicHistogram>,
    /// One `on_frame` call on a worker, µs — the decode cost for
    /// sketch-carrying frames (`exec_on_frame_us`).
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
            live: reg.gauge("exec_sessions_live"),
            event_queue: reg.gauge("exec_event_queue"),
            first_frame_us: reg.histogram("exec_first_frame_us"),
            settle_us: reg.histogram("exec_settle_us"),
            on_frame_us: reg.histogram("exec_on_frame_us"),
        }
    })
}

/// A wakeup hook a consumer can hang on the event stream: called after
/// *every* returned half, so a consumer that blocks somewhere other than
/// [`Events::next`] (e.g. a socket readiness loop in `poll(2)`) learns
/// there is something to drain. Must be cheap and must never block;
/// implementations typically flip an atomic and poke a self-pipe.
pub type Notify = Arc<dyn Fn() + Send + Sync>;

/// A [`Session`] with its error type erased to `String` and a `Send`
/// bound so it can move onto a worker. Blanket-implemented for
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

/// The executor's metrics clock for a half lent to the pool; halves
/// that only ever run inline carry none.
struct HalfObs {
    lent_at: Instant,
    first_frame_seen: bool,
}

impl HalfObs {
    fn open() -> HalfObs {
        let m = exec_metrics();
        m.submitted.inc();
        m.live.inc();
        HalfObs {
            lent_at: Instant::now(),
            first_frame_seen: false,
        }
    }

    fn note_frame_out(&mut self) {
        if !self.first_frame_seen {
            self.first_frame_seen = true;
            exec_metrics()
                .first_frame_us
                .record(self.lent_at.elapsed().as_micros() as u64);
        }
    }

    fn settle(self, completed: bool) {
        let m = exec_metrics();
        m.live.dec();
        m.settle_us
            .record(self.lent_at.elapsed().as_micros() as u64);
        if completed {
            m.completed.inc();
        } else {
            m.failed.inc();
        }
    }
}

/// One side of a session and everything a wake of it needs: the side it
/// plays and its transcript. Whoever drives the session owns it between
/// wakes; dropping it closes the session.
pub struct Half<'env> {
    session: Box<dyn DynSession + 'env>,
    party: Party,
    transcript: Transcript,
    obs: Option<HalfObs>,
}

impl<'env> Half<'env> {
    /// `session` playing `party`: frames it says are recorded in its
    /// transcript as sent by `party`, frames it is woken with as sent by
    /// `party.peer()`.
    pub fn new(party: Party, session: Box<dyn DynSession + 'env>) -> Half<'env> {
        Half {
            session,
            party,
            transcript: Transcript::new(),
            obs: None,
        }
    }

    /// Wakes the half once — the sequence every driver of a session
    /// runs, so transcript order has one definition. An `incoming` frame
    /// is recorded and handed to `on_frame`. Then `poll_send` is pumped
    /// until the session has nothing more to say: each frame is
    /// recorded, counted under `session_frames_<proto>` /
    /// `session_bits_<proto>` while recording is on, and passed to
    /// `send`. Returns whether the session is done; `Err` is the
    /// session's own error.
    pub fn step(
        &mut self,
        incoming: Option<Frame>,
        send: impl FnMut(Frame),
    ) -> Result<bool, String> {
        let outcome = self.run(incoming, send);
        if !matches!(outcome, Ok(false)) {
            if let Some(obs) = self.obs.take() {
                obs.settle(outcome.is_ok());
            }
        }
        outcome
    }

    fn run(
        &mut self,
        incoming: Option<Frame>,
        mut send: impl FnMut(Frame),
    ) -> Result<bool, String> {
        let Half {
            session,
            party,
            transcript,
            obs,
        } = self;
        if let Some(frame) = incoming {
            transcript.record_from(party.peer(), frame.label.clone(), frame.bit_len);
            let _span = obs.as_ref().map(|_| Span::new(&exec_metrics().on_frame_us));
            session.on_frame(frame)?;
        }
        let mut counters = None;
        while let Some(frame) = session.poll_send()? {
            transcript.record_from(*party, frame.label.clone(), frame.bit_len);
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
            if let Some(obs) = obs {
                obs.note_frame_out();
            }
            send(frame);
        }
        Ok(session.is_done())
    }

    /// Everything that crossed the half so far, both directions, in
    /// processing order; the half is closed.
    pub fn into_transcript(mut self) -> Transcript {
        std::mem::take(&mut self.transcript)
    }
}

impl Drop for Half<'_> {
    /// A lent half dropped before it settled was closed unfinished.
    fn drop(&mut self) {
        if let Some(obs) = self.obs.take() {
            obs.settle(false);
        }
    }
}

/// A half back from the pool.
pub struct ExecEvent<'env, K> {
    /// The key it was lent under.
    pub key: K,
    /// The half, its transcript updated.
    pub half: Half<'env>,
    /// The frames it said during the wake, in order.
    pub said: Vec<Frame>,
    /// [`Half::step`]'s outcome: `Ok(true)` once the session is done.
    pub outcome: Result<bool, String>,
}

/// Where a driver keeps one session half between wakes — a
/// connection's slot, or a [`drive_batch`] pair's side. The half is at
/// home or lent to the pool, never both; a frame that arrives while it
/// is lent waits here and is applied, in arrival order, once it returns.
#[derive(Default)]
pub enum Seat<'env> {
    /// No half: not begun, or closed.
    #[default]
    Empty,
    /// At home, waiting for its next frame.
    Home(Box<Half<'env>>),
    /// Lent to the pool, with the frames that arrived for it since.
    Lent(VecDeque<Frame>),
}

impl<'env> Seat<'env> {
    /// A frame for the half: the half to wake with it when it is home.
    /// While the half is lent the frame is held; with no half it is
    /// stale and dropped.
    pub fn deliver(&mut self, frame: Frame) -> Option<(Half<'env>, Frame)> {
        match self {
            Seat::Home(_) => return self.take().map(|half| (half, frame)),
            Seat::Lent(held) => held.push_back(frame),
            Seat::Empty => {}
        }
        None
    }

    /// The half, when it is at home; the seat is left empty.
    pub fn take(&mut self) -> Option<Half<'env>> {
        match std::mem::take(self) {
            Seat::Home(half) => Some(*half),
            other => {
                *self = other;
                None
            }
        }
    }

    /// The half came back unfinished: the next frame held for it, with
    /// the seat still lent, or `None` with the seat emptied for the
    /// caller to park or close the half.
    pub fn next_held(&mut self) -> Option<Frame> {
        let next = match self {
            Seat::Lent(held) => held.pop_front(),
            _ => None,
        };
        if next.is_none() {
            *self = Seat::Empty;
        }
        next
    }
}

/// One wake in the pool's queue.
struct Job<'env, K> {
    key: K,
    half: Half<'env>,
    incoming: Option<Frame>,
}

/// The feeding half of a running executor: lends halves to the pool.
pub struct Injector<'env, K> {
    jobs: mpsc::Sender<Job<'env, K>>,
    /// Queued-but-unrun wakes. The key `exec_shard0_mailbox` is the name
    /// the one queue's readers already know.
    queue: Arc<Gauge>,
}

impl<'env, K> Injector<'env, K> {
    /// Lends `half` to the pool for one wake with `incoming` (its opening
    /// say, when `None`), marking its `seat` lent. The first idle worker
    /// runs it, and it comes back under `key` on the [`Events`] stream.
    pub fn lend(
        &mut self,
        key: K,
        seat: &mut Seat<'env>,
        mut half: Half<'env>,
        incoming: Option<Frame>,
    ) {
        if !matches!(seat, Seat::Lent(_)) {
            *seat = Seat::Lent(VecDeque::new());
        }
        if rsr_obs::enabled() {
            // A half's clock starts at the first lend that finds
            // recording on.
            if half.obs.is_none() {
                half.obs = Some(HalfObs::open());
            }
            self.queue.inc();
        }
        // A send only fails once every worker died; their panics
        // resurface when the executor scope joins, so losing the wake is
        // moot.
        let _ = self.jobs.send(Job {
            key,
            half,
            incoming,
        });
    }
}

/// One poll of the event stream.
pub enum Wait<'env, K> {
    /// A half came back.
    Event(ExecEvent<'env, K>),
    /// Nothing arrived within the given timeout.
    Timeout,
    /// The executor is fully shut down: every worker and the
    /// [`Injector`] are gone and the stream is drained.
    Closed,
}

/// The consuming half of a running executor.
pub struct Events<'env, K> {
    rx: mpsc::Receiver<ExecEvent<'env, K>>,
}

impl<'env, K> Events<'env, K> {
    fn note_drained(ev: ExecEvent<'env, K>) -> ExecEvent<'env, K> {
        if rsr_obs::enabled() {
            exec_metrics().event_queue.dec();
        }
        ev
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Option<ExecEvent<'env, K>> {
        self.rx.try_recv().ok().map(Self::note_drained)
    }

    /// Blocks up to `timeout` (forever if `None`) for the next returned
    /// half.
    pub fn next(&self, timeout: Option<Duration>) -> Wait<'env, K> {
        let got = match timeout {
            None => self
                .rx
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            Some(t) => self.rx.recv_timeout(t),
        };
        match got {
            Ok(ev) => Wait::Event(Self::note_drained(ev)),
            Err(mpsc::RecvTimeoutError::Timeout) => Wait::Timeout,
            Err(mpsc::RecvTimeoutError::Disconnected) => Wait::Closed,
        }
    }
}

/// Runs `f` with a live executor: `shards` worker threads that take
/// wakes from one FIFO, an [`Injector`] to lend halves and an [`Events`]
/// stream they come back on. `notify` (when given) runs after every
/// returned half, from the worker that returned it: this is how a
/// consumer that blocks in a socket readiness wait rather than in
/// [`Events::next`] — `rsr-net`'s reactor — hears the executor.
///
/// Shutdown is by dropping: once the [`Injector`] is gone, workers finish
/// the wakes already queued and exit, and the stream then reports
/// [`Wait::Closed`]. The workers are joined before `with_executor`
/// returns.
pub fn with_executor<'env, K: Send + 'env, R>(
    shards: usize,
    notify: Option<Notify>,
    f: impl FnOnce(Injector<'env, K>, Events<'env, K>) -> R,
) -> R {
    assert!(shards >= 1, "executor needs at least one shard");
    let (job_tx, job_rx) = mpsc::channel::<Job<'env, K>>();
    let jobs = Mutex::new(job_rx);
    let queue = rsr_obs::global().gauge("exec_shard0_mailbox");
    std::thread::scope(|s| {
        let (event_tx, event_rx) = mpsc::channel();
        for _ in 0..shards {
            let (jobs, queue) = (&jobs, &queue);
            let (events, notify) = (event_tx.clone(), notify.clone());
            s.spawn(move || loop {
                // The lock is held only while waiting for the next wake
                // (so not in a `while let`, which would hold it through
                // the step): an idle worker takes the head of the queue.
                let next = jobs
                    .lock()
                    .expect("no worker panics while it holds the queue")
                    .recv();
                let Ok(Job {
                    key,
                    mut half,
                    incoming,
                }) = next
                else {
                    break;
                };
                if rsr_obs::enabled() {
                    queue.dec();
                }
                let mut said = Vec::new();
                let outcome = half.step(incoming, |frame| said.push(frame));
                let ev = ExecEvent {
                    key,
                    half,
                    said,
                    outcome,
                };
                if events.send(ev).is_ok() && rsr_obs::enabled() {
                    exec_metrics().event_queue.inc();
                }
                if let Some(notify) = &notify {
                    notify();
                }
            });
        }
        // Only workers return halves: the stream closes when the last of
        // them exits.
        drop(event_tx);
        let injector = Injector {
            jobs: job_tx,
            queue: Arc::clone(&queue),
        };
        f(injector, Events { rx: event_rx })
    })
}

/// One session pair's result from [`drive_batch`].
#[derive(Debug)]
pub struct PairOutcome {
    /// The Alice half's transcript: both directions, processing order —
    /// entry-for-entry what the serial loop records for the same pair.
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
/// over a `shards`-worker executor — the parallel counterpart of calling
/// [`crate::session::drive_in_memory`] on each pair in turn. `_seed` is
/// ignored.
///
/// Any idle worker runs any wake, so distinct pairs run concurrently.
/// The caller thread keeps every half between wakes and routes every
/// frame a half says to its peer — wake-on-frame, exactly the dispatch
/// the networked transports use.
///
/// Returns one [`PairOutcome`] per input pair, in input order. A pair
/// that has not finished when no half came back for `stall_timeout`
/// ends with [`STALLED`].
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
    _seed: u64,
    pairs: Vec<(Box<dyn DynSession + 'env>, Box<dyn DynSession + 'env>)>,
    stall_timeout: Duration,
) -> Vec<PairOutcome> {
    with_executor(shards, None, |mut injector, events| {
        let n = pairs.len();
        let mut outcomes = Vec::with_capacity(n);
        let mut seats: Vec<[Seat<'env>; 2]> = Vec::with_capacity(n);
        for (pair, (alice, bob)) in pairs.into_iter().enumerate() {
            let mut seat = <[Seat<'env>; 2]>::default();
            injector.lend(
                (pair, 0),
                &mut seat[0],
                Half::new(Party::Alice, alice),
                None,
            );
            injector.lend((pair, 1), &mut seat[1], Half::new(Party::Bob, bob), None);
            seats.push(seat);
            outcomes.push(PairOutcome {
                transcript: Transcript::new(),
                error: None,
            });
        }
        // Halves not yet finished; each is home or lent.
        let mut unfinished = 2 * n;
        let mut stalled = false;
        while unfinished > 0 {
            let ExecEvent {
                key: (pair, side),
                half,
                said,
                outcome,
            } = match events.next(Some(stall_timeout)) {
                Wait::Event(ev) => ev,
                // A half is still inside one wake a window later: its
                // pair already reads STALLED.
                Wait::Timeout if stalled => break,
                Wait::Timeout => {
                    // Nothing came back for a whole window: every pair
                    // with a half unfinished is stalled. Halves at home
                    // close now, lent ones when they come back.
                    stalled = true;
                    for (pair, halves) in seats.iter_mut().enumerate() {
                        for (side, seat) in halves.iter_mut().enumerate() {
                            if let Some(half) = seat.take() {
                                unfinished -= 1;
                                keep_transcript(&mut outcomes[pair], side, half);
                            } else if !matches!(seat, Seat::Lent(_)) {
                                continue;
                            }
                            outcomes[pair].error.get_or_insert_with(|| STALLED.into());
                        }
                    }
                    continue;
                }
                Wait::Closed => break,
            };
            let seat = &mut seats[pair][side];
            let closed = match outcome {
                Ok(false) => match seat.next_held() {
                    Some(frame) => {
                        injector.lend((pair, side), seat, half, Some(frame));
                        None
                    }
                    None if outcomes[pair].error.is_none() => {
                        *seat = Seat::Home(Box::new(half));
                        None
                    }
                    // Its peer failed, or the pair stalled.
                    None => Some((half, None)),
                },
                Ok(true) => Some((half, None)),
                Err(e) => Some((half, Some(e))),
            };
            if let Some((half, error)) = closed {
                *seat = Seat::Empty;
                unfinished -= 1;
                keep_transcript(&mut outcomes[pair], side, half);
                if let Some(e) = error {
                    outcomes[pair].error.get_or_insert(e);
                    // The peer can make no further progress: it closes
                    // now if home, when it comes back if lent.
                    if let Some(peer) = seats[pair][side ^ 1].take() {
                        unfinished -= 1;
                        keep_transcript(&mut outcomes[pair], side ^ 1, peer);
                    }
                }
            }
            let peer = &mut seats[pair][side ^ 1];
            for frame in said {
                if let Some((half, frame)) = peer.deliver(frame) {
                    injector.lend((pair, side ^ 1), peer, half, Some(frame));
                }
            }
        }
        outcomes
    })
}

/// Keeps a closed half's transcript when it is the pair's Alice.
fn keep_transcript(outcome: &mut PairOutcome, side: usize, half: Half<'_>) {
    if side == 0 {
        outcome.transcript = half.into_transcript();
    }
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
    fn a_half_comes_back_from_every_lend() {
        with_executor(4, None, |mut injector, events| {
            let echo = Pong {
                to_send: 0,
                expect: 8,
                echo: true,
            };
            let mut seat = Seat::Empty;
            injector.lend(7, &mut seat, Half::new(Party::Bob, Box::new(echo)), None);
            for round in 0..8 {
                let ev = match events.next(Some(Duration::from_secs(5))) {
                    Wait::Event(ev) => ev,
                    _ => panic!("round {round}: the half did not come back"),
                };
                assert_eq!(ev.key, 7);
                assert_eq!(ev.outcome, Ok(false));
                let mut w = BitWriter::new();
                w.write(round, 16);
                injector.lend(7, &mut seat, ev.half, Some(Frame::seal("ping", w)));
            }
            match events.next(Some(Duration::from_secs(5))) {
                Wait::Event(ev) => {
                    assert_eq!(ev.outcome, Ok(true));
                    assert_eq!(ev.half.into_transcript().num_messages(), 8 + 8);
                }
                _ => panic!("the last wake did not come back"),
            }
        });
    }

    #[test]
    fn next_times_out_while_sessions_live() {
        with_executor(1, None, |injector: Injector<'_, u64>, events| {
            // A live session waits with its driver, not on a worker: the
            // stream must report Timeout, not Closed — the executor is
            // still running.
            let _mute = Half::new(Party::Alice, Box::new(Mute));
            match events.next(Some(Duration::from_millis(50))) {
                Wait::Timeout => {}
                _ => panic!("expected Timeout"),
            }
            drop(injector);
            match events.next(Some(Duration::from_secs(5))) {
                Wait::Closed => {}
                _ => panic!("expected Closed"),
            }
        });
    }

    #[test]
    fn next_drains_pending_events_before_reporting_closed() {
        with_executor(1, None, |mut injector, events| {
            // Alice's opening wake is queued; dropping the injector right
            // behind the lend shuts the executor down with that wake (and
            // the half coming back) still unread.
            let alice = Half::new(Party::Alice, chat_pair(1).0);
            injector.lend(9, &mut Seat::Empty, alice, None);
            drop(injector);
            // A half lent before the injector went away still comes back;
            // Closed is only ever the end of a drained stream.
            match events.next(None) {
                Wait::Event(ev) => {
                    assert_eq!(ev.key, 9);
                    assert_eq!(ev.said.len(), 1);
                }
                _ => panic!("expected the lent half back"),
            }
            match events.next(Some(Duration::from_secs(5))) {
                Wait::Closed => {}
                _ => panic!("expected Closed"),
            }
        });
    }
}
