//! Session halves and the in-process batch driver.
//!
//! * **A half lives with its driver.** A [`Half`] — the session, the
//!   side it plays, its transcript — is owned by whoever drives it: a
//!   connection's row in `rsr-net`, whose reactor steps it inline for
//!   every record it reads. Dropping it closes the session.
//! * [`Half::step`] is the one wake sequence — `on_frame`, then
//!   `poll_send` until the half has nothing more to say — so every
//!   transcript records both directions in processing order, entry for
//!   entry what the serial loop [`crate::session::drive_in_memory`]
//!   records for the same session.
//! * [`drive_batch`] runs many in-process pairs on a few scoped threads,
//!   each pair through the serial loop.
//!
//! The paper's protocols strictly alternate, so a half never has two
//! wakes pending and nothing can overlap a session with itself. What a
//! pool of workers could overlap is different sessions of one
//! connection, and the connections of one client; without one, those
//! share their reactor's thread, and parallelism comes from more
//! server reactors and more connections instead.

use crate::channel::Frame;
use crate::session::{drive_in_memory, DriveError, Session};
use crate::transcript::{Party, Transcript};
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

/// A [`Session`] with its error type erased to `String` and a `Send`
/// bound, so one connection can hold halves of different protocols and
/// [`drive_batch`] can move them onto its threads. Blanket-implemented
/// for every sendable `Session` whose error displays; `rsr-net`
/// re-exports this trait as `NetSession`.
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

/// One side of a session and everything a wake of it needs: the side it
/// plays and its transcript. Whoever drives the session owns it between
/// wakes; dropping it closes the session.
pub struct Half<'env> {
    session: Box<dyn DynSession + 'env>,
    party: Party,
    transcript: Transcript,
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
        mut send: impl FnMut(Frame),
    ) -> Result<bool, String> {
        let Half {
            session,
            party,
            transcript,
        } = self;
        if let Some(frame) = incoming {
            transcript.record_from(party.peer(), frame.label.clone(), frame.bit_len);
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
            send(frame);
        }
        Ok(session.is_done())
    }

    /// Everything that crossed the half so far, both directions, in
    /// processing order; the half is closed.
    pub fn into_transcript(self) -> Transcript {
        self.transcript
    }
}

/// One session pair's result from [`drive_batch`].
#[derive(Debug)]
pub struct PairOutcome {
    /// Both directions, in processing order — entry-for-entry what the
    /// serial loop records for the same pair. Empty when the pair failed.
    pub transcript: Transcript,
    /// `None` when both halves completed; the first error otherwise
    /// (protocol errors from either half, or [`STALLED`]).
    pub error: Option<String>,
}

impl PairOutcome {
    /// True when both halves ran to completion.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// The stall timeout callers of [`drive_batch`] pass. The driver
/// ignores it: a stall is the serial loop's deterministic
/// [`DriveError::Stalled`] — two turns in a row in which neither half
/// said anything — not a window of silence.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Error string reported for pairs that stop making progress, matching
/// the serial driver's stall diagnosis.
pub const STALLED: &str = "sessions stalled without finishing";

/// A boxed half seen through the typed [`Session`] trait, so the serial
/// loop can drive it.
struct Erased<'a, 'env>(&'a mut (dyn DynSession + 'env));

impl Session for Erased<'_, '_> {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        self.0.poll_send()
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        self.0.on_frame(frame)
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn protocol(&self) -> &'static str {
        self.0.protocol()
    }
}

/// Drives a batch of in-process Alice/Bob session pairs to completion on
/// `shards` scoped threads — the parallel counterpart of calling
/// [`crate::session::drive_in_memory`] on each pair in turn. Each thread
/// takes the next pair from one shared queue and runs it through the
/// serial loop, Alice's turn first (a Bob-first protocol's Alice has
/// nothing to say on it), so no thread idles while a pair waits and
/// distinct pairs run concurrently. `_seed` and `_stall_timeout` are
/// ignored.
///
/// Returns one [`PairOutcome`] per input pair, in input order. A pair in
/// which neither half says anything for two turns in a row ends with
/// [`STALLED`].
///
/// Driving a batch of real protocol sessions across 2 threads — the
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
    _stall_timeout: Duration,
) -> Vec<PairOutcome> {
    let mut outcomes: Vec<Option<PairOutcome>> = pairs.iter().map(|_| None).collect();
    let threads = shards.clamp(1, pairs.len().max(1));
    let queue = Mutex::new(pairs.into_iter().enumerate());
    let next = || {
        queue
            .lock()
            .expect("no thread panics holding the queue")
            .next()
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((i, (mut alice, mut bob))) = next() {
                        done.push((i, drive_pair(&mut *alice, &mut *bob)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (i, outcome) in worker.join().expect("a pair's session panicked") {
                outcomes[i] = Some(outcome);
            }
        }
    });
    outcomes
        .into_iter()
        .map(|o| o.expect("every pair is driven"))
        .collect()
}

/// One pair through the serial loop.
fn drive_pair(alice: &mut dyn DynSession, bob: &mut dyn DynSession) -> PairOutcome {
    match drive_in_memory(Party::Alice, &mut Erased(alice), &mut Erased(bob)) {
        Ok(transcript) => PairOutcome {
            transcript,
            error: None,
        },
        Err(e) => PairOutcome {
            transcript: Transcript::new(),
            error: Some(match e {
                DriveError::Session(e) => e,
                DriveError::Stalled => STALLED.to_owned(),
            }),
        },
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
}
