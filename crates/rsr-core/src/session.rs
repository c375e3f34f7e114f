//! Two-party session state machines and the serial loop that runs them.
//!
//! Each protocol is split into an Alice-side and a Bob-side [`Session`]:
//! poll-style state machines that *only* exchange encoded [`Frame`]s.
//! The in-memory [`drive_in_memory`] loop alternates turns — drain
//! everything the sending party has to say, deliver it, flip — and
//! records every frame's measured bit length into a [`Transcript`],
//! which is also where rounds are counted: one round per direction
//! change, as actually observed between the parties.
//!
//! The `run(&alice, &bob)` entry points are thin wrappers that build
//! both sessions, [`drive_in_memory`] them, and assemble the outcome;
//! the executor and `rsr-net` replace the loop, never the sessions.

use crate::channel::Frame;
use crate::transcript::{Party, Transcript};
use std::collections::VecDeque;
use std::fmt;

/// One party's half of a protocol, as a poll-style state machine.
///
/// The driver calls [`Session::poll_send`] until it returns `Ok(None)`
/// (everything this party can say right now has been said), delivers the
/// frames, then gives the peer the same treatment. A session signals
/// completion through [`Session::is_done`]; a protocol-level failure (a
/// table that does not decode, a malformed frame) surfaces as `Err` from
/// either method and aborts the drive.
///
/// A minimal one-message protocol, driven to completion in memory:
///
/// ```
/// use rsr_core::{drive_in_memory, Frame, Party, Session};
/// use rsr_iblt::bits::BitWriter;
///
/// /// Alice sends one 16-bit number; Bob stores it.
/// struct Sender(Option<u64>);
/// struct Receiver(Option<u64>);
///
/// impl Session for Sender {
///     type Error = String;
///     fn poll_send(&mut self) -> Result<Option<Frame>, String> {
///         Ok(self.0.take().map(|v| {
///             let mut w = BitWriter::new();
///             w.write(v, 16);
///             Frame::seal("value", w)
///         }))
///     }
///     fn on_frame(&mut self, _: Frame) -> Result<(), String> {
///         Err("one-way protocol".into())
///     }
///     fn is_done(&self) -> bool {
///         self.0.is_none()
///     }
/// }
///
/// impl Session for Receiver {
///     type Error = String;
///     fn poll_send(&mut self) -> Result<Option<Frame>, String> {
///         Ok(None)
///     }
///     fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
///         self.0 = frame.decode_exact(|r| r.read(16)).ok_or("short frame")?.into();
///         Ok(())
///     }
///     fn is_done(&self) -> bool {
///         self.0.is_some()
///     }
/// }
///
/// let (mut alice, mut bob) = (Sender(Some(4242)), Receiver(None));
/// let transcript = drive_in_memory(Party::Alice, &mut alice, &mut bob).unwrap();
/// assert_eq!(bob.0, Some(4242));
/// assert_eq!(transcript.total_bits(), 16);
/// assert_eq!(transcript.num_rounds(), 1);
/// ```
///
/// The real protocols expose their halves the same way — e.g.
/// [`crate::EmdProtocol::alice_session`] / `bob_session` — so one driver
/// runs them all.
pub trait Session {
    /// Protocol-level error (e.g. [`crate::EmdFailure`]).
    type Error;

    /// The next frame this party wants to send, if it is its turn.
    fn poll_send(&mut self) -> Result<Option<Frame>, Self::Error>;

    /// Delivers an incoming frame.
    fn on_frame(&mut self, frame: Frame) -> Result<(), Self::Error>;

    /// True once this party's half of the protocol has finished.
    fn is_done(&self) -> bool;

    /// A short static protocol name for metrics attribution (e.g.
    /// `"emd"`, `"scaled_emd"`, `"gap"`). The executor buckets its
    /// per-protocol frame and bit counters under this key; the default
    /// covers ad-hoc sessions that never appear in reports.
    fn protocol(&self) -> &'static str {
        "session"
    }
}

/// Why a [`drive_in_memory`] call stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriveError<E> {
    /// A session reported a protocol error.
    Session(E),
    /// Neither party made progress for a full cycle of turns while at
    /// least one was unfinished — a protocol logic bug, not a data error.
    Stalled,
}

impl<E: fmt::Display> fmt::Display for DriveError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Session(e) => write!(f, "session error: {e}"),
            DriveError::Stalled => write!(f, "sessions stalled without finishing"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for DriveError<E> {}

/// Runs two sessions to completion in one thread, starting with
/// `first`'s turn: each turn drains everything the sender has to say,
/// then delivers it to the peer in send order. Returns the transcript of
/// every frame that crossed, with measured sizes and turn-driven round
/// counts — the single-process path every `run(&alice, &bob)` wrapper
/// uses.
///
/// Driving a real protocol (Algorithm 1) — the transcript reports the
/// *measured* encoded sizes:
///
/// ```
/// use rsr_core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
/// use rsr_core::{drive_in_memory, Party};
/// use rsr_metric::{MetricSpace, Point};
///
/// let space = MetricSpace::hamming(8);
/// let pts: Vec<Point> = (0..8i64)
///     .map(|i| Point::new((0..8).map(|b| (i >> b) & 1).collect()))
///     .collect();
/// let cfg = EmdProtocolConfig::for_space(&space, pts.len(), 1);
/// let proto = EmdProtocol::new(space, cfg, 7);
///
/// let mut alice = proto.alice_session(&pts);
/// let mut bob = proto.bob_session(&pts);
/// let transcript = drive_in_memory(Party::Alice, &mut alice, &mut bob).unwrap();
/// assert_eq!(transcript.num_rounds(), 1); // one-way: Alice → Bob
/// assert_eq!(transcript.num_messages(), 1);
/// assert_eq!(bob.into_outcome().unwrap().reconciled.len(), pts.len());
/// ```
pub fn drive_in_memory<'a, E>(
    first: Party,
    alice: &'a mut dyn Session<Error = E>,
    bob: &'a mut dyn Session<Error = E>,
) -> Result<Transcript, DriveError<E>> {
    let mut transcript = Transcript::new();
    // The frames of one turn, in send order; empty between turns.
    let mut in_flight = VecDeque::new();
    let mut turn = first;
    let mut idle_turns = 0u32;
    while !(alice.is_done() && bob.is_done()) {
        let (sender, receiver) = match turn {
            Party::Alice => (&mut *alice, &mut *bob),
            Party::Bob => (&mut *bob, &mut *alice),
        };
        while let Some(frame) = sender.poll_send().map_err(DriveError::Session)? {
            transcript.record_from(turn, frame.label.clone(), frame.bit_len);
            in_flight.push_back(frame);
        }
        if in_flight.is_empty() {
            idle_turns += 1;
            if idle_turns >= 2 {
                return Err(DriveError::Stalled);
            }
        } else {
            idle_turns = 0;
        }
        while let Some(frame) = in_flight.pop_front() {
            receiver.on_frame(frame).map_err(DriveError::Session)?;
        }
        turn = turn.peer();
    }
    Ok(transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_iblt::bits::BitWriter;

    /// Sends `count` frames on its first turn, then waits for one reply.
    struct Chatter {
        to_send: usize,
        got_reply: bool,
        reply_when_done_sending: bool,
        received: Vec<String>,
    }

    impl Session for Chatter {
        type Error = String;

        fn poll_send(&mut self) -> Result<Option<Frame>, String> {
            if self.to_send > 0 {
                self.to_send -= 1;
                let mut w = BitWriter::new();
                w.write(self.to_send as u64, 16);
                return Ok(Some(Frame::seal(format!("msg {}", self.to_send), w)));
            }
            Ok(None)
        }

        fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
            self.received.push(frame.label.into_owned());
            if self.reply_when_done_sending {
                self.to_send = 1;
                self.reply_when_done_sending = false;
            } else {
                self.got_reply = true;
            }
            Ok(())
        }

        fn is_done(&self) -> bool {
            self.to_send == 0 && (self.got_reply || !self.received.is_empty())
        }
    }

    #[test]
    fn burst_then_reply_counts_two_rounds() {
        let mut alice = Chatter {
            to_send: 3,
            got_reply: false,
            reply_when_done_sending: false,
            received: vec![],
        };
        let mut bob = Chatter {
            to_send: 0,
            got_reply: true,
            reply_when_done_sending: true,
            received: vec![],
        };
        let t = drive_in_memory(Party::Alice, &mut alice, &mut bob).expect("completes");
        // Alice's 3-frame burst is one round; Bob's reply is a second.
        assert_eq!(t.num_messages(), 4);
        assert_eq!(t.num_rounds(), 2);
        assert_eq!(bob.received.len(), 3);
        assert_eq!(alice.received.len(), 1);
        assert_eq!(t.total_bits(), 4 * 16);
    }

    #[test]
    fn a_burst_reaches_the_peer_in_send_order() {
        let mut alice = Chatter {
            to_send: 3,
            got_reply: false,
            reply_when_done_sending: false,
            received: vec![],
        };
        let mut bob = Chatter {
            to_send: 0,
            got_reply: true,
            reply_when_done_sending: true,
            received: vec![],
        };
        drive_in_memory(Party::Alice, &mut alice, &mut bob).expect("completes");
        assert_eq!(bob.received, ["msg 2", "msg 1", "msg 0"]);
    }

    /// A session that claims to be unfinished but never sends.
    struct Mute;

    impl Session for Mute {
        type Error = String;

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
    fn stalled_sessions_are_detected() {
        let mut a = Mute;
        let mut b = Mute;
        let err = drive_in_memory(Party::Alice, &mut a, &mut b).unwrap_err();
        assert_eq!(err, DriveError::Stalled);
    }

    /// Errors from `on_frame` abort the drive.
    struct Rejecting;

    impl Session for Rejecting {
        type Error = String;

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
    fn session_errors_propagate() {
        let mut alice = Chatter {
            to_send: 1,
            got_reply: true,
            reply_when_done_sending: false,
            received: vec![],
        };
        let mut bob = Rejecting;
        let err = drive_in_memory(Party::Alice, &mut alice, &mut bob).unwrap_err();
        assert_eq!(err, DriveError::Session("bad frame".into()));
    }
}
