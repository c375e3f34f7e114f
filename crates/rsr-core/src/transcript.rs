//! Bit-exact communication accounting.
//!
//! Every protocol in this crate reports its communication through a
//! [`Transcript`]: a labelled list of messages with their wire sizes in
//! bits. The sizes are *measured* — whatever drives a session records the
//! encoded bit length of every [`crate::channel::Frame`] that crosses
//! between the parties — and the experiments compare the totals
//! against the paper's bounds (e.g. Corollary 3.5's
//! `O(k·d·log n·log(dn))`), so nothing may bypass the accounting.
//!
//! Messages and rounds are distinct quantities: a *round* is a contiguous
//! run of messages sent by one party before the direction flips (the
//! interval-scaled EMD protocol sends one message per interval but uses a
//! single round). [`Transcript::num_messages`] counts entries;
//! [`Transcript::num_rounds`] counts direction changes as observed on the
//! channel.

use std::borrow::Cow;
use std::fmt;

/// One of the two protocol parties. Sessions are written from a fixed
/// party's perspective; the driver uses this to route frames and the
/// transcript uses it to count rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Party {
    /// The party holding `S_A` (the sender in the one-way EMD model).
    Alice,
    /// The party holding `S_B` (the receiver in the one-way EMD model).
    Bob,
}

impl Party {
    /// The other party.
    pub fn peer(self) -> Party {
        match self {
            Party::Alice => Party::Bob,
            Party::Bob => Party::Alice,
        }
    }
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Party::Alice => write!(f, "alice"),
            Party::Bob => write!(f, "bob"),
        }
    }
}

/// One recorded message.
#[derive(Clone, Debug)]
struct Entry {
    /// Sender, when the message went through the session layer. Legacy
    /// single-shot accounting records `None`.
    from: Option<Party>,
    label: Cow<'static, str>,
    bits: u64,
}

/// A labelled record of every message a protocol run sent.
#[derive(Clone, Debug, Default)]
pub struct Transcript {
    entries: Vec<Entry>,
    rounds: usize,
    last_from: Option<Party>,
}

impl Transcript {
    /// Creates an empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Records a message of `bits` bits with no sender attribution. Each
    /// such message counts as its own round (the pre-session behaviour,
    /// kept for single-message accounting like exact reconciliation).
    pub fn record(&mut self, label: impl Into<Cow<'static, str>>, bits: u64) {
        self.entries.push(Entry {
            from: None,
            label: label.into(),
            bits,
        });
        self.rounds += 1;
        self.last_from = None;
    }

    /// Records a message sent by `from`. Consecutive messages from the
    /// same party belong to one round; the round counter advances exactly
    /// when the channel changes direction.
    pub fn record_from(&mut self, from: Party, label: impl Into<Cow<'static, str>>, bits: u64) {
        if self.last_from != Some(from) {
            self.rounds += 1;
            self.last_from = Some(from);
        }
        self.entries.push(Entry {
            from: Some(from),
            label: label.into(),
            bits,
        });
    }

    /// Appends another transcript's messages after this one's,
    /// replaying them through the same round accounting — a message
    /// continuing the direction this transcript ended on does not open
    /// a new round. Long-lived transports use this to accumulate
    /// per-round segment transcripts into one session record.
    pub fn append(&mut self, other: Transcript) {
        for e in other.entries {
            match e.from {
                Some(from) => self.record_from(from, e.label, e.bits),
                None => self.record(e.label, e.bits),
            }
        }
    }

    /// Total bits across all messages.
    pub fn total_bits(&self) -> u64 {
        self.entries.iter().map(|e| e.bits).sum()
    }

    /// Total bytes (each message rounded up to whole bytes, matching the
    /// byte buffers that actually crossed the channel).
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bits.div_ceil(8)).sum()
    }

    /// Number of messages recorded. Not the number of rounds: see
    /// [`Transcript::num_rounds`].
    pub fn num_messages(&self) -> usize {
        self.entries.len()
    }

    /// Number of rounds: maximal runs of consecutive messages in one
    /// direction, driven by the actual channel turns in the session layer.
    pub fn num_rounds(&self) -> usize {
        self.rounds
    }

    /// Iterates over `(label, bits)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|e| (e.label.as_ref(), e.bits))
    }

    /// Iterates over `(sender, label, bits)` entries; the sender is `None`
    /// for legacy unattributed records.
    pub fn entries_with_sender(&self) -> impl Iterator<Item = (Option<Party>, &str, u64)> {
        self.entries
            .iter()
            .map(|e| (e.from, e.label.as_ref(), e.bits))
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{}: {} bits", e.label, e.bits)?;
        }
        write!(
            f,
            "total: {} bits in {} messages / {} rounds",
            self.total_bits(),
            self.num_messages(),
            self.num_rounds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_entries() {
        let mut t = Transcript::new();
        t.record("round 1", 100);
        t.record("round 2", 28);
        assert_eq!(t.total_bits(), 128);
        assert_eq!(t.total_bytes(), 13 + 4);
        assert_eq!(t.num_messages(), 2);
        assert_eq!(t.num_rounds(), 2);
    }

    #[test]
    fn bytes_round_up_per_message() {
        let mut t = Transcript::new();
        t.record("x", 9);
        assert_eq!(t.total_bytes(), 2);
        t.record("y", 9);
        // Two 2-byte buffers crossed the wire, not one 3-byte buffer.
        assert_eq!(t.total_bytes(), 4);
    }

    #[test]
    fn rounds_follow_direction_changes() {
        let mut t = Transcript::new();
        t.record_from(Party::Alice, "interval 0", 10);
        t.record_from(Party::Alice, "interval 1", 10);
        t.record_from(Party::Alice, "interval 2", 10);
        assert_eq!(t.num_messages(), 3);
        assert_eq!(t.num_rounds(), 1);
        t.record_from(Party::Bob, "reply", 5);
        assert_eq!(t.num_rounds(), 2);
        t.record_from(Party::Alice, "follow-up", 5);
        assert_eq!(t.num_rounds(), 3);
        assert_eq!(t.num_messages(), 5);
    }

    #[test]
    fn party_peer_flips() {
        assert_eq!(Party::Alice.peer(), Party::Bob);
        assert_eq!(Party::Bob.peer(), Party::Alice);
        assert_eq!(format!("{}→{}", Party::Alice, Party::Bob), "alice→bob");
    }

    #[test]
    fn display_lists_entries() {
        let mut t = Transcript::new();
        t.record("m", 8);
        let s = format!("{t}");
        assert!(s.contains("m: 8 bits"));
        assert!(s.contains("total: 8 bits"));
    }
}
