//! Message transport between the two protocol parties.
//!
//! A [`Frame`] is one protocol message as it exists on the wire: a label
//! (for transcript accounting), the encoded byte payload, and the exact
//! encoded bit length (the payload is that length rounded up to whole
//! bytes). An [`InMemoryChannel`] moves frames between the two parties of
//! a single-process run ([`crate::session::drive`]); every other way of
//! running sessions — the sharded executor, `rsr-net`'s sockets — moves
//! the same frames by its own means. A session never sees anything but
//! frames.

use crate::transcript::Party;
use rsr_iblt::bits::{BitReader, BitWriter};
use std::borrow::Cow;
use std::collections::VecDeque;

/// One encoded protocol message in flight.
///
/// The label is a `Cow<'static, str>` because almost every frame carries
/// one of a handful of fixed protocol labels; only computed labels (e.g.
/// the scaled-EMD per-interval ones) pay for an owned `String`.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Transcript label, e.g. `"alice→bob: RIBLTs"`.
    pub label: Cow<'static, str>,
    /// The encoded bytes (the final byte may be zero-padded).
    pub payload: Vec<u8>,
    /// Exact encoded length in bits; `payload.len() == bit_len.div_ceil(8)`.
    pub bit_len: u64,
}

impl Frame {
    /// Seals a finished encoder into a frame, measuring its size.
    pub fn seal(label: impl Into<Cow<'static, str>>, writer: BitWriter) -> Frame {
        let bit_len = writer.bit_len();
        let payload = writer.finish();
        debug_assert_eq!(payload.len() as u64, bit_len.div_ceil(8));
        Frame {
            label: label.into(),
            payload,
            bit_len,
        }
    }

    /// A reader over the payload, for decoding.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(&self.payload)
    }

    /// Runs a decoder over the payload and verifies it consumed *exactly*
    /// the frame's encoded bits — a well-formed prefix followed by
    /// trailing garbage (e.g. two concatenated messages) is rejected,
    /// never silently half-decoded. Final-byte zero padding is the only
    /// tolerated slack, and it must be zero: a set padding bit would make
    /// a second encoding of the same message, so it is rejected too.
    pub fn decode_exact<T>(
        &self,
        decode: impl FnOnce(&mut BitReader<'_>) -> Option<T>,
    ) -> Option<T> {
        if self.payload.len() as u64 != self.bit_len.div_ceil(8) {
            return None;
        }
        let pad_bits = (8 - self.bit_len % 8) % 8;
        if self
            .payload
            .last()
            .is_some_and(|&b| b & ((1u8 << pad_bits) - 1) != 0)
        {
            return None;
        }
        let mut r = self.reader();
        let value = decode(&mut r)?;
        (r.bit_pos() == self.bit_len).then_some(value)
    }
}

/// Frame/byte/bit totals over the traffic a channel carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Frames counted.
    pub frames: usize,
    /// Payload bytes counted (each frame's byte buffer).
    pub bytes: u64,
    /// Exact encoded bits counted; `bytes` is this with every frame
    /// rounded up to whole bytes.
    pub bits: u64,
}

impl ChannelCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ChannelCounters::default()
    }

    /// Adds one frame's payload to the totals.
    pub fn note(&mut self, frame: &Frame) {
        self.frames += 1;
        self.bytes += frame.payload.len() as u64;
        self.bits += frame.bit_len;
    }
}

/// The in-process transport: two FIFO queues plus delivery counters, so
/// tests can check that transcript totals equal what actually crossed the
/// channel.
///
/// ```
/// use rsr_core::{Frame, InMemoryChannel, Party};
/// use rsr_iblt::bits::BitWriter;
///
/// let mut channel = InMemoryChannel::new();
/// let mut w = BitWriter::new();
/// w.write(0b1011, 4);
/// channel.send(Party::Alice, Frame::seal("hello", w));
///
/// let frame = channel.recv(Party::Bob).expect("queued for Bob");
/// assert_eq!(frame.label, "hello");
/// assert_eq!(frame.bit_len, 4);
/// assert_eq!(frame.decode_exact(|r| r.read(4)), Some(0b1011));
/// assert!(channel.recv(Party::Bob).is_none()); // queue drained
/// ```
#[derive(Debug, Default)]
pub struct InMemoryChannel {
    to_alice: VecDeque<Frame>,
    to_bob: VecDeque<Frame>,
    sent: ChannelCounters,
}

impl InMemoryChannel {
    /// Creates an empty channel.
    pub fn new() -> Self {
        InMemoryChannel::default()
    }

    /// Number of frames sent so far (both directions).
    pub fn frames_sent(&self) -> usize {
        self.sent.frames
    }

    /// Total payload bytes sent so far (both directions).
    pub fn bytes_sent(&self) -> u64 {
        self.sent.bytes
    }

    /// Total encoded bits sent so far (both directions); `bytes_sent` is
    /// this quantity with every frame rounded up to whole bytes.
    pub fn bits_sent(&self) -> u64 {
        self.sent.bits
    }

    /// Enqueues a frame from `from` towards its peer.
    pub fn send(&mut self, from: Party, frame: Frame) {
        self.sent.note(&frame);
        match from {
            Party::Alice => self.to_bob.push_back(frame),
            Party::Bob => self.to_alice.push_back(frame),
        }
    }

    /// Dequeues the next frame addressed *to* `to`; `None` when the
    /// queue is momentarily empty.
    pub fn recv(&mut self, to: Party) -> Option<Frame> {
        match to {
            Party::Alice => self.to_alice.pop_front(),
            Party::Bob => self.to_bob.pop_front(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(label: &'static str, bits: u64) -> Frame {
        let mut w = BitWriter::new();
        w.write128(0, (bits % 128) as u32);
        for _ in 0..bits / 128 {
            w.write128(0, 128);
        }
        Frame::seal(label, w)
    }

    #[test]
    fn frames_route_to_the_peer() {
        let mut ch = InMemoryChannel::new();
        ch.send(Party::Alice, frame("a→b", 10));
        ch.send(Party::Bob, frame("b→a", 20));
        assert_eq!(ch.recv(Party::Bob).unwrap().label, "a→b");
        assert_eq!(ch.recv(Party::Alice).unwrap().label, "b→a");
        assert!(ch.recv(Party::Alice).is_none());
        assert!(ch.recv(Party::Bob).is_none());
    }

    #[test]
    fn counters_measure_traffic() {
        let mut ch = InMemoryChannel::new();
        ch.send(Party::Alice, frame("x", 9));
        ch.send(Party::Alice, frame("y", 130));
        assert_eq!(ch.frames_sent(), 2);
        assert_eq!(ch.bits_sent(), 139);
        assert_eq!(ch.bytes_sent(), 2 + 17);
    }

    #[test]
    fn seal_measures_exact_bits() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(7, 32);
        let f = Frame::seal("m", w);
        assert_eq!(f.bit_len, 35);
        assert_eq!(f.payload.len(), 5);
        let mut r = f.reader();
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(32), Some(7));
    }

    #[test]
    fn decode_exact_rejects_partial_consumption() {
        let mut w = BitWriter::new();
        w.write(7, 16);
        w.write(9, 16); // trailing content a 16-bit decoder won't consume
        let f = Frame::seal("m", w);
        assert_eq!(f.decode_exact(|r| r.read(16)), None);
        assert_eq!(f.decode_exact(|r| r.read(32)), Some((7 << 16) | 9));
        // A frame whose payload disagrees with its claimed bit length is
        // rejected before the decoder even runs.
        let mut bad = f.clone();
        bad.payload.push(0xFF);
        assert_eq!(bad.decode_exact(|r| r.read(32)), None);
    }

    #[test]
    fn decode_exact_rejects_set_padding_bits() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        let f = Frame::seal("m", w);
        assert_eq!(f.payload, [0b1010_0000]);
        assert_eq!(f.decode_exact(|r| r.read(3)), Some(0b101));
        // Every one of the five padding bits, set alone, is refused.
        for bit in 0..5 {
            let mut bad = f.clone();
            bad.payload[0] |= 1 << bit;
            assert_eq!(bad.decode_exact(|r| r.read(3)), None, "pad bit {bit}");
        }
        // A frame ending on a byte boundary has no padding to check.
        let mut w = BitWriter::new();
        w.write(0xff, 8);
        assert_eq!(Frame::seal("m", w).decode_exact(|r| r.read(8)), Some(0xff));
    }

    #[test]
    fn fifo_order_within_a_direction() {
        let mut ch = InMemoryChannel::new();
        ch.send(Party::Alice, frame("first", 8));
        ch.send(Party::Alice, frame("second", 8));
        assert_eq!(ch.recv(Party::Bob).unwrap().label, "first");
        assert_eq!(ch.recv(Party::Bob).unwrap().label, "second");
    }
}
