//! Message transport between the two protocol parties.
//!
//! A [`Frame`] is one protocol message as it exists on the wire: a label
//! (for transcript accounting), the encoded byte payload, and the exact
//! encoded bit length (the payload is that length rounded up to whole
//! bytes). Every way of running sessions — the serial loop
//! [`crate::session::drive_in_memory`], the executor, `rsr-net`'s
//! sockets — moves the same frames by its own means. A session never
//! sees anything but frames.

use rsr_iblt::bits::{BitReader, BitWriter};
use std::borrow::Cow;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
