//! Bit-level packing for table serialization.
//!
//! The transcript accountant charges protocols per-field bit widths
//! (`wire_bits`); this module makes those numbers *real*: tables
//! serialize to byte buffers whose length is exactly the accounted bits
//! rounded up, via an MSB-first bit writer/reader and zigzag coding for
//! signed fields.
//!
//! Both ends move words, not bits. [`BitWriter`] shifts each field into a
//! 64-bit accumulator and appends it to the buffer eight big-endian bytes
//! at a time; a 128-bit field is two such pushes. [`BitReader`] checks
//! bounds once per field, then loads the 8-byte big-endian window the
//! field starts in and shifts it out; only a field in the buffer's last
//! 7 bytes takes a byte-copying path. The output is the MSB-first bit
//! string a one-bit-at-a-time codec would produce, byte for byte (the
//! unit tests check the two against each other), with the final byte
//! zero-padded.
//!
//! A *run* is a sequence of fields of one width, such as a RIBLT cell's
//! `d` coordinate sums or a sets-of-sets child's entries.
//! [`BitWriter::write_run`] makes one fit check for the whole run and
//! packs as many fields as fit a word before each push;
//! [`BitReader::read_run`] makes one bounds check and keeps its position
//! in a local across the run. A run's bits are those of as many
//! single-field `write`/`read` calls. A decoder whose run length comes
//! from the peer checks [`BitReader::has_bits`] before it allocates the
//! run's buffer.

/// Maps a signed value to an unsigned one with small absolute values
/// staying small (zigzag coding).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// 128-bit zigzag (RIBLT key/checksum sums).
#[inline]
pub fn zigzag128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Inverse of [`zigzag128`].
#[inline]
pub fn unzigzag128(u: u128) -> i128 {
    ((u >> 1) as i128) ^ -((u & 1) as i128)
}

/// MSB-first bit writer.
#[derive(Default, Debug)]
pub struct BitWriter {
    /// Whole 64-bit words flushed so far, big-endian.
    bytes: Vec<u8>,
    /// Pending bits, right-aligned: the low `pending` bits, oldest first
    /// from the top.
    acc: u64,
    /// Bits in `acc` (0..64).
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Creates an empty writer whose buffer already holds `bits` bits, so
    /// a message of known size (its `wire_bits`) never reallocates.
    pub fn with_capacity(bits: u64) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits.div_ceil(8) as usize),
            ..BitWriter::default()
        }
    }

    /// Writes the low `width` bits of `value` (width ≤ 64). Panics if the
    /// value does not fit.
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= 64);
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit {width} bits"
        );
        self.push(value, width);
    }

    /// Writes the low `width` bits of a 128-bit value (width ≤ 128).
    pub fn write128(&mut self, value: u128, width: u32) {
        assert!(width <= 128);
        assert!(
            width == 128 || value < (1u128 << width),
            "value does not fit {width} bits"
        );
        if width > 64 {
            self.push((value >> 64) as u64, width - 64);
            self.push(value as u64, 64);
        } else {
            self.push(value as u64, width);
        }
    }

    /// Writes `values` as a run of `width`-bit fields (width ≤ 64), each
    /// the low bits of `encode(value)`: the bits of one [`BitWriter::write`]
    /// per value, after one fit check for the whole run. Panics if any
    /// encoded value does not fit.
    pub fn write_run<T: Copy>(&mut self, values: &[T], width: u32, encode: impl Fn(T) -> u64) {
        assert!(width <= 64);
        let all = values.iter().fold(0, |all, &v| all | encode(v));
        assert!(
            width == 64 || all < (1u64 << width),
            "a value in the run does not fit {width} bits"
        );
        if width == 0 {
            return;
        }
        // As many whole fields as fit a word are packed side by side
        // first, then pushed as one field of their total width.
        let (mut acc, mut pending) = (self.acc, self.pending);
        for group in values.chunks((64 / width) as usize) {
            let (&first, rest) = group.split_first().expect("chunks are not empty");
            let packed = rest
                .iter()
                .fold(encode(first), |p, &v| (p << width) | encode(v));
            let bits = width * group.len() as u32;
            push(&mut self.bytes, &mut acc, &mut pending, packed, bits);
        }
        (self.acc, self.pending) = (acc, pending);
    }

    /// Appends the first `bits` bits of an MSB-first buffer, as a
    /// [`BitReader`] over `bytes` would read them; nothing past them is
    /// copied. Panics if `bytes` holds fewer than `bits` bits.
    pub fn write_bits(&mut self, bytes: &[u8], bits: u64) {
        assert!(
            bits <= bytes.len() as u64 * 8,
            "{bits} bits from a shorter buffer"
        );
        let words = (bits / 64) as usize;
        let (whole, rest) = bytes.split_at(words * 8);
        if self.pending == 0 {
            self.bytes.extend_from_slice(whole);
        } else {
            for word in whole.chunks_exact(8) {
                self.push(u64::from_be_bytes(word.try_into().expect("8 bytes")), 64);
            }
        }
        let tail = (bits % 64) as u32;
        if tail > 0 {
            let mut word = [0u8; 8];
            let used = tail.div_ceil(8) as usize;
            word[..used].copy_from_slice(&rest[..used]);
            self.push(u64::from_be_bytes(word) >> (64 - tail), tail);
        }
    }

    /// Appends `width ≤ 64` bits; `value < 2^width` is the caller's check.
    #[inline]
    fn push(&mut self, value: u64, width: u32) {
        push(
            &mut self.bytes,
            &mut self.acc,
            &mut self.pending,
            value,
            width,
        );
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Finishes, returning the byte buffer (zero-padded to a byte).
    pub fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            let word = self.acc << (64 - self.pending);
            let tail = self.pending.div_ceil(8) as usize;
            self.bytes.extend_from_slice(&word.to_be_bytes()[..tail]);
        }
        self.bytes
    }
}

/// Appends `width ≤ 64` bits to a writer's state, held wherever the
/// caller keeps it (its fields, or locals across a run); `value <
/// 2^width` is the caller's check.
#[inline]
fn push(bytes: &mut Vec<u8>, acc: &mut u64, pending: &mut u32, value: u64, width: u32) {
    let free = 64 - *pending;
    if width < free {
        // `width ≤ 63` here, so the shift is in range.
        *acc = (*acc << width) | value;
        *pending += width;
        return;
    }
    // The field fills the word: its top `free` bits complete it, the
    // remaining `spill < 64` bits start the next one.
    let spill = width - free;
    let top = value >> spill;
    let word = if free == 64 {
        top
    } else {
        (*acc << free) | top
    };
    bytes.extend_from_slice(&word.to_be_bytes());
    *acc = value & ((1u64 << spill) - 1);
    *pending = spill;
}

/// MSB-first bit reader.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a buffer.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `width` bits (≤ 64) as an unsigned value. Returns `None`,
    /// without advancing, on buffer exhaustion — and for `width > 64`,
    /// which no well-formed field has: widths derive from peer-declared
    /// sizes, so an oversized one is malformed input, not a caller bug.
    pub fn read(&mut self, width: u32) -> Option<u64> {
        if width > 64 || !self.has(width) {
            return None;
        }
        Some(self.take64(width))
    }

    /// Reads `width` bits (≤ 128).
    pub fn read128(&mut self, width: u32) -> Option<u128> {
        assert!(width <= 128);
        if !self.has(width) {
            return None;
        }
        Some(if width > 64 {
            let hi = self.take64(width - 64);
            (u128::from(hi) << 64) | u128::from(self.take64(64))
        } else {
            u128::from(self.take64(width))
        })
    }

    /// Reads a run of `out.len()` fields of `width` bits (≤ 64) into
    /// `out`, each passed through `decode`: what as many
    /// [`BitReader::read`] calls return, after one bounds check for the
    /// whole run. Returns `None`, without advancing or writing `out`, if
    /// the run does not fit in the buffer or, unless it is empty,
    /// `width > 64`.
    pub fn read_run<T>(
        &mut self,
        width: u32,
        out: &mut [T],
        decode: impl Fn(u64) -> T,
    ) -> Option<()> {
        if out.is_empty() {
            return Some(());
        }
        if width > 64 || !self.has_bits(u64::from(width).saturating_mul(out.len() as u64)) {
            return None;
        }
        let mut pos = self.pos;
        for slot in out.iter_mut() {
            *slot = decode(take64(self.bytes, &mut pos, width));
        }
        self.pos = pos;
        Some(())
    }

    /// Skips `bits` bits. Returns `None`, without advancing, if fewer
    /// remain.
    pub fn skip(&mut self, bits: u64) -> Option<()> {
        self.has_bits(bits).then(|| self.pos += bits)
    }

    /// Copies the next `bits` bits into `w` and skips them. Returns
    /// `None`, without advancing or writing, if fewer remain.
    pub fn copy_into(&mut self, bits: u64, w: &mut BitWriter) -> Option<()> {
        if !self.has_bits(bits) {
            return None;
        }
        if self.pos.is_multiple_of(8) {
            w.write_bits(&self.bytes[(self.pos / 8) as usize..], bits);
            self.pos += bits;
        } else {
            for _ in 0..bits / 64 {
                w.push(self.take64(64), 64);
            }
            let tail = (bits % 64) as u32;
            w.push(self.take64(tail), tail);
        }
        Some(())
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    fn has(&self, width: u32) -> bool {
        self.has_bits(u64::from(width))
    }

    /// True if at least `bits` bits remain: the check a decoder makes
    /// before it allocates for a peer-declared run.
    pub fn has_bits(&self, bits: u64) -> bool {
        bits <= (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
    }

    /// Takes `width ≤ 64` bits the bounds check has already admitted.
    #[inline]
    fn take64(&mut self, width: u32) -> u64 {
        take64(self.bytes, &mut self.pos, width)
    }
}

/// Takes `width ≤ 64` bits at `*pos`, which the bounds check has already
/// admitted, and advances `*pos` past them.
#[inline]
fn take64(bytes: &[u8], pos: &mut u64, width: u32) -> u64 {
    // One window serves up to 57 bits at any bit offset (0..=7).
    if width > 57 {
        let hi = take57(bytes, pos, width - 32);
        (hi << 32) | take57(bytes, pos, 32)
    } else {
        take57(bytes, pos, width)
    }
}

#[inline]
fn take57(bytes: &[u8], pos: &mut u64, width: u32) -> u64 {
    if width == 0 {
        return 0;
    }
    let at = (*pos / 8) as usize;
    let offset = (*pos % 8) as u32;
    let window = match bytes.get(at..at + 8) {
        Some(word) => u64::from_be_bytes(word.try_into().expect("8 bytes")),
        // The buffer's last 7 bytes: zero-fill past the end (the
        // bounds check keeps the field itself inside).
        None => {
            let mut word = [0u8; 8];
            let rest = &bytes[at..];
            word[..rest.len()].copy_from_slice(rest);
            u64::from_be_bytes(word)
        }
    };
    *pos += u64::from(width);
    (window << offset) >> (64 - width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The codec this module had before it moved words: one bit per loop
    /// iteration. Kept as the reference the word codec must equal.
    #[derive(Default)]
    struct BitModel {
        bytes: Vec<u8>,
        partial: u32,
    }

    impl BitModel {
        fn write128(&mut self, value: u128, width: u32) {
            for i in (0..width).rev() {
                let bit = ((value >> i) & 1) as u8;
                if self.partial == 0 {
                    self.bytes.push(0);
                }
                let last = self.bytes.last_mut().expect("pushed above");
                *last |= bit << (7 - self.partial);
                self.partial = (self.partial + 1) % 8;
            }
        }

        fn bit_len(&self) -> u64 {
            self.bytes.len() as u64 * 8
                - if self.partial == 0 {
                    0
                } else {
                    u64::from(8 - self.partial)
                }
        }
    }

    fn model_read128(bytes: &[u8], pos: &mut u64, width: u32) -> Option<u128> {
        if *pos + u64::from(width) > bytes.len() as u64 * 8 {
            return None;
        }
        let mut out = 0u128;
        for _ in 0..width {
            let bit = (bytes[(*pos / 8) as usize] >> (7 - (*pos % 8))) & 1;
            out = (out << 1) | u128::from(bit);
            *pos += 1;
        }
        Some(out)
    }

    /// A field width, weighted towards the boundaries of the word codec:
    /// empty, single bits, byte edges, the 57-bit window, the 64-bit
    /// word, and the 128-bit split.
    fn width(rng: &mut StdRng) -> u32 {
        const EDGES: [u32; 14] = [0, 1, 7, 8, 9, 56, 57, 63, 64, 65, 127, 128, 58, 121];
        if rng.gen_bool(0.6) {
            EDGES[rng.gen_range(0..EDGES.len())]
        } else {
            rng.gen_range(0..=128)
        }
    }

    /// A value of exactly `width` bits: zero, all ones, the top bit alone,
    /// or random.
    fn value(rng: &mut StdRng, width: u32) -> u128 {
        if width == 0 {
            return 0;
        }
        let ones = u128::MAX >> (128 - width);
        match rng.gen_range(0..4) {
            0 => 0,
            1 => ones,
            2 => 1u128 << (width - 1),
            _ => (u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>())) & ones,
        }
    }

    proptest! {
        #[test]
        fn word_codec_equals_the_bit_model(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fields: Vec<(u128, u32)> = (0..rng.gen_range(0..48))
                .map(|_| {
                    let w = width(&mut rng);
                    (value(&mut rng, w), w)
                })
                .collect();

            let mut writer = BitWriter::new();
            let mut model = BitModel::default();
            for &(v, w) in &fields {
                if w <= 64 && rng.gen_bool(0.5) {
                    writer.write(v as u64, w);
                } else {
                    writer.write128(v, w);
                }
                model.write128(v, w);
                prop_assert_eq!(writer.bit_len(), model.bit_len());
            }
            let bytes = writer.finish();
            prop_assert_eq!(&bytes, &model.bytes);

            // The same values come back, at the same positions as the
            // model's reader; past the end both refuse without moving.
            let mut reader = BitReader::new(&bytes);
            let mut model_pos = 0u64;
            for &(v, w) in &fields {
                let got = if w <= 64 && rng.gen_bool(0.5) {
                    reader.read(w).map(u128::from)
                } else {
                    reader.read128(w)
                };
                prop_assert_eq!(got, Some(v));
                prop_assert_eq!(model_read128(&bytes, &mut model_pos, w), Some(v));
                prop_assert_eq!(reader.bit_pos(), model_pos);
            }
            let padding = bytes.len() as u64 * 8 - reader.bit_pos();
            prop_assert!(padding < 8);
            let over = padding as u32 + 1 + rng.gen_range(0u32..64);
            let at = reader.bit_pos();
            prop_assert_eq!(reader.read128(over), None);
            prop_assert_eq!(reader.read(over.min(64)), None);
            prop_assert_eq!(reader.bit_pos(), at);
            prop_assert_eq!(reader.read(0), Some(0));
            prop_assert_eq!(reader.read(padding as u32), Some(0), "padding is zero");
        }
    }

    /// A run of `len` values of `width` bits, mixing all ones, the top
    /// bit alone, zero and seeded noise.
    fn run_values(width: u32, len: usize, seed: u64) -> Vec<u64> {
        let ones = u64::MAX >> (64 - width);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| match i % 4 {
                0 => ones,
                1 => 1u64 << (width - 1),
                2 => 0,
                _ => rng.gen::<u64>() & ones,
            })
            .collect()
    }

    #[test]
    fn runs_equal_that_many_single_field_calls() {
        for width in 1..=64u32 {
            for offset in 0..=63u32 {
                let lead = if offset == 0 {
                    0
                } else {
                    0x5a5a_5a5a_5a5a_5a5a_u64 >> (64 - offset)
                };
                for len in 0..=70usize {
                    let values = run_values(width, len, u64::from(width * 64 + offset));
                    let mut run = BitWriter::new();
                    let mut single = BitWriter::new();
                    for w in [&mut run, &mut single] {
                        w.write(lead, offset);
                    }
                    run.write_run(&values, width, |v| v);
                    for &v in &values {
                        single.write(v, width);
                    }
                    assert_eq!(run.bit_len(), single.bit_len());
                    let bytes = run.finish();
                    assert_eq!(bytes, single.finish(), "w{width} at {offset}, {len} fields");

                    // The run ends the buffer, so its last fields sit in
                    // the last 7 bytes and take the byte-copy path.
                    let mut by_run = BitReader::new(&bytes);
                    let mut by_field = BitReader::new(&bytes);
                    for r in [&mut by_run, &mut by_field] {
                        assert_eq!(r.read(offset), Some(lead));
                    }
                    let mut got = vec![u64::MAX; len];
                    assert_eq!(by_run.read_run(width, &mut got, |v| v), Some(()));
                    let one_by_one: Vec<u64> = (0..len)
                        .map(|_| by_field.read(width).expect("fits"))
                        .collect();
                    assert_eq!(got, one_by_one);
                    assert_eq!(got, values);
                    assert_eq!(by_run.bit_pos(), by_field.bit_pos());

                    // One byte short, the run does not fit: `None`, no
                    // move, `out` untouched.
                    let short = &bytes[..bytes.len().saturating_sub(1)];
                    if len > 0 && short.len() as u64 * 8 >= u64::from(offset) {
                        let mut r = BitReader::new(short);
                        assert_eq!(r.read(offset), Some(lead));
                        let mut out = vec![7u64; len];
                        assert_eq!(r.read_run(width, &mut out, |v| v), None);
                        assert_eq!(r.bit_pos(), u64::from(offset));
                        assert!(out.iter().all(|&v| v == 7));
                    }
                }
            }
        }
    }

    #[test]
    fn a_run_value_that_does_not_fit_panics() {
        for width in 1..=63u32 {
            for at in [0, 5, 69] {
                let mut values = run_values(width, 70, u64::from(width));
                values[at] = 1u64 << width;
                let panicked = std::panic::catch_unwind(|| {
                    BitWriter::new().write_run(&values, width, |v| v);
                });
                assert!(panicked.is_err(), "w{width}, field {at}");
            }
        }
    }

    #[test]
    fn oversize_run_width_is_malformed_and_an_empty_run_reads_nothing() {
        let buf = [0xffu8; 32];
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_run(65, &mut [0u64; 2], |v| v), None);
        assert_eq!(r.read_run(65, &mut [0u64; 0], |v| v), Some(()));
        assert_eq!(r.bit_pos(), 0);
    }

    #[test]
    fn copy_into_moves_the_same_bits_at_every_alignment() {
        let source: Vec<u8> = (0..40u8).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
        for start in 0..=63u64 {
            for bits in [0, 1, 7, 8, 63, 64, 65, 127, 128, 129, 200] {
                for lead in [0u32, 3, 8, 61] {
                    let mut r = BitReader::new(&source);
                    r.skip(start).expect("inside");
                    let mut copied = BitWriter::new();
                    copied.write(0, lead);
                    assert_eq!(r.copy_into(bits, &mut copied), Some(()));
                    assert_eq!(r.bit_pos(), start + bits);
                    let mut model = BitModel::default();
                    model.write128(0, lead);
                    let mut pos = start;
                    for _ in 0..bits {
                        let bit = model_read128(&source, &mut pos, 1).expect("inside");
                        model.write128(bit, 1);
                    }
                    assert_eq!(copied.bit_len(), model.bit_len());
                    assert_eq!(copied.finish(), model.bytes, "{bits} bits from {start}");
                }
            }
        }
        let mut r = BitReader::new(&source[..2]);
        assert_eq!(r.copy_into(17, &mut BitWriter::new()), None);
        assert_eq!(r.skip(17), None);
        assert_eq!(r.bit_pos(), 0);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        for v in [0i128, -1, i128::MAX, i128::MIN, -(1i128 << 100)] {
            assert_eq!(unzigzag128(zigzag128(v)), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_values_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn write_read_roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xDEADBEEF, 32);
        w.write(1, 1);
        w.write128(0x1234_5678_9ABC_DEF0_1111, 80);
        let bits = w.bit_len();
        assert_eq!(bits, 3 + 32 + 1 + 80);
        let buf = w.finish();
        assert_eq!(buf.len() as u64, bits.div_ceil(8));
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(32), Some(0xDEADBEEF));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read128(80), Some(0x1234_5678_9ABC_DEF0_1111));
        assert_eq!(r.bit_pos(), bits);
    }

    #[test]
    fn reader_detects_exhaustion() {
        let mut w = BitWriter::new();
        w.write(7, 3);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert!(r.read(3).is_some());
        // Padding bits remain but a 64-bit read must fail.
        assert!(r.read(64).is_none());
    }

    #[test]
    fn oversize_read_width_is_malformed_not_a_panic() {
        let buf = [0xffu8; 32];
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read(65), None);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(crate::wire::get_i64(&mut r, 96), None);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.read(64), Some(u64::MAX));
    }

    #[test]
    fn with_capacity_writes_the_same_bytes() {
        let mut a = BitWriter::new();
        let mut b = BitWriter::with_capacity(3 + 70);
        for w in [&mut a, &mut b] {
            w.write(5, 3);
            w.write128(1 << 69, 70);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    #[should_panic]
    fn oversize_value_rejected() {
        BitWriter::new().write(8, 3);
    }

    #[test]
    #[should_panic]
    fn oversize_value128_rejected() {
        BitWriter::new().write128(1 << 70, 70);
    }
}
