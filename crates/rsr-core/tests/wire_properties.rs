//! Property tests for the wire codec: every protocol message type must
//! encode to real bytes and decode back byte-exactly, and the transcript
//! totals a session run reports must equal the sum of the encoded message
//! lengths that crossed between the parties.

use proptest::prelude::*;
use rsr_core::emd_protocol::{EmdMessage, EmdProtocol, EmdProtocolConfig};
use rsr_core::gap_protocol::{GapConfig, GapProtocol};
use rsr_core::session::drive_in_memory;
use rsr_core::transcript::Party;
use rsr_core::ScaledEmdProtocol;
use rsr_hash::lsh::LshParams;
use rsr_hash::BitSamplingFamily;
use rsr_iblt::bits::{zigzag, BitReader, BitWriter};
use rsr_iblt::wire::CellWidths;
use rsr_metric::{GridUniverse, MetricSpace, Point};

fn binary_points(n: usize, dim: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::btree_set(prop::collection::vec(0i64..2, dim), n..=n)
        .prop_map(|s| s.into_iter().map(Point::new).collect())
}

/// Overwrites the `width`-bit field at bit `pos` (MSB first) with `value`.
fn set_bits(bytes: &mut [u8], pos: u64, width: u32, value: u64) {
    for i in 0..u64::from(width) {
        let bit = (value >> (u64::from(width) - 1 - i)) & 1;
        let (byte, shift) = (((pos + i) / 8) as usize, 7 - (pos + i) % 8);
        bytes[byte] = (bytes[byte] & !(1 << shift)) | ((bit as u8) << shift);
    }
}

fn encode_msg(msg: &EmdMessage) -> Vec<u8> {
    let mut w = BitWriter::new();
    msg.write_wire(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The EMD message (a 32-bit header plus `t` RIBLTs) round-trips:
    /// re-encoding the decoded message reproduces the exact bytes, the
    /// buffer length is the accounted bits rounded up, and Bob's decode of
    /// the reconstruction matches the original bit-for-bit.
    #[test]
    fn emd_message_roundtrip(
        alice in binary_points(18, 16),
        bob in binary_points(18, 16),
        seed in 0u64..500,
    ) {
        let space = MetricSpace::hamming(16);
        let cfg = EmdProtocolConfig::for_space(&space, 18, 2);
        let proto = EmdProtocol::new(space, cfg, seed);
        let msg = proto.alice_encode(&alice);
        let bytes = encode_msg(&msg);
        prop_assert_eq!(bytes.len() as u64, msg.wire_bits().div_ceil(8));
        let back = EmdMessage::read_wire(&mut BitReader::new(&bytes), &proto)
            .expect("well-formed buffer decodes");
        prop_assert_eq!(encode_msg(&back), bytes);
        prop_assert_eq!(back.wire_bits(), msg.wire_bits());
        match (proto.bob_decode(&msg, &bob), proto.bob_decode(&back, &bob)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.reconciled, b.reconciled);
                prop_assert_eq!(a.i_star, b.i_star);
                prop_assert_eq!(a.decoded, b.decoded);
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "decode disagreed across serialization"),
        }
    }

    /// A valid EMD message followed by trailing garbage is rejected by the
    /// session layer's exact-consumption check — a well-formed prefix must
    /// not decode silently.
    #[test]
    fn emd_frame_with_trailing_garbage_rejected(
        alice in binary_points(10, 16),
        seed in 0u64..100,
        garbage in 1u64..200,
    ) {
        let space = MetricSpace::hamming(16);
        let cfg = EmdProtocolConfig::for_space(&space, 10, 2);
        let proto = EmdProtocol::new(space, cfg, seed);
        let msg = proto.alice_encode(&alice);
        let mut w = BitWriter::new();
        msg.write_wire(&mut w);
        w.write(garbage, 16); // a second message's worth of extra bits
        let frame = rsr_core::channel::Frame::seal("alice→bob: RIBLTs", w);
        // The prefix alone decodes…
        prop_assert!(EmdMessage::read_wire(&mut frame.reader(), &proto).is_some());
        // …but the exact-consumption gate rejects the frame.
        prop_assert!(frame
            .decode_exact(|r| EmdMessage::read_wire(r, &proto))
            .is_none());
    }

    /// Truncating an EMD message buffer is always detected.
    #[test]
    fn emd_message_truncation_rejected(
        alice in binary_points(12, 16),
        seed in 0u64..200,
        cut in 1usize..64,
    ) {
        let space = MetricSpace::hamming(16);
        let cfg = EmdProtocolConfig::for_space(&space, 12, 2);
        let proto = EmdProtocol::new(space, cfg, seed);
        let bytes = encode_msg(&proto.alice_encode(&alice));
        let cut = cut.min(bytes.len());
        let truncated = &bytes[..bytes.len() - cut];
        prop_assert!(EmdMessage::read_wire(&mut BitReader::new(truncated), &proto).is_none());
    }

    /// Admission checks every level, parsed or not. Bob never parses
    /// level 0 when a higher level decodes (identical sets decode at the
    /// top level), yet a count of magnitude n + 1 in one of its cells
    /// fails the frame, exactly as parsing every level did.
    #[test]
    fn emd_frame_with_an_oversized_count_in_an_unparsed_level_rejected(
        pts in binary_points(18, 16),
        seed in 0u64..500,
        cell in 0u64..1_000,
        negative in 0u64..2,
    ) {
        let n = pts.len();
        let space = MetricSpace::hamming(16);
        let cfg = EmdProtocolConfig::for_space(&space, n, 2);
        let proto = EmdProtocol::new(space, cfg, seed);
        let msg = proto.alice_encode(&pts);
        prop_assert!(proto.bob_decode(&msg, &pts).expect("identical sets decode").i_star > 1);
        let mut frame = msg.to_frame();
        prop_assert!(frame.decode_exact(|r| EmdMessage::read_wire(r, &proto)).is_some());

        let widths = CellWidths::sum(n, space.delta());
        let per_cell = widths.per_cell(space.dim());
        let cells = (frame.bit_len - 32) / msg.num_levels() as u64 / per_cell;
        let over = n as i64 + 1;
        // The sign drawn, or the other one where its zigzag does not fit
        // the field (`bits(2n)` always holds −(n + 1)).
        let count = if negative == 1 || zigzag(over) >> widths.count != 0 { -over } else { over };
        set_bits(&mut frame.payload, 32 + (cell % cells) * per_cell, widths.count, zigzag(count));
        prop_assert!(frame.decode_exact(|r| EmdMessage::read_wire(r, &proto)).is_none());
    }

    /// Far-element point lists round-trip over arbitrary grid universes.
    #[test]
    fn point_list_roundtrip(
        delta in 2i64..600,
        dim in 1usize..6,
        raw in prop::collection::vec(0u32..1_000_000, 0..40),
    ) {
        let u = GridUniverse::new(delta, dim);
        let points: Vec<Point> = raw
            .chunks(dim)
            .filter(|c| c.len() == dim)
            .map(|c| Point::new(c.iter().map(|&v| i64::from(v) % delta).collect()))
            .collect();
        let mut w = BitWriter::new();
        rsr_core::wire::put_points(&mut w, &points, &u);
        let bits = w.bit_len();
        prop_assert_eq!(bits, 32 + points.len() as u64 * u.point_wire_bits());
        let buf = w.finish();
        let back = rsr_core::wire::get_points(&mut BitReader::new(&buf), &u);
        prop_assert_eq!(back, Some(points));
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Driving the EMD sessions in memory: the transcript's totals equal
    /// the encoded length of Alice's one message — bit for bit, byte for
    /// byte — and the one-message protocol is one round.
    #[test]
    fn emd_transcript_equals_the_encoded_message(
        alice in binary_points(16, 16),
        bob in binary_points(16, 16),
        seed in 0u64..200,
    ) {
        let space = MetricSpace::hamming(16);
        let cfg = EmdProtocolConfig::for_space(&space, 16, 2);
        let proto = EmdProtocol::new(space, cfg, seed);
        let mut a = proto.alice_session(&alice);
        let mut b = proto.bob_session(&bob);
        let Ok(transcript) = drive_in_memory(Party::Alice, &mut a, &mut b) else {
            return Ok(()); // protocol-level decode failure: nothing to check
        };
        let frame = proto.alice_encode(&alice).to_frame();
        prop_assert_eq!(transcript.total_bits(), frame.bit_len);
        prop_assert_eq!(transcript.total_bytes(), frame.payload.len() as u64);
        prop_assert_eq!(transcript.num_messages(), 1);
        prop_assert_eq!(transcript.num_rounds(), 1);
    }

    /// The Gap protocol, driven in memory from Bob's turn: four messages,
    /// four rounds.
    #[test]
    fn gap_transcript_is_four_messages_in_four_rounds(
        alice in binary_points(14, 32),
        bob in binary_points(14, 32),
        seed in 0u64..100,
    ) {
        let dim = 32;
        let space = MetricSpace::hamming(dim);
        let fam = BitSamplingFamily::new(dim, dim as f64);
        let params = LshParams::new(1.0, 12.0, 1.0 - 1.0 / dim as f64, 1.0 - 12.0 / dim as f64);
        let mut cfg = GapConfig::for_params(params, 14, 4);
        cfg.fp_cells = 256; // oversize: traffic accounting is under test
        let proto = GapProtocol::new(space, &fam, cfg, seed);
        let mut a = proto.alice_session(&alice);
        let mut b = proto.bob_session(&bob);
        let Ok(transcript) = drive_in_memory(Party::Bob, &mut a, &mut b) else {
            return Ok(());
        };
        prop_assert_eq!(transcript.num_messages(), 4);
        prop_assert_eq!(transcript.num_rounds(), 4);
    }

    /// The interval-scaled protocol sends one message per interval but —
    /// by the round counter driven from actual turns — uses a single
    /// round, and Bob's outcome counts the bits the transcript measured.
    #[test]
    fn scaled_emd_is_many_messages_one_round(
        pts in binary_points(14, 16),
        seed in 0u64..100,
    ) {
        let space = MetricSpace::hamming(16);
        let proto = ScaledEmdProtocol::new(space, 14, 2, seed);
        let mut a = proto.alice_session(&pts);
        let mut b = proto.bob_session(&pts);
        let Ok(transcript) = drive_in_memory(Party::Alice, &mut a, &mut b) else {
            return Ok(());
        };
        prop_assert_eq!(transcript.num_messages(), proto.num_intervals());
        prop_assert!(proto.num_intervals() >= 2);
        prop_assert_eq!(transcript.num_rounds(), 1);
        let outcome = b.into_outcome().expect("bob finished");
        prop_assert_eq!(outcome.total_bits, transcript.total_bits());
    }
}
