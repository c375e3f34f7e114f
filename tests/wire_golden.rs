//! Golden digests of the bytes and keys the protocols produce.
//!
//! `session_matrix.rs` and `net_matrix.rs` compare one path against
//! another, so a codec or keyer changed the same way on both sides
//! would still pass them. This file pins absolute values instead: a
//! `hash_words` digest, at fixed seeds, of the frames each protocol
//! sends, of Algorithm 1's level keys under each MLSH family, of Gap
//! keys under both batch families, and of one serialized table of each
//! kind. A change to the wire format, a hash draw, the RNG stream that
//! draws them, or the bit codec changes a digest here.
//!
//! If a digest moves on purpose (a deliberate wire change), regenerate
//! it and say so in the change that moves it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use robust_set_recon::core::continuous::{
    shared, AliceRound, BobRound, ContinuousConfig, ContinuousParty,
};
use robust_set_recon::core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use robust_set_recon::core::gap_protocol::{GapConfig, GapProtocol};
use robust_set_recon::core::mlsh_select::select_mlsh;
use robust_set_recon::core::{low_dim_gap_config, Frame, ScaledEmdProtocol, Session};
use robust_set_recon::hash::keys::MultiScaleKeyer;
use robust_set_recon::hash::lsh::LshParams;
use robust_set_recon::hash::mix::{hash_words, mix64};
use robust_set_recon::hash::BitSamplingFamily;
use robust_set_recon::iblt::riblt::RibltConfig;
use robust_set_recon::iblt::{Iblt, Riblt};
use robust_set_recon::metric::{MetricSpace, Point};
use robust_set_recon::workloads::{planted_emd, sensor_pairs};

/// Digest of a byte string: its length, then its bytes as little-endian
/// words (the last one zero-padded).
fn bytes_digest(bytes: &[u8]) -> u64 {
    let words: Vec<u64> = bytes
        .chunks(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect();
    hash_words(bytes.len() as u64, &words)
}

/// Digest of a sequence of frames: each frame's exact bit length and
/// payload digest, in order.
fn frames_digest(frames: &[Frame]) -> u64 {
    let words: Vec<u64> = frames
        .iter()
        .flat_map(|f| [f.bit_len, bytes_digest(&f.payload)])
        .collect();
    hash_words(0xf4a3, &words)
}

/// Every frame a one-way sender emits, in order.
fn drain(session: &mut impl Session) -> Vec<Frame> {
    std::iter::from_fn(|| session.poll_send().ok().flatten()).collect()
}

/// A counter-mode word stream: inputs that depend on nothing but the
/// seed, not even on the RNG the protocols draw their coins from.
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        mix64(self.0)
    }
}

fn random_points(space: &MetricSpace, count: usize, seed: u64) -> Vec<Point> {
    let mut words = Words(seed);
    (0..count)
        .map(|_| {
            Point::new(
                (0..space.dim())
                    .map(|_| (words.next() % space.delta() as u64) as i64)
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn emd_message_frames_are_pinned() {
    let shapes = [
        ((30usize, 2usize, 24usize), 11u64, 0xb028_3e6d_872d_fcac),
        ((60, 3, 32), 222, 0x9224_4d07_b1b9_bbca),
    ];
    for ((n, k, dim), seed, want) in shapes {
        let space = MetricSpace::hamming(dim);
        let w = planted_emd(space, n, k, 1, seed);
        let proto = EmdProtocol::new(space, EmdProtocolConfig::for_space(&space, n, k), seed);
        let frame = proto.alice_encode(&w.alice).to_frame();
        assert_eq!(frames_digest(&[frame]), want, "n={n} k={k} dim={dim}");
    }
}

#[test]
fn scaled_emd_frames_are_pinned() {
    let space = MetricSpace::l2(256, 2);
    let w = planted_emd(space, 40, 2, 1, 3333);
    let proto = ScaledEmdProtocol::new(space, 40, 2, 3333);
    let frames = drain(&mut proto.alice_session(&w.alice));
    assert_eq!(frames.len(), proto.num_intervals());
    assert_eq!(frames_digest(&frames), 0x1871_672b_b933_d60e);
}

#[test]
fn level_keys_are_pinned_under_every_family() {
    let cases = [
        (MetricSpace::hamming(48), 0x0f52_bf07_a527_0cfa),
        (MetricSpace::l1(64, 3), 0xc4eb_f7c5_3fef_d9d7),
        (MetricSpace::l2(64, 3), 0xb293_f454_d353_712f),
    ];
    for (space, want) in cases {
        let family = select_mlsh(&space, 3, 800.0);
        let s = 300;
        let keyer = MultiScaleKeyer::sample(&family, s, 40, &mut StdRng::seed_from_u64(44_444));
        // Every shape a schedule can take: the empty prefix, repeats,
        // and the full draw count.
        let lens = [0, 1, 1, 2, 9, 64, 64, 150, s];
        let keys: Vec<u64> = random_points(&space, 8, 555_555)
            .iter()
            .flat_map(|p| keyer.level_keys(p, &lens))
            .collect();
        assert_eq!(hash_words(1, &keys), want, "{:?}", space.metric());
    }
}

/// A Gap instance on the 128-bit cube with the benchmark's radii
/// (r1 = 2, r2 = 44) and `sensor_pairs` points.
fn gap_instance_of(
    n: usize,
    k: usize,
    seed: u64,
    proto_seed: u64,
) -> (GapProtocol<BitSamplingFamily>, Vec<Point>, Vec<Point>) {
    let (dim, r1, r2) = (128, 2.0, 44.0);
    let space = MetricSpace::hamming(dim);
    let fam = BitSamplingFamily::new(dim, dim as f64);
    let params = LshParams::new(r1, r2, 1.0 - r1 / dim as f64, 1.0 - r2 / dim as f64);
    let w = sensor_pairs(space, n, k, r1, r2, seed);
    let proto = GapProtocol::new(space, &fam, GapConfig::for_params(params, n, k), proto_seed);
    (proto, w.alice, w.bob)
}

fn gap_instance() -> (GapProtocol<BitSamplingFamily>, Vec<Point>, Vec<Point>) {
    gap_instance_of(40, 2, 222, 222)
}

/// The four frames of one Gap settle, in wire order.
fn gap_frames(
    proto: &GapProtocol<BitSamplingFamily>,
    alice: &[Point],
    bob: &[Point],
) -> Vec<Frame> {
    let mut a = proto.alice_session(alice);
    let mut b = proto.bob_session(bob);
    let mut frames = Vec::new();
    // Bob → Alice → Bob → Alice, then Alice's far elements.
    for sender_is_bob in [true, false, true, false] {
        let frame = if sender_is_bob {
            b.poll_send()
        } else {
            a.poll_send()
        }
        .expect("send")
        .expect("a frame");
        frames.push(frame.clone());
        if sender_is_bob {
            a.on_frame(frame).expect("alice accepts");
        } else {
            b.on_frame(frame).expect("bob accepts");
        }
    }
    assert!(a.is_done() && b.is_done());
    frames
}

#[test]
fn gap_protocol_frames_are_pinned() {
    let (proto, alice, bob) = gap_instance();
    assert_eq!(
        frames_digest(&gap_frames(&proto, &alice, &bob)),
        0xfc0e_7afd_48c9_a85a
    );
}

#[test]
fn benchmark_shaped_gap_settle_is_pinned() {
    // The shape of the benchmark's `local_gap` instances (n = 256, k = 4,
    // d = 128): large enough that the far test, the fingerprint rounds
    // and the keyer's lane blocks all run at scale.
    let (proto, alice, bob) = gap_instance_of(256, 4, 2_828, 2_828 ^ 0x6a6a);
    assert_eq!(proto.config().h, 64);
    assert_eq!(
        frames_digest(&gap_frames(&proto, &alice, &bob)),
        0xd15c_015b_d513_a4da
    );
    let keys: Vec<u64> = alice[..8].iter().flat_map(|p| proto.key_of(p)).collect();
    assert_eq!(hash_words(4, &keys), 0x82fe_bb0d_11bd_2762);
}

#[test]
fn gap_keys_are_pinned_under_both_batch_families() {
    let (proto, alice, _) = gap_instance();
    let keys: Vec<u64> = alice.iter().flat_map(|p| proto.key_of(p)).collect();
    assert_eq!(
        hash_words(2, &keys),
        0x746f_cac8_a5d9_4490,
        "bit sampling, m > 1"
    );

    let space = MetricSpace::l1(1024, 2);
    let (fam, cfg) = low_dim_gap_config(&space, 50, 2, 4.0, 256.0);
    let proto = GapProtocol::new(space, &fam, cfg, 111);
    let keys: Vec<u64> = random_points(&space, 16, 110)
        .iter()
        .flat_map(|p| proto.key_of(p))
        .collect();
    assert_eq!(
        hash_words(3, &keys),
        0x5ba0_dca4_06a1_ed62,
        "one-sided grid, m = 1"
    );
}

#[test]
fn continuous_round_frames_are_pinned() {
    let cfg = ContinuousConfig::for_churn(32, 0xc0_7715);
    let mut words = Words(7);
    let base: Vec<u64> = (0..200).map(|_| words.next()).collect();
    let alice = shared(ContinuousParty::new(cfg, base.iter().copied()));
    let bob = shared(ContinuousParty::new(cfg, base.iter().copied()));
    let mut frames = Vec::new();
    for (round, &gone) in base.iter().take(3).enumerate() {
        // Churn on both sides between rounds: inserts on each, and a
        // delete of a shared key on Alice's.
        for _ in 0..6 {
            alice.lock().unwrap().insert(words.next()).unwrap();
            bob.lock().unwrap().insert(words.next()).unwrap();
        }
        alice.lock().unwrap().remove(gone).unwrap();

        let mut a = AliceRound::begin(&alice).expect("alice begins");
        let mut b = BobRound::begin(&bob).expect("bob begins");
        let delta = a.poll_send().unwrap().expect("delta frame");
        frames.push(delta.clone());
        b.on_frame(delta).expect("round decodes");
        let reply = b.poll_send().unwrap().expect("reply frame");
        frames.push(reply.clone());
        a.on_frame(reply).expect("alice settles");
        assert!(a.is_done() && b.is_done(), "round {round}");
    }
    assert_eq!(frames_digest(&frames), 0xf5cc_cc38_e711_ae82);
}

#[test]
fn table_bytes_are_pinned() {
    let mut words = Words(0x7ab1e);
    let mut iblt = Iblt::new(84, 3, 0x5eed);
    for _ in 0..40 {
        iblt.insert(words.next());
    }
    for _ in 0..12 {
        iblt.delete(words.next());
    }
    assert_eq!(
        bytes_digest(&iblt.to_bytes(1 << 20)),
        0x592f_6e8d_f039_7e55,
        "xor IBLT"
    );

    let space = MetricSpace::l1(1000, 3);
    let mut riblt = Riblt::new(RibltConfig::for_pairs(4, 3, 3, space.delta(), 0x5eed));
    let points = random_points(&space, 30, 0x7ab1f);
    for (i, p) in points.iter().enumerate() {
        if i % 3 == 0 {
            riblt.delete(words.next(), p);
        } else {
            riblt.insert(words.next(), p);
        }
    }
    assert_eq!(
        bytes_digest(&riblt.to_bytes(30)),
        0x4b70_2a4f_ae87_9c45,
        "robust IBLT"
    );
}
