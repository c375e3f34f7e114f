//! Seed-matrix equivalence: the session-driven `run()` path must produce
//! exactly the outcome of the legacy monolithic composition, bit for bit,
//! over a grid of seeds × instance sizes — for the EMD protocol (session
//! frames vs `alice_encode` + `bob_decode`) and the Gap protocol (session
//! frames vs direct `reconcile` + classification). The legacy monolithic
//! `run()` bodies were deleted on the strength of this equivalence.

use robust_set_recon::core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use robust_set_recon::core::gap_protocol::{GapConfig, GapProtocol};
use robust_set_recon::core::ScaledEmdProtocol;
use robust_set_recon::hash::keys::BatchKeyer;
use robust_set_recon::hash::lsh::LshParams;
use robust_set_recon::hash::BitSamplingFamily;
use robust_set_recon::metric::MetricSpace;
use robust_set_recon::setsofsets::{reconcile, SosConfig};
use robust_set_recon::workloads::{planted_emd, sensor_pairs};

const SEEDS: [u64; 5] = [11, 222, 3333, 44_444, 555_555];

#[test]
fn emd_session_matches_legacy_over_seed_matrix() {
    for &(n, k, dim) in &[(30usize, 2usize, 24usize), (60, 3, 32)] {
        let space = MetricSpace::hamming(dim);
        for &seed in &SEEDS {
            let w = planted_emd(space, n, k, 1, seed);
            let cfg = EmdProtocolConfig::for_space(&space, n, k);
            let proto = EmdProtocol::new(space, cfg, seed ^ 0x5e55);

            // Legacy path: in-memory message, no serialization.
            let msg = proto.alice_encode(&w.alice);
            let legacy = proto.bob_decode(&msg, &w.bob);
            // Session path: the same exchange through encoded frames.
            let session = proto.run(&w.alice, &w.bob);

            match (legacy, session) {
                (Ok(l), Ok(s)) => {
                    assert_eq!(l.reconciled, s.reconciled, "n={n} seed={seed}");
                    assert_eq!(l.i_star, s.i_star, "n={n} seed={seed}");
                    assert_eq!(l.decoded, s.decoded, "n={n} seed={seed}");
                    // The legacy transcript charged `wire_bits`; the session
                    // transcript measured the encoded frame. Identical.
                    assert_eq!(
                        l.transcript.total_bits(),
                        s.transcript.total_bits(),
                        "n={n} seed={seed}"
                    );
                    assert_eq!(s.transcript.total_bits(), msg.wire_bits());
                    assert_eq!(s.transcript.num_rounds(), 1);
                }
                (Err(_), Err(_)) => {}
                (l, s) => panic!(
                    "paths disagree on success for n={n} seed={seed}: legacy {} session {}",
                    l.is_ok(),
                    s.is_ok()
                ),
            }
        }
    }
}

#[test]
fn scaled_emd_session_matches_legacy_over_seed_matrix() {
    for &(n, k) in &[(30usize, 2usize), (50, 3)] {
        let space = MetricSpace::l2(256, 2);
        for &seed in &SEEDS {
            let w = planted_emd(space, n, k, 1, seed);
            let proto = ScaledEmdProtocol::new(space, n, k, seed ^ 0xa1a1);

            let msg = proto.alice_encode(&w.alice);
            let legacy = proto.bob_decode(&msg, &w.bob);
            let session = proto.run(&w.alice, &w.bob);

            match (legacy, session) {
                (Ok(l), Ok(s)) => {
                    assert_eq!(l.inner.reconciled, s.inner.reconciled, "n={n} seed={seed}");
                    assert_eq!(l.interval, s.interval, "n={n} seed={seed}");
                    assert_eq!(l.total_bits, s.total_bits, "n={n} seed={seed}");
                    assert_eq!(s.total_bits, msg.wire_bits());
                    assert_eq!(s.transcript.num_messages(), proto.num_intervals());
                    assert_eq!(s.transcript.num_rounds(), 1);
                }
                (Err(_), Err(_)) => {}
                _ => panic!("paths disagree on success for n={n} seed={seed}"),
            }
        }
    }
}

#[test]
fn gap_session_matches_legacy_over_seed_matrix() {
    for &(n, k, dim) in &[(40usize, 2usize, 128usize), (60, 3, 128)] {
        let space = MetricSpace::hamming(dim);
        let (r1, r2) = (2.0, 44.0);
        let fam = BitSamplingFamily::new(dim, dim as f64);
        let params = LshParams::new(r1, r2, 1.0 - r1 / dim as f64, 1.0 - r2 / dim as f64);
        for &seed in &SEEDS {
            let w = sensor_pairs(space, n, k, r1, r2, seed);
            let cfg = GapConfig::for_params(params, n, k);
            let proto = GapProtocol::new(space, &fam, cfg, seed ^ 0x6a6a);

            // Legacy path: keys → sets-of-sets reconcile → classify far →
            // union, exactly the old monolithic `run()` body.
            let alice_keys: Vec<Vec<u64>> = w.alice.iter().map(|p| proto.key_of(p)).collect();
            let bob_keys: Vec<Vec<u64>> = w.bob.iter().map(|p| proto.key_of(p)).collect();
            let sos_cfg = SosConfig {
                fp_cells: cfg.fp_cells,
                q: 3,
                seed: 0x6a90_5050,
                entry_bits: cfg.entry_bits,
            };
            let legacy = reconcile(&alice_keys, &bob_keys, &sos_cfg).map(|sos| {
                let transmitted: Vec<_> = w
                    .alice
                    .iter()
                    .zip(&alice_keys)
                    .filter(|(_, key)| {
                        !sos.bob_multiset
                            .iter()
                            .any(|bk| BatchKeyer::matches(key, bk) >= cfg.close_threshold)
                    })
                    .map(|(p, _)| p.clone())
                    .collect();
                let mut reconciled = w.bob.clone();
                reconciled.extend(transmitted.iter().cloned());
                (reconciled, transmitted, sos)
            });

            let session = proto.run(&w.alice, &w.bob);

            match (legacy, session) {
                (Ok((reconciled, transmitted, sos)), Ok(out)) => {
                    assert_eq!(reconciled, out.reconciled, "n={n} seed={seed}");
                    assert_eq!(transmitted, out.transmitted, "n={n} seed={seed}");
                    assert_eq!(transmitted.len(), out.far_keys, "n={n} seed={seed}");
                    // Rounds 1–3 of the transcript are the measured
                    // sets-of-sets sizes; round 4 is the far-point list.
                    let bits: Vec<u64> = out.transcript.entries().map(|(_, b)| b).collect();
                    assert_eq!(bits.len(), 4, "n={n} seed={seed}");
                    assert_eq!(
                        (bits[0], bits[1], bits[2]),
                        sos.round_bits,
                        "n={n} seed={seed}"
                    );
                    assert_eq!(
                        bits[3],
                        32 + transmitted.len() as u64 * space.universe().point_wire_bits()
                    );
                    assert_eq!(out.transcript.num_rounds(), 4);
                    assert_eq!(out.transcript.num_messages(), 4);
                }
                (Err(_), Err(_)) => {}
                _ => panic!("paths disagree on success for n={n} seed={seed}"),
            }
        }
    }
}

#[test]
fn emd_session_matches_legacy_under_auction_over_seed_matrix() {
    // Same equivalence as above, read as a pin on the repair step: Bob's
    // matching runs the ε-scaling auction (the only solver the protocol
    // has), and the session-driven run() must reproduce the legacy
    // composition bit for bit.
    for &(n, k, dim) in &[(30usize, 2usize, 24usize), (60, 3, 32)] {
        let space = MetricSpace::hamming(dim);
        for &seed in &SEEDS {
            let w = planted_emd(space, n, k, 1, seed);
            let cfg = EmdProtocolConfig::for_space(&space, n, k);
            let proto = EmdProtocol::new(space, cfg, seed ^ 0x5e55);

            let msg = proto.alice_encode(&w.alice);
            let legacy = proto.bob_decode(&msg, &w.bob);
            let session = proto.run(&w.alice, &w.bob);
            match (legacy, session) {
                (Ok(l), Ok(s)) => {
                    assert_eq!(l.reconciled, s.reconciled, "n={n} seed={seed}");
                    // The repair keeps |S'_B| = |S_B| whatever it decoded.
                    assert_eq!(s.reconciled.len(), w.bob.len(), "n={n} seed={seed}");
                    assert_eq!(l.i_star, s.i_star, "n={n} seed={seed}");
                    assert_eq!(l.decoded, s.decoded, "n={n} seed={seed}");
                    assert_eq!(
                        l.transcript.total_bits(),
                        s.transcript.total_bits(),
                        "n={n} seed={seed}"
                    );
                    assert_eq!(s.transcript.num_rounds(), 1, "n={n} seed={seed}");
                }
                (Err(_), Err(_)) => {}
                (l, s) => panic!(
                    "paths disagree on success for n={n} seed={seed}: legacy {} session {}",
                    l.is_ok(),
                    s.is_ok()
                ),
            }
        }
    }
}
