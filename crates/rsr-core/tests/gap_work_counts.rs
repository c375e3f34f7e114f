//! `gap_points_chained` and `gap_far_key_compares` count the work of the
//! Gap settle's two largest stages: how many points were keyed by the
//! batch chain rather than the bit-sampling table, and how many full-key
//! comparisons Alice's far test made. On a binary instance every point
//! reads bits, so the table keys all of them; and the far test, probing
//! entry bands before it scans, makes a small share of the comparisons
//! of a first-hit scan over Bob's multiset. Its own binary: the metrics
//! registry is process-wide, and no other test may record into it.

use rsr_core::gap_protocol::{verify_gap_guarantee, GapConfig, GapProtocol};
use rsr_hash::keys::BatchKeyer;
use rsr_hash::lsh::LshParams;
use rsr_hash::BitSamplingFamily;
use rsr_metric::{MetricSpace, Point};
use rsr_setsofsets::protocol::{alice_finish, alice_round2, bob_round1, bob_round3};
use rsr_setsofsets::SosConfig;
use rsr_workloads::generators::sensor_pairs;

fn counts() -> (f64, f64) {
    let snapshot = rsr_obs::global().snapshot();
    let get = |key| snapshot.value(key).unwrap_or(0.0);
    (get("gap_points_chained"), get("gap_far_key_compares"))
}

/// The far test as a first-hit scan, the form it took before it probed
/// entry bands: each Alice-only key against round 3's children, then her
/// kept keys, until one reaches `threshold`. Returns the comparisons.
fn first_hit_compares(
    alice: &[Vec<u64>],
    kept: &[bool],
    bob_only: &[Vec<u64>],
    threshold: usize,
) -> u64 {
    let kept_keys = || {
        alice
            .iter()
            .zip(kept)
            .filter(|&(_, &k)| k)
            .map(|(key, _)| key)
    };
    let mut compares = 0;
    for (key, _) in alice.iter().zip(kept).filter(|&(_, &k)| !k) {
        for bk in bob_only.iter().chain(kept_keys()) {
            compares += 1;
            if BatchKeyer::matches(key, bk) >= threshold {
                break;
            }
        }
    }
    compares
}

#[test]
fn a_binary_gap_settle_keys_by_table_and_probes_before_it_scans() {
    rsr_obs::set_enabled(true);
    // The `local_gap` shape: n points of the 128-bit cube, Bob's copy of
    // each within r1, and k of Alice's points beyond r2 of all of Bob's.
    let (n, k, d) = (256, 4, 128);
    let (r1, r2) = (2.0, 44.0);
    let space = MetricSpace::hamming(d);
    let instance = sensor_pairs(space, n, k, r1, r2, 47);
    let (alice, bob) = (instance.alice, instance.bob);
    let family = BitSamplingFamily::new(d, d as f64);
    let params = LshParams::new(r1, r2, 1.0 - r1 / d as f64, 1.0 - r2 / d as f64);
    let cfg = GapConfig::for_params(params, n, k);
    assert_eq!((cfg.h, cfg.m), (64, 2), "the local_gap key shape");
    let proto = GapProtocol::new(space, &family, cfg, 48);

    let out = proto.run(&alice, &bob).expect("the settle decodes");
    assert!(verify_gap_guarantee(&space, &alice, &out.reconciled, r2));
    let (chained, compares) = counts();
    assert_eq!(chained, 0.0, "every point of a binary instance reads bits");

    // Rounds 1–3 under the protocol's own public coins (its sets-of-sets
    // seed is 0x6a90_5050) give Alice the splice the settle classified.
    let keys =
        |points: &[Point]| -> Vec<Vec<u64>> { points.iter().map(|p| proto.key_of(p)).collect() };
    let (alice_keys, bob_keys) = (keys(&alice), keys(&bob));
    let sos = SosConfig {
        fp_cells: cfg.fp_cells,
        q: 3,
        seed: 0x6a90_5050,
        entry_bits: cfg.entry_bits,
    };
    let (r1_msg, bob_state) = bob_round1(&bob_keys, &sos);
    let (r2_msg, alice_state) = alice_round2(&alice_keys, &r1_msg, &sos).expect("decodes");
    let r3_msg = bob_round3(&bob_keys, &bob_state, &r2_msg).expect("answers");
    let splice = alice_finish(&alice_keys, &alice_state, r3_msg, &sos).expect("splices");
    let alice_only = splice.kept.iter().filter(|&&kept| !kept).count();
    assert!(alice_only > 50, "{alice_only} Alice-only keys");
    let scan = first_hit_compares(
        &alice_keys,
        &splice.kept,
        &splice.bob_only,
        cfg.close_threshold,
    );

    assert!(
        3.0 * compares <= scan as f64,
        "{compares} comparisons, a first-hit scan makes {scan}"
    );
    // Every far key is scanned in full, so the count cannot fall below
    // one pass over Bob's multiset per far key.
    assert!(
        compares >= (out.far_keys * n) as f64,
        "{compares} comparisons"
    );
}
