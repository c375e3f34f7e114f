//! Integration tests for the exact-reconciliation fallback and the
//! workload generators' universe bounds. The comparison with Chen et
//! al.'s quadtree baseline is recorded in `docs/architecture.md` (T6).

use robust_set_recon::core::set_recon::exact_reconcile;
use robust_set_recon::metric::MetricSpace;
use robust_set_recon::workloads::{planted_emd_sparse, sensor_pairs};

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
    // Smoke-check that the sensor workload stays inside its ℓ1 universe
    // (no panics, all points contained). The name dates from the deleted
    // quadtree baseline, which ran on this space.
    let space = MetricSpace::l1(8192, 2);
    let w = sensor_pairs(space, 40, 2, 3.0, 400.0, 9);
    for p in w.alice.iter().chain(&w.bob) {
        assert!(space.universe().contains(p));
    }
}
