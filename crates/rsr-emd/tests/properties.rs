//! Property-based tests for the EMD substrate, cross-validating the
//! Hungarian implementation against brute force and checking the metric
//! properties the protocol analysis relies on.

use proptest::prelude::*;
use rsr_emd::hungarian::assign_brute_force;
use rsr_emd::{emd, emd_k};
use rsr_metric::{Metric, Point};

fn point_set(n: usize, dim: usize, delta: i64) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(prop::collection::vec(0..delta, dim), n..=n)
        .prop_map(|vs| vs.into_iter().map(Point::new).collect())
}

proptest! {
    /// Exact EMD equals the brute-force min-cost bijection on tiny sets.
    #[test]
    fn emd_matches_brute_force(
        n in 1usize..6,
        seed_x in point_set(6, 2, 50),
        seed_y in point_set(6, 2, 50),
    ) {
        let x = &seed_x[..n];
        let y = &seed_y[..n];
        let got = emd(Metric::L1, x, y);
        let want = assign_brute_force(n, n, |i, j| Metric::L1.distance(&x[i], &y[j]));
        prop_assert!((got - want).abs() < 1e-9);
    }

    /// EMD is symmetric.
    #[test]
    fn emd_symmetric(n in 1usize..7, xs in point_set(7, 2, 40), ys in point_set(7, 2, 40)) {
        let x = &xs[..n];
        let y = &ys[..n];
        let d1 = emd(Metric::L2, x, y);
        let d2 = emd(Metric::L2, y, x);
        prop_assert!((d1 - d2).abs() < 1e-6);
    }

    /// EMD obeys the triangle inequality (used in the Theorem 3.4 proof).
    #[test]
    fn emd_triangle(
        n in 1usize..6,
        xs in point_set(6, 2, 30),
        ys in point_set(6, 2, 30),
        zs in point_set(6, 2, 30),
    ) {
        let (x, y, z) = (&xs[..n], &ys[..n], &zs[..n]);
        let xy = emd(Metric::L1, x, y);
        let yz = emd(Metric::L1, y, z);
        let xz = emd(Metric::L1, x, z);
        prop_assert!(xz <= xy + yz + 1e-9);
    }

    /// EMD_k is non-increasing in k and hits 0 at k = n.
    #[test]
    fn emd_k_monotone(n in 1usize..6, xs in point_set(6, 2, 60), ys in point_set(6, 2, 60)) {
        let (x, y) = (&xs[..n], &ys[..n]);
        let mut prev = f64::INFINITY;
        for k in 0..=n {
            let v = emd_k(Metric::L1, x, y, k);
            prop_assert!(v <= prev + 1e-9);
            prev = v;
        }
        prop_assert_eq!(emd_k(Metric::L1, x, y, n), 0.0);
    }

    /// EMD_k lower-bounds EMD minus the k largest matched distances (the
    /// exclusion can never help by more than the heaviest k edges of the
    /// optimal matching, but always helps at least that much on *some*
    /// matching) — we check just the sound direction: EMD_k ≤ EMD.
    #[test]
    fn emd_k_below_emd(n in 1usize..6, xs in point_set(6, 2, 60), ys in point_set(6, 2, 60), k in 0usize..4) {
        let (x, y) = (&xs[..n], &ys[..n]);
        prop_assert!(emd_k(Metric::L1, x, y, k) <= emd(Metric::L1, x, y) + 1e-9);
    }

    /// Identity: EMD(X, X) = 0 for any set.
    #[test]
    fn emd_identity(n in 1usize..8, xs in point_set(8, 2, 100)) {
        let x = &xs[..n];
        prop_assert_eq!(emd(Metric::L1, x, x), 0.0);
    }
}

// ---------------------------------------------------------------------
// Assignment-solver properties: the ε-scaling auction must be *exact*
// (equal total cost to the Hungarian reference on integer cost
// matrices).

fn cost_matrix(n: usize, m: usize, max: i64) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..max, m..=m), n..=n)
}

proptest! {
    /// Auction and Hungarian agree on the optimal total cost for random
    /// integer cost matrices up to n = 64 rows, square and rectangular.
    #[test]
    fn auction_equals_hungarian_cost(
        n in 1usize..=64,
        extra in 0usize..=16,
        costs in cost_matrix(64, 80, 10_000),
    ) {
        let m = n + extra;
        let cost = |i: usize, j: usize| costs[i][j] as f64;
        let fast = rsr_emd::auction_assign(n, m, cost);
        let slow = rsr_emd::assign(n, m, cost);
        // Both injective…
        let distinct: std::collections::HashSet<_> = fast.iter().collect();
        prop_assert_eq!(distinct.len(), n);
        // …and equal in total cost (different optimal matchings allowed).
        let got = rsr_emd::assignment_cost(&fast, cost);
        let want = rsr_emd::assignment_cost(&slow, cost);
        prop_assert!((got - want).abs() < 1e-9, "auction {} vs hungarian {}", got, want);
    }

    /// The solver-enum dispatch agrees with the direct entry points.
    #[test]
    fn solver_dispatch_matches_direct_calls(
        n in 1usize..=12,
        extra in 0usize..=4,
        costs in cost_matrix(12, 16, 1_000),
    ) {
        let m = n + extra;
        let cost = |i: usize, j: usize| costs[i][j] as f64;
        use rsr_emd::AssignmentSolver as S;
        prop_assert_eq!(S::Hungarian.assign(n, m, cost), rsr_emd::assign(n, m, cost));
        prop_assert_eq!(S::Auction.assign(n, m, cost), rsr_emd::auction_assign(n, m, cost));
    }
}
