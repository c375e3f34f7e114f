//! Property-based tests for the metric substrate: the axioms the
//! reconciliation protocols silently rely on (symmetry, triangle inequality,
//! identity) must hold for every supported metric.

use proptest::prelude::*;
use rsr_metric::{GridUniverse, Metric, Point};

fn coords(dim: usize, delta: i64) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0..delta, dim)
}

fn all_metrics() -> Vec<Metric> {
    vec![Metric::L1, Metric::L2, Metric::Hamming]
}

proptest! {
    #[test]
    fn symmetry(a in coords(6, 50), b in coords(6, 50)) {
        let (pa, pb) = (Point::new(a), Point::new(b));
        for m in all_metrics() {
            let d1 = m.distance(&pa, &pb);
            let d2 = m.distance(&pb, &pa);
            prop_assert!((d1 - d2).abs() < 1e-9, "{m:?}: {d1} vs {d2}");
        }
    }

    #[test]
    fn triangle_inequality(a in coords(5, 30), b in coords(5, 30), c in coords(5, 30)) {
        let (pa, pb, pc) = (Point::new(a), Point::new(b), Point::new(c));
        for m in all_metrics() {
            let ab = m.distance(&pa, &pb);
            let bc = m.distance(&pb, &pc);
            let ac = m.distance(&pa, &pc);
            prop_assert!(ac <= ab + bc + 1e-9, "{m:?}: {ac} > {ab} + {bc}");
        }
    }

    #[test]
    fn identity(a in coords(8, 100)) {
        let pa = Point::new(a);
        for m in all_metrics() {
            prop_assert_eq!(m.distance(&pa, &pa), 0.0);
        }
    }

    #[test]
    fn positivity_on_distinct(a in coords(4, 20), b in coords(4, 20)) {
        let (pa, pb) = (Point::new(a), Point::new(b));
        if pa != pb {
            for m in all_metrics() {
                prop_assert!(m.distance(&pa, &pb) > 0.0, "{m:?} gave 0 for distinct points");
            }
        }
    }

    #[test]
    fn l1_dominates_l2(a in coords(5, 40), b in coords(5, 40)) {
        // ℓ_p norms are non-increasing in p, so ℓ1 ≥ ℓ2.
        let (pa, pb) = (Point::new(a), Point::new(b));
        let d1 = Metric::L1.distance(&pa, &pb);
        let d2 = Metric::L2.distance(&pa, &pb);
        prop_assert!(d1 + 1e-9 >= d2, "ℓ1 {d1} < ℓ2 {d2}");
    }

    #[test]
    fn clamp_is_idempotent_and_in_grid(a in prop::collection::vec(-200i64..200, 5)) {
        let u = GridUniverse::new(50, 5);
        let p = Point::new(a);
        let c = u.clamp(&p);
        prop_assert!(u.contains(&c));
        prop_assert_eq!(u.clamp(&c), c.clone());
    }

    #[test]
    fn hamming_agrees_with_l1_on_binary(a in coords(10, 2), b in coords(10, 2)) {
        let (pa, pb) = (Point::new(a), Point::new(b));
        prop_assert_eq!(
            Metric::Hamming.distance(&pa, &pb),
            Metric::L1.distance(&pa, &pb)
        );
    }
}
