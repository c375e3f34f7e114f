//! Earth mover's distance and `EMD_k` (Definitions 3.2 and 3.3).
//!
//! `EMD(X, Y)` is the min-cost perfect matching between equal-size point
//! sets under the metric `f`. `EMD_k(X, Y)` is the minimum EMD achievable
//! after excluding `k` points from each set — the benchmark the EMD-model
//! protocol is compared against. We compute `EMD_k` *exactly* by adding `k`
//! zero-cost dummy rows and columns to the assignment problem: a dummy row
//! absorbs one excluded point of `Y`, a dummy column one excluded point of
//! `X`, and since costs are non-negative the optimum uses the dummies
//! exactly when exclusion helps.
//!
//! Both use the Hungarian reference solver, so the measure a protocol's
//! output is judged by never depends on the solver its repair step runs.

use crate::hungarian::{assign, assignment_cost};
use rsr_metric::{Metric, Point};

/// Exact earth mover's distance between equal-size point sets
/// (Definition 3.2). Panics if `|X| ≠ |Y|`.
pub fn emd(metric: Metric, x: &[Point], y: &[Point]) -> f64 {
    assert_eq!(x.len(), y.len(), "EMD requires equal-size sets");
    if x.is_empty() {
        return 0.0;
    }
    let a = assign(x.len(), y.len(), |i, j| metric.distance(&x[i], &y[j]));
    assignment_cost(&a, |i, j| metric.distance(&x[i], &y[j]))
}

/// Exact `EMD_k` (Definition 3.3): the minimum EMD between `X` and `Y`
/// after removing `k` points from each. `EMD_0 = EMD`.
pub fn emd_k(metric: Metric, x: &[Point], y: &[Point], k: usize) -> f64 {
    emd_k_with_exclusions(metric, x, y, k).0
}

/// Exact `EMD_k` together with the excluded index sets `(cost, excluded_x,
/// excluded_y)`. The exclusion sets have exactly `min(k, n)` indices each.
pub fn emd_k_with_exclusions(
    metric: Metric,
    x: &[Point],
    y: &[Point],
    k: usize,
) -> (f64, Vec<usize>, Vec<usize>) {
    assert_eq!(x.len(), y.len(), "EMD_k requires equal-size sets");
    let n = x.len();
    let k = k.min(n);
    if n == 0 {
        return (0.0, Vec::new(), Vec::new());
    }
    // Rows: n real points of X then k dummies.
    // Cols: n real points of Y then k dummies.
    let size = n + k;
    let cost = |i: usize, j: usize| -> f64 {
        if i >= n || j >= n {
            0.0
        } else {
            metric.distance(&x[i], &y[j])
        }
    };
    let a = assign(size, size, cost);
    let total = assignment_cost(&a, cost);
    // X points assigned to dummy columns are excluded from X; Y points
    // taken by dummy rows are excluded from Y.
    let excluded_x: Vec<usize> = (0..n).filter(|&i| a[i] >= n).collect();
    let mut excluded_y: Vec<usize> = (n..size).filter(|&i| a[i] < n).map(|i| a[i]).collect();
    excluded_y.sort_unstable();
    // Pad exclusions up to k if the optimum used fewer dummies (possible
    // when some pairs cost 0): exclude arbitrary zero-cost matched pairs.
    let mut ex = (excluded_x, excluded_y);
    let mut i = 0;
    while ex.0.len() < k && i < n {
        if !ex.0.contains(&i) {
            ex.0.push(i);
        }
        i += 1;
    }
    let mut j = 0;
    while ex.1.len() < k && j < n {
        if !ex.1.contains(&j) {
            ex.1.push(j);
        }
        j += 1;
    }
    (total, ex.0, ex.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(vs: &[&[i64]]) -> Vec<Point> {
        vs.iter().map(|v| Point::new(v.to_vec())).collect()
    }

    #[test]
    fn emd_of_identical_sets_is_zero() {
        let x = pts(&[&[0, 0], &[5, 5], &[9, 1]]);
        assert_eq!(emd(Metric::L1, &x, &x), 0.0);
    }

    #[test]
    fn emd_of_permuted_set_is_zero() {
        let x = pts(&[&[0, 0], &[5, 5], &[9, 1]]);
        let y = pts(&[&[9, 1], &[0, 0], &[5, 5]]);
        assert_eq!(emd(Metric::L2, &x, &y), 0.0);
    }

    #[test]
    fn emd_simple_shift() {
        // Each point shifted by 1 in one coordinate → EMD = n under ℓ1.
        let x = pts(&[&[0, 0], &[10, 0], &[20, 0]]);
        let y = pts(&[&[0, 1], &[10, 1], &[20, 1]]);
        assert_eq!(emd(Metric::L1, &x, &y), 3.0);
    }

    #[test]
    fn emd_picks_min_cost_bijection() {
        // Crossing assignments: optimal matching is not the identity.
        let x = pts(&[&[0], &[10]]);
        let y = pts(&[&[11], &[1]]);
        assert_eq!(emd(Metric::L1, &x, &y), 2.0);
    }

    #[test]
    fn emd_k_removes_outliers() {
        // One far outlier pair dominates EMD; EMD_1 removes it.
        let x = pts(&[&[0], &[1], &[1000]]);
        let y = pts(&[&[0], &[1], &[2]]);
        assert_eq!(emd(Metric::L1, &x, &y), 998.0);
        assert_eq!(emd_k(Metric::L1, &x, &y, 1), 0.0);
    }

    #[test]
    fn emd_k_monotone_nonincreasing_in_k() {
        let x = pts(&[&[0], &[7], &[100], &[200]]);
        let y = pts(&[&[1], &[9], &[150], &[900]]);
        let mut prev = f64::INFINITY;
        for k in 0..=4 {
            let v = emd_k(Metric::L1, &x, &y, k);
            assert!(v <= prev + 1e-9, "EMD_{k} = {v} > EMD_{} = {prev}", k - 1);
            prev = v;
        }
        assert_eq!(emd_k(Metric::L1, &x, &y, 4), 0.0);
    }

    #[test]
    fn emd_0_equals_emd() {
        let x = pts(&[&[3, 1], &[4, 1], &[5, 9]]);
        let y = pts(&[&[2, 6], &[5, 3], &[5, 8]]);
        assert!((emd_k(Metric::L2, &x, &y, 0) - emd(Metric::L2, &x, &y)).abs() < 1e-9);
    }

    #[test]
    fn exclusion_sets_have_size_k() {
        let x = pts(&[&[0], &[1], &[2], &[3]]);
        let y = pts(&[&[0], &[1], &[2], &[3]]);
        let (cost, ex, ey) = emd_k_with_exclusions(Metric::L1, &x, &y, 2);
        assert_eq!(cost, 0.0);
        assert_eq!(ex.len(), 2);
        assert_eq!(ey.len(), 2);
    }

    #[test]
    fn exclusions_identify_the_outliers() {
        let x = pts(&[&[0], &[500], &[1]]);
        let y = pts(&[&[0], &[1], &[900]]);
        let (cost, ex, ey) = emd_k_with_exclusions(Metric::L1, &x, &y, 1);
        assert_eq!(cost, 0.0);
        assert_eq!(ex, vec![1]); // x[1] = 500 excluded
        assert_eq!(ey, vec![2]); // y[2] = 900 excluded
    }

    #[test]
    fn empty_sets() {
        assert_eq!(emd(Metric::L1, &[], &[]), 0.0);
        assert_eq!(emd_k(Metric::L1, &[], &[], 3), 0.0);
    }

    #[test]
    #[should_panic]
    fn unequal_sizes_rejected() {
        let x = pts(&[&[0]]);
        emd(Metric::L1, &x, &[]);
    }
}
