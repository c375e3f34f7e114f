//! Bob's repair step in the EMD protocol.
//!
//! Algorithm 1's last line: "Bob finds Y_B, the subset of S_B matched in
//! the min cost matching between X_B and S_B. He then outputs
//! S'_B = (S_B \ Y_B) ∪ X_A." Here `X_B` are the decoded survivors from
//! Bob's own side (telling him which of his points are stale) and `X_A`
//! the decoded survivors from Alice's side (their replacements).
//!
//! The paper implicitly assumes `|X_A| = |X_B|`; in practice decode
//! asymmetries can make them differ, so this implementation enforces
//! `|S'_B| = |S_B|` with a deterministic policy, documented on
//! [`replace_matched_with`].

use crate::assignment::AssignmentSolver;
use rsr_metric::{Metric, Point};

/// Computes `S'_B = (S_B \ Y_B) ∪ X_A` with `|S'_B| = |S_B|`, matching
/// under `solver`. The EMD protocol runs it under the auction; both
/// solvers are exact and remove equally cheap matched subsets, though
/// ties may break towards different, equally optimal matchings.
///
/// Policy when `|X_A| ≠ |X_B|`:
/// * The removal budget is `min(|X_A|, |S_B|)` — one removal per inserted
///   replacement, never more than the set holds.
/// * `X_B` is matched to `S_B` by a min-cost rectangular assignment; the
///   matched partners are removed in ascending match-cost order until the
///   budget is spent (cheap matches are the most confidently stale).
/// * If `|X_B|` provides fewer removals than the budget, the surplus
///   replacements from `X_A` are themselves matched against the remaining
///   points of `S_B` and those partners are removed (a surplus Alice point
///   most plausibly replaces its nearest stale point).
pub fn replace_matched_with(
    solver: AssignmentSolver,
    metric: Metric,
    s_b: &[Point],
    x_b: &[Point],
    x_a: &[Point],
) -> Vec<Point> {
    let n = s_b.len();
    let budget = x_a.len().min(n);
    let x_a = &x_a[..budget];
    // Match X_B (truncated to n rows) to S_B.
    let x_b = &x_b[..x_b.len().min(n)];
    let mut removed = vec![false; n];
    let mut removals: Vec<(f64, usize)> = Vec::with_capacity(budget);
    if !x_b.is_empty() {
        let assignment = solver.assign(x_b.len(), n, |i, j| metric.distance(&x_b[i], &s_b[j]));
        let mut matched: Vec<(f64, usize)> = assignment
            .iter()
            .enumerate()
            .map(|(i, &j)| (metric.distance(&x_b[i], &s_b[j]), j))
            .collect();
        matched.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        removals.extend(matched.into_iter().take(budget));
    }
    for &(_, j) in &removals {
        removed[j] = true;
    }
    // Spend any remaining budget by matching surplus X_A points against
    // the not-yet-removed points of S_B.
    let deficit = budget - removals.len().min(budget);
    if deficit > 0 {
        let surplus = &x_a[x_a.len() - deficit..];
        let remaining: Vec<usize> = (0..n).filter(|&j| !removed[j]).collect();
        let take = surplus.len().min(remaining.len());
        if take > 0 {
            let assignment = solver.assign(take, remaining.len(), |i, j| {
                metric.distance(&surplus[i], &s_b[remaining[j]])
            });
            for &j in assignment.iter() {
                removed[remaining[j]] = true;
            }
        }
    }
    let mut result: Vec<Point> = s_b
        .iter()
        .enumerate()
        .filter(|(j, _)| !removed[*j])
        .map(|(_, p)| p.clone())
        .collect();
    result.extend(x_a.iter().cloned());
    // The two phases remove exactly `budget` points, so the size is
    // preserved; truncate/pad guards the degenerate corner cases.
    result.truncate(n);
    while result.len() < n {
        // Only reachable if s_b was smaller than the removal accounting
        // allowed; repopulate deterministically from X_A or S_B.
        if let Some(p) = x_a.first().or_else(|| s_b.first()) {
            result.push(p.clone());
        } else {
            break;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(vs: &[&[i64]]) -> Vec<Point> {
        vs.iter().map(|v| Point::new(v.to_vec())).collect()
    }

    #[test]
    fn balanced_replacement() {
        let s_b = pts(&[&[0], &[10], &[20]]);
        let x_b = pts(&[&[10]]); // Bob's stale point
        let x_a = pts(&[&[11]]); // Alice's replacement
        let out = replace_matched_with(AssignmentSolver::Hungarian, Metric::L1, &s_b, &x_b, &x_a);
        assert_eq!(out.len(), 3);
        assert!(out.contains(&Point::new(vec![11])));
        assert!(!out.contains(&Point::new(vec![10])));
        assert!(out.contains(&Point::new(vec![0])));
    }

    #[test]
    fn size_preserved_when_xa_larger() {
        let s_b = pts(&[&[0], &[10], &[20]]);
        let x_b = pts(&[&[10]]);
        let x_a = pts(&[&[11], &[21]]);
        let out = replace_matched_with(AssignmentSolver::Hungarian, Metric::L1, &s_b, &x_b, &x_a);
        assert_eq!(out.len(), 3);
        assert!(out.contains(&Point::new(vec![11])));
        assert!(out.contains(&Point::new(vec![21])));
    }

    #[test]
    fn size_preserved_when_xb_larger() {
        let s_b = pts(&[&[0], &[10], &[20]]);
        let x_b = pts(&[&[10], &[20]]);
        let x_a = pts(&[&[12]]);
        let out = replace_matched_with(AssignmentSolver::Hungarian, Metric::L1, &s_b, &x_b, &x_a);
        assert_eq!(out.len(), 3);
        assert!(out.contains(&Point::new(vec![12])));
        // Only one removal happens (budget = |X_A| = 1); the cheapest
        // match is removed.
    }

    #[test]
    fn empty_decodes_are_identity() {
        let s_b = pts(&[&[3], &[4]]);
        let out = replace_matched_with(AssignmentSolver::Hungarian, Metric::L1, &s_b, &[], &[]);
        assert_eq!(out, s_b);
    }

    #[test]
    fn all_points_replaced() {
        let s_b = pts(&[&[0], &[1]]);
        let x_b = s_b.clone();
        let x_a = pts(&[&[50], &[60]]);
        let out = replace_matched_with(AssignmentSolver::Hungarian, Metric::L1, &s_b, &x_b, &x_a);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Point::new(vec![50])));
        assert!(out.contains(&Point::new(vec![60])));
    }

    #[test]
    fn empty_sb() {
        let out = replace_matched_with(
            AssignmentSolver::Hungarian,
            Metric::L1,
            &[],
            &[],
            &pts(&[&[1]]),
        );
        assert!(out.is_empty());
    }
}
