//! The two exact assignment solvers: the Hungarian reference and the
//! ε-scaling auction the protocol runs.
//!
//! Every matching in this crate — the [`emd`](mod@crate::emd) module's
//! exact `EMD`/`EMD_k`, [`crate::repair`]'s matched-replacement step, and
//! through it `EmdProtocol::bob_decode` in `rsr-core` — bottoms out in one
//! rectangular assignment problem: minimize `Σ_i cost(i, σ(i))` over
//! injections `σ` from `n` rows into `m ≥ n` columns. [`AssignmentSolver`]
//! names the two ways this crate solves it:
//!
//! * [`AssignmentSolver::Hungarian`] — the reference solver
//!   ([`crate::hungarian::assign`]): shortest augmenting paths with dual
//!   potentials, O(n²m) and it re-evaluates the cost closure inside the
//!   innermost loop. `emd` and `emd_k` use it, so the measure a
//!   protocol is judged by never comes from the solver under test.
//! * [`AssignmentSolver::Auction`] — Bertsekas' forward auction with
//!   ε-scaling ([`auction_assign`]): materializes the costs once as
//!   fixed-point integers and then runs integer-only bidding phases,
//!   O(n²·log n·log(nC)) in practice. **Exact** whenever the fixed-point
//!   conversion is (always for integer-valued costs such as ℓ1/Hamming
//!   distances; to ~2⁻¹⁶ relative quantization otherwise), because the
//!   final phase runs at ε < 1/n where ε-complementary-slackness pins the
//!   optimum — see [`auction_assign`] for the argument. Bob's repair step
//!   in the EMD protocol runs it.
//!
//! The solvers agree on *total cost*, not necessarily on the assignment
//! itself: when several matchings are optimal, each solver
//! deterministically picks one of them, but not the same one.

use crate::hungarian;

/// Which algorithm resolves a rectangular assignment problem.
///
/// See the [module docs](self) for which caller uses which. The default
/// is [`AssignmentSolver::Auction`] — exact at integer costs and
/// asymptotically the faster of the two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AssignmentSolver {
    /// The reference: Kuhn–Munkres with potentials, O(n²m).
    Hungarian,
    /// ε-scaling forward auction on fixed-point integer costs,
    /// O(n²·log n·log(nC)) in practice.
    #[default]
    Auction,
}

impl AssignmentSolver {
    /// Solves the rectangular assignment problem with this solver.
    ///
    /// `cost(i, j)` gives the cost of assigning row `i ∈ 0..n` to column
    /// `j ∈ 0..m`; requires `n ≤ m` and finite, non-negative costs.
    /// Returns, for each row, the column it is assigned to (all
    /// distinct).
    ///
    /// ```
    /// use rsr_emd::AssignmentSolver;
    ///
    /// let c = [[10.0, 1.0], [1.0, 10.0]];
    /// for solver in [AssignmentSolver::Hungarian, AssignmentSolver::Auction] {
    ///     assert_eq!(solver.assign(2, 2, |i, j| c[i][j]), vec![1, 0]);
    /// }
    /// ```
    pub fn assign<F>(self, n: usize, m: usize, cost: F) -> Vec<usize>
    where
        F: Fn(usize, usize) -> f64,
    {
        match self {
            AssignmentSolver::Hungarian => hungarian::assign(n, m, cost),
            AssignmentSolver::Auction => auction_assign(n, m, cost),
        }
    }
}

/// Fixed-point scale for converting `f64` costs to auction integers:
/// integer-valued costs (ℓ1, Hamming) stay exact under it, fractional
/// ones are quantized at 2⁻¹⁶.
const FP_BITS: u32 = 16;

/// Headroom bound: after fixed-point conversion and the `(N+1)` exactness
/// scaling, every cost must stay well inside `i64` so prices (bounded by
/// a small multiple of `N·C`) cannot overflow.
const MAX_SCALED: f64 = (1i64 << 45) as f64;

/// Solves the rectangular assignment problem by Bertsekas' forward
/// auction with ε-scaling. Exact for integer-valued costs; for
/// fractional costs it is exact on the 2⁻¹⁶ fixed-point quantization of
/// the instance (see below). Requires `n ≤ m` and finite, non-negative
/// costs.
///
/// The algorithm and its exactness argument:
///
/// 1. Costs are materialized **once** as integers `c[i][j] =
///    round(cost(i, j)·2¹⁶)` (scaled down if needed to keep headroom) —
///    in contrast to the Hungarian implementation, which re-evaluates
///    the closure O(n²m) times, this is the only place the metric is
///    evaluated, O(nm) total.
/// 2. The rectangular instance is squared up with `m − n` implicit
///    all-zero dummy rows (they absorb the unused columns at zero
///    cost, so the real rows of an optimal square solution form an
///    optimal rectangular one). Squaring matters for correctness: with
///    every column owned at termination, the ε-complementary-slackness
///    argument needs no assumption about unassigned columns' prices,
///    which is what lets the phases below warm-start prices.
/// 3. Costs are further scaled by `N + 1` (`N = m` = square size) and
///    the auction runs in phases with `ε` shrinking from `C/2` down to
///    `ε = 1`. Each phase keeps the previous phase's prices (the warm
///    start that makes ε-scaling fast) and re-runs the bidding loop:
///    unassigned rows bid `price + (best − second best) + ε` for their
///    best-value column, displacing the previous owner.
/// 4. At termination of the final phase every row is within `ε = 1` of
///    its best choice (ε-CS), so the total cost is within `N·ε = N` of
///    optimal; all costs being multiples of `N + 1 > N`, it *is*
///    optimal — the classic `ε < 1/n` exactness guarantee, in integer
///    arithmetic.
pub fn auction_assign<F>(n: usize, m: usize, cost: F) -> Vec<usize>
where
    F: Fn(usize, usize) -> f64,
{
    assert!(n <= m, "need at most as many rows ({n}) as columns ({m})");
    if n == 0 {
        return Vec::new();
    }
    // Materialize the fixed-point cost matrix (row-major, real rows only;
    // dummy rows are implicit zeros).
    let mut cmax = 0.0f64;
    let mut raw = vec![0.0f64; n * m];
    for i in 0..n {
        for j in 0..m {
            let c = cost(i, j);
            assert!(c.is_finite() && c >= 0.0, "cost({i}, {j}) = {c} invalid");
            raw[i * m + j] = c;
            cmax = cmax.max(c);
        }
    }
    let big = (m + 1) as f64;
    // Integer-valued costs (ℓ1/Hamming distances, integer matrices) skip
    // the fixed-point scale entirely: smaller magnitudes mean fewer
    // ε-phases and shorter bidding wars, and exactness is free. Otherwise
    // start from the 2¹⁶ fixed-point scale. Either way the scale is then
    // halved until (N+1)·scale·cmax fits the headroom bound — prices are
    // sums of bid increments and must stay well inside `i64` — so a
    // scale below the starting point (quantizing even integer costs)
    // only occurs for astronomically large inputs.
    let integral = raw.iter().all(|v| v.fract() == 0.0);
    let mut scale = if integral {
        1.0
    } else {
        (1u64 << FP_BITS) as f64
    };
    while cmax * scale * big > MAX_SCALED {
        scale /= 2.0;
    }
    let c: Vec<i64> = raw
        .iter()
        .map(|&v| (v * scale).round() as i64 * (m as i64 + 1))
        .collect();
    drop(raw);
    let scaled_max = c.iter().copied().max().unwrap_or(0);

    let num_rows = m; // n real rows + (m - n) implicit zero dummies
    let mut price = vec![0i64; m];
    let mut owner = vec![usize::MAX; m]; // column -> row
    let mut assigned = vec![usize::MAX; num_rows]; // row -> column
    let mut eps = (scaled_max / 2).max(1);
    let mut unassigned: Vec<usize> = Vec::with_capacity(num_rows);
    loop {
        // One ε-phase: discard the assignment, keep the prices.
        owner.iter_mut().for_each(|o| *o = usize::MAX);
        assigned.iter_mut().for_each(|a| *a = usize::MAX);
        unassigned.clear();
        unassigned.extend(0..num_rows);
        while let Some(i) = unassigned.pop() {
            // Best and second-best value of a column for row i, where
            // value = −cost − price (dummy rows have cost 0 everywhere).
            let (mut best_j, mut best_v, mut second_v) = (0usize, i64::MIN, i64::MIN);
            if i < n {
                let row = &c[i * m..(i + 1) * m];
                for (j, (&cij, &pj)) in row.iter().zip(&price).enumerate() {
                    let v = -cij - pj;
                    if v > best_v {
                        (second_v, best_v, best_j) = (best_v, v, j);
                    } else if v > second_v {
                        second_v = v;
                    }
                }
            } else {
                for (j, &pj) in price.iter().enumerate() {
                    let v = -pj;
                    if v > best_v {
                        (second_v, best_v, best_j) = (best_v, v, j);
                    } else if v > second_v {
                        second_v = v;
                    }
                }
            }
            // With a single column there is no second-best; any positive
            // increment preserves ε-CS.
            let increment = if second_v == i64::MIN {
                eps
            } else {
                best_v - second_v + eps
            };
            price[best_j] += increment;
            let evicted = owner[best_j];
            if evicted != usize::MAX {
                assigned[evicted] = usize::MAX;
                unassigned.push(evicted);
            }
            owner[best_j] = i;
            assigned[i] = best_j;
        }
        if eps == 1 {
            break;
        }
        eps = (eps / 7).max(1);
    }
    assigned.truncate(n);
    debug_assert!(assigned.iter().all(|&j| j != usize::MAX));
    assigned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::{assign, assign_brute_force, assignment_cost};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn injective(a: &[usize], n: usize) {
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), n, "assignment not injective: {a:?}");
    }

    #[test]
    fn auction_trivial_cases() {
        assert!(auction_assign(0, 4, |_, _| 1.0).is_empty());
        assert_eq!(auction_assign(1, 1, |_, _| 5.0), vec![0]);
        // All-zero costs: any injection is optimal; just check validity.
        let a = auction_assign(3, 5, |_, _| 0.0);
        injective(&a, 3);
    }

    #[test]
    fn auction_picks_off_diagonal_when_cheaper() {
        let c = [[10.0, 1.0], [1.0, 10.0]];
        assert_eq!(auction_assign(2, 2, |i, j| c[i][j]), vec![1, 0]);
    }

    #[test]
    fn auction_matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(70);
        for trial in 0..300 {
            let n = rng.gen_range(1..=5);
            let m = rng.gen_range(n..=7);
            let costs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0..100) as f64).collect())
                .collect();
            let a = auction_assign(n, m, |i, j| costs[i][j]);
            injective(&a, n);
            let got = assignment_cost(&a, |i, j| costs[i][j]);
            let want = assign_brute_force(n, m, |i, j| costs[i][j]);
            assert!((got - want).abs() < 1e-9, "trial {trial}: {got} vs {want}");
        }
    }

    #[test]
    fn auction_equals_hungarian_on_larger_integer_instances() {
        let mut rng = StdRng::seed_from_u64(71);
        for &(n, m) in &[(16usize, 16usize), (24, 40), (48, 48), (64, 80)] {
            let costs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0..10_000) as f64).collect())
                .collect();
            let fast = auction_assign(n, m, |i, j| costs[i][j]);
            let slow = assign(n, m, |i, j| costs[i][j]);
            injective(&fast, n);
            let got = assignment_cost(&fast, |i, j| costs[i][j]);
            let want = assignment_cost(&slow, |i, j| costs[i][j]);
            assert!((got - want).abs() < 1e-9, "{n}×{m}: {got} vs {want}");
        }
    }

    #[test]
    fn auction_handles_fractional_costs() {
        // Fractional costs are quantized at 2⁻¹⁶; a gap far above the
        // quantization step must still resolve exactly.
        let c = [[0.5, 1.25], [1.25, 0.75]];
        assert_eq!(auction_assign(2, 2, |i, j| c[i][j]), vec![0, 1]);
    }

    #[test]
    fn auction_handles_huge_costs_via_rescaling() {
        // Costs near 2⁴⁰ force the fixed-point scale below 2¹⁶; the
        // structure (off-diagonal cheaper) must survive.
        let big = (1u64 << 40) as f64;
        let c = [[big, 1.0], [1.0, big]];
        assert_eq!(auction_assign(2, 2, |i, j| c[i][j]), vec![1, 0]);
        // Same for *integer* costs near 2⁶¹: the headroom loop must also
        // rescale the integral fast path (a scale of 1 would overflow
        // the (N+1)-multiplied i64 costs).
        let huge = (1u64 << 61) as f64;
        let c = [[huge, 1.0], [1.0, huge]];
        assert_eq!(auction_assign(2, 2, |i, j| c[i][j]), vec![1, 0]);
    }

    #[test]
    fn auction_large_identity() {
        let n = 200;
        let a = auction_assign(n, n, |i, j| if i == j { 0.0 } else { 1.0 + (i + j) as f64 });
        assert!(a.iter().enumerate().all(|(i, &j)| i == j));
    }

    #[test]
    #[should_panic]
    fn auction_rejects_more_rows_than_columns() {
        auction_assign(3, 2, |_, _| 1.0);
    }

    #[test]
    #[should_panic]
    fn auction_rejects_negative_costs() {
        auction_assign(1, 1, |_, _| -1.0);
    }

    #[test]
    fn solver_dispatch_agrees_on_cost_for_exact_solvers() {
        let mut rng = StdRng::seed_from_u64(73);
        let (n, m) = (20, 30);
        let costs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| rng.gen_range(0..1000) as f64).collect())
            .collect();
        let reference = assignment_cost(
            &AssignmentSolver::Hungarian.assign(n, m, |i, j| costs[i][j]),
            |i, j| costs[i][j],
        );
        for solver in [AssignmentSolver::Hungarian, AssignmentSolver::Auction] {
            let a = solver.assign(n, m, |i, j| costs[i][j]);
            let c = assignment_cost(&a, |i, j| costs[i][j]);
            assert!(
                (c - reference).abs() < 1e-9,
                "{solver:?}: {c} vs {reference}"
            );
        }
    }

    #[test]
    fn default_solver_is_auction() {
        assert_eq!(AssignmentSolver::default(), AssignmentSolver::Auction);
    }
}
