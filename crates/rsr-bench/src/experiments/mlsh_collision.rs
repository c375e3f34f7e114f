//! T2 — Lemmas 2.3–2.5: MLSH collision-probability envelopes.
//!
//! For each family the empirical collision probability at distance `f`
//! must lie in `[p^f, p^{α·f}]` (Definition 2.2) for `f ≤ r`.

use crate::table::{f as ff, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsr_hash::{BitSamplingFamily, GridFamily, LshFamily, MlshFamily, PStableFamily};
use rsr_metric::Point;

/// Share of `trials` sampled functions under which `x` and `y` collide:
/// one draw set of `trials` draws, each draw one function (draws split,
/// so this is `trials` one-draw samples from the same RNG).
fn measure<F: LshFamily>(family: &F, x: &Point, y: &Point, trials: u32, seed: u64) -> f64 {
    let draws = family.sample_draws(&mut StdRng::seed_from_u64(seed), trials as usize);
    let hits = (0..trials as usize)
        .filter(|&j| draws.hash(j, x) == draws.hash(j, y))
        .count();
    hits as f64 / f64::from(trials)
}

/// Runs the experiment.
pub fn run(quick: bool) -> String {
    let trials: u32 = if quick { 4_000 } else { 40_000 };
    let mut table = Table::new(&[
        "family",
        "distance",
        "empirical",
        "lower p^f",
        "upper p^(αf)",
        "in envelope",
    ]);

    // Hamming bit sampling, d = 32, w = 64.
    let dim = 32;
    let ham = BitSamplingFamily::new(dim, 64.0);
    let hp = ham.mlsh_params();
    for dist in [1usize, 4, 8, 16] {
        let x = Point::from_bits(&vec![false; dim]);
        let mut yb = vec![false; dim];
        yb.iter_mut().take(dist).for_each(|b| *b = true);
        let y = Point::from_bits(&yb);
        let emp = measure(&ham, &x, &y, trials, 0x200 + dist as u64);
        let (lo, hi) = (
            hp.lower_envelope(dist as f64),
            hp.upper_envelope(dist as f64),
        );
        let ok = emp >= lo - 0.02 && emp <= hi + 0.02;
        table.row(vec![
            "Hamming bit-sample".into(),
            dist.to_string(),
            ff(emp),
            ff(lo),
            ff(hi),
            ok.to_string(),
        ]);
    }

    // ℓ1 shifted grid, d = 4, w = 24.
    let grid = GridFamily::new(4, 24.0);
    let gp = grid.mlsh_params();
    for dist in [1i64, 3, 6, 12] {
        let x = Point::new(vec![50, 50, 50, 50]);
        let y = Point::new(vec![50 + dist, 50, 50, 50]);
        let emp = measure(&grid, &x, &y, trials, 0x300 + dist as u64);
        let (lo, hi) = (
            gp.lower_envelope(dist as f64),
            gp.upper_envelope(dist as f64),
        );
        let ok = emp >= lo - 0.02 && emp <= hi + 0.02;
        table.row(vec![
            "ℓ1 shifted grid".into(),
            dist.to_string(),
            ff(emp),
            ff(lo),
            ff(hi),
            ok.to_string(),
        ]);
    }

    // ℓ2 2-stable, d = 2, w = 24.
    let ps = PStableFamily::new(2, 24.0);
    let pp = ps.mlsh_params();
    for (dx, dy, dist) in [(3i64, 4i64, 5.0f64), (6, 8, 10.0), (9, 12, 15.0)] {
        let x = Point::new(vec![100, 100]);
        let y = Point::new(vec![100 + dx, 100 + dy]);
        let emp = measure(&ps, &x, &y, trials, 0x400 + dx as u64);
        let (lo, hi) = (pp.lower_envelope(dist), pp.upper_envelope(dist));
        let ok = emp >= lo - 0.02 && emp <= hi + 0.02;
        table.row(vec![
            "ℓ2 2-stable".into(),
            ff(dist),
            ff(emp),
            ff(lo),
            ff(hi),
            ok.to_string(),
        ]);
    }

    format!(
        "## T2 — MLSH collision envelopes (Lemmas 2.3–2.5)\n\n\
         {trials} sampled functions per point. Every empirical collision \
         probability must lie within [p^f, p^(αf)] (±0.02 sampling slack).\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_rows_in_envelope() {
        let report = super::run(true);
        assert!(report.contains("## T2"));
        assert!(!report.contains("false"), "envelope violated:\n{report}");
    }
}
