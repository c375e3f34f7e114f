//! F1 — Lemma 3.10 / Figure 1: error propagation in RIBLT peeling.
//!
//! Two measurements:
//!
//! 1. **Idealized model** (exactly Lemma 3.10): in `G^q_{m,cm}`, one
//!    random vertex starts with an error; breadth-first peeling adds a
//!    peeled vertex's error count to its edge-mates. Below the density
//!    threshold `1/(q(q−1))` the final `Σ C_v` is O(1); above, it grows.
//! 2. **End-to-end RIBLT**: plant cancelled near-pairs (same key, value
//!    off by 1) plus clean survivors; measure the total coordinate error
//!    of the extracted survivors against ground truth. The error stays a
//!    small multiple of the planted error mass (the paper's
//!    `EMD(X, Z) = O(1)·µ`).

use crate::benchjson::BenchReport;
use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_iblt::hypergraph::Hypergraph;
use rsr_iblt::riblt::RibltConfig;
use rsr_iblt::Riblt;
use rsr_metric::Point;

/// Runs the experiment.
pub fn run(quick: bool) -> String {
    let mut out = String::new();

    // Part 1: idealized branching-process model.
    let m = if quick { 600 } else { 3000 };
    let trials = if quick { 40 } else { 200 };
    let mut table = Table::new(&[
        "q",
        "c/(1/(q(q−1)))",
        "density c",
        "mean Σ C_v",
        "max Σ C_v",
    ]);
    let mut rng = StdRng::seed_from_u64(0xf1);
    for q in [3usize, 4] {
        let threshold = 1.0 / (q as f64 * (q - 1) as f64);
        // Sweep from deep inside the Lemma 3.10 regime up to the peeling
        // threshold (≈ 4.9× the sparsity threshold for q = 3), where the
        // error mass diverges, and past it, where the surviving 2-core
        // stops propagation entirely.
        for rel in [0.2, 0.5, 1.0, 2.0, 3.5, 4.5, 4.8, 5.5] {
            let c = rel * threshold;
            let edges = (c * m as f64) as usize;
            let mut total = 0u64;
            let mut max_v = 0u64;
            for _ in 0..trials {
                let g = Hypergraph::sample_uniform(m, edges, q, &mut rng);
                let v = g.error_propagation(rng.gen_range(0..m));
                total += v;
                max_v = max_v.max(v);
            }
            table.row(vec![
                q.to_string(),
                f(rel),
                f(c),
                f(total as f64 / trials as f64),
                max_v.to_string(),
            ]);
        }
    }
    out.push_str(&format!(
        "## F1 — RIBLT error propagation (Lemma 3.10, Figure 1)\n\n\
         Idealized model on G^q_{{m,cm}}, m = {m}, {trials} trials: one \
         planted error, breadth-first peel, final Σ C_v. Expected: O(1) \
         below the sparsity threshold 1/(q(q−1)) (Lemma 3.10), slow growth \
         above it, a sharp divergence at the *peeling* threshold \
         (c* ≈ 0.818 for q = 3), and a collapse past c* where the \
         unpeeled 2-core absorbs the error.\n\n{}",
        table.render()
    ));

    // Part 2: end-to-end RIBLT error accounting.
    let trials2 = if quick { 10 } else { 50 };
    let k = 8; // clean survivors
    let mut table2 = Table::new(&[
        "cancelled near-pairs",
        "planted error mass µ",
        "mean |extracted error|",
        "ratio",
    ]);
    for pairs in [0usize, 20, 60, 150] {
        let mut total_err = 0f64;
        for t in 0..trials2 {
            let seed = 0x2000 + t as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let config = RibltConfig::for_pairs(k, 3, 1, 10_000, seed);
            let mut table_r = Riblt::new(config);
            // Cancelled near-pairs: same key, value off by exactly 1.
            for i in 0..pairs {
                let v = rng.gen_range(0..9_000);
                table_r.insert(i as u64, &Point::new(vec![v]));
                table_r.delete(i as u64, &Point::new(vec![v + 1]));
            }
            // Clean survivors with known values.
            let mut truth = std::collections::HashMap::new();
            for i in 0..k {
                let key = 1_000_000 + i as u64;
                let v = rng.gen_range(0..9_000);
                table_r.insert(key, &Point::new(vec![v]));
                truth.insert(key, v);
            }
            let d = table_r.decode(&mut rng);
            for pair in &d.inserted {
                if let Some(&want) = truth.get(&pair.key) {
                    total_err += (pair.value.coord(0) - want).abs() as f64;
                }
            }
        }
        let mean_err = total_err / trials2 as f64;
        let mu = pairs as f64; // each pair plants error mass 1
        table2.row(vec![
            pairs.to_string(),
            f(mu),
            f(mean_err),
            if mu > 0.0 {
                f(mean_err / mu)
            } else {
                "-".into()
            },
        ]);
    }
    out.push_str(&format!(
        "\nEnd-to-end RIBLT (q = 3, m = {} cells, {k} clean survivors, \
         {trials2} trials): extracted-value error vs planted error mass µ. \
         Expected: error a small constant fraction of µ (Theorem 3.4's \
         O(1)·µ term).\n\n{}",
        4 * 9 * k,
        table2.render()
    ));
    out
}

/// Part 3: the unrecovered-key floor of an overloaded table, appended
/// to `bench` as the `riblt_recover_*` key family (the success rate is
/// deterministic — fixed seeds — so CI gates it with zero downward
/// tolerance).
///
/// 24 exact-valued keys in a 30-cell q = 3 table sit past the peeling
/// threshold often enough that the decode stalls in most trials. A
/// stalled decode leaves its keys unrecovered — each one is floor error
/// the protocol can never reconcile.
pub fn extend(bench: &mut BenchReport, quick: bool) -> String {
    let trials = if quick { 60 } else { 300 };
    let (cells, keys) = (30usize, 24usize);
    let mut ok = 0usize;
    let mut unrecovered = 0usize;
    for seed in 0..trials as u64 {
        let config = RibltConfig {
            min_cells: cells,
            q: 3,
            dim: 1,
            delta: 9000,
            seed,
        };
        let mut t = Riblt::new(config);
        let mut vrng = StdRng::seed_from_u64(seed ^ 0xbeef);
        for i in 0..keys as u64 {
            t.insert(i, &Point::new(vec![vrng.gen_range(0..9000)]));
        }
        let d = t.decode(&mut StdRng::seed_from_u64(seed));
        ok += usize::from(d.complete);
        unrecovered += keys - d.inserted.len().min(keys);
    }
    let rate = ok as f64 / trials as f64;
    let floor = unrecovered as f64 / trials as f64;
    bench.push("riblt_recover_peel_success_rate", rate);
    bench.push("riblt_unrecovered_keys_peel", floor);
    let mut table = Table::new(&["success rate", "mean unrecovered keys"]);
    table.row(vec![f(rate), f(floor)]);
    format!(
        "## F1b — the unrecovered-key floor of a stalled peel\n\n\
         {keys} exact-valued keys in {cells} cells (q = 3), {trials} \
         seeds. Expected: most decodes stall, and a stalled peel strands \
         its remaining keys.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_keys_are_present_and_deterministic() {
        // The key inventory and determinism the CI zero-tolerance gate
        // relies on.
        let mut a = BenchReport::new("iblt", true);
        let report = extend(&mut a, true);
        assert!(report.contains("## F1b"));
        for key in [
            "riblt_recover_peel_success_rate",
            "riblt_unrecovered_keys_peel",
        ] {
            assert!(a.metric(key).is_some(), "missing {key}");
        }
        assert_eq!(a.metrics.len(), 2);
        let mut b = BenchReport::new("iblt", true);
        extend(&mut b, true);
        assert_eq!(a.metrics, b.metrics, "rates must be deterministic");
    }

    #[test]
    fn error_is_constant_below_threshold_and_diverges_at_peel_point() {
        let report = super::run(true);
        assert!(report.contains("## F1"));
        let rows: Vec<&str> = report.lines().filter(|l| l.starts_with("| 3")).collect();
        assert_eq!(rows.len(), 8);
        let mean = |line: &str| -> f64 { line.split('|').nth(4).unwrap().trim().parse().unwrap() };
        let low = mean(rows[0]); // rel = 0.2, inside Lemma 3.10
        let peak = mean(rows[6]); // rel = 4.8, at the peeling threshold
        assert!(low < 4.0, "below-threshold error not O(1): {low}");
        assert!(
            peak > 5.0 * low,
            "no divergence near the peeling threshold: {low} vs {peak}"
        );
    }
}
