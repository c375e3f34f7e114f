//! A1/A2 — ablations of the RIBLT's two §2.2 design choices:
//! breadth-first peeling (item 1) and randomized rounding (item 5).
//!
//! * **A1 (order):** Lemma 3.10's error-propagation bound is *proved*
//!   for breadth-first order. The ablation measures depth-first on the
//!   same tables. Finding: at Algorithm 1's sparse sizing (m = 4q²k, so
//!   peel trees are shallow) the measured error is essentially identical
//!   — the BFS requirement is load-bearing for the proof technique, not
//!   a measurable win in the protocol's own regime. Near the peel
//!   threshold the orders do diverge (see F1's divergence point).
//! * **A2 (rounding):** flooring instead of randomized rounding biases
//!   every averaged coordinate downward; over many extractions the mean
//!   signed error drifts negative, while randomized rounding stays
//!   centred at 0.

use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_iblt::riblt::RibltConfig;
use rsr_iblt::{DecodeOptions, PeelOrder, Riblt, RoundingMode};
use rsr_metric::Point;

/// Builds a table with `pairs` cancelled near-pairs and `k` clean
/// survivors; returns (table, survivor ground truth).
fn plant(pairs: usize, k: usize, seed: u64) -> (Riblt, std::collections::HashMap<u64, i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = RibltConfig::for_pairs(k, 3, 1, 100_000, seed);
    let mut t = Riblt::new(config);
    for i in 0..pairs {
        let v = rng.gen_range(0..90_000);
        t.insert(i as u64, &Point::new(vec![v]));
        t.delete(i as u64, &Point::new(vec![v + 1]));
    }
    let mut truth = std::collections::HashMap::new();
    for i in 0..k {
        let key = 1_000_000 + i as u64;
        let v = rng.gen_range(0..90_000);
        t.insert(key, &Point::new(vec![v]));
        truth.insert(key, v);
    }
    (t, truth)
}

/// Runs the experiment.
pub fn run(quick: bool) -> String {
    let trials = if quick { 20 } else { 100 };
    let k = 8;

    // A1: |error| under BFS vs DFS peeling, sweeping planted error mass.
    let mut t1 = Table::new(&[
        "cancelled near-pairs",
        "BFS mean |err|",
        "DFS mean |err|",
        "DFS/BFS",
    ]);
    for pairs in [40usize, 120, 250] {
        let mut err = [0f64; 2];
        for t in 0..trials {
            let seed = 0xab1_0000 + t as u64;
            for (slot, order) in [PeelOrder::BreadthFirst, PeelOrder::DepthFirst]
                .into_iter()
                .enumerate()
            {
                let (table, truth) = plant(pairs, k, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9);
                let d = table.decode_with(
                    &mut rng,
                    DecodeOptions {
                        order,
                        rounding: RoundingMode::Randomized,
                    },
                );
                for pair in &d.inserted {
                    if let Some(&want) = truth.get(&pair.key) {
                        err[slot] += (pair.value.coord(0) - want).abs() as f64;
                    }
                }
            }
        }
        let bfs = err[0] / trials as f64;
        let dfs = err[1] / trials as f64;
        t1.row(vec![
            pairs.to_string(),
            f(bfs),
            f(dfs),
            f(dfs / bfs.max(1e-9)),
        ]);
    }

    // A2: signed drift under randomized rounding vs flooring on
    // duplicate-key averaging (two copies of each key, values v, v+1 →
    // true mean v + 0.5).
    let mut t2 = Table::new(&["rounding", "mean signed error", "mean |error|"]);
    for (label, rounding) in [
        ("randomized (paper)", RoundingMode::Randomized),
        ("floor (ablation)", RoundingMode::Floor),
    ] {
        let mut signed = 0f64;
        let mut absolute = 0f64;
        let mut count = 0usize;
        for t in 0..trials {
            let seed = 0xab2_0000 + t as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let config = RibltConfig::for_pairs(8, 3, 1, 100_000, seed);
            let mut table = Riblt::new(config);
            let mut truth = Vec::new();
            for i in 0..8u64 {
                let v = rng.gen_range(0..90_000);
                table.insert(i, &Point::new(vec![v]));
                table.insert(i, &Point::new(vec![v + 1]));
                truth.push((i, v as f64 + 0.5));
            }
            let d = table.decode_with(
                &mut rng,
                DecodeOptions {
                    order: PeelOrder::BreadthFirst,
                    rounding,
                },
            );
            for pair in &d.inserted {
                if let Some(&(_, want)) = truth.iter().find(|(key, _)| *key == pair.key) {
                    signed += pair.value.coord(0) as f64 - want;
                    absolute += (pair.value.coord(0) as f64 - want).abs();
                    count += 1;
                }
            }
        }
        t2.row(vec![
            label.into(),
            f(signed / count.max(1) as f64),
            f(absolute / count.max(1) as f64),
        ]);
    }

    format!(
        "## A1/A2 — RIBLT design-choice ablations (§2.2 items 1 and 5)\n\n\
         A1: total extracted-value error for {k} survivors over planted \
         cancelled near-pairs, breadth-first (the paper) vs depth-first \
         peel order; {trials} trials. Finding: at Algorithm 1's sparse \
         sizing the orders are statistically indistinguishable — the BFS \
         requirement backs the Lemma 3.10 proof, not a measurable \
         difference at this density.\n\n{}\n\
         A2: duplicate-key averaging of values (v, v+1): signed drift of \
         extracted values. Expected: randomized rounding ≈ 0 (unbiased), \
         flooring ≈ −0.5.\n\n{}",
        t1.render(),
        t2.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn flooring_is_biased_randomized_is_not() {
        let report = super::run(true);
        assert!(report.contains("## A1/A2"));
        let rows: Vec<&str> = report
            .lines()
            .filter(|l| l.starts_with("| randomized") || l.starts_with("| floor"))
            .collect();
        assert_eq!(rows.len(), 2);
        let signed =
            |line: &str| -> f64 { line.split('|').nth(2).unwrap().trim().parse().unwrap() };
        assert!(
            signed(rows[0]).abs() < 0.2,
            "randomized biased: {}",
            signed(rows[0])
        );
        assert!(
            signed(rows[1]) < -0.3,
            "floor not biased down: {}",
            signed(rows[1])
        );
    }
}
