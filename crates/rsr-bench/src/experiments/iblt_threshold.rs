//! T1 — Theorem 2.6: IBLT decode success vs load.
//!
//! "There exists a constant 0 < c < 1 so that an IBLT with m cells and at
//! most cm keys will successfully extract all key-value pairs with
//! probability at least 1 − O(1/poly(m))." The constant is the 2-core
//! threshold of random q-uniform hypergraphs: c*₃ ≈ 0.818, c*₄ ≈ 0.772,
//! c*₅ ≈ 0.702. The table shows the peeling decoder's success
//! probability collapsing from ≈1 to ≈0 across each threshold, and a
//! second sweep shows how much earlier a 60-cell table gives out: at
//! small m the failures are finite-size stopping sets, not the
//! asymptotic core.
//!
//! Every success rate is deterministic (fixed seeds, no wall-clock in
//! the decode path), so the emitted `iblt_threshold_*_success_rate` keys
//! are gated with **zero downward tolerance** in CI — any dip is a real
//! decoder regression, not noise (docs/benchmarks.md).

use crate::benchjson::BenchReport;
use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_iblt::Iblt;
use std::time::Instant;

/// Known asymptotic peeling thresholds (Molloy / \[26\]).
pub const THRESHOLDS: [(usize, f64); 3] = [(3, 0.818), (4, 0.772), (5, 0.702)];

/// Share of `trials` seeded tables of `m` cells holding `load · m`
/// random keys that decode completely.
fn success_rate(m: usize, q: usize, load: f64, trials: usize) -> f64 {
    let items = (load * m as f64) as usize;
    let mut ok = 0usize;
    for t in 0..trials {
        let seed = 0x1000 + t as u64 * 31 + q as u64 + m as u64;
        let mut krng = StdRng::seed_from_u64(
            0x71 ^ (q as u64) << 40 ^ ((load * 100.0) as u64) << 20 ^ t as u64,
        );
        let mut iblt = Iblt::new(m, q, seed);
        for _ in 0..items {
            iblt.insert(krng.gen());
        }
        ok += usize::from(iblt.decode().complete);
    }
    ok as f64 / trials as f64
}

/// Decode throughput (keys per second) at a comfortably sub-threshold
/// load, where every table decodes completely.
fn keys_per_sec(trials: usize) -> f64 {
    let (m, q, load) = (300usize, 3usize, 0.70f64);
    let items = (load * m as f64) as usize;
    let tables: Vec<Iblt> = (0..trials)
        .map(|t| {
            let mut krng = StdRng::seed_from_u64(0x7B17 + t as u64);
            let mut iblt = Iblt::new(m, q, 0x9000 + t as u64);
            for _ in 0..items {
                iblt.insert(krng.gen());
            }
            iblt
        })
        .collect();
    let start = Instant::now();
    let mut decoded = 0usize;
    for table in tables {
        let d = table.decode();
        decoded += d.inserted.len() + d.deleted.len();
    }
    decoded as f64 / start.elapsed().as_secs_f64()
}

/// Runs the experiment (markdown only).
pub fn run(quick: bool) -> String {
    run_with_json(quick).0
}

/// Runs the experiment, returning both the markdown section and the
/// `BENCH_iblt.json` report.
pub fn run_with_json(quick: bool) -> (String, BenchReport) {
    let mut bench = BenchReport::new("iblt", quick);
    let mut out = String::new();

    // Part 1: the paper's phase transition at large m.
    let m = if quick { 300 } else { 1200 };
    let trials = if quick { 20 } else { 100 };
    let loads = [0.60, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95];
    let mut table = Table::new(&["q", "load c", "peel success", "threshold c*_q"]);
    for &(q, threshold) in &THRESHOLDS {
        for &load in &loads {
            let peel = success_rate(m, q, load, trials);
            table.row(vec![q.to_string(), f(load), f(peel), f(threshold)]);
            let l = (load * 100.0) as u64;
            bench.push(format!("iblt_threshold_q{q}_l{l}_peel_success_rate"), peel);
        }
    }
    out.push_str(&format!(
        "## T1 — IBLT decode threshold (Theorem 2.6)\n\n\
         m = {m} cells, {trials} trials per point. Expected: success ≈ 1 \
         below the q-core threshold c*_q, ≈ 0 above.\n\n{}",
        table.render()
    ));

    // Part 2: the same sweep on a table of protocol size, where
    // finite-size stopping sets end the decode well below c*_3.
    let m2 = 60;
    let trials2 = if quick { 40 } else { 200 };
    let loads2 = [0.75, 0.80, 0.85, 0.90, 0.95, 1.00];
    let mut table2 = Table::new(&["load c", "peel success"]);
    for &load in &loads2 {
        let peel = success_rate(m2, 3, load, trials2);
        table2.row(vec![f(load), f(peel)]);
        let l = (load * 100.0) as u64;
        bench.push(
            format!("iblt_threshold_q3_m{m2}_l{l}_peel_success_rate"),
            peel,
        );
    }
    out.push_str(&format!(
        "\nSmall-table transition (q = 3, m = {m2} cells, {trials2} trials \
         per load). Expected: the curve falls well before c*_3 ≈ 0.818 — \
         a table this small fails on finite-size stopping sets, not on \
         the asymptotic 2-core.\n\n{}",
        table2.render()
    ));

    // Decode throughput at a load where every table fully decodes.
    let peel_rate = keys_per_sec(if quick { 20 } else { 100 });
    bench.push("iblt_decode_peel_keys_per_sec", peel_rate);
    out.push_str(&format!(
        "\nDecode throughput at load 0.70 (every table fully decodes): \
         {peel_rate:.0} keys/s.\n"
    ));

    (out, bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_and_shows_phase_transition() {
        let (report, bench) = run_with_json(true);
        assert!(report.contains("## T1"));
        // Sanity: the part-1 table has 3 q-values × 7 loads rows.
        assert_eq!(
            report.matches("\n| 3").count()
                + report.matches("\n| 4").count()
                + report.matches("\n| 5").count(),
            21
        );
        // Key inventory: 21 large-m points + 6 small-m loads, plus the
        // one throughput.
        let rates = bench
            .metrics
            .iter()
            .filter(|(k, _)| k.ends_with("_success_rate"))
            .count();
        assert_eq!(rates, 21 + 6);
        assert_eq!(bench.metrics.len(), rates + 1);
        assert!(bench.metric("iblt_decode_peel_keys_per_sec").unwrap() > 0.0);
    }

    #[test]
    fn success_rates_are_deterministic() {
        // The zero-tolerance CI gate on `_success_rate` keys is only
        // sound if reruns reproduce bit-identical rates.
        let (_, a) = run_with_json(true);
        let (_, b) = run_with_json(true);
        let rates = |r: &BenchReport| -> Vec<(String, f64)> {
            r.metrics
                .iter()
                .filter(|(k, _)| k.ends_with("_success_rate"))
                .cloned()
                .collect()
        };
        assert_eq!(rates(&a), rates(&b));
    }
}
