//! Gates a fresh `BENCH_*.json` against a committed baseline.
//!
//! ```text
//! bench_check <baseline.json> <fresh.json>
//! ```
//!
//! Prints every baseline key against its fresh value, and exits 1 if
//! [`gate`] finds a regression under any [`Rule`](rsr_bench::Rule), if
//! the two files describe different benches or modes, or if either file
//! fails to parse. The rules are constants, not options; each
//! regression line names the rule and its bound, and docs/benchmarks.md
//! tabulates them with their rationale. A baseline key missing from the
//! fresh run fails under its rule.

use rsr_bench::{gate, BenchReport};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: bench_check <baseline.json> <fresh.json>");
        exit(2)
    };
    let (baseline, fresh) = (load(baseline_path), load(fresh_path));
    if (&baseline.bench, baseline.quick) != (&fresh.bench, fresh.quick) {
        eprintln!(
            "bench_check: cannot compare bench {:?} (quick={}) with {:?} (quick={})",
            baseline.bench, baseline.quick, fresh.bench, fresh.quick
        );
        exit(1);
    }

    let mode = if baseline.quick { "quick" } else { "full" };
    println!("bench {} ({mode} mode):", baseline.bench);
    let regressions = gate(&baseline, &fresh);
    // Every regression line names the fresh file, the key and the rule
    // it broke, so a CI log line is actionable on its own.
    for (key, base) in &baseline.metrics {
        let now = fresh
            .metric(key)
            .map_or_else(|| "(absent)".to_owned(), |v| format!("{v:.3}"));
        match regressions.iter().find(|r| r.key == *key) {
            Some(r) => eprintln!(
                "REGRESSION {fresh_path}: {key} [{}]: baseline {base:.3} -> fresh {now}",
                r.rule
            ),
            None => println!("  {key}: baseline {base:.3} -> fresh {now}"),
        }
    }
    if regressions.is_empty() {
        println!("ok: no key broke its rule");
        return;
    }
    eprintln!(
        "bench_check: {} regression(s) in {fresh_path} vs baseline {baseline_path}",
        regressions.len()
    );
    exit(1);
}

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot read {path}: {e}");
        exit(1)
    });
    BenchReport::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot parse {path}: {e}");
        exit(1)
    })
}
