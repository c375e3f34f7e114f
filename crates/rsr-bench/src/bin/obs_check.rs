//! Gates a metrics snapshot in CI: every named key must be present in
//! the snapshot JSON **and non-zero**.
//!
//! ```text
//! obs_check <snapshot.json> <key> [key...]
//! ```
//!
//! The snapshot is the flat object `rsr-exp --metrics-out` writes (one
//! `"key": value` pair per line — [`rsr_obs::MetricsSnapshot::to_json`]),
//! read with the `BENCH_*.json` parser's [`parse_flat`]. A key that is
//! present but zero fails just like a missing one: the smoke run drives
//! real traffic, so a zero poll count or byte counter means the
//! instrumentation came unwired, not that nothing happened. Key
//! inventory and semantics: docs/observability.md.

use rsr_bench::benchjson::parse_flat;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path, keys @ ..] = args.as_slice() else {
        usage("expected a snapshot path");
    };
    if keys.is_empty() {
        usage("expected at least one key to check");
    }

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs_check: cannot read {path}: {e}");
        exit(1)
    });
    let entries = parse_flat(&text).unwrap_or_else(|e| {
        eprintln!("obs_check: cannot parse {path}: {e}");
        exit(1)
    });

    let mut failures = 0;
    for key in keys {
        match entries.iter().find(|(k, _)| k == key) {
            None => {
                eprintln!("obs_check: {path}: key {key:?} missing from snapshot");
                failures += 1;
            }
            Some((_, v)) if *v == 0.0 => {
                eprintln!("obs_check: {path}: key {key:?} is zero (instrumentation unwired?)");
                failures += 1;
            }
            Some((_, v)) => println!("  {key}: {v}"),
        }
    }
    if failures > 0 {
        eprintln!(
            "obs_check: {failures} of {} required keys failed in {path}",
            keys.len()
        );
        exit(1);
    }
    println!(
        "ok: all {} required keys present and non-zero in {path}",
        keys.len()
    );
}

fn usage(what: &str) -> ! {
    eprintln!("obs_check: {what}");
    eprintln!("usage: obs_check <snapshot.json> <key> [key...]");
    exit(2)
}
