//! The round-trip gate: a real (tiny) load sweep must emit a
//! `BENCH_net.json` latency section that parses back verbatim, carries
//! every key the schema promises, and compares cleanly against itself
//! under `gate` — the same self-comparison CI's bench-baseline job runs
//! with the actual binaries.

use rsr_bench::experiments::load::{self, LoadCell};
use rsr_bench::{gate, BenchReport};
use rsr_workloads::trace::TraceMix;

/// One 24-session cell at a gentle rate: fast enough for the debug test
/// profile, real enough to exercise the whole server/client/histogram
/// path.
fn tiny_sweep() -> BenchReport {
    let mut bench = BenchReport::new("net", true);
    let cell = LoadCell {
        key: "r150_s1".into(),
        sessions: 24,
        rate: 150.0,
        shards: 1,
        conns: 1,
        mix: TraceMix::production_day(),
    };
    let section = load::extend(&mut bench, &[cell]);
    assert!(
        section.contains("L1") && section.contains("r150_s1"),
        "markdown section must name the experiment and the cell"
    );
    bench
}

#[test]
fn load_json_round_trips_and_gates_cleanly() {
    let bench = tiny_sweep();

    // Every key the flat schema promises for a cell, in one place.
    for suffix in [
        "offered_per_sec",
        "achieved_per_sec",
        "completed",
        "p50_ms",
        "p90_ms",
        "p95_ms",
        "p99_ms",
        "max_ms",
        "inject_lag_ms",
    ] {
        let key = format!("load_r150_s1_{suffix}");
        assert!(bench.metric(&key).is_some(), "missing {key}");
    }

    // The run must be internally sane: everything completed, latency
    // percentiles monotone, achieved rate positive.
    let m = |k: &str| bench.metric(&format!("load_r150_s1_{k}")).unwrap();
    assert_eq!(m("completed"), 24.0);
    assert!(m("achieved_per_sec") > 0.0);
    let (p50, p90, p95, p99, max) = (
        m("p50_ms"),
        m("p90_ms"),
        m("p95_ms"),
        m("p99_ms"),
        m("max_ms"),
    );
    assert!(
        p50 <= p90 && p90 <= p95 && p95 <= p99 && p99 <= max,
        "percentiles must be monotone: {p50} {p90} {p95} {p99} {max}"
    );

    // Serialize, parse back, and self-compare through the gate — the
    // exact pipeline bench-baseline runs against the committed file.
    let parsed = BenchReport::parse(&bench.to_json()).expect("own JSON parses");
    assert_eq!(parsed, bench, "JSON round trip must be lossless");
    assert!(
        gate(&parsed, &parsed).is_empty(),
        "a report must never regress against itself"
    );
}
