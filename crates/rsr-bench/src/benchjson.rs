//! Machine-readable benchmark reports: the `BENCH_*.json` format.
//!
//! Experiments that measure throughput emit a [`BenchReport`] next to
//! their markdown table when run with `--json`. The schema is flat by
//! design — one metrics object of `"key": number` pairs — so CI can
//! compare a fresh run against the committed baseline without a JSON
//! library on either side:
//!
//! ```json
//! {
//!   "bench": "net",
//!   "quick": true,
//!   "metrics": {
//!     "sessions": 64,
//!     "serial_wall_ms": 152.1,
//!     "serial_sessions_per_sec": 420.7
//!   }
//! }
//! ```
//!
//! Keys ending in `_per_sec` are throughputs: [`regressions`] flags any
//! of them that dropped by more than the tolerance against a baseline
//! (slower wall times follow from lower throughput, so only the rates
//! are gated). The emitter writes one key per line and the parser reads
//! exactly that shape — this module is the single owner of both sides.

use std::fmt::Write as _;

/// One experiment's machine-readable results.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Which experiment produced this (e.g. `"net"`).
    pub bench: String,
    /// Whether the reduced-trial `--quick` mode produced it; baselines
    /// and fresh runs must agree on this or the numbers are not
    /// comparable.
    pub quick: bool,
    /// `(key, value)` metrics in emission order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// An empty report for `bench`.
    pub fn new(bench: impl Into<String>, quick: bool) -> BenchReport {
        BenchReport {
            bench: bench.into(),
            quick,
            metrics: Vec::new(),
        }
    }

    /// Appends a metric. Keys must be unique; the parser keeps the first.
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.push((key.into(), value));
    }

    /// Looks a metric up by key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Renders the report as the canonical one-key-per-line JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"metrics\": {{");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{key}\": {value}{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses the canonical format back. Tolerates whitespace and key
    /// order but not structural deviations; unknown non-numeric values
    /// are an error so a corrupted baseline fails loudly.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let mut bench: Option<String> = None;
        let mut quick: Option<bool> = None;
        let mut metrics: Vec<(String, f64)> = Vec::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            let Some(rest) = line.strip_prefix('"') else {
                continue; // braces and blank lines
            };
            let Some((key, rest)) = rest.split_once('"') else {
                return Err(format!("unterminated key on line: {line}"));
            };
            let Some(value) = rest.trim_start().strip_prefix(':') else {
                return Err(format!("missing ':' after key {key:?}"));
            };
            let value = value.trim();
            match key {
                "bench" => {
                    bench = Some(
                        value
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .ok_or_else(|| format!("bench value is not a string: {value}"))?
                            .to_owned(),
                    );
                }
                "quick" => match value {
                    "true" => quick = Some(true),
                    "false" => quick = Some(false),
                    other => return Err(format!("quick value is not a bool: {other}")),
                },
                "metrics" => {} // the opening brace of the metrics object
                key => {
                    let parsed: f64 = value
                        .parse()
                        .map_err(|_| format!("metric {key:?} is not a number: {value}"))?;
                    if !metrics.iter().any(|(k, _)| k == key) {
                        metrics.push((key.to_owned(), parsed));
                    }
                }
            }
        }
        Ok(BenchReport {
            bench: bench.ok_or("missing \"bench\" field")?,
            quick: quick.ok_or("missing \"quick\" field")?,
            metrics,
        })
    }
}

/// One throughput metric that fell below the tolerated floor.
#[derive(Clone, Debug)]
pub struct Regression {
    /// The metric key.
    pub key: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The fresh measurement.
    pub fresh: f64,
}

impl Regression {
    /// Fractional drop, e.g. `0.42` for a 42% slowdown.
    pub fn drop_fraction(&self) -> f64 {
        1.0 - self.fresh / self.baseline
    }

    /// Fractional increase, e.g. `0.42` for a latency 42% above its
    /// baseline (infinite when the fresh key is missing).
    pub fn increase_fraction(&self) -> f64 {
        self.fresh / self.baseline - 1.0
    }
}

/// Key suffixes marking latency percentiles (milliseconds). These are
/// gated in the *opposite* direction from throughputs: increases are
/// regressions.
const LATENCY_SUFFIXES: [&str; 5] = ["_p50_ms", "_p90_ms", "_p95_ms", "_p99_ms", "_max_ms"];

/// The subset of latency keys that are tail percentiles, gated with a
/// separate (looser) tolerance — tails are the first casualty of
/// scheduling noise, especially on small-core CI hosts.
const TAIL_SUFFIXES: [&str; 2] = ["_p99_ms", "_max_ms"];

/// Latency increases below this absolute delta never gate, regardless of
/// ratio: sub-millisecond percentiles would otherwise flap on scheduler
/// jitter alone (a 0.3 ms → 0.8 ms p50 is noise, not a regression).
pub const LATENCY_FLOOR_MS: f64 = 1.0;

/// Whether `key` is a gated latency percentile.
pub fn is_latency_key(key: &str) -> bool {
    LATENCY_SUFFIXES.iter().any(|s| key.ends_with(s))
}

/// Whether `key` is a tail percentile (gated with the tail tolerance).
pub fn is_tail_latency_key(key: &str) -> bool {
    TAIL_SUFFIXES.iter().any(|s| key.ends_with(s))
}

/// Compares every baseline latency-percentile metric against the fresh
/// report and returns those where
/// `fresh > baseline * (1 + tol) && fresh > baseline + LATENCY_FLOOR_MS`,
/// with `tol` being `tail_tolerance` for tail keys (`_p99_ms`,
/// `_max_ms`) and `tolerance` for the body (`_p50_ms`, `_p90_ms`,
/// `_p95_ms`). A baseline latency key *missing* from the fresh report is
/// reported as `fresh = +∞` and always flagged — dropping a percentile
/// must fail loudly, exactly like dropping a throughput. Decreases and
/// fresh-only keys never flag.
pub fn latency_regressions(
    baseline: &BenchReport,
    fresh: &BenchReport,
    tolerance: f64,
    tail_tolerance: f64,
) -> Vec<Regression> {
    baseline
        .metrics
        .iter()
        .filter(|(k, _)| is_latency_key(k))
        .map(|(key, base)| Regression {
            key: key.clone(),
            baseline: *base,
            fresh: fresh.metric(key).unwrap_or(f64::INFINITY),
        })
        .filter(|r| {
            let tol = if is_tail_latency_key(&r.key) {
                tail_tolerance
            } else {
                tolerance
            };
            r.fresh > r.baseline * (1.0 + tol) && r.fresh > r.baseline + LATENCY_FLOOR_MS
        })
        .collect()
}

/// Compares every baseline `_threads` metric against the fresh report
/// and returns those that **increased at all** — zero tolerance. Thread
/// counts are structural, not noisy: the reactor architecture pins one
/// reactor thread plus a fixed executor pool per endpoint regardless of
/// connection count, so any upward drift is a per-connection thread
/// leaking back in, not scheduler jitter. A baseline key missing from
/// the fresh report is treated as `+∞` and always flagged; decreases
/// and fresh-only keys never flag.
pub fn thread_regressions(baseline: &BenchReport, fresh: &BenchReport) -> Vec<Regression> {
    baseline
        .metrics
        .iter()
        .filter(|(k, _)| k.ends_with("_threads"))
        .map(|(key, base)| Regression {
            key: key.clone(),
            baseline: *base,
            fresh: fresh.metric(key).unwrap_or(f64::INFINITY),
        })
        .filter(|r| r.fresh > r.baseline)
        .collect()
}

/// Compares every baseline `_success_rate` metric against the fresh
/// report and returns those that **decreased at all** — zero downward
/// tolerance. Success rates in the gated reports are deterministic
/// (fixed seeds, no wall-clock in any decode path), so unlike
/// throughputs there is no noise band to tolerate: any dip is a real
/// decoder regression. A baseline key missing from the fresh report is
/// treated as `-∞` and always flagged; increases and fresh-only keys
/// never flag.
pub fn success_regressions(baseline: &BenchReport, fresh: &BenchReport) -> Vec<Regression> {
    baseline
        .metrics
        .iter()
        .filter(|(k, _)| k.ends_with("_success_rate"))
        .map(|(key, base)| Regression {
            key: key.clone(),
            baseline: *base,
            fresh: fresh.metric(key).unwrap_or(f64::NEG_INFINITY),
        })
        .filter(|r| r.fresh < r.baseline)
        .collect()
}

/// Compares every baseline `_per_sec` metric against the fresh report
/// and returns those where `fresh < baseline * (1 - tolerance)`. A
/// baseline throughput key *missing* from the fresh report is treated
/// as `fresh = 0` and always flagged — a renamed or dropped metric must
/// fail CI loudly, never silently leave a path ungated. Fresh-only
/// metrics are ignored (an experiment may grow new rows).
pub fn regressions(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Vec<Regression> {
    baseline
        .metrics
        .iter()
        .filter(|(k, _)| k.ends_with("_per_sec"))
        .map(|(key, base)| Regression {
            key: key.clone(),
            baseline: *base,
            fresh: fresh.metric(key).unwrap_or(0.0),
        })
        .filter(|r| r.fresh < r.baseline * (1.0 - tolerance))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("net", true);
        r.push("sessions", 64.0);
        r.push("serial_wall_ms", 152.25);
        r.push("serial_sessions_per_sec", 420.5);
        r.push("shards4_sessions_per_sec", 1300.0);
        r
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let text = report.to_json();
        assert_eq!(BenchReport::parse(&text).expect("parses"), report);
    }

    #[test]
    fn parse_rejects_non_numeric_metrics() {
        let text = "{\n\"bench\": \"net\",\n\"quick\": false,\n\"metrics\": {\n\"x\": oops\n}\n}";
        assert!(BenchReport::parse(text).is_err());
    }

    #[test]
    fn parse_requires_header_fields() {
        assert!(BenchReport::parse("{\n\"quick\": true\n}").is_err());
        assert!(BenchReport::parse("{\n\"bench\": \"x\"\n}").is_err());
    }

    #[test]
    fn regressions_gate_only_per_sec_drops() {
        let baseline = sample();
        let mut fresh = sample();
        // Wall time exploding alone is not gated…
        fresh.metrics[1].1 = 1e6;
        assert!(regressions(&baseline, &fresh, 0.3).is_empty());
        // …a small throughput dip within tolerance passes…
        fresh.metrics[2].1 = 420.5 * 0.8;
        assert!(regressions(&baseline, &fresh, 0.3).is_empty());
        // …a drop past the tolerance is flagged.
        fresh.metrics[2].1 = 420.5 * 0.5;
        let regs = regressions(&baseline, &fresh, 0.3);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "serial_sessions_per_sec");
        assert!((regs[0].drop_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn disjoint_metric_sets_fail_loudly() {
        let baseline = sample();
        let mut fresh = BenchReport::new("net", true);
        fresh.push("renamed_sessions_per_sec", 9e9);
        let regs = regressions(&baseline, &fresh, 0.3);
        assert_eq!(regs.len(), 2, "every baseline throughput is flagged");
    }

    #[test]
    fn single_missing_throughput_key_is_flagged() {
        // One renamed/dropped key must fail even when other throughput
        // keys still match — a partial overlap is not a pass.
        let baseline = sample();
        let mut fresh = sample();
        fresh
            .metrics
            .retain(|(k, _)| k != "shards4_sessions_per_sec");
        let regs = regressions(&baseline, &fresh, 0.3);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "shards4_sessions_per_sec");
        assert_eq!(regs[0].fresh, 0.0);
    }

    fn latency_sample() -> BenchReport {
        let mut r = BenchReport::new("net", false);
        r.push("load_r100_s4_offered_per_sec", 100.0);
        r.push("load_r100_s4_p50_ms", 8.0);
        r.push("load_r100_s4_p99_ms", 40.0);
        r.push("load_r100_s4_max_ms", 55.0);
        r.push("load_r100_s4_inject_lag_ms", 0.2); // not a gated key
        r
    }

    #[test]
    fn latency_keys_are_classified_by_suffix() {
        assert!(is_latency_key("load_r100_s4_p50_ms"));
        assert!(is_latency_key("load_r100_s4_max_ms"));
        assert!(!is_latency_key("load_r100_s4_inject_lag_ms"));
        assert!(!is_latency_key("serial_wall_ms"));
        assert!(is_tail_latency_key("load_r100_s4_p99_ms"));
        assert!(!is_tail_latency_key("load_r100_s4_p50_ms"));
    }

    #[test]
    fn latency_gate_flags_increases_not_decreases() {
        let baseline = latency_sample();
        let mut fresh = latency_sample();
        // Identical (the round-trip self-compare) passes.
        assert!(latency_regressions(&baseline, &fresh, 1.0, 3.0).is_empty());
        // A large improvement passes.
        fresh.metrics[1].1 = 1.0;
        assert!(latency_regressions(&baseline, &fresh, 1.0, 3.0).is_empty());
        // Body percentile past its tolerance is flagged.
        fresh.metrics[1].1 = 8.0 * 2.5;
        let regs = latency_regressions(&baseline, &fresh, 1.0, 3.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "load_r100_s4_p50_ms");
        assert!((regs[0].increase_fraction() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn tail_percentiles_use_the_looser_tolerance() {
        let baseline = latency_sample();
        let mut fresh = latency_sample();
        // 3x on p99 is within the 300% tail tolerance…
        fresh.metrics[2].1 = 40.0 * 3.5;
        assert!(latency_regressions(&baseline, &fresh, 1.0, 3.0).is_empty());
        // …but past it flags; the same ratio on a body key would have
        // flagged at the tighter body tolerance already.
        fresh.metrics[2].1 = 40.0 * 4.5;
        let regs = latency_regressions(&baseline, &fresh, 1.0, 3.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "load_r100_s4_p99_ms");
    }

    #[test]
    fn sub_millisecond_jitter_never_gates() {
        let mut baseline = latency_sample();
        baseline.metrics[1].1 = 0.3; // p50 of 0.3 ms
        let mut fresh = latency_sample();
        fresh.metrics[1].1 = 0.9; // 3x, but only +0.6 ms
        assert!(latency_regressions(&baseline, &fresh, 1.0, 3.0).is_empty());
        fresh.metrics[1].1 = 2.5; // past the 1 ms absolute floor too
        assert_eq!(latency_regressions(&baseline, &fresh, 1.0, 3.0).len(), 1);
    }

    #[test]
    fn missing_latency_key_is_flagged_as_infinite() {
        let baseline = latency_sample();
        let mut fresh = latency_sample();
        fresh.metrics.retain(|(k, _)| k != "load_r100_s4_max_ms");
        let regs = latency_regressions(&baseline, &fresh, 1.0, 3.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "load_r100_s4_max_ms");
        assert!(regs[0].fresh.is_infinite());
    }

    #[test]
    fn churn_key_family_is_gated_by_the_standard_suffixes() {
        // The C1 experiment's keys ride the same suffix-driven gates as
        // the N1/L1 families: `_rounds_per_sec` is a throughput key,
        // `_round_p50_ms`/`_round_max_ms` are latency keys, and the
        // informational keys (`_round_bits`, `_flat_time_ratio`) gate
        // nothing.
        let mut baseline = BenchReport::new("net", false);
        baseline.push("churn_n4096_c32_rounds_per_sec", 9000.0);
        baseline.push("churn_n4096_c32_round_p50_ms", 5.0);
        baseline.push("churn_n4096_c32_round_max_ms", 9.0);
        baseline.push("churn_n4096_c32_round_bits", 13731.0);
        baseline.push("churn_flat_time_ratio", 1.1);

        let mut fresh = baseline.clone();
        assert!(regressions(&baseline, &fresh, 0.3).is_empty());
        assert!(latency_regressions(&baseline, &fresh, 1.0, 3.0).is_empty());

        fresh.metrics[0].1 = 9000.0 * 0.5; // throughput halved
        fresh.metrics[1].1 = 5.0 * 2.5; // body latency past 100%
        fresh.metrics[2].1 = 9.0 * 4.5; // tail latency past 300%
        fresh.metrics[3].1 = 1e9; // bits are informational
        fresh.metrics[4].1 = 50.0; // so is the flatness ratio
        let throughput = regressions(&baseline, &fresh, 0.3);
        assert_eq!(throughput.len(), 1);
        assert_eq!(throughput[0].key, "churn_n4096_c32_rounds_per_sec");
        let latency = latency_regressions(&baseline, &fresh, 1.0, 3.0);
        let keys: Vec<&str> = latency.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "churn_n4096_c32_round_p50_ms",
                "churn_n4096_c32_round_max_ms"
            ]
        );
    }

    #[test]
    fn success_rates_gate_with_zero_downward_tolerance() {
        let mut baseline = BenchReport::new("iblt", true);
        baseline.push("iblt_threshold_q3_l80_peel_success_rate", 0.85);
        baseline.push("iblt_decode_peel_keys_per_sec", 1e6); // not this gate
        let mut fresh = baseline.clone();
        // Identical passes; so does an improvement.
        assert!(success_regressions(&baseline, &fresh).is_empty());
        fresh.metrics[0].1 = 0.90;
        assert!(success_regressions(&baseline, &fresh).is_empty());
        // Any decrease flags — no tolerance band.
        fresh.metrics[0].1 = 0.8499;
        let regs = success_regressions(&baseline, &fresh);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "iblt_threshold_q3_l80_peel_success_rate");
        // A dropped key fails loudly.
        fresh.metrics.retain(|(k, _)| !k.ends_with("_success_rate"));
        let regs = success_regressions(&baseline, &fresh);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].fresh.is_infinite());
    }

    #[test]
    fn thread_counts_gate_with_zero_tolerance() {
        let mut baseline = BenchReport::new("net", true);
        baseline.push("sweep_c16_s64_sessions_per_sec", 400.0);
        baseline.push("sweep_c16_s64_threads", 11.0);
        let mut fresh = baseline.clone();
        // Identical passes; so does a decrease.
        assert!(thread_regressions(&baseline, &fresh).is_empty());
        fresh.metrics[1].1 = 9.0;
        assert!(thread_regressions(&baseline, &fresh).is_empty());
        // Even one extra thread flags — no tolerance band.
        fresh.metrics[1].1 = 12.0;
        let regs = thread_regressions(&baseline, &fresh);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].key, "sweep_c16_s64_threads");
        // A dropped key fails loudly as infinite.
        fresh.metrics.retain(|(k, _)| k != "sweep_c16_s64_threads");
        let regs = thread_regressions(&baseline, &fresh);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].fresh.is_infinite());
    }

    #[test]
    fn improvements_never_flag() {
        let baseline = sample();
        let mut fresh = sample();
        fresh.metrics[2].1 *= 10.0;
        fresh.metrics[3].1 *= 10.0;
        assert!(regressions(&baseline, &fresh, 0.3).is_empty());
    }
}
