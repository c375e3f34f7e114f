//! Machine-readable benchmark reports: the `BENCH_*.json` format, and
//! the one gate that compares a fresh report against its baseline.
//!
//! The schema is flat by design — one metrics object of `"key": number`
//! pairs — so CI can compare a fresh run against the committed baseline
//! without a JSON library on either side:
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
//! [`gate`] picks one [`Rule`] per key by its suffix; keys no rule names
//! (wall times, counts, sizes) are context, not contract. Every value is
//! finite: JSON cannot carry `NaN` or `inf`, and no rule could compare
//! one. The emitter writes one key per line and the parser reads exactly
//! that shape — this module is the single owner of both sides, and of
//! the flat-object parser metrics snapshots are read with.

use std::fmt;
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
    /// Panics on a non-finite value, which no report may carry.
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        assert!(value.is_finite(), "metric {key:?} is not finite: {value}");
        self.metrics.push((key, value));
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
    /// order but not structural deviations; a metric that is not a
    /// finite number is an error, so a corrupted baseline fails loudly.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let mut bench: Option<String> = None;
        let mut quick: Option<bool> = None;
        let mut metrics: Vec<(String, f64)> = Vec::new();
        for (key, value) in pairs(text)? {
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
                    let parsed = number(key, value)?;
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

/// Parses a flat JSON object of finite numbers, one `"key": value` pair
/// per line — the shape [`rsr_obs::MetricsSnapshot::to_json`] writes.
pub fn parse_flat(text: &str) -> Result<Vec<(String, f64)>, String> {
    pairs(text)?
        .into_iter()
        .map(|(key, value)| Ok((key.to_owned(), number(key, value)?)))
        .collect()
}

/// The `"key": value` pairs of a one-pair-per-line JSON text, values
/// still raw. Lines without a leading quote (braces, blanks) are skipped;
/// any other structural deviation is an error, so a truncated file
/// cannot pass as "keys missing, but parseable".
fn pairs(text: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, rest)) = rest.split_once('"') else {
            return Err(format!("unterminated key on line: {line}"));
        };
        let Some(value) = rest.trim_start().strip_prefix(':') else {
            return Err(format!("missing ':' after key {key:?}"));
        };
        out.push((key, value.trim()));
    }
    Ok(out)
}

/// `raw` as a finite number (Rust's float parser also accepts `NaN` and
/// `inf`, which would slip past every rule's comparison).
fn number(key: &str, raw: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("metric {key:?} is not a finite number: {raw}"))
}

/// How far a throughput may fall below its baseline.
const THROUGHPUT_DROP: f64 = 0.30;

/// How far a body latency percentile may rise above its baseline.
const BODY_RISE: f64 = 1.00;

/// How far a tail latency percentile may rise above its baseline —
/// looser than the body, since tails are the first casualty of
/// scheduling noise on small-core hosts.
const TAIL_RISE: f64 = 3.00;

/// Latency increases below this absolute delta never gate, regardless of
/// ratio: sub-millisecond percentiles would otherwise flap on scheduler
/// jitter alone (a 0.3 ms → 0.8 ms p50 is noise, not a regression).
const LATENCY_FLOOR_MS: f64 = 1.0;

/// How far an approximation-ratio quantile may rise above its baseline:
/// the repo benchmark's `quality_ratio_p50` bound.
const RATIO_RISE: f64 = 0.12;

/// A gate rule: the keys it covers (by suffix) and how far their fresh
/// values may move from the baseline. The bounds are constants, not
/// flags; `Display` states each one, and docs/benchmarks.md gives the
/// rationale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `_per_sec`: a bounded drop below baseline.
    Throughput,
    /// `_p50_ms`, `_p90_ms`, `_p95_ms`: a bounded rise above baseline.
    LatencyBody,
    /// `_p99_ms`, `_max_ms`: a looser bounded rise above baseline.
    LatencyTail,
    /// `_threads`: never above baseline. Thread counts are structural
    /// (a fixed set of server reactors, one client reactor), so any
    /// increase is a per-connection thread leaking back in.
    Threads,
    /// `_success_rate`: never below baseline. The rates come from fixed
    /// seeds with no clock in any decode path, so any dip is a real
    /// decoder regression.
    SuccessRate,
    /// `_ratio_p50`, `_ratio_p90`: a bounded rise above baseline. A
    /// quality ratio is seeded too, but a change may legitimately trade
    /// a little of it, as the benchmark's quality bound allows.
    Ratio,
    /// `_bits`: never above baseline. Seeded bit counts repeat exactly,
    /// so any rise is a wire change.
    Bits,
}

impl Rule {
    /// The rule gating `key`, if any.
    fn of(key: &str) -> Option<Rule> {
        const SUFFIXES: [(&str, Rule); 11] = [
            ("_per_sec", Rule::Throughput),
            ("_p50_ms", Rule::LatencyBody),
            ("_p90_ms", Rule::LatencyBody),
            ("_p95_ms", Rule::LatencyBody),
            ("_p99_ms", Rule::LatencyTail),
            ("_max_ms", Rule::LatencyTail),
            ("_threads", Rule::Threads),
            ("_success_rate", Rule::SuccessRate),
            ("_ratio_p50", Rule::Ratio),
            ("_ratio_p90", Rule::Ratio),
            ("_bits", Rule::Bits),
        ];
        SUFFIXES
            .iter()
            .find(|(suffix, _)| key.ends_with(suffix))
            .map(|&(_, rule)| rule)
    }

    /// Whether `fresh` is within this rule's bound of `baseline`. Each
    /// test asks "provably within", so a `NaN` never holds.
    fn holds(self, baseline: f64, fresh: f64) -> bool {
        let latency =
            |rise: f64| fresh <= baseline * (1.0 + rise) || fresh <= baseline + LATENCY_FLOOR_MS;
        match self {
            Rule::Throughput => fresh >= baseline * (1.0 - THROUGHPUT_DROP),
            Rule::LatencyBody => latency(BODY_RISE),
            Rule::LatencyTail => latency(TAIL_RISE),
            Rule::Threads | Rule::Bits => fresh <= baseline,
            Rule::SuccessRate => fresh >= baseline,
            Rule::Ratio => fresh <= baseline * (1.0 + RATIO_RISE),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = |x: f64| x * 100.0;
        match self {
            Rule::Throughput => write!(f, "throughput, at most {:.0}% drop", pct(THROUGHPUT_DROP)),
            Rule::LatencyBody => write!(
                f,
                "latency body, at most +{:.0}% or +{LATENCY_FLOOR_MS} ms",
                pct(BODY_RISE)
            ),
            Rule::LatencyTail => write!(
                f,
                "latency tail, at most +{:.0}% or +{LATENCY_FLOOR_MS} ms",
                pct(TAIL_RISE)
            ),
            Rule::Threads => f.write_str("threads, zero tolerance"),
            Rule::SuccessRate => f.write_str("success rate, zero tolerance"),
            Rule::Ratio => write!(f, "quality ratio, at most +{:.0}%", pct(RATIO_RISE)),
            Rule::Bits => f.write_str("bits, zero tolerance"),
        }
    }
}

/// One gated baseline key the fresh report broke.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// The metric key.
    pub key: String,
    /// The rule it broke.
    pub rule: Rule,
}

/// Compares every gated baseline key against the fresh report. A gated
/// key missing from the fresh report always regresses — a renamed or
/// dropped metric must fail loudly, never silently leave a path ungated.
/// Improvements, ungated keys and fresh-only keys (an experiment may
/// grow new rows) never regress.
pub fn gate(baseline: &BenchReport, fresh: &BenchReport) -> Vec<Regression> {
    baseline
        .metrics
        .iter()
        .filter_map(|(key, base)| {
            let rule = Rule::of(key)?;
            let holds = fresh.metric(key).is_some_and(|v| rule.holds(*base, v));
            (!holds).then(|| Regression {
                key: key.clone(),
                rule,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new("net", false);
        for &(key, value) in metrics {
            r.push(key, value);
        }
        r
    }

    fn sample() -> BenchReport {
        report(&[
            ("sessions", 64.0),
            ("serial_wall_ms", 152.25),
            ("serial_sessions_per_sec", 420.5),
            ("shards4_sessions_per_sec", 1300.0),
            ("load_r100_s4_offered_per_sec", 100.0),
            ("load_r100_s4_p50_ms", 8.0),
            ("load_r100_s4_p99_ms", 40.0),
            ("load_r100_s4_max_ms", 55.0),
            ("load_r100_s4_inject_lag_ms", 0.2),
            ("sweep_c16_s64_threads", 11.0),
            ("iblt_threshold_q3_l80_peel_success_rate", 0.85),
            ("hamming_n100_d64_k4_ratio_p50", 0.9),
            ("hamming_n100_d64_k4_bits", 1_463_648.0),
        ])
    }

    /// `sample()` with `key` set to `value` (or dropped, for `None`), and
    /// the keys the gate then flags.
    fn flagged(key: &str, value: Option<f64>) -> Vec<String> {
        let mut fresh = sample();
        fresh.metrics.retain(|(k, _)| k != key);
        if let Some(v) = value {
            fresh.metrics.push((key.to_owned(), v));
        }
        gate(&sample(), &fresh).into_iter().map(|r| r.key).collect()
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        assert_eq!(
            BenchReport::parse(&report.to_json()).expect("parses"),
            report
        );
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
    fn a_report_never_regresses_against_itself() {
        assert!(gate(&sample(), &sample()).is_empty());
    }

    #[test]
    fn keys_are_classified_by_suffix() {
        let rule = |k| Rule::of(k);
        assert_eq!(rule("serial_sessions_per_sec"), Some(Rule::Throughput));
        assert_eq!(
            rule("churn_n4096_c32_rounds_per_sec"),
            Some(Rule::Throughput)
        );
        assert_eq!(rule("load_r100_s4_p50_ms"), Some(Rule::LatencyBody));
        assert_eq!(
            rule("churn_n4096_c32_round_p50_ms"),
            Some(Rule::LatencyBody)
        );
        assert_eq!(rule("load_r100_s4_p99_ms"), Some(Rule::LatencyTail));
        assert_eq!(
            rule("churn_n4096_c32_round_max_ms"),
            Some(Rule::LatencyTail)
        );
        assert_eq!(rule("sweep_c16_s64_threads"), Some(Rule::Threads));
        assert_eq!(
            rule("riblt_recover_peel_success_rate"),
            Some(Rule::SuccessRate)
        );
        assert_eq!(rule("l2_n100_delta1024_k3_ratio_p90"), Some(Rule::Ratio));
        assert_eq!(rule("riblt_mu20_error_ratio_p50"), Some(Rule::Ratio));
        assert_eq!(rule("churn_n4096_c32_round_bits"), Some(Rule::Bits));
        assert_eq!(rule("sum_total_bits"), Some(Rule::Bits));
        for context in [
            "serial_wall_ms",
            "load_r100_s4_inject_lag_ms",
            "churn_flat_time_ratio",
            "riblt_unrecovered_keys_peel",
        ] {
            assert_eq!(rule(context), None, "{context} is context, not contract");
        }
    }

    #[test]
    fn throughput_tolerates_a_30_percent_drop() {
        assert!(
            flagged("serial_wall_ms", Some(1e6)).is_empty(),
            "wall times are not gated"
        );
        assert!(
            flagged("serial_sessions_per_sec", Some(420.5 * 10.0)).is_empty(),
            "improvements pass"
        );
        assert!(flagged("serial_sessions_per_sec", Some(420.5 * 0.8)).is_empty());
        assert_eq!(
            flagged("serial_sessions_per_sec", Some(420.5 * 0.5)),
            ["serial_sessions_per_sec"]
        );
    }

    #[test]
    fn latency_body_and_tail_use_their_own_bounds() {
        assert!(
            flagged("load_r100_s4_p50_ms", Some(1.0)).is_empty(),
            "improvements pass"
        );
        assert_eq!(
            flagged("load_r100_s4_p50_ms", Some(8.0 * 2.5)),
            ["load_r100_s4_p50_ms"]
        );
        // 3.5× on p99 is within the tail bound; the same ratio on a body
        // key would already have flagged.
        assert!(flagged("load_r100_s4_p99_ms", Some(40.0 * 3.5)).is_empty());
        assert_eq!(
            flagged("load_r100_s4_p99_ms", Some(40.0 * 4.5)),
            ["load_r100_s4_p99_ms"]
        );
    }

    #[test]
    fn sub_millisecond_jitter_never_gates() {
        let baseline = report(&[("x_p50_ms", 0.3)]);
        assert!(
            gate(&baseline, &report(&[("x_p50_ms", 0.9)])).is_empty(),
            "3×, but +0.6 ms"
        );
        assert_eq!(gate(&baseline, &report(&[("x_p50_ms", 2.5)])).len(), 1);
    }

    #[test]
    fn threads_and_success_rates_have_zero_tolerance() {
        assert!(flagged("sweep_c16_s64_threads", Some(9.0)).is_empty());
        assert_eq!(
            flagged("sweep_c16_s64_threads", Some(12.0)),
            ["sweep_c16_s64_threads"]
        );
        let rate = "iblt_threshold_q3_l80_peel_success_rate";
        assert!(flagged(rate, Some(0.90)).is_empty());
        assert_eq!(flagged(rate, Some(0.8499)), [rate]);
    }

    #[test]
    fn ratios_tolerate_a_12_percent_rise_and_bits_none() {
        let ratio = "hamming_n100_d64_k4_ratio_p50";
        assert!(flagged(ratio, Some(0.5)).is_empty(), "improvements pass");
        assert!(flagged(ratio, Some(0.9 * 1.11)).is_empty());
        assert_eq!(flagged(ratio, Some(0.9 * 1.13)), [ratio]);
        let bits = "hamming_n100_d64_k4_bits";
        assert!(
            flagged(bits, Some(1_463_000.0)).is_empty(),
            "fewer bits pass"
        );
        assert_eq!(flagged(bits, Some(1_463_649.0)), [bits]);
    }

    #[test]
    fn every_missing_gated_key_regresses() {
        for (key, _) in sample().metrics {
            let regs = flagged(&key, None);
            assert_eq!(regs.len(), usize::from(Rule::of(&key).is_some()), "{key}");
        }
        let regs = gate(&sample(), &report(&[("renamed_sessions_per_sec", 9e9)]));
        assert_eq!(
            regs.len(),
            10,
            "a disjoint fresh report flags every gated key"
        );
    }

    #[test]
    fn a_nan_fails_the_check() {
        // Every rule tests "provably within", which NaN never is…
        for key in [
            "serial_sessions_per_sec",
            "load_r100_s4_p99_ms",
            "sweep_c16_s64_threads",
            "iblt_threshold_q3_l80_peel_success_rate",
            "hamming_n100_d64_k4_ratio_p50",
            "hamming_n100_d64_k4_bits",
        ] {
            assert_eq!(flagged(key, Some(f64::NAN)), [key]);
        }
        // …and no NaN gets that far: a report carrying one does not parse.
        let fresh = "{\n\"bench\": \"net\",\n\"quick\": false,\n\"metrics\": {\n\
                     \"serial_sessions_per_sec\": NaN,\n\"load_r100_s4_p99_ms\": NaN,\n\
                     \"sweep_c16_s64_threads\": NaN,\n\
                     \"iblt_threshold_q3_l80_peel_success_rate\": NaN\n}\n}";
        assert!(BenchReport::parse(fresh).is_err());
        assert!(BenchReport::parse(&fresh.replace("NaN", "inf")).is_err());
        assert!(parse_flat("{\n\"x\": NaN\n}").is_err());
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn push_rejects_non_finite_values() {
        BenchReport::new("net", true).push("x_per_sec", f64::INFINITY);
    }
}
