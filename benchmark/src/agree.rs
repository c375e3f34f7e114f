//! `--agree N`: runs N full sets of the same build on the same seed
//! (every workload, untraced, each in a fresh process, workload order
//! alternating between sets), and prints per metric × workload the
//! medians, the quartile distance, and PASS/FAIL against the metric's
//! bound — the tool for checking that the benchmark repeats, and for
//! every later reviewer. The count metrics must repeat exactly.

use crate::metrics::END_TO_END;
use crate::plan::WorkloadKind;
use crate::stats::{median, spread_share, within_bound};
use std::collections::BTreeMap;
use std::process::Command;

/// The value of metric `name` in a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn run_once(kind: WorkloadKind, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            kind.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .map(str::to_owned)
        .ok_or_else(|| "a run printed nothing".into())
}

/// The metrics that are counts of what the program did: the same seed
/// must give the same value, digit for digit.
const COUNT_METRICS: [&str; 4] = [
    "wire_bytes_per_settle",
    "bits_per_diff_key",
    "quality_ratio_p50",
    "success_share",
];

pub fn run(sets: usize, seed: u64, seconds: u64) -> Result<(), String> {
    // values[workload][metric] = one value per set.
    let mut values: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        let mut order: Vec<(usize, WorkloadKind)> =
            WorkloadKind::ALL.into_iter().enumerate().collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for (w, kind) in order {
            let line = run_once(kind, seed, seconds)?;
            if metric_failed(&line) != Some(0) {
                return Err(format!(
                    "{} seed {seed}: settles failed: {line}",
                    kind.name()
                ));
            }
            for m in &END_TO_END {
                let v = metric_value(&line, m.name)
                    .ok_or_else(|| format!("{}: no {} in {line}", kind.name(), m.name))?;
                values.entry((w, m.name)).or_default().push(v);
            }
            eprintln!("set {set}: {} seed {seed} done", kind.name());
        }
    }
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median(a)", "median(b)", "iqr/med", "bound"
    );
    let mut all_pass = true;
    for (w, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        for m in &END_TO_END {
            let v = &values[&(w, m.name)];
            // Sets are split in two halves: does the second half's median
            // stay within the bound of the first's, and is the spread over
            // all sets within the bound (set-up time is exempt from that)?
            let (a, b) = v.split_at(v.len() / 2);
            let (med_a, med_b) = (median(a), median(b));
            let spread = spread_share(v);
            let exact = !COUNT_METRICS.contains(&m.name) || v.iter().all(|x| *x == v[0]);
            let pass = exact
                && within_bound(m.better, med_a, med_b, m.bound)
                && (m.name == "setup_s" || spread <= m.bound);
            all_pass &= pass;
            println!(
                "{:<12} {:<24} {:>12.4} {:>12.4} {:>8.2}% {:>6.1}%  {}",
                kind.name(),
                m.name,
                med_a,
                med_b,
                spread * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    if all_pass {
        Ok(())
    } else {
        Err("the sets do not agree within the bounds".into())
    }
}

fn metric_failed(line: &str) -> Option<u64> {
    let at = line.find("\"failed\": ")?;
    let rest = &line[at + 10..];
    rest[..rest.find(',')?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 3072, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
                    \"settles_per_s\": {\"value\": 251.5, \"unit\": \"1/s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.8127));
        assert_eq!(metric_value(line, "settles_per_s"), Some(251.5));
        assert_eq!(metric_value(line, "settle_p50_ms"), None);
        assert_eq!(metric_failed(line), Some(0));
    }
}
