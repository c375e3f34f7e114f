//! The repo benchmark. One invocation runs one workload in a fresh
//! process:
//!
//! ```text
//! rsr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rsr-benchmark --agree <sets> [--seed <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics. See
//! `benchmark/README.md` for what is measured and why.

mod agree;
mod churn;
mod local;
mod metrics;
mod oneshot;
mod plan;
mod probes;
mod run;
mod serve;
mod spans;
mod stats;
mod timed;

use local::Local;
use metrics::{END_TO_END, PER_LAYER};
use plan::{WorkloadKind, REFERENCE_SECONDS, SEGMENTS};
use run::{host_facts, run_end_to_end, run_traced, EndToEnd, SegmentStats, Workload};
use serve::{ServeChurn, ServeMix};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20_190_630;
/// Where the traced run writes its spans: `out/` in this package,
/// wherever the run was started from.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    agree: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: REFERENCE_SECONDS,
        trace: false,
        agree: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    WorkloadKind::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--agree" => args.agree = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn workload(kind: WorkloadKind, seed: u64, seconds: u64) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::LocalEmd | WorkloadKind::LocalGap => {
            Box::new(Local::new(kind, seed, seconds))
        }
        WorkloadKind::ServeMix => Box::new(ServeMix::new(seed, seconds)),
        WorkloadKind::ServeChurn => Box::new(ServeChurn::new(seed, seconds)),
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> Result<String, String> {
    if let Some((name, ..)) = metrics.iter().find(|(.., value)| !value.is_finite()) {
        return Err(format!("{name} is not a finite number"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

/// Every end-to-end metric's value, with each segment's (or set-up's)
/// own value beside it.
fn end_to_end_values(r: &EndToEnd) -> Vec<(&'static str, f64, Vec<f64>)> {
    let peak_rss_mb = rsr_obs::procstat::read().rss_peak_mb();
    END_TO_END
        .iter()
        .map(|m| {
            let of: Option<fn(&SegmentStats) -> f64> = match m.name {
                "settles_per_s" => Some(|s| s.settles_per_s),
                "settle_p50_ms" => Some(|s| s.p50_ms),
                "settle_p99_ms" => Some(|s| s.tail_ms),
                "cpu_ms_per_settle" => Some(|s| s.cpu_ms_per_settle),
                "wire_bytes_per_settle" => Some(|s| s.wire_bytes_per_settle),
                "bits_per_diff_key" => Some(|s| s.bits_per_diff_key),
                "quality_ratio_p50" => Some(|s| s.quality_p50),
                _ => None,
            };
            let (value, parts) = match (of, m.name) {
                (Some(of), _) => (
                    of(&r.stats.value),
                    r.stats.segments.iter().map(of).collect(),
                ),
                (None, "setup_s") => (
                    r.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                    r.setup_s.clone(),
                ),
                (None, "peak_rss_mb") => (peak_rss_mb, vec![]),
                (None, "success_share") => (r.success_share, vec![]),
                (None, other) => unreachable!("no value for end-to-end metric {other}"),
            };
            (m.name, value, parts)
        })
        .collect()
}

fn run_untraced(w: &mut dyn Workload, started: Instant) -> Result<String, String> {
    let r = run_end_to_end(w, started)?;
    let (warmup, settles) = w.counts();
    println!(
        "work: {SEGMENTS} segments x {settles} settles, warm-up {warmup} settles; \
         trace positions ranked={} tail percentile=p{:.0}",
        r.stats.samples,
        r.stats.tail_q * 100.0
    );
    println!(
        "phases: {} set-ups {:.2} s (the first from process start), segments with \
         verification {:.2} s; resident threads while measuring: {}",
        r.setup_s.len(),
        r.setup_s.iter().sum::<f64>(),
        r.segments_s,
        r.resident_threads
    );
    println!(
        "harness.between_settles_share={:.4} per segment: {:.4?}",
        r.stats.value.between_share,
        r.stats
            .segments
            .iter()
            .map(|s| s.between_share)
            .collect::<Vec<_>>()
    );
    let values = end_to_end_values(&r);
    for ((name, value, parts), m) in values.iter().zip(&END_TO_END) {
        println!(
            "{name:<24} {value:>14.4} {:<6} better={:<6} bound={:>5.1}%  each={parts:.4?}",
            m.unit,
            m.better.token(),
            m.bound * 100.0
        );
    }
    println!(
        "failed_share: {} of {} timed settles",
        r.failed, r.attempted
    );
    let metrics: Vec<_> = values
        .iter()
        .zip(&END_TO_END)
        .map(|((name, value, _), m)| (*name, m.unit, *value))
        .collect();
    result_line(r.attempted, r.failed, &metrics)
}

fn run_with_trace(w: &mut dyn Workload, kind: WorkloadKind) -> Result<String, String> {
    let t = run_traced(w)?;
    let (_, settles) = w.counts();
    println!(
        "work: 1 untraced + 1 traced segment x {settles} settles, then the probe pass; \
         settles/s untraced={:.2} traced={:.2}; spans={}",
        t.untraced.value.settles_per_s,
        t.traced.value.settles_per_s,
        t.spans.len()
    );
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}.jsonl", kind.name());
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    spans::write_jsonl(&mut file, &t.spans)
        .and_then(|()| file.flush())
        .map_err(|e| format!("{path}: {e}"))?;
    println!("trace: {path}");

    let mut measured: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, value) in &t.layers {
        if measured.insert(name, *value).is_some() {
            return Err(format!("two probes produced {name}"));
        }
    }
    if let Some(stray) = measured
        .keys()
        .find(|k| !PER_LAYER.iter().any(|m| m.name == **k))
    {
        return Err(format!("probe produced {stray}, which no table lists"));
    }
    // A layer this workload never enters reports 0.
    println!("per-layer metrics (0 = this workload never enters the layer):");
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in &PER_LAYER {
        let value = measured.get(m.name).copied().unwrap_or(0.0);
        println!(
            "{:<36} {value:>14.4} {:<6} better={}",
            m.name,
            m.unit,
            m.better.token()
        );
        metrics.push((m.name, m.unit, value));
    }
    result_line(t.attempted, t.failed, &metrics)
}

fn real_main(started: Instant) -> Result<String, String> {
    let args = parse_args()?;
    if let Some(sets) = args.agree {
        return agree::run(sets, args.seed, args.seconds).map(|()| String::new());
    }
    let kind = args.workload.ok_or("--workload <name> is required")?;
    println!(
        "benchmark: workload={} seed={} seconds={} trace={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    host_facts("start");
    let mut w = workload(kind, args.seed, args.seconds);
    let line = if args.trace {
        run_with_trace(w.as_mut(), kind)
    } else {
        run_untraced(w.as_mut(), started)
    }?;
    host_facts("end");
    Ok(line)
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        // A harness error is not a measurement: no result line.
        Err(e) => {
            eprintln!("benchmark: harness error: {e}");
            ExitCode::from(2)
        }
    }
}
