//! Regenerates the N1 session-throughput table (serial driver vs the
//! sharded executor sweep vs executor-driven TCP) and, with `--load`,
//! the L1 open-loop latency sweep on top of it. Pass `--quick` for a
//! reduced-trial smoke run; `--json` additionally writes
//! `BENCH_net.json` (`--json-out PATH` to redirect it) — the
//! machine-readable report CI gates against the committed baseline
//! (schema and key inventory in docs/benchmarks.md; latency methodology
//! in docs/loadgen.md).
//!
//! `--metrics-out PATH` turns on the `rsr-obs` registry for the whole
//! run, measures the recording overhead in-bin on the single-connection
//! sweep cell (asserting it stays within the budget), and writes the
//! final [`MetricsSnapshot`](rsr_obs::MetricsSnapshot) JSON to `PATH`
//! (rewritten once a second while running). Key inventory in
//! docs/observability.md.
//!
//! Load-mode sweep overrides (all optional; defaults are the committed
//! baseline's grid):
//!
//! ```text
//! exp_net --load [--rate 100,300] [--arrival uniform|exp]
//!         [--load-sessions 160] [--load-shards 1,4] [--conns 2]
//!         [--payload-scale 2.0]
//! ```

use rsr_bench::experiments::churn;
use rsr_bench::experiments::load::{self, LoadOptions};
use rsr_bench::experiments::net;
use rsr_bench::Arrival;
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants_load = args.iter().any(|a| a == "--load");
    let opts = parse_load_options(&args);
    if !wants_load && !opts_empty(&opts) {
        die("load sweep flags (--rate/--arrival/--load-sessions/--load-shards/--conns/--payload-scale) require --load");
    }
    let metrics_out = parse_metrics_out(&args);

    // With --metrics-out the rsr-obs registry records for the whole run
    // and a periodic reporter rewrites the snapshot file once a second —
    // a crash still leaves the last-written internals on disk. The
    // reporter is exactly one extra thread for the whole run, so the
    // sweep's flat-threads assertion sees a constant.
    let reporter = metrics_out.as_ref().map(|path| {
        rsr_obs::set_enabled(true);
        rsr_obs::Reporter::to_file(path.clone(), Duration::from_secs(1))
    });

    let quick = rsr_bench::quick_flag();
    let (mut report, mut bench) = net::run_with_json_metrics(quick, metrics_out.is_some());
    if wants_load {
        let section = load::extend(&mut bench, quick, &opts);
        report.push_str("\n\n");
        report.push_str(&section);
    }
    // The continuous-reconciliation sweep always rides along, so one
    // `exp_net --load --json` run regenerates every gated key family
    // (N1 + L1 + C1) in the committed BENCH_net.json.
    let section = churn::extend(&mut bench, quick);
    report.push_str("\n\n");
    report.push_str(&section);
    if let Some(path) = &metrics_out {
        // Stop the reporter first so its final write cannot race ours,
        // then write the end-of-run snapshot loudly — an unwritable
        // path should fail the run, not pass silently.
        drop(reporter);
        std::fs::write(path, rsr_obs::global().snapshot().to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
    rsr_bench::emit("BENCH_net.json", &report, &bench);
}

fn parse_metrics_out(args: &[String]) -> Option<PathBuf> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--metrics-out" {
            return Some(PathBuf::from(
                it.next()
                    .unwrap_or_else(|| die("--metrics-out requires a path")),
            ));
        }
    }
    None
}

fn opts_empty(opts: &LoadOptions) -> bool {
    opts.rates.is_none()
        && opts.arrival.is_none()
        && opts.sessions.is_none()
        && opts.shards.is_none()
        && opts.conns.is_none()
        && opts.payload_scale.is_none()
}

fn parse_load_options(args: &[String]) -> LoadOptions {
    let mut opts = LoadOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> &str {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} requires a value")))
        };
        match arg.as_str() {
            "--rate" => opts.rates = Some(parse_list(value("--rate"), "--rate", |r| *r > 0.0)),
            "--arrival" => {
                let token = value("--arrival");
                opts.arrival = Some(Arrival::parse(token).unwrap_or_else(|| {
                    die(&format!(
                        "--arrival {token:?} is not uniform|exp|exponential|poisson"
                    ))
                }));
            }
            "--load-sessions" => {
                opts.sessions = Some(parse_one(
                    value("--load-sessions"),
                    "--load-sessions",
                    |n| *n > 0usize,
                ));
            }
            "--load-shards" => {
                opts.shards = Some(parse_list(value("--load-shards"), "--load-shards", |s| {
                    *s >= 1usize
                }));
            }
            "--conns" => {
                opts.conns = Some(parse_one(value("--conns"), "--conns", |c| *c >= 1usize))
            }
            "--payload-scale" => {
                opts.payload_scale = Some(parse_one(
                    value("--payload-scale"),
                    "--payload-scale",
                    |s| *s > 0.0,
                ));
            }
            _ => {}
        }
    }
    opts
}

fn parse_one<T: std::str::FromStr>(raw: &str, what: &str, ok: impl Fn(&T) -> bool) -> T {
    raw.parse()
        .ok()
        .filter(&ok)
        .unwrap_or_else(|| die(&format!("{what} cannot use {raw:?}")))
}

fn parse_list<T: std::str::FromStr>(raw: &str, what: &str, ok: impl Fn(&T) -> bool) -> Vec<T> {
    let parsed: Vec<T> = raw
        .split(',')
        .map(|tok| parse_one(tok.trim(), what, &ok))
        .collect();
    if parsed.is_empty() {
        die(&format!("{what} needs at least one value"));
    }
    parsed
}

fn die(msg: &str) -> ! {
    eprintln!("exp_net: {msg}");
    std::process::exit(2)
}
