//! L1 — open-loop latency under load: session arrivals at a target
//! offered rate against the loopback TCP server, per-session
//! latency from *scheduled* arrival to settle, percentiles from an
//! HDR-style log-bucketed histogram.
//!
//! Where N1 measures how fast the transport can drain a batch it fully
//! controls (closed loop), L1 asks the production question: **with
//! sessions arriving whether you are ready or not, how long does one
//! take?** The arrival schedule is pre-computed by [`crate::loadgen`]
//! (deterministic per seed, so a committed baseline pins the exact
//! arrival pattern), the session blend comes from
//! [`rsr_workloads::trace::TraceMix::production_day`], and latency obeys
//! the coordinated-omission rule: measured from the scheduled arrival,
//! not the actual injection (docs/loadgen.md has the full methodology).
//!
//! The sweep covers offered rate × server reactors, plus — in full mode
//! — an overload cell (offered above the host's measured capacity, so
//! queueing delay dominates), a two-connection cell, and a double-size
//! payload cell. Each cell's percentiles land in `BENCH_net.json` as
//! `load_<cell>_p50_ms` … `_max_ms` keys that `bench_check` gates with
//! the latency rules (docs/benchmarks.md).

use crate::benchjson::BenchReport;
use crate::experiments::net::{Instance, InstanceFactory};
use crate::loadgen;
use crate::table::Table;
use rsr_net::{Driver, ReconServer, SessionPlan};
use rsr_obs::hist::{LogHistogram, DEFAULT_SUB_BITS};
use rsr_workloads::trace::{sample_trace_with, TraceMix};
use std::sync::Arc;
use std::time::Duration;

/// One cell of the load sweep.
#[derive(Clone, Debug)]
pub struct LoadCell {
    /// Short key naming the cell inside metric names (`load_<key>_…`).
    pub key: String,
    /// Sessions injected.
    pub sessions: usize,
    /// Target offered rate, sessions/sec (exponential arrivals).
    pub rate: f64,
    /// Server reactor threads (the client runs on one thread).
    pub shards: usize,
    /// Concurrent client connections (sessions split round-robin).
    pub conns: usize,
    /// The protocol blend and sizing of the trace.
    pub mix: TraceMix,
}

/// What one cell measured.
pub struct CellResult {
    /// The rate the (deterministic) schedule actually encodes.
    pub offered_per_sec: f64,
    /// Completed sessions over the span from first arrival to last settle.
    pub achieved_per_sec: f64,
    /// Sessions that completed on both endpoints.
    pub completed: usize,
    /// Sessions that failed under load — verified by [`run_cell`] to be
    /// exactly the sessions whose instances also fail in the serial
    /// in-memory reference (a trace can legitimately contain instances
    /// whose decode fails; load must not add or mask failures).
    pub failed: usize,
    /// Scheduled-arrival-to-settle latencies, in **microseconds**.
    pub hist: LogHistogram,
    /// The generator's own worst tardiness (injection after schedule).
    pub max_inject_lag: Duration,
    /// Registry delta across the cell (counters become per-cell counts)
    /// when `rsr-obs` recording was on; `None` otherwise.
    pub internals: Option<rsr_obs::MetricsSnapshot>,
}

impl CellResult {
    /// A histogram quantile converted to milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.hist.value_at_quantile(q) as f64 / 1e3
    }
}

/// The sweep for the mode. Quick mode is a small rate × shard grid
/// sized for CI smoke; full mode adds an overload, a multi-connection,
/// and a big-payload cell.
pub fn cells(quick: bool) -> Vec<LoadCell> {
    let sessions = if quick { 48 } else { 160 };
    let (rates, shard_sweep): (&[f64], &[usize]) = if quick {
        (&[50.0, 200.0], &[1, 2])
    } else {
        (&[100.0, 300.0], &[1, 4])
    };
    let mix = TraceMix::production_day();

    let mut cells = Vec::new();
    for &rate in rates {
        for &shards in shard_sweep {
            cells.push(LoadCell {
                key: format!("r{rate:.0}_s{shards}"),
                sessions,
                rate,
                shards,
                conns: 1,
                mix,
            });
        }
    }
    if !quick {
        // Overload: offered well above the 1-core capacity N1 measures
        // (~500 sessions/sec), so the queue — not the service time —
        // sets the tail.
        cells.push(LoadCell {
            key: "r900_s4".into(),
            sessions,
            rate: 900.0,
            shards: 4,
            conns: 1,
            mix,
        });
        // Two connections sharing one server, half the sessions each.
        cells.push(LoadCell {
            key: "c2_r300_s2".into(),
            sessions,
            rate: 300.0,
            shards: 2,
            conns: 2,
            mix,
        });
        // Double-size instances at a gentle rate: payload-bound latency.
        cells.push(LoadCell {
            key: "big_r100_s4".into(),
            sessions: 96,
            rate: 100.0,
            shards: 4,
            conns: 1,
            mix: mix.scaled(2.0),
        });
    }
    cells
}

/// Runs one cell: builds the trace, binds a loopback server, injects the
/// sessions on the cell's schedule over `conns` connections, and folds
/// every completed session's latency into one histogram. Every session's
/// outcome (and, for completed ones, measured transcript bits) must
/// agree with the serial in-memory reference — load may change *when* a
/// session finishes, never *how*.
pub fn run_cell(cell: &LoadCell, seed: u64) -> CellResult {
    let entries = sample_trace_with(cell.sessions, seed, &cell.mix);
    let factory = Arc::new(InstanceFactory::from_trace(&entries));
    // The untimed correctness reference (the same instances, serially).
    let baseline: Vec<Result<u64, String>> = factory
        .instances
        .iter()
        .map(Instance::run_in_memory)
        .collect();
    let schedule = loadgen::schedule(cell.sessions, cell.rate, seed);

    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory))
        .expect("bind loopback")
        .with_shards(cell.shards);
    let addr = server.local_addr().expect("bound address");
    // Snapshot the registry around the cell so its counters read as
    // per-cell counts (the registry itself is cumulative per process).
    let obs_before = rsr_obs::enabled().then(|| rsr_obs::global().snapshot());

    // The server's reactors accept the connections; one client reactor
    // injects every schedule on one clock — no per-connection threads on
    // either side.
    let report = std::thread::scope(|s| {
        let server_handle = s.spawn(|| server.serve(Some(cell.conns)));
        // Connection `c` takes every `conns`-th session; each
        // sub-schedule stays non-decreasing and the ids are the global
        // trace positions the shared factory serves.
        let loads: Vec<(Vec<SessionPlan<'_>>, Vec<Duration>)> = (0..cell.conns)
            .map(|c| {
                let sessions: Vec<SessionPlan<'_>> = factory
                    .instances
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % cell.conns == c)
                    .map(|(i, inst)| SessionPlan::new(i as u64, inst.alice_session()))
                    .collect();
                let sub_schedule: Vec<Duration> = schedule
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % cell.conns == c)
                    .map(|(_, &at)| at)
                    .collect();
                (sessions, sub_schedule)
            })
            .collect();
        let report = Driver::new(addr)
            .conns(cell.conns)
            .idle_timeout(Some(Duration::from_secs(120)))
            .load(loads)
            .expect("load run completes");
        server_handle
            .join()
            .expect("server thread")
            .expect("connections served");
        report
    });

    let mut hist = LogHistogram::new(DEFAULT_SUB_BITS);
    let mut completed = 0;
    let mut failed = 0;
    let mut max_inject_lag = Duration::ZERO;
    let mut span = Duration::ZERO;
    for report in &report.conns {
        assert!(
            report.transport_error.is_none(),
            "cell {}: transport failed: {:?}",
            cell.key,
            report.transport_error
        );
        completed += report.completed();
        failed += report.failed();
        max_inject_lag = max_inject_lag.max(report.max_inject_lag());
        span = span.max(report.elapsed);
        for session in &report.sessions {
            let mem = &baseline[session.id as usize];
            match mem {
                Ok(bits) => {
                    assert!(
                        session.is_ok(),
                        "cell {}: session {} ok in memory but failed under load: {:?}",
                        cell.key,
                        session.id,
                        session.error
                    );
                    assert_eq!(
                        *bits,
                        session.transcript.total_bits(),
                        "cell {}: session {} transcript bits under load",
                        cell.key,
                        session.id
                    );
                }
                Err(_) => assert!(
                    !session.is_ok(),
                    "cell {}: session {} fails in memory but completed under load",
                    cell.key,
                    session.id
                ),
            }
            // Only completed sessions contribute latency: a failed
            // session settles fast for the wrong reason and would
            // flatter the percentiles.
            if session.is_ok() {
                if let Some(latency) = session.latency() {
                    hist.record(latency.as_micros() as u64);
                }
            }
        }
    }
    let achieved_per_sec = if span > Duration::ZERO {
        completed as f64 / span.as_secs_f64()
    } else {
        0.0
    };
    CellResult {
        offered_per_sec: loadgen::offered_rate(&schedule),
        achieved_per_sec,
        completed,
        failed,
        hist,
        max_inject_lag,
        internals: obs_before.map(|before| rsr_obs::global().snapshot().delta_from(&before)),
    }
}

/// Runs `cells` and appends every cell's metrics to `bench` (the `net`
/// entry's combined `BENCH_net.json` report). Returns the markdown
/// section.
pub fn extend(bench: &mut BenchReport, cells: &[LoadCell]) -> String {
    let base_seed = 0x10ad_7ace_u64;

    let mut table = Table::new(&[
        "cell",
        "sessions",
        "conns",
        "offered/s",
        "achieved/s",
        "done",
        "p50 ms",
        "p90 ms",
        "p95 ms",
        "p99 ms",
        "max ms",
        "lag ms",
    ]);
    let mut sections = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let result = run_cell(cell, base_seed + i as u64);
        table.row(vec![
            cell.key.clone(),
            cell.sessions.to_string(),
            cell.conns.to_string(),
            format!("{:.0}", result.offered_per_sec),
            format!("{:.0}", result.achieved_per_sec),
            result.completed.to_string(),
            format!("{:.2}", result.quantile_ms(0.50)),
            format!("{:.2}", result.quantile_ms(0.90)),
            format!("{:.2}", result.quantile_ms(0.95)),
            format!("{:.2}", result.quantile_ms(0.99)),
            format!("{:.2}", result.quantile_ms(1.0)),
            format!("{:.2}", result.max_inject_lag.as_secs_f64() * 1e3),
        ]);
        let k = &cell.key;
        bench.push(format!("load_{k}_offered_per_sec"), result.offered_per_sec);
        bench.push(
            format!("load_{k}_achieved_per_sec"),
            result.achieved_per_sec,
        );
        bench.push(format!("load_{k}_completed"), result.completed as f64);
        bench.push(format!("load_{k}_p50_ms"), result.quantile_ms(0.50));
        bench.push(format!("load_{k}_p90_ms"), result.quantile_ms(0.90));
        bench.push(format!("load_{k}_p95_ms"), result.quantile_ms(0.95));
        bench.push(format!("load_{k}_p99_ms"), result.quantile_ms(0.99));
        bench.push(format!("load_{k}_max_ms"), result.quantile_ms(1.0));
        bench.push(
            format!("load_{k}_inject_lag_ms"),
            result.max_inject_lag.as_secs_f64() * 1e3,
        );
        // Informational (ungated) internals, when recording is on: the
        // per-cell registry delta for a few load-bearing counters, so a
        // regression investigation can see *how* a cell did its work
        // (poll pressure, wire volume) next to its latency numbers.
        if let Some(obs) = &result.internals {
            for key in [
                "net_reactor_polls",
                "net_client_polls",
                "net_wire_bytes_in",
                "net_wire_bytes_out",
            ] {
                if let Some(v) = obs.value(key) {
                    bench.push(format!("load_{k}_obs_{key}"), v);
                }
            }
        }
        sections.push(format!(
            "cell `{k}`: {} sessions over {} connection(s), exp arrivals at \
             {:.0}/s offered, {} server reactors ({} with a connection to serve)",
            cell.sessions,
            cell.conns,
            cell.rate,
            cell.shards,
            cell.shards.min(cell.conns)
        ));
    }

    format!(
        "## L1 — open-loop latency under load\n\n\
         Injected each cell's production-day trace \
         (emd-heavy blend, periodic bulk sessions) on a pre-computed \
         exp-arrival schedule against the loopback server; every session's \
         outcome and transcript bits matched the serial in-memory \
         reference (instances whose decode intrinsically fails must fail \
         identically under load). Latency is measured from the *scheduled* \
         arrival to full settle (local half done and server `DONE`), so \
         generator lag is charged to the system, never forgiven \
         (coordinated omission — docs/loadgen.md). Percentiles come from a \
         log-bucketed histogram with ≤{:.1}% relative bucket error.\n\n\
         Cells: {}.\n\n{}",
        LogHistogram::new(DEFAULT_SUB_BITS).relative_error() * 100.0,
        sections.join("; "),
        table.render()
    )
}
