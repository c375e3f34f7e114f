//! C1 — continuous reconciliation under churn: per-round cost tracks
//! the drift, not the set.
//!
//! The one-shot experiments rebuild a sketch over the whole set every
//! time; a continuous pair keeps a [`ContinuousParty`] resident and each
//! round ships only the delta since the last settle. This experiment
//! measures the headline invariant: **at a fixed churn rate, per-round
//! wall time and wire bits stay flat as the base set grows 4×** — while
//! a from-scratch reconciliation of the same sets grows with `n`.
//!
//! Every incremental round is checked bit-for-bit against a
//! from-scratch reference: a *fresh* pair is built over the exact
//! pre-round sets, driven one round, and its settled set must equal the
//! incremental round's settled set key-for-key (which the continuous
//! module's algebra promises — see `rsr_core::continuous`). The sweep
//! also re-runs the same churn trace over the wire — one `OPEN`, then
//! one delta `FRAME` out and one reply `FRAME` back per round, against a
//! spec-only server whose factory builds its resident Bob from the wire
//! spec alone — asserting the client party converges to the same union
//! every round.
//!
//! Gated keys (`churn_…_rounds_per_sec`, `churn_…_round_p50_ms`,
//! `churn_…_round_max_ms`) land in `BENCH_net.json` next to the N1/L1
//! families; `bench_check` applies the standard throughput and latency
//! rules (docs/benchmarks.md).

use crate::benchjson::BenchReport;
use crate::experiments::net::{continuous_party_of, continuous_spec, InstanceFactory};
use crate::table::Table;
use rsr_core::continuous::{ContinuousConfig, ContinuousParty, ContinuousSession, SharedParty};
use rsr_net::{Driver, ReconServer, SessionPlan};
use rsr_workloads::{base_set, sample_churn, ChurnSpec};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-round wall time may drift between the small and the 4× base set
/// by at most this factor (medians; the real invariant is the wire-bit
/// bound below — wall clock gets slack for scheduler noise on a busy
/// 1-core CI host).
pub const FLATNESS_BUDGET: f64 = 5.0;

/// Per-round wire bits at 4× the base set must stay within this factor
/// of the small set's, plus [`BITS_SLACK`] absolute bits. The delta
/// table's size is pinned by the churn bound, so the only cross-`n`
/// wiggle is reply keys from coincidental delete overlap.
pub const BITS_BUDGET: f64 = 1.25;

/// Absolute per-round bit slack on top of [`BITS_BUDGET`] (a few 64-bit
/// reply keys plus framing).
pub const BITS_SLACK: f64 = 2048.0;

/// One cell of the churn sweep: a base-set size driven `rounds` rounds
/// at a steady churn rate.
#[derive(Clone, Debug)]
pub struct ChurnCell {
    /// Short key naming the cell inside metric names (`churn_<key>_…`).
    pub key: String,
    /// Base-set size both parties start from.
    pub n: usize,
    /// Mean mutations per round across both parties.
    pub rate: usize,
    /// Incremental rounds driven (after the settling round 0).
    pub rounds: usize,
}

/// The sweep: one churn rate over a base set and its 4× growth, so the
/// flatness claim is a same-trace comparison, not an extrapolation.
pub fn cells(quick: bool) -> Vec<ChurnCell> {
    let (n_small, rounds) = if quick { (512, 6) } else { (4096, 12) };
    let rate = 32;
    [n_small, 4 * n_small]
        .into_iter()
        .map(|n| ChurnCell {
            key: format!("n{n}_c{rate}"),
            n,
            rate,
            rounds,
        })
        .collect()
}

/// What one in-memory cell measured.
pub struct MemCellResult {
    /// Incremental round wall times, in trace order.
    pub round_times: Vec<Duration>,
    /// Incremental round transcript bits, in trace order.
    pub round_bits: Vec<u64>,
    /// From-scratch reference wall times (party build + one round over
    /// the same pre-round sets), in trace order.
    pub oneshot_times: Vec<Duration>,
    /// Final settled set size.
    pub final_keys: usize,
}

fn lock(party: &SharedParty) -> std::sync::MutexGuard<'_, ContinuousParty> {
    party.lock().unwrap_or_else(|e| e.into_inner())
}

/// Applies one round's churn to a party and its reference set, keeping
/// the two in lockstep. Keys are materialized against the reference
/// (equal to the party's set by construction) so the trace stays
/// deterministic in `(spec, rounds, seed)`.
fn apply_churn(party: &SharedParty, reference: &mut BTreeSet<u64>, ins: &[u64], del: &[u64]) {
    let mut p = lock(party);
    for &key in ins {
        p.insert(key).expect("insert between rounds");
        reference.insert(key);
    }
    for &key in del {
        p.remove(key).expect("delete between rounds");
        reference.remove(&key);
    }
}

/// Runs one cell in memory: round 0 settles the (empty) initial
/// difference, then `cell.rounds` churned rounds run incrementally,
/// each asserted bit-for-bit against a from-scratch reconciliation of
/// the same pre-round sets.
pub fn run_mem_cell(cell: &ChurnCell, seed: u64) -> MemCellResult {
    let spec = ChurnSpec::steady(cell.rate);
    let cfg = ContinuousConfig::for_churn(spec.peak_round_ops(), seed);
    let base = base_set(cell.n, seed);
    let mut session = ContinuousSession::new(
        ContinuousParty::new(cfg, base.iter().copied()),
        ContinuousParty::new(cfg, base.iter().copied()),
    );
    session.drive_round().expect("round 0 settles");

    let trace = sample_churn(&spec, cell.rounds, seed);
    let mut a_ref = base.clone();
    let mut b_ref = base;
    let mut round_times = Vec::with_capacity(cell.rounds);
    let mut round_bits = Vec::with_capacity(cell.rounds);
    let mut oneshot_times = Vec::with_capacity(cell.rounds);
    for (r, round) in trace.iter().enumerate() {
        let (a_ins, a_del) = round.alice_keys(&a_ref);
        let (b_ins, b_del) = round.bob_keys(&b_ref);
        apply_churn(&session.alice(), &mut a_ref, &a_ins, &a_del);
        apply_churn(&session.bob(), &mut b_ref, &b_ins, &b_del);
        let expected: BTreeSet<u64> = a_ref.union(&b_ref).copied().collect();

        // The from-scratch reference: a fresh pair over the exact
        // pre-round sets, timed end to end (sketch build included —
        // that is the cost a one-shot caller actually pays).
        let t0 = Instant::now();
        let mut fresh = ContinuousSession::new(
            ContinuousParty::new(cfg, a_ref.iter().copied()),
            ContinuousParty::new(cfg, b_ref.iter().copied()),
        );
        fresh
            .drive_round()
            .unwrap_or_else(|e| panic!("cell {}: fresh round {r}: {e}", cell.key));
        oneshot_times.push(t0.elapsed());

        let t0 = Instant::now();
        let t = session
            .drive_round()
            .unwrap_or_else(|e| panic!("cell {}: incremental round {r}: {e}", cell.key));
        round_times.push(t0.elapsed());
        round_bits.push(t.total_bits());

        // Bit-for-bit: incremental settle, from-scratch settle, and the
        // directly computed union must be the same set, key for key.
        let incremental = lock(&session.alice()).set().clone();
        assert_eq!(
            incremental,
            *lock(&fresh.alice()).set(),
            "cell {}: round {r}: incremental settle diverged from the from-scratch reference",
            cell.key
        );
        assert_eq!(
            incremental, expected,
            "cell {}: round {r}: settle is not the union of the pre-round sets",
            cell.key
        );
        assert_eq!(
            incremental,
            *lock(&session.bob()).set(),
            "cell {}: round {r}: parties diverged",
            cell.key
        );
        a_ref = expected.clone();
        b_ref = expected;
    }
    MemCellResult {
        round_times,
        round_bits,
        oneshot_times,
        final_keys: a_ref.len(),
    }
}

/// What the wire section measured.
pub struct WireResult {
    /// Cell key (`wire_<key>` in metric names).
    pub key: String,
    /// Per-round wall times as the driver saw them (connect and churn
    /// excluded; round 0's `OPEN` included).
    pub round_times: Vec<Duration>,
    /// Final settled set size on the client party.
    pub final_keys: usize,
}

/// Replays a skewed churn trace over TCP: one continuous session opened
/// with `OPEN`(spec, continuous) and round 0, then incremental rounds —
/// one `FRAME` each way — under the same id on a persistent connection. The server's factory
/// builds its resident Bob from the wire spec alone, so the only state
/// crossing the wire is the per-round delta. All churn lands on the
/// client (skew 1.0) — the server party is mutated by settles only.
pub fn run_wire(quick: bool, seed: u64) -> WireResult {
    let n = if quick { 512 } else { 4096 };
    let rounds = if quick { 3 } else { 8 };
    let spec = ChurnSpec {
        skew: 1.0,
        ..ChurnSpec::steady(32)
    };
    let wire_spec = continuous_spec(n, spec.peak_round_ops(), seed);
    let key = format!("wire_n{n}_c{}", spec.rate);

    let factory = Arc::new(InstanceFactory::spec_only());
    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory))
        .expect("bind loopback")
        .with_shards(2);
    let addr = server.local_addr().expect("bound address");

    let trace = sample_churn(&spec, rounds + 1, seed);
    let mut round_times = Vec::with_capacity(rounds + 1);
    let final_keys = std::thread::scope(|s| {
        let server_handle = s.spawn(|| server.serve(Some(1)));
        let party = rsr_core::continuous::shared(continuous_party_of(&wire_spec));
        let mut expected = base_set(n, seed);
        let mut driver = Driver::new(addr)
            .idle_timeout(Some(Duration::from_secs(120)))
            .connect()
            .expect("connect");

        for (r, round) in trace.iter().enumerate() {
            // Churn lands between rounds (round 0 included: the open
            // reconciles it as the initial difference). With the server
            // side never deleting, union settles resurrect client
            // deletes — the expected set only ever grows.
            let (ins, del) = round.alice_keys(&expected);
            apply_wire_churn(&party, &ins, &del);
            for &k in &ins {
                expected.insert(k);
            }

            let plan = if r == 0 {
                SessionPlan::open_continuous(7, wire_spec, &party).expect("fresh party")
            } else {
                SessionPlan::next_round(7, &party).expect("settled party")
            };
            let t0 = Instant::now();
            let report = driver
                .batch(vec![vec![plan]])
                .unwrap_or_else(|e| panic!("wire round {r}: {e}"));
            round_times.push(t0.elapsed());
            assert!(
                report.transport_error().is_none(),
                "wire round {r}: transport failed: {:?}",
                report.transport_error()
            );
            assert_eq!(report.completed(), 1, "wire round {r} did not settle");
            assert_eq!(
                *lock(&party).set(),
                expected,
                "wire round {r}: client party diverged from the expected union"
            );
        }
        let final_keys = lock(&party).set().len();
        driver.close_session(0, 7).expect("retire the session");
        driver.finish();
        server_handle
            .join()
            .expect("server thread")
            .expect("connection served");
        final_keys
    });
    WireResult {
        key,
        round_times,
        final_keys,
    }
}

fn apply_wire_churn(party: &SharedParty, ins: &[u64], del: &[u64]) {
    let mut p = lock(party);
    for &key in ins {
        p.insert(key).expect("insert between rounds");
    }
    for &key in del {
        p.remove(key).expect("delete between rounds");
    }
}

fn quantile(times: &[Duration], q: f64) -> Duration {
    let mut sorted = times.to_vec();
    sorted.sort();
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per_sec(rounds: usize, times: &[Duration]) -> f64 {
    let total: Duration = times.iter().sum();
    if total > Duration::ZERO {
        rounds as f64 / total.as_secs_f64()
    } else {
        0.0
    }
}

/// Runs the sweep and appends the `churn_*` metric family to `bench`
/// (the `net` entry's combined `BENCH_net.json` report). Returns the
/// markdown section.
pub fn extend(bench: &mut BenchReport, quick: bool) -> String {
    let seed = 0xc402_2026_u64;
    let cells = cells(quick);
    let mut results = Vec::new();
    let mut table = Table::new(&[
        "cell",
        "n",
        "rounds",
        "keys",
        "incr p50 ms",
        "incr max ms",
        "oneshot p50 ms",
        "bits/round",
        "rounds/s",
    ]);
    for cell in &cells {
        let result = run_mem_cell(cell, seed);
        let mean_bits =
            result.round_bits.iter().sum::<u64>() as f64 / result.round_bits.len() as f64;
        table.row(vec![
            cell.key.clone(),
            cell.n.to_string(),
            cell.rounds.to_string(),
            result.final_keys.to_string(),
            format!("{:.4}", ms(quantile(&result.round_times, 0.50))),
            format!("{:.4}", ms(quantile(&result.round_times, 1.0))),
            format!("{:.4}", ms(quantile(&result.oneshot_times, 0.50))),
            format!("{mean_bits:.0}"),
            format!("{:.0}", per_sec(cell.rounds, &result.round_times)),
        ]);
        let k = &cell.key;
        bench.push(
            format!("churn_{k}_rounds_per_sec"),
            per_sec(cell.rounds, &result.round_times),
        );
        bench.push(
            format!("churn_{k}_round_p50_ms"),
            ms(quantile(&result.round_times, 0.50)),
        );
        bench.push(
            format!("churn_{k}_round_max_ms"),
            ms(quantile(&result.round_times, 1.0)),
        );
        bench.push(format!("churn_{k}_round_bits"), mean_bits);
        bench.push(
            format!("churn_{k}_oneshot_ms"),
            ms(quantile(&result.oneshot_times, 0.50)),
        );
        results.push(result);
    }

    // The flatness claim, asserted in-bin over the same trace: wire
    // bits per round must not grow with n (the delta table is pinned by
    // the churn bound; only coincidental delete overlap in the replies
    // moves), and median wall time gets a generous scheduler-noise
    // budget.
    let (small, big) = (&results[0], &results[1]);
    for (r, (&sb, &bb)) in small.round_bits.iter().zip(&big.round_bits).enumerate() {
        let cap = (sb as f64) * BITS_BUDGET + BITS_SLACK;
        assert!(
            (bb as f64) <= cap,
            "round {r}: {bb} bits at n={} vs {sb} at n={} — wire cost grew with the set",
            cells[1].n,
            cells[0].n
        );
    }
    let ratio = ms(quantile(&big.round_times, 0.50)) / ms(quantile(&small.round_times, 0.50));
    assert!(
        ratio <= FLATNESS_BUDGET,
        "median round time grew {ratio:.2}× from n={} to n={} (budget {FLATNESS_BUDGET}×)",
        cells[0].n,
        cells[1].n
    );
    bench.push("churn_flat_time_ratio", ratio);

    let wire = run_wire(quick, seed);
    table.row(vec![
        wire.key.clone(),
        "-".into(),
        (wire.round_times.len() - 1).to_string(),
        wire.final_keys.to_string(),
        format!("{:.4}", ms(quantile(&wire.round_times, 0.50))),
        format!("{:.4}", ms(quantile(&wire.round_times, 1.0))),
        "-".into(),
        "-".into(),
        format!("{:.0}", per_sec(wire.round_times.len(), &wire.round_times)),
    ]);
    let k = &wire.key;
    bench.push(
        format!("churn_{k}_rounds_per_sec"),
        per_sec(wire.round_times.len(), &wire.round_times),
    );
    bench.push(
        format!("churn_{k}_round_p50_ms"),
        ms(quantile(&wire.round_times, 0.50)),
    );
    bench.push(
        format!("churn_{k}_round_max_ms"),
        ms(quantile(&wire.round_times, 1.0)),
    );

    format!(
        "## C1 — continuous reconciliation under churn\n\n\
         Each cell settles a shared base set, then drives {} incremental \
         rounds of steady churn ({} mutations/round mean, 25% deletes). \
         Every incremental round was asserted bit-for-bit against a \
         from-scratch reconciliation of the same pre-round sets (and \
         against the directly computed union). Growing the base set 4× \
         at fixed churn left per-round wire bits flat (within reply-key \
         slack) and the median round time within {:.0}× (measured \
         {ratio:.2}×) — the from-scratch column grows with n, the \
         incremental columns do not. The `wire_*` row replays the trace \
         over TCP: one `OPEN`(continuous spec) and round 0, then \
         incremental rounds, one `FRAME` each way, on a persistent \
         connection against a spec-only factory, client party asserted \
         against the expected union every round.\n\n{}",
        cells[0].rounds,
        cells[0].rate,
        FLATNESS_BUDGET,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cells_cover_a_4x_growth_at_fixed_rate() {
        let cells = cells(true);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].n, 4 * cells[0].n);
        assert_eq!(cells[0].rate, cells[1].rate);
    }

    #[test]
    fn mem_cell_settles_every_round() {
        let cell = ChurnCell {
            key: "t".into(),
            n: 128,
            rate: 16,
            rounds: 3,
        };
        let result = run_mem_cell(&cell, 9);
        assert_eq!(result.round_times.len(), 3);
        assert_eq!(result.round_bits.len(), 3);
        assert!(result.final_keys >= 128, "union only grows");
    }

    #[test]
    fn churn_trace_is_replayable() {
        let spec = ChurnSpec::steady(16);
        assert_eq!(sample_churn(&spec, 4, 1), sample_churn(&spec, 4, 1));
    }
}
