//! P1 — assignment-solver throughput in the EMD hot paths, swept over
//! instance size `n`. Every timed call is one the code makes:
//!
//! * `repair` — `replace_matched_with` under each exact solver (the
//!   Hungarian reference and the ε-scaling auction) at the **catch-up**
//!   shape: Bob holds `n` points, Alice holds the same `n` plus `n`
//!   fresh ones (`k = n/2`, so the `2k` budget admits every new point).
//!   All of Bob's pairs cancel, the decode yields `(X_A, X_B) = (n, 0)`,
//!   and the repair step becomes a *square* min-cost matching of `n`
//!   fresh points against Bob's `n` — the regime where the assignment
//!   solver, not the sketch machinery, dominates decode time. (When
//!   `X_B` decodes non-empty its matching against `S_B` has a zero-cost
//!   pairing per row — Bob's own points — and either solver dispatches
//!   it in near-linear scans.) This is the one gated comparison of the
//!   two solvers; both must return the same set.
//! * `bob_decode` — the full `EmdProtocol::bob_decode` path as shipped
//!   (level search, RIBLT peel, auction repair) on the same catch-up
//!   workload. Alice's message is encoded once, outside the clock.
//! * `emd_k` — the exact `EMD_k` measurement (`rsr_emd::emd_k`, under
//!   the Hungarian reference) between the two fresh `n`-point sets: a
//!   dummy-augmented `(n+k)²` square assignment whose zero-cost border
//!   is the classic worst case for shortest-augmenting-path solvers.
//!
//! The measured rates form the `BENCH_emd.json` report (flat
//! `*_per_sec` keys, one per timed call × n), which CI gates against the
//! committed baseline like the net and gap reports (see
//! docs/benchmarks.md).

use crate::benchjson::BenchReport;
use crate::table::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use rsr_emd::{emd_k, replace_matched_with, AssignmentSolver};
use rsr_metric::{MetricSpace, Point};
use std::time::Instant;

/// Mean seconds per call, over enough repetitions to fill `budget`
/// seconds of measured work (at least `min_reps`): sub-millisecond
/// single-shot timings are far too noisy for a 30%-tolerance CI gate,
/// so cheap cells get proportionally more reps. The warmup call's
/// result is returned alongside for the caller's assertions.
fn time_per_call<T>(budget: f64, min_reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let warmup_start = Instant::now();
    let value = f();
    let warmup = warmup_start.elapsed().as_secs_f64().max(1e-9);
    let reps = ((budget / warmup).ceil() as usize).clamp(min_reps, 500);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    (t0.elapsed().as_secs_f64() / reps as f64, value)
}

/// Runs the experiment; returns the markdown section and the
/// `BENCH_emd.json` report.
pub fn run(quick: bool) -> (String, BenchReport) {
    let dim = 64;
    let ns: &[usize] = if quick { &[32, 64] } else { &[64, 128, 256] };
    let reps = if quick { 3 } else { 5 };
    let time_budget = if quick { 0.01 } else { 0.06 };
    let seed = 0x00ed_bea7u64;
    let mut bench = BenchReport::new("emd", quick);
    let mut table = Table::new(&[
        "n",
        "hungarian repair ms",
        "auction repair ms",
        "auction speedup",
        "bob_decode ms",
        "bob_decode/sec",
        "emd_k ms",
        "emd_k value",
    ]);

    for &n in ns {
        let k = n / 2;
        let space = MetricSpace::hamming(dim);
        let metric = space.metric();
        let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
        let mut point = || Point::from_bits(&(0..dim).map(|_| rng.gen()).collect::<Vec<bool>>());
        let bob: Vec<Point> = (0..n).map(|_| point()).collect();
        let fresh: Vec<Point> = (0..n).map(|_| point()).collect();

        // Timed: the repair step at the catch-up shape, under each solver.
        let repair = |solver| {
            time_per_call(time_budget, reps, || {
                replace_matched_with(solver, metric, &bob, &[], &fresh)
            })
        };
        let (hungarian_s, hungarian_set) = repair(AssignmentSolver::Hungarian);
        let (auction_s, auction_set) = repair(AssignmentSolver::Auction);
        assert_eq!(hungarian_set, auction_set, "n={n}: repairs disagree");

        // Timed: the whole decode path, auction repair included.
        // Catch-up configuration: a coarse prior D1 (the difference is n
        // far outliers, far above 1) keeps the level schedule short, and
        // a small MLSH draw cap suffices because far points never
        // collide — both keep the sketch-side work proportionate so the
        // measurement exercises the repair matching.
        let mut alice = bob.clone();
        alice.extend(fresh.iter().cloned());
        let mut cfg = EmdProtocolConfig::for_space(&space, alice.len(), k);
        cfg.d1 = 256.0;
        cfg.max_s = 32;
        let proto = EmdProtocol::new(space, cfg, seed ^ 0x5e55 ^ n as u64);
        let msg = proto.alice_encode(&alice);
        let (decode_s, outcome) = time_per_call(time_budget, reps, || {
            proto
                .bob_decode(&msg, &bob)
                .unwrap_or_else(|e| panic!("n={n} k={k}: decode failed: {e}"))
        });
        assert_eq!(outcome.decoded, (n, 0), "n={n}: not a catch-up decode");
        assert_eq!(outcome.reconciled.len(), n, "n={n}: size drift");

        // Timed: exact EMD_k between the two fresh n-point sets — the
        // dummy-augmented square assignment on the measurement side.
        let (emdk_s, emdk) =
            time_per_call(time_budget, reps, || emd_k(metric, &fresh, &bob, n / 4));

        bench.push(format!("hungarian_n{n}_repair_per_sec"), 1.0 / hungarian_s);
        bench.push(format!("auction_n{n}_repair_per_sec"), 1.0 / auction_s);
        bench.push(format!("auction_n{n}_bob_decode_per_sec"), 1.0 / decode_s);
        bench.push(format!("hungarian_n{n}_emdk_per_sec"), 1.0 / emdk_s);
        table.row(vec![
            n.to_string(),
            format!("{:.2}", hungarian_s * 1e3),
            format!("{:.2}", auction_s * 1e3),
            format!("{:.2}x", hungarian_s / auction_s),
            format!("{:.2}", decode_s * 1e3),
            format!("{:.1}", 1.0 / decode_s),
            format!("{:.2}", emdk_s * 1e3),
            format!("{emdk:.1}"),
        ]);
    }

    let report = format!(
        "## P1 — EMD assignment solvers: the repair step under Hungarian and the ε-scaling auction\n\n\
         Catch-up workloads on the d = {dim} Hamming cube (Bob holds n points, \
         Alice those plus n fresh ones, k = n/2), each cell timed over enough \
         reps (≥ {reps}) to fill a {time_budget}s budget. `repair` is \
         `replace_matched_with` at the shape the decode hands it — (n, 0) \
         survivors, so a square n×n min-cost matching — under each exact \
         solver; both are asserted to return the same set. `bob_decode` is \
         the protocol's decode as shipped (auction repair; Alice's message \
         encoded once per n). `emd_k` is \
         the exact EMD_k the measurement harness computes (Hungarian, a \
         dummy-augmented square instance).\n\n{}",
        table.render()
    );
    (report, bench)
}
