//! Regenerates the C1 continuous-reconciliation-under-churn table: a
//! base set and its 4× growth driven through incremental rounds at a
//! fixed churn rate, every round asserted bit-for-bit against a
//! from-scratch reconciliation, plus a TCP replay of the same trace
//! over `OPEN`/`ROUND` records. Pass `--quick` for the CI smoke grid;
//! `--json` writes a standalone `BENCH_churn.json` (`--json-out PATH`
//! to redirect). The *gated* copy of these keys lives in
//! `BENCH_net.json`, which `exp_net --json` regenerates whole.

use rsr_bench::experiments::churn;
use rsr_bench::BenchReport;

fn main() {
    let quick = rsr_bench::quick_flag();
    let mut bench = BenchReport::new("churn", quick);
    let report = churn::extend(&mut bench, quick);
    rsr_bench::emit("BENCH_churn.json", &report, &bench);
}
