//! Regenerates the T7 Gap-protocol table. Pass `--quick` for a
//! reduced-trial smoke run; `--json` additionally writes
//! `BENCH_gap.json` (`--json-out PATH` to redirect it) — the
//! machine-readable report CI gates against the committed baseline
//! (schema and key inventory in docs/benchmarks.md).

fn main() {
    let quick = rsr_bench::quick_flag();
    let (report, bench) = rsr_bench::experiments::gap::run_with_json(quick);
    rsr_bench::emit("BENCH_gap.json", &report, &bench);
}
