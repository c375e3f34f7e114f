//! Regenerates the T1 IBLT decode-threshold table. Pass `--quick` for
//! a reduced-trial smoke run; `--json` additionally writes
//! `BENCH_iblt.json` (`--json-out PATH` to redirect it) — the
//! machine-readable report CI gates against the committed baseline with
//! zero downward tolerance on the deterministic `_success_rate` keys
//! (docs/benchmarks.md).

fn main() {
    let quick = rsr_bench::quick_flag();
    let (mut report, mut bench) = rsr_bench::experiments::iblt_threshold::run_with_json(quick);
    let section = rsr_bench::experiments::riblt_error::extend(&mut bench, quick);
    report.push_str("\n\n");
    report.push_str(&section);
    rsr_bench::emit("BENCH_iblt.json", &report, &bench);
}
