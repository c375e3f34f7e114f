//! Regenerates the P1 assignment-solver table (the repair step under the
//! Hungarian reference and the ε-scaling auction, the shipped decode, and
//! exact `EMD_k`). Pass `--quick` for a
//! reduced-size smoke run; `--json` additionally writes `BENCH_emd.json`
//! (`--json-out PATH` to redirect it) — the machine-readable report CI
//! gates against the committed baseline (see docs/benchmarks.md).

fn main() {
    let quick = rsr_bench::quick_flag();
    let (report, bench) = rsr_bench::experiments::emd_solvers::run_with_json(quick);
    rsr_bench::emit("BENCH_emd.json", &report, &bench);
}
