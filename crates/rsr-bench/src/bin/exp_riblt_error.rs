//! Regenerates the F1 error-propagation tables plus the F1b
//! unrecovered-key floor. Pass `--quick` for a reduced-trial smoke run;
//! `--json` additionally writes a `BENCH_iblt.json`-schema report
//! holding the F1b `riblt_recover_*` keys (`--json-out PATH` to
//! redirect). The committed baseline is regenerated by
//! `exp_iblt_threshold --json`, which folds these keys into the full
//! report (docs/benchmarks.md).

fn main() {
    let quick = rsr_bench::quick_flag();
    let mut report = rsr_bench::experiments::riblt_error::run(quick);
    let mut bench = rsr_bench::BenchReport::new("iblt", quick);
    let section = rsr_bench::experiments::riblt_error::extend(&mut bench, quick);
    report.push_str("\n\n");
    report.push_str(&section);
    rsr_bench::emit("BENCH_iblt.json", &report, &bench);
}
