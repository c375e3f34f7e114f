//! The one experiment runner: runs entries of the [`experiments::all`]
//! table by name.
//!
//! ```text
//! rsr-exp <name> [--quick] [--json-out PATH] [--metrics-out PATH]
//! rsr-exp all [--quick] [--metrics-out PATH]    # the full report, in index order
//! ```
//!
//! `--quick` shrinks trial counts for a smoke run. `--json-out` writes
//! the entry's report, the fresh counterpart of the committed
//! `BENCH_*.json` baseline it names. `--metrics-out` turns the `rsr-obs`
//! registry on for the whole run, rewrites the snapshot at `PATH` once a
//! second, and writes the final one at exit (key inventory:
//! docs/observability.md); with recording on, `net` also measures what
//! recording costs and asserts it stays within budget. Anything else —
//! an unknown name or flag, a second name, a flag without its path,
//! `--json-out` with `all` — lists the names on stderr and exits 2.

use rsr_bench::experiments::{self, Experiment};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A parsed command line.
struct Cli {
    /// The selected entries: one, or every one for `all`.
    selected: Vec<Experiment>,
    /// Whether `all` was asked for (the full report, with its header).
    all: bool,
    quick: bool,
    json_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

/// Parses the arguments after the program name; `Err` says what is
/// wrong with them.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut name: Option<&str> = None;
    let (mut quick, mut json_out, mut metrics_out) = (false, None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut path = || match args.next() {
            Some(p) if !p.starts_with("--") => Ok(Some(PathBuf::from(p))),
            _ => Err(format!("{arg} requires a PATH")),
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--json-out" => json_out = path()?,
            "--metrics-out" => metrics_out = path()?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            second if name.is_some() => {
                return Err(format!("a second name {second}: give one name, or all"))
            }
            first => name = Some(first),
        }
    }
    let name = name.ok_or("no experiment named")?;
    let all = name == "all";
    let selected: Vec<Experiment> = experiments::all()
        .iter()
        .filter(|(_, known, _, _)| all || name == *known)
        .copied()
        .collect();
    if selected.is_empty() {
        return Err(format!("unknown experiment {name}"));
    }
    if json_out.is_some() && all {
        return Err("--json-out takes one experiment's report, not all".into());
    }
    Ok(Cli {
        selected,
        all,
        quick,
        json_out,
        metrics_out,
    })
}

/// The usage message for `problem`, listing every entry.
fn usage(problem: &str) -> String {
    let mut text = format!(
        "rsr-exp: {problem}\n\
         usage: rsr-exp <name>|all [--quick] [--json-out PATH] [--metrics-out PATH], \
         where <name> is one of (with the baseline its --json-out report regenerates):\n"
    );
    for (ids, name, baseline, _) in experiments::all() {
        text.push_str(&format!("  {name:<18} {ids:<20} {baseline}\n"));
    }
    text
}

/// Writes `text` to `path`; an unwritable path fails the run instead of
/// passing silently.
fn write(path: &Path, text: String) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|problem| {
        eprint!("{}", usage(&problem));
        std::process::exit(2)
    });

    // With --metrics-out the registry records for the whole run and a
    // periodic reporter rewrites the snapshot file once a second — a
    // crash still leaves the last-written internals on disk. The
    // reporter is exactly one extra thread for the whole run, so net's
    // flat-threads assertion sees a constant.
    let reporter = cli.metrics_out.clone().map(|path| {
        rsr_obs::set_enabled(true);
        rsr_obs::Reporter::to_file(path, Duration::from_secs(1))
    });

    if cli.all {
        println!(
            "# Experiment results (generated by `rsr-exp all{}`)\n",
            if cli.quick { " --quick" } else { "" }
        );
        for (ids, name, _, run) in &cli.selected {
            eprintln!("running {ids} ({name})…");
            let start = Instant::now();
            println!("{}", run(cli.quick).0);
            eprintln!("  {ids} done in {:.1?}", start.elapsed());
        }
    } else {
        let (_, _, _, run) = cli.selected[0];
        let (section, report) = run(cli.quick);
        if let Some(path) = &cli.json_out {
            write(path, report.to_json());
        }
        println!("{section}");
    }

    if let Some(path) = &cli.metrics_out {
        // Stop the reporter first so its final write cannot race ours.
        drop(reporter);
        write(path, rsr_obs::global().snapshot().to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_table_name_resolves_to_its_own_experiment() {
        for &(ids, name, _, _) in experiments::all() {
            let cli = parse(&args(name)).expect(name);
            assert_eq!(
                cli.selected.len(),
                1,
                "{name} must select exactly one experiment"
            );
            assert_eq!((cli.selected[0].0, cli.selected[0].1), (ids, name));
            assert!(!cli.all && !cli.quick);
        }
        let cli = parse(&args("all --quick")).expect("all");
        assert!(cli.all && cli.quick);
        assert_eq!(cli.selected.len(), experiments::all().len());
    }

    #[test]
    fn flags_take_their_paths_in_any_order() {
        let cli = parse(&args("--metrics-out m.json net --json-out n.json --quick")).expect("net");
        assert_eq!(cli.selected[0].1, "net");
        assert!(cli.quick);
        assert_eq!(cli.json_out, Some(PathBuf::from("n.json")));
        assert_eq!(cli.metrics_out, Some(PathBuf::from("m.json")));
        assert!(parse(&args("all --metrics-out m.json")).is_ok());
    }

    #[test]
    fn each_baseline_comes_from_exactly_one_entry() {
        let mut files: Vec<&str> = experiments::all().iter().map(|e| e.2).collect();
        files.sort_unstable();
        assert_eq!(
            files,
            [
                "BENCH_emd.json",
                "BENCH_gap.json",
                "BENCH_iblt.json",
                "BENCH_net.json",
                "BENCH_paper.json"
            ]
        );
    }
}
