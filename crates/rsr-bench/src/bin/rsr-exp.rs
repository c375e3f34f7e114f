//! Runs experiments from the [`experiments::all`] table by name:
//!
//! ```text
//! rsr-exp <name> [--quick]    # one experiment's markdown section
//! rsr-exp all [--quick]       # the full report, in index order
//! ```
//!
//! `--quick` shrinks trial counts for a smoke run. An unknown name (or
//! flag) lists the known names on stderr and exits 2. The experiments
//! with a committed `BENCH_*.json` baseline also have an `exp_<name>`
//! binary that takes `--json`/`--json-out`.

use rsr_bench::experiments::{self, Experiment};

/// The experiments `name` selects: every one for `all`, the one with
/// that table name otherwise, none for a name the table does not have.
fn select(name: &str) -> Vec<Experiment> {
    experiments::all()
        .into_iter()
        .filter(|(_, known, _)| name == "all" || name == *known)
        .collect()
}

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let selected = match names.as_slice() {
        [name] if flags.iter().all(|f| f == "--quick") => select(name),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        eprintln!("usage: rsr-exp <name>|all [--quick], where <name> is one of:");
        for (id, name, _) in experiments::all() {
            eprintln!("  {name:<18} {id}");
        }
        std::process::exit(2);
    }
    let quick = rsr_bench::quick_flag();
    if names[0] != "all" {
        let (_, _, runner) = selected[0];
        println!("{}", runner(quick));
        return;
    }
    println!(
        "# Experiment results (generated by `rsr-exp all{}`)\n",
        if quick { " --quick" } else { "" }
    );
    for (id, name, runner) in selected {
        eprintln!("running {id} ({name})…");
        let start = std::time::Instant::now();
        println!("{}", runner(quick));
        eprintln!("  {id} done in {:.1?}", start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_name_resolves_to_its_own_experiment() {
        let all = experiments::all();
        for (id, name, _) in &all {
            let hit = select(name);
            assert_eq!(hit.len(), 1, "{name} must select exactly one experiment");
            assert_eq!((hit[0].0, hit[0].1), (*id, *name));
        }
        assert_eq!(select("all").len(), all.len());
        assert!(select("no_such_experiment").is_empty());
    }
}
