//! `rsr-exp` misuse is a usage error: exit 2, every experiment name
//! listed on stderr, and nothing run — a typo'd flag must never fall
//! through to a slow full-mode run.

use std::process::Command;

#[test]
fn misuse_exits_2_and_lists_every_name() {
    for line in [
        "gap --quik",
        "gap --json-out",
        "gap --json-out --quick",
        "all --json-out x.json",
        "gap net",
        "no_such_experiment",
        "",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rsr-exp"))
            .args(line.split_whitespace())
            .output()
            .expect("rsr-exp starts");
        assert_eq!(out.status.code(), Some(2), "{line:?}");
        assert!(out.stdout.is_empty(), "{line:?}: nothing may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for (_, name, _, _) in rsr_bench::experiments::all() {
            assert!(stderr.contains(name), "{line:?}: usage must list {name}");
        }
    }
}
