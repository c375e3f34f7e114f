//! Two-process reconciliation over a real TCP connection.
//!
//! Server and client agree on a session batch by sharing two numbers —
//! a session count and a trace seed — from which both deterministically
//! regenerate the same protocol instances (workloads and public coins),
//! exactly as two replicas sharing a configuration would. The server
//! holds every Bob half behind a `SessionFactory`; the client runs the
//! Alice halves through the unified [`Driver`] builder, multiplexing
//! them over one or more connections.
//!
//! Run in two terminals:
//!
//! ```text
//! cargo run --release --example net_sync -- --serve 127.0.0.1:7171 --once
//! cargo run --release --example net_sync -- --connect 127.0.0.1:7171
//! ```
//!
//! `--serve` without `--once` keeps accepting connections — `--shards N`
//! reactor threads however many connections arrive — until killed; the
//! client runs every connection on its own one thread and ignores
//! `--shards`. `--sessions N` and `--trace-seed S` must match on both
//! sides. `--conns C` on the client spreads the batch round-robin over
//! C connections, which the server's free reactors take as they arrive
//! (pair it with `--conns C` on a `--serve --once` server so it exits
//! after serving all C).
//!
//! `--rounds R` switches the client to **continuous** mode: it opens
//! one long-lived session (`--sessions` becomes the shared base-set
//! size), streams churn between rounds, and drives R incremental
//! rounds under the same session id — each one `FRAME` out, the delta
//! since the last settle, and one `FRAME` back, the keys only the
//! server held. The server needs no extra flag: its factory builds the
//! resident Bob half from the wire spec alone.

use robust_set_recon::core::continuous::shared;
use robust_set_recon::net::{default_shards, ConnectedDriver, Driver, ReconServer, SessionPlan};
use rsr_bench::experiments::net::{continuous_party_of, continuous_spec, InstanceFactory};
use rsr_workloads::{sample_churn, sample_trace, ChurnSpec};
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    serve: Option<String>,
    connect: Option<String>,
    once: bool,
    sessions: usize,
    trace_seed: u64,
    shards: usize,
    conns: usize,
    rounds: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        serve: None,
        connect: None,
        once: false,
        sessions: 64,
        trace_seed: 0xbea7,
        shards: default_shards(),
        conns: 1,
        rounds: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage(name));
        match arg.as_str() {
            "--serve" => args.serve = Some(value("--serve ADDR")),
            "--connect" => args.connect = Some(value("--connect ADDR")),
            "--once" => args.once = true,
            "--sessions" => {
                args.sessions = value("--sessions N").parse().unwrap_or_else(|_| usage("N"))
            }
            "--trace-seed" => {
                args.trace_seed = value("--trace-seed S")
                    .parse()
                    .unwrap_or_else(|_| usage("S"))
            }
            "--shards" => {
                args.shards = value("--shards N").parse().unwrap_or_else(|_| usage("N"));
                if args.shards == 0 {
                    usage("--shards must be >= 1");
                }
            }
            "--conns" => {
                args.conns = value("--conns C").parse().unwrap_or_else(|_| usage("C"));
                if args.conns == 0 {
                    usage("--conns must be >= 1");
                }
            }
            "--rounds" => {
                args.rounds = value("--rounds R").parse().unwrap_or_else(|_| usage("R"));
                if args.rounds == 0 {
                    usage("--rounds must be >= 1");
                }
            }
            other => usage(other),
        }
    }
    if args.serve.is_some() == args.connect.is_some() {
        usage("exactly one of --serve/--connect");
    }
    if args.rounds > 0 && args.conns > 1 {
        usage("--rounds drives one continuous session and needs --conns 1");
    }
    args
}

fn usage(what: &str) -> ! {
    eprintln!("net_sync: bad or missing argument: {what}");
    eprintln!(
        "usage: net_sync (--serve ADDR [--once] | --connect ADDR) \
         [--sessions N] [--trace-seed S] [--shards N] [--conns C] [--rounds R]"
    );
    exit(2)
}

fn build_factory(sessions: usize, trace_seed: u64) -> InstanceFactory {
    let entries = sample_trace(sessions, trace_seed);
    InstanceFactory::from_trace(&entries)
}

/// Connects the driver pool, retrying briefly — the server may still be
/// starting when CI launches both sides back to back.
fn connect_driver(addr: &str, conns: usize) -> ConnectedDriver {
    for _ in 0..40 {
        let attempt = Driver::new(addr)
            .conns(conns)
            .idle_timeout(Some(Duration::from_secs(60)))
            .connect();
        match attempt {
            Ok(driver) => return driver,
            Err(_) => std::thread::sleep(Duration::from_millis(250)),
        }
    }
    eprintln!("net_sync: cannot connect {conns} time(s) to {addr}");
    exit(1)
}

fn main() {
    let args = parse_args();

    if let Some(addr) = args.serve {
        let factory = build_factory(args.sessions, args.trace_seed);
        let server = ReconServer::bind(addr.as_str(), Arc::new(factory))
            .unwrap_or_else(|e| {
                eprintln!("net_sync: cannot bind {addr}: {e}");
                exit(1)
            })
            .with_shards(args.shards);
        println!(
            "serving {} bob sessions (trace seed {:#x}) on {addr} with {} reactors",
            args.sessions, args.trace_seed, args.shards
        );
        if args.once && args.conns > 1 {
            // The connections spread over the reactors;
            // per-connection outcomes are validated on the client side.
            server.serve(Some(args.conns)).unwrap_or_else(|e| {
                eprintln!("net_sync: accept loop failed: {e}");
                exit(1)
            });
            println!("served {} connections, exiting", args.conns);
        } else if args.once {
            let report = server.serve_one().unwrap_or_else(|e| {
                eprintln!("net_sync: connection failed: {e}");
                exit(1)
            });
            println!(
                "connection done: {}/{} sessions completed, {} frames in / {} out, \
                 {} wire bytes in / {} out",
                report.completed(),
                report.sessions.len(),
                report.frames_in,
                report.frames_out,
                report.wire_bytes_in,
                report.wire_bytes_out,
            );
            if report.failed() > 0 {
                for s in report.sessions.iter().filter(|s| s.error.is_some()) {
                    eprintln!("  session {}: {}", s.id, s.error.as_deref().unwrap());
                }
                exit(1);
            }
        } else {
            server.serve(None).unwrap_or_else(|e| {
                eprintln!("net_sync: accept loop failed: {e}");
                exit(1)
            });
        }
        return;
    }

    let addr = args.connect.clone().expect("checked in parse_args");
    if args.rounds > 0 {
        run_continuous(&addr, &args);
        return;
    }

    let factory = build_factory(args.sessions, args.trace_seed);
    let mut driver = connect_driver(&addr, args.conns);
    let t0 = Instant::now();
    // Session i rides connection i % conns; one reactor on this thread
    // drives all the connections and steps all the sessions.
    let batches: Vec<Vec<SessionPlan<'_>>> = (0..args.conns)
        .map(|c| {
            factory
                .instances
                .iter()
                .enumerate()
                .filter(|(i, _)| i % args.conns == c)
                .map(|(i, inst)| SessionPlan::new(i as u64, inst.alice_session()))
                .collect()
        })
        .collect();
    let report = driver.batch(batches).unwrap_or_else(|e| {
        eprintln!("net_sync: batch failed: {e}");
        exit(1)
    });
    let elapsed = t0.elapsed();
    for (c, conn) in report.conns.iter().enumerate() {
        if let Some(e) = &conn.transport_error {
            eprintln!("net_sync: connection {c} failed: {e}");
        }
    }
    driver.finish();

    let total: usize = report.conns.iter().map(|r| r.sessions.len()).sum();
    let completed = report.completed();
    let failed = report.failed();
    let wire_out: u64 = report.conns.iter().map(|r| r.wire_bytes_out).sum();
    let wire_in: u64 = report.conns.iter().map(|r| r.wire_bytes_in).sum();
    println!(
        "{} sessions multiplexed over {} connection(s) in {:.1} ms ({:.0} sessions/sec)",
        total,
        report.conns.len(),
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "completed {completed}/{total}; {} payload bits in \
         {wire_out}+{wire_in} wire bytes (out+in)",
        report.payload_bits(),
    );
    for s in report.sessions().take(4) {
        println!(
            "  session {:>3}: {:>8} bits in {} messages / {} rounds",
            s.id,
            s.transcript.total_bits(),
            s.transcript.num_messages(),
            s.transcript.num_rounds(),
        );
    }
    if total > 4 {
        println!("  … and {} more", total - 4);
    }
    if failed > 0 || report.transport_error().is_some() {
        for s in report.sessions().filter(|s| s.error.is_some()) {
            eprintln!("  session {}: {}", s.id, s.error.as_deref().unwrap());
        }
        exit(1);
    }
}

/// Continuous mode: one resident session, `--rounds` incremental rounds
/// with churn streamed in between, each shipping only the delta since
/// the last settle. Both endpoints derive the same starting party from
/// the wire spec (`--sessions` keys seeded by `--trace-seed`), so the
/// expected post-round union is checkable client-side every round.
fn run_continuous(addr: &str, args: &Args) {
    let churn = ChurnSpec {
        skew: 1.0, // the server party only learns through settles
        ..ChurnSpec::steady(16)
    };
    let spec = continuous_spec(args.sessions, churn.peak_round_ops(), args.trace_seed);
    let party = shared(continuous_party_of(&spec));
    let trace = sample_churn(&churn, args.rounds, args.trace_seed);

    let mut driver = connect_driver(addr, 1);
    let t0 = Instant::now();
    let mut expected = {
        let p = party.lock().expect("party lock");
        p.set().clone()
    };
    for (r, round) in trace.iter().enumerate() {
        // Stream this round's churn, tracking the expected union (the
        // server side never deletes, so client deletes resurrect).
        let (ins, del) = round.alice_keys(&expected);
        {
            let mut p = party.lock().expect("party lock");
            for &k in &ins {
                p.insert(k).expect("insert between rounds");
                expected.insert(k);
            }
            for &k in &del {
                p.remove(k).expect("delete between rounds");
            }
        }
        let plan = if r == 0 {
            SessionPlan::open_continuous(0, spec, &party)
        } else {
            SessionPlan::next_round(0, &party)
        }
        .unwrap_or_else(|e| {
            eprintln!("net_sync: round {r}: {e}");
            exit(1)
        });
        let report = driver.batch(vec![vec![plan]]).unwrap_or_else(|e| {
            eprintln!("net_sync: round {r} failed: {e}");
            exit(1)
        });
        if report.completed() != 1 {
            for s in report.sessions().filter(|s| s.error.is_some()) {
                eprintln!("net_sync: round {r}: {}", s.error.as_deref().unwrap());
            }
            exit(1);
        }
        let bits = report.payload_bits();
        let live = party.lock().expect("party lock").set().clone();
        if live != expected {
            eprintln!(
                "net_sync: round {r}: settled set diverged from the expected union \
                 ({} vs {} keys)",
                live.len(),
                expected.len()
            );
            exit(1);
        }
        println!(
            "round {r}: +{} -{} churn keys, {} round bits, {} keys settled",
            ins.len(),
            del.len(),
            bits,
            live.len()
        );
    }
    let elapsed = t0.elapsed();
    driver.close_session(0, 0).unwrap_or_else(|e| {
        eprintln!("net_sync: cannot retire the session: {e}");
        exit(1)
    });
    driver.finish();
    println!(
        "{} continuous rounds over one session in {:.1} ms ({:.0} rounds/sec)",
        args.rounds,
        elapsed.as_secs_f64() * 1e3,
        args.rounds as f64 / elapsed.as_secs_f64(),
    );
}
