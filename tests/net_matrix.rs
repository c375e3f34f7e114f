//! TCP-loopback equivalence: all three protocols driven across a real
//! socket (`TcpChannel` + the single-party `drive_channel` driver, one
//! thread per party) must produce outcomes and measured transcripts
//! bit-for-bit identical to the in-memory `run()` path, over a grid of
//! seeds × instance sizes — the transport may not perturb the protocol
//! in any observable way. Two final tests check the multiplexed
//! `ReconServer`/`Driver` path agrees too.

use robust_set_recon::core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use robust_set_recon::core::gap_protocol::{GapConfig, GapProtocol};
use robust_set_recon::core::session::drive_channel;
use robust_set_recon::core::{Party, ScaledEmdProtocol, Transcript};
use robust_set_recon::hash::lsh::LshParams;
use robust_set_recon::hash::BitSamplingFamily;
use robust_set_recon::metric::MetricSpace;
use robust_set_recon::net::{Driver, ReconServer, SessionPlan, TcpChannel};
use robust_set_recon::workloads::{planted_emd, sample_trace, sensor_pairs};
use rsr_bench::experiments::net::{spec_of, Instance, InstanceFactory};
use std::net::TcpListener;
use std::sync::Arc;

const SEEDS: [u64; 5] = [11, 222, 3333, 44_444, 555_555];

/// Runs `alice` and `bob` against each other over a fresh loopback
/// connection, one thread per party, each with its own `TcpChannel`.
fn over_loopback<RA, RB>(
    alice: impl FnOnce(TcpChannel) -> RA + Send,
    bob: impl FnOnce(TcpChannel) -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|s| {
        let bob_side = s.spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            bob(TcpChannel::from_stream(stream, Party::Bob).expect("bob channel"))
        });
        let a = alice(TcpChannel::connect(addr, Party::Alice).expect("alice channel"));
        (a, bob_side.join().expect("bob thread"))
    })
}

/// `(sender, label, bits)` triples — the full observable transcript.
fn entries(t: &Transcript) -> Vec<(Option<Party>, String, u64)> {
    t.entries_with_sender()
        .map(|(s, l, b)| (s, l.to_owned(), b))
        .collect()
}

#[test]
fn emd_over_tcp_matches_in_memory_over_seed_matrix() {
    for &(n, k, dim) in &[(30usize, 2usize, 24usize), (60, 3, 32)] {
        let space = MetricSpace::hamming(dim);
        for &seed in &SEEDS {
            let w = planted_emd(space, n, k, 1, seed);
            let cfg = EmdProtocolConfig::for_space(&space, n, k);
            let proto = EmdProtocol::new(space, cfg, seed ^ 0x5e55);

            let mem = proto.run(&w.alice, &w.bob);
            let (alice_side, bob_side) = over_loopback(
                |mut ch| {
                    let mut a = proto.alice_session(&w.alice);
                    drive_channel(&mut ch, Party::Alice, &mut a)
                },
                |mut ch| {
                    let mut b = proto.bob_session(&w.bob);
                    let t = drive_channel(&mut ch, Party::Bob, &mut b);
                    (t, b.into_outcome(), ch.sent().bits, ch.received().bits)
                },
            );
            let (bob_transcript, bob_outcome, bob_sent_bits, bob_received_bits) = bob_side;

            match (mem, bob_transcript) {
                (Ok(mem_out), Ok(t_bob)) => {
                    let net_out = bob_outcome.expect("bob finished");
                    assert_eq!(mem_out.reconciled, net_out.reconciled, "n={n} seed={seed}");
                    assert_eq!(mem_out.i_star, net_out.i_star, "n={n} seed={seed}");
                    assert_eq!(mem_out.decoded, net_out.decoded, "n={n} seed={seed}");
                    // Transcripts are entry-for-entry identical on every
                    // endpoint: the in-memory run, Alice's side, Bob's side.
                    let t_alice = alice_side.expect("alice finished");
                    assert_eq!(entries(&mem_out.transcript), entries(&t_bob));
                    assert_eq!(entries(&mem_out.transcript), entries(&t_alice));
                    // Channel counters agree with the transcripts, crosswise.
                    assert_eq!(bob_sent_bits, 0, "one-way protocol");
                    assert_eq!(bob_received_bits, t_bob.total_bits());
                }
                (Err(_), Err(_)) => {} // both paths reject the instance
                (mem, net) => panic!(
                    "paths disagree on success for n={n} seed={seed}: \
                     in-memory {} tcp {}",
                    mem.is_ok(),
                    net.is_ok()
                ),
            }
        }
    }
}

#[test]
fn scaled_emd_over_tcp_matches_in_memory_over_seed_matrix() {
    for &(n, k) in &[(30usize, 2usize), (50, 3)] {
        let space = MetricSpace::l2(256, 2);
        for &seed in &SEEDS {
            let w = planted_emd(space, n, k, 1, seed);
            let proto = ScaledEmdProtocol::new(space, n, k, seed ^ 0xa1a1);

            let mem = proto.run(&w.alice, &w.bob);
            let (alice_side, bob_side) = over_loopback(
                |mut ch| {
                    let mut a = proto.alice_session(&w.alice);
                    drive_channel(&mut ch, Party::Alice, &mut a)
                },
                |mut ch| {
                    let mut b = proto.bob_session(&w.bob);
                    let t = drive_channel(&mut ch, Party::Bob, &mut b);
                    (t, b.into_outcome())
                },
            );
            let (bob_transcript, bob_outcome) = bob_side;

            match (mem, bob_transcript) {
                (Ok(mem_out), Ok(t_bob)) => {
                    let net_out = bob_outcome.expect("bob finished");
                    assert_eq!(
                        mem_out.inner.reconciled, net_out.inner.reconciled,
                        "n={n} seed={seed}"
                    );
                    assert_eq!(mem_out.interval, net_out.interval, "n={n} seed={seed}");
                    // All I interval frames arrive in one round on every
                    // endpoint, exactly as in memory.
                    let t_alice = alice_side.expect("alice finished");
                    assert_eq!(entries(&mem_out.transcript), entries(&t_bob));
                    assert_eq!(entries(&mem_out.transcript), entries(&t_alice));
                    assert_eq!(t_bob.num_messages(), proto.num_intervals());
                    assert_eq!(t_bob.num_rounds(), 1);
                    assert_eq!(mem_out.total_bits, t_bob.total_bits());
                }
                (Err(_), Err(_)) => {}
                _ => panic!("paths disagree on success for n={n} seed={seed}"),
            }
        }
    }
}

#[test]
fn gap_over_tcp_matches_in_memory_over_seed_matrix() {
    for &(n, k, dim) in &[(40usize, 2usize, 128usize), (60, 3, 128)] {
        let space = MetricSpace::hamming(dim);
        let (r1, r2) = (2.0, 44.0);
        let fam = BitSamplingFamily::new(dim, dim as f64);
        let params = LshParams::new(r1, r2, 1.0 - r1 / dim as f64, 1.0 - r2 / dim as f64);
        for &seed in &SEEDS {
            let w = sensor_pairs(space, n, k, r1, r2, seed);
            let cfg = GapConfig::for_params(params, n, k);
            let proto = GapProtocol::new(space, &fam, cfg, seed ^ 0x6a6a);

            let mem = proto.run(&w.alice, &w.bob);
            let (alice_side, bob_side) = over_loopback(
                |mut ch| {
                    let mut a = proto.alice_session(&w.alice);
                    let t = drive_channel(&mut ch, Party::Alice, &mut a);
                    (t, a.into_transmitted())
                },
                |mut ch| {
                    let mut b = proto.bob_session(&w.bob);
                    let t = drive_channel(&mut ch, Party::Bob, &mut b);
                    (t, b.into_reconciled())
                },
            );
            let (alice_transcript, transmitted) = alice_side;
            let (bob_transcript, reconciled) = bob_side;

            match (mem, alice_transcript, bob_transcript) {
                (Ok(mem_out), Ok(t_alice), Ok(t_bob)) => {
                    // The Gap outcome is split across the two endpoints:
                    // Bob holds the reconciled set, Alice the far points.
                    assert_eq!(
                        mem_out.reconciled,
                        reconciled.expect("bob finished"),
                        "n={n} seed={seed}"
                    );
                    let (transmitted, far_keys) = transmitted.expect("alice finished");
                    assert_eq!(mem_out.transmitted, transmitted, "n={n} seed={seed}");
                    assert_eq!(mem_out.far_keys, far_keys, "n={n} seed={seed}");
                    assert_eq!(entries(&mem_out.transcript), entries(&t_alice));
                    assert_eq!(entries(&mem_out.transcript), entries(&t_bob));
                    assert_eq!(t_alice.num_rounds(), 4);
                    assert_eq!(t_alice.num_messages(), 4);
                }
                (Err(_), Ok(_), Ok(_)) => {
                    panic!(
                        "in-memory failed but both tcp endpoints succeeded for n={n} seed={seed}"
                    )
                }
                (Err(_), _, _) => {} // rare sizing failure: either side may
                // observe it first across the socket
                _ => panic!("paths disagree on success for n={n} seed={seed}"),
            }
        }
    }
}

#[test]
fn spec_negotiated_multi_connection_batches_match_in_memory() {
    // Two connections into ONE server reactor, with the server holding
    // no pre-agreed trace at all: every OPEN carries the wire spec and
    // the server rebuilds the instance from it. Client-side transcripts
    // must still match the in-memory reference bit-for-bit, and the
    // same live connections must carry a second batch round.
    let entries_list = sample_trace(8, 0xd00d);
    let instances: Vec<Instance> = entries_list.iter().map(Instance::build).collect();
    let baseline: Vec<Result<u64, String>> =
        instances.iter().map(Instance::run_in_memory).collect();

    let server = ReconServer::bind("127.0.0.1:0", Arc::new(InstanceFactory::spec_only()))
        .expect("bind")
        .with_shards(4);
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.serve(Some(2)));
    let mut client = Driver::new(addr)
        .conns(2)
        .shards(4)
        .connect()
        .expect("connect");

    for round in 0..2u64 {
        let batches: Vec<Vec<SessionPlan<'_>>> = (0..2)
            .map(|conn| {
                instances
                    .iter()
                    .zip(&entries_list)
                    .enumerate()
                    .filter(|(i, _)| i % 2 == conn)
                    .map(|(i, (inst, entry))| {
                        SessionPlan::new(round * 100 + i as u64, inst.alice_session())
                            .with_spec(spec_of(entry))
                    })
                    .collect()
            })
            .collect();
        let reports = client.batch(batches).expect("round runs").conns;
        assert_eq!(reports.len(), 2);
        for (conn, report) in reports.iter().enumerate() {
            assert!(report.transport_error.is_none());
            for s in &report.sessions {
                let i = (s.id % 100) as usize;
                match &baseline[i] {
                    Ok(bits) => {
                        assert!(
                            s.is_ok(),
                            "round {round} conn {conn} session {i}: {:?}",
                            s.error
                        );
                        assert_eq!(
                            *bits,
                            s.transcript.total_bits(),
                            "round {round} conn {conn} session {i} bits"
                        );
                    }
                    Err(_) => assert!(
                        !s.is_ok(),
                        "round {round} conn {conn} session {i} should fail over tcp too"
                    ),
                }
            }
        }
    }
    client.finish();
    server_thread
        .join()
        .expect("server thread")
        .expect("both connections served");
}

#[test]
fn multiplexed_batch_matches_in_memory() {
    // A smaller mixed batch through the ReconServer/Driver mux
    // (exp_net drives ≥ 64); both endpoints' transcripts must match the
    // in-memory totals session by session. Both endpoints run the
    // sharded executor at an explicit width — more shards than this
    // box may have cores — so session→shard fan-out is exercised even
    // on single-core CI runners.
    let entries_list = sample_trace(12, 0x5eed);
    let factory = Arc::new(InstanceFactory::from_trace(&entries_list));
    let baseline: Vec<Result<u64, String>> = factory
        .instances
        .iter()
        .map(Instance::run_in_memory)
        .collect();

    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory))
        .expect("bind")
        .with_shards(4);
    let addr = server.local_addr().expect("addr");
    let server_thread = std::thread::spawn(move || server.serve_one());
    let sessions = factory
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| SessionPlan::new(i as u64, inst.alice_session()))
        .collect();
    let mut report = Driver::new(addr)
        .shards(4)
        .idle_timeout(Some(std::time::Duration::from_secs(60)))
        .batch(vec![sessions])
        .expect("batch");
    let batch = report.conns.pop().expect("one connection");
    assert!(
        batch.transport_error.is_none(),
        "{:?}",
        batch.transport_error
    );
    let conn = server_thread.join().expect("thread").expect("served");

    assert_eq!(batch.sessions.len(), baseline.len());
    assert_eq!(conn.sessions.len(), baseline.len());
    for (i, mem) in baseline.iter().enumerate() {
        let net = &batch.sessions[i];
        let srv = conn
            .sessions
            .iter()
            .find(|s| s.id == i as u64)
            .expect("server saw the session");
        match mem {
            Ok(bits) => {
                assert!(net.is_ok(), "session {i}: {:?}", net.error);
                assert!(srv.error.is_none(), "session {i}: {:?}", srv.error);
                assert_eq!(*bits, net.transcript.total_bits(), "session {i}");
                assert_eq!(entries(&net.transcript), entries(&srv.transcript));
            }
            Err(_) => assert!(!net.is_ok(), "session {i} should fail over tcp too"),
        }
    }
}
