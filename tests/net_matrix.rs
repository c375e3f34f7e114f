//! TCP-loopback equivalence: all three protocols driven across a real
//! socket — Alice through a `Driver`, Bob inside
//! `ReconServer::serve_one` — must produce outcomes and measured
//! transcripts, on **both** endpoints, bit-for-bit identical to the
//! in-memory `run()` path, over a grid of seeds × instance sizes: the
//! transport may not perturb the protocol in any observable way. Two
//! final tests check multiplexed batches agree too.

use robust_set_recon::core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use robust_set_recon::core::gap_protocol::{GapConfig, GapProtocol};
use robust_set_recon::core::{Frame, Party, ScaledEmdProtocol, Session, Transcript};
use robust_set_recon::hash::lsh::LshParams;
use robust_set_recon::hash::BitSamplingFamily;
use robust_set_recon::metric::MetricSpace;
use robust_set_recon::net::{
    ConnectionReport, Driver, NetSession, ReconServer, RunSession, SessionFactory, SessionPlan,
    SessionSpec,
};
use robust_set_recon::workloads::{planted_emd, sample_trace, sensor_pairs};
use rsr_bench::experiments::net::{spec_of, Instance, InstanceFactory};
use std::fmt::Display;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEEDS: [u64; 5] = [11, 222, 3333, 44_444, 555_555];

/// Runs `inner` and, when the executor driving it lets go of it, parks
/// it in `slot`: an endpoint owns its sessions while they run, and these
/// tests want each one's outcome afterwards.
struct Parked<'a, S> {
    inner: Option<S>,
    slot: &'a Mutex<Option<S>>,
}

impl<S> Parked<'_, S> {
    fn session(&mut self) -> &mut S {
        self.inner.as_mut().expect("parked only on drop")
    }
}

impl<S: Session> Session for Parked<'_, S> {
    type Error = S::Error;

    fn poll_send(&mut self) -> Result<Option<Frame>, S::Error> {
        self.session().poll_send()
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), S::Error> {
        self.session().on_frame(frame)
    }

    fn is_done(&self) -> bool {
        self.inner.as_ref().is_some_and(S::is_done)
    }
}

impl<S> Drop for Parked<'_, S> {
    fn drop(&mut self) {
        *self.slot.lock().unwrap() = self.inner.take();
    }
}

/// Serves exactly one Bob half — under whatever id asks first — and
/// keeps it once it has run.
struct OneBob<B> {
    fresh: Mutex<Option<B>>,
    finished: Mutex<Option<B>>,
}

impl<B> SessionFactory for OneBob<B>
where
    B: Session + Send,
    B::Error: Display,
{
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        let bob = self.fresh.lock().unwrap().take()?;
        Some(Box::new(Parked {
            inner: Some(bob),
            slot: &self.finished,
        }))
    }
}

/// What one session pair left behind on each endpoint.
struct Crossed<A, B> {
    alice: A,
    client: RunSession,
    bob: B,
    server: ConnectionReport,
}

/// Runs `alice` against `bob` over a fresh loopback connection: `alice`
/// as session 0 of a one-connection `Driver` batch, `bob` as the session
/// a `ReconServer` opens for it, each endpoint on its own reactor and
/// executor.
fn over_loopback<A, B>(alice: A, bob: B) -> Crossed<A, B>
where
    A: Session + Send,
    A::Error: Display,
    B: Session + Send,
    B::Error: Display,
{
    let factory = Arc::new(OneBob {
        fresh: Mutex::new(Some(bob)),
        finished: Mutex::new(None),
    });
    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory)).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let alice_slot = Mutex::new(None);
    let (mut client, served) = std::thread::scope(|s| {
        let bob_side = s.spawn(|| server.serve_one());
        let plan = SessionPlan::new(
            0,
            Box::new(Parked {
                inner: Some(alice),
                slot: &alice_slot,
            }),
        );
        let client = Driver::new(addr)
            .idle_timeout(Some(Duration::from_secs(60)))
            .batch(vec![vec![plan]])
            .expect("batch runs");
        (client, bob_side.join().expect("server thread"))
    });
    assert!(
        client.transport_error().is_none(),
        "{:?}",
        client.transport_error()
    );
    let server = served.expect("connection served");
    assert_eq!(server.sessions.len(), 1);
    let mut client = client.conns.pop().expect("one connection");
    let bob = factory.finished.lock().unwrap().take().expect("bob ran");
    Crossed {
        alice: alice_slot.into_inner().unwrap().expect("alice ran"),
        client: client.sessions.pop().expect("one session"),
        bob,
        server,
    }
}

/// `(sender, label, bits)` triples — the full observable transcript.
fn entries(t: &Transcript) -> Vec<(Option<Party>, String, u64)> {
    t.entries_with_sender()
        .map(|(s, l, b)| (s, l.to_owned(), b))
        .collect()
}

#[test]
fn emd_over_tcp_matches_in_memory_over_seed_matrix() {
    let mut compared = 0;
    for &(n, k, dim) in &[(30usize, 2usize, 24usize), (60, 3, 32)] {
        let space = MetricSpace::hamming(dim);
        for &seed in &SEEDS {
            let w = planted_emd(space, n, k, 1, seed);
            let cfg = EmdProtocolConfig::for_space(&space, n, k);
            let proto = EmdProtocol::new(space, cfg, seed ^ 0x5e55);

            let mem = proto.run(&w.alice, &w.bob);
            let net = over_loopback(proto.alice_session(&w.alice), proto.bob_session(&w.bob));
            let t_bob = &net.server.sessions[0];

            match (mem, &t_bob.error) {
                (Ok(mem_out), None) => {
                    compared += 1;
                    let net_out = net.bob.into_outcome().expect("bob finished");
                    assert_eq!(mem_out.reconciled, net_out.reconciled, "n={n} seed={seed}");
                    assert_eq!(mem_out.i_star, net_out.i_star, "n={n} seed={seed}");
                    assert_eq!(mem_out.decoded, net_out.decoded, "n={n} seed={seed}");
                    // Transcripts are entry-for-entry identical on every
                    // endpoint: the in-memory run, Alice's side, Bob's side.
                    assert!(net.client.is_ok(), "alice: {:?}", net.client.error);
                    let mem_entries = entries(&mem_out.transcript);
                    assert_eq!(mem_entries, entries(&t_bob.transcript));
                    assert_eq!(mem_entries, entries(&net.client.transcript));
                    // The connection's counters agree with the transcripts.
                    assert_eq!(net.server.frames_out, 0, "one-way protocol");
                    assert_eq!(net.server.frames_in, t_bob.transcript.num_messages());
                    assert_eq!(net.server.payload_bits(), t_bob.transcript.total_bits());
                }
                (Err(_), Some(_)) => {} // both paths reject the instance
                (mem, net) => panic!(
                    "paths disagree on success for n={n} seed={seed}: \
                     in-memory {} tcp {}",
                    mem.is_ok(),
                    net.is_none()
                ),
            }
        }
    }
    assert!(compared > 0, "no instance reconciled: nothing was compared");
}

#[test]
fn scaled_emd_over_tcp_matches_in_memory_over_seed_matrix() {
    let mut compared = 0;
    for &(n, k) in &[(30usize, 2usize), (50, 3)] {
        let space = MetricSpace::l2(256, 2);
        for &seed in &SEEDS {
            let w = planted_emd(space, n, k, 1, seed);
            let proto = ScaledEmdProtocol::new(space, n, k, seed ^ 0xa1a1);

            let mem = proto.run(&w.alice, &w.bob);
            let net = over_loopback(proto.alice_session(&w.alice), proto.bob_session(&w.bob));
            let t_bob = &net.server.sessions[0];

            match (mem, &t_bob.error) {
                (Ok(mem_out), None) => {
                    compared += 1;
                    let net_out = net.bob.into_outcome().expect("bob finished");
                    assert_eq!(
                        mem_out.inner.reconciled, net_out.inner.reconciled,
                        "n={n} seed={seed}"
                    );
                    assert_eq!(mem_out.interval, net_out.interval, "n={n} seed={seed}");
                    // All I interval frames arrive in one round on every
                    // endpoint, exactly as in memory.
                    assert!(net.client.is_ok(), "alice: {:?}", net.client.error);
                    let mem_entries = entries(&mem_out.transcript);
                    assert_eq!(mem_entries, entries(&t_bob.transcript));
                    assert_eq!(mem_entries, entries(&net.client.transcript));
                    assert_eq!(t_bob.transcript.num_messages(), proto.num_intervals());
                    assert_eq!(t_bob.transcript.num_rounds(), 1);
                    assert_eq!(mem_out.total_bits, t_bob.transcript.total_bits());
                }
                (Err(_), Some(_)) => {}
                _ => panic!("paths disagree on success for n={n} seed={seed}"),
            }
        }
    }
    assert!(compared > 0, "no instance reconciled: nothing was compared");
}

#[test]
fn gap_over_tcp_matches_in_memory_over_seed_matrix() {
    let mut compared = 0;
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
            let net = over_loopback(proto.alice_session(&w.alice), proto.bob_session(&w.bob));
            let t_bob = &net.server.sessions[0];

            match (mem, &net.client.error, &t_bob.error) {
                (Ok(mem_out), None, None) => {
                    // The Gap outcome is split across the two endpoints:
                    // Bob holds the reconciled set, Alice the far points.
                    compared += 1;
                    assert_eq!(
                        mem_out.reconciled,
                        net.bob.into_reconciled().expect("bob finished"),
                        "n={n} seed={seed}"
                    );
                    let (transmitted, far_keys) =
                        net.alice.into_transmitted().expect("alice finished");
                    assert_eq!(mem_out.transmitted, transmitted, "n={n} seed={seed}");
                    assert_eq!(mem_out.far_keys, far_keys, "n={n} seed={seed}");
                    let mem_entries = entries(&mem_out.transcript);
                    assert_eq!(mem_entries, entries(&net.client.transcript));
                    assert_eq!(mem_entries, entries(&t_bob.transcript));
                    assert_eq!(net.client.transcript.num_rounds(), 4);
                    assert_eq!(net.client.transcript.num_messages(), 4);
                }
                (Err(_), None, None) => {
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
    assert!(compared > 0, "no instance reconciled: nothing was compared");
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
    // (`rsr-exp net` drives ≥ 64); both endpoints' transcripts must match the
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
