//! Disconnect chaos: peers vanishing mid-OPEN, mid-FRAME, and after
//! DONE. Every case must resolve to a typed error or a clean report —
//! never a panic, never a hang — and a killed connection must not
//! perturb its siblings: surviving sessions settle with transcripts
//! bit-for-bit identical to the serial in-memory reference.

use rsr_core::channel::Frame;
use rsr_core::session::{drive_in_memory, Session};
use rsr_core::transcript::{Party, Transcript};
use rsr_net::{
    read_record, write_record, Driver, NetError, NetSession, ReconServer, Record, SessionFactory,
    SessionPlan, STATUS_OK,
};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ------------------------------------------------------------ echo pair

/// `rounds` ping/pong exchanges with payloads derived from the session
/// id, so every session's transcript is distinguishable on the wire.
fn ping(id: u64, round: u8) -> Frame {
    Frame {
        label: format!("ping{round}").into(),
        payload: vec![id as u8, round, 0xA5],
        bit_len: 24,
    }
}

fn pong(id: u64, round: u8) -> Frame {
    Frame {
        label: format!("pong{round}").into(),
        payload: vec![id as u8, round, 0x5A],
        bit_len: 24,
    }
}

struct EchoAlice {
    id: u64,
    rounds: u8,
    sent: u8,
    acked: u8,
}

fn alice(id: u64, rounds: u8) -> EchoAlice {
    EchoAlice {
        id,
        rounds,
        sent: 0,
        acked: 0,
    }
}

impl Session for EchoAlice {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        if self.sent == self.acked && self.sent < self.rounds {
            let round = self.sent;
            self.sent += 1;
            return Ok(Some(ping(self.id, round)));
        }
        Ok(None)
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        let want = pong(self.id, self.acked);
        if frame.label != want.label || frame.payload != want.payload {
            return Err(format!("bad echo in round {}", self.acked));
        }
        self.acked += 1;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.acked == self.rounds
    }
}

struct EchoBob {
    id: u64,
    rounds: u8,
    seen: u8,
    queued: Option<Frame>,
}

fn bob(id: u64, rounds: u8) -> EchoBob {
    EchoBob {
        id,
        rounds,
        seen: 0,
        queued: None,
    }
}

impl Session for EchoBob {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(self.queued.take())
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        let want = ping(self.id, self.seen);
        if frame.label != want.label || frame.payload != want.payload {
            return Err(format!("bad ping in round {}", self.seen));
        }
        self.queued = Some(pong(self.id, self.seen));
        self.seen += 1;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.seen == self.rounds && self.queued.is_none()
    }
}

struct EchoFactory {
    rounds: u8,
}

impl SessionFactory for EchoFactory {
    fn open_spec(
        &self,
        session_id: u64,
        _spec: Option<&rsr_net::SessionSpec>,
    ) -> Option<Box<dyn NetSession + '_>> {
        Some(Box::new(bob(session_id, self.rounds)))
    }
}

/// `(sender, label, bits)` triples — the full observable transcript.
fn entries(t: &Transcript) -> Vec<(Option<Party>, String, u64)> {
    t.entries_with_sender()
        .map(|(s, l, b)| (s, l.to_owned(), b))
        .collect()
}

/// The serial in-memory reference transcript for one echo session.
fn reference_transcript(id: u64, rounds: u8) -> Transcript {
    let mut a = alice(id, rounds);
    let mut b = bob(id, rounds);
    drive_in_memory(Party::Alice, &mut a, &mut b).expect("reference run completes")
}

fn encoded(record: &Record) -> Vec<u8> {
    let mut buf = Vec::new();
    write_record(&mut buf, record).expect("encodes");
    buf
}

// -------------------------------------------------- server-side chaos

#[test]
fn disconnect_mid_open_is_a_typed_error_not_a_panic() {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(EchoFactory { rounds: 1 })).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_one());

    let mut stream = TcpStream::connect(addr).unwrap();
    let open = encoded(&Record::Open {
        session: 0,
        spec: None,
    });
    stream.write_all(&open[..open.len() - 3]).unwrap();
    drop(stream);

    let outcome = handle.join().expect("server must not panic");
    assert!(
        matches!(outcome, Err(NetError::Malformed("truncated record body"))),
        "expected truncation, got {outcome:?}"
    );
}

#[test]
fn disconnect_mid_frame_tears_the_session_down_without_hanging() {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(EchoFactory { rounds: 3 })).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_one());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut bytes = encoded(&Record::Open {
        session: 9,
        spec: None,
    });
    let frame_bytes = encoded(&Record::Frame {
        session: 9,
        frame: ping(9, 0),
    });
    bytes.extend(&frame_bytes[..frame_bytes.len() - 2]);
    stream.write_all(&bytes).unwrap();
    drop(stream);

    // The join returning at all is the regression being tested: the
    // opened session's local half must be closed out so the executor
    // drains and the reactor exits, instead of waiting forever for a
    // frame that will never come.
    let outcome = handle.join().expect("server must not panic");
    assert!(
        matches!(outcome, Err(NetError::Malformed("truncated record body"))),
        "expected truncation, got {outcome:?}"
    );
}

#[test]
fn abrupt_drop_after_done_leaves_a_clean_report() {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(EchoFactory { rounds: 1 })).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve_one());

    // A raw client that completes one session and then just drops the
    // socket — no DONE record of its own, no shutdown handshake.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&encoded(&Record::Open {
            session: 7,
            spec: None,
        }))
        .unwrap();
    stream
        .write_all(&encoded(&Record::Frame {
            session: 7,
            frame: ping(7, 0),
        }))
        .unwrap();
    let mut done = false;
    while !done {
        let (record, _) = read_record(&mut stream)
            .expect("server reply decodes")
            .expect("server must not close first");
        match record {
            Record::Frame { session, frame } => {
                assert_eq!(session, 7);
                assert_eq!(frame.label, "pong0");
            }
            Record::Done {
                session, status, ..
            } => {
                assert_eq!(session, 7);
                assert_eq!(status, STATUS_OK);
                done = true;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    drop(stream);

    let report = handle
        .join()
        .expect("server must not panic")
        .expect("EOF after DONE is a clean close");
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].id, 7);
    assert!(report.sessions[0].error.is_none());
    assert_eq!(
        entries(&report.sessions[0].transcript),
        entries(&reference_transcript(7, 1)),
    );
}

#[test]
fn a_silent_client_is_torn_down_at_the_idle_deadline() {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(EchoFactory { rounds: 1 }))
        .unwrap()
        .with_idle_timeout(Some(Duration::from_millis(250)));
    let addr = server.local_addr().unwrap();
    let started = Instant::now();
    let handle = std::thread::spawn(move || server.serve_one());

    // Connect and say nothing. The server must not wait on us forever.
    let stream = TcpStream::connect(addr).unwrap();
    let outcome = handle.join().expect("server must not panic");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "idle teardown took {:?}",
        started.elapsed()
    );
    match outcome {
        Err(NetError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
            assert!(e.to_string().contains("idle"), "unexpected message: {e}");
        }
        other => panic!("expected an idle timeout, got {other:?}"),
    }
    drop(stream);
}

// -------------------------------------------------- client-side chaos

#[test]
fn server_truncation_mid_frame_is_a_typed_client_error_not_a_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Consume OPEN and the first ping, then die mid-pong.
        for _ in 0..2 {
            read_record(&mut stream).unwrap().expect("a record");
        }
        let reply = encoded(&Record::Frame {
            session: 0,
            frame: pong(0, 0),
        });
        stream.write_all(&reply[..reply.len() - 2]).unwrap();
    });

    let report = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(30)))
        .batch(vec![vec![SessionPlan::new(0, Box::new(alice(0, 2)))]])
        .expect("a truncated reply fails the connection, not the call");
    assert!(
        matches!(
            report.transport_error(),
            Some(NetError::Malformed("truncated record body"))
        ),
        "expected truncation, got {:?}",
        report.transport_error()
    );
    let session = &report.conns[0].sessions[0];
    assert!(
        session
            .error
            .as_deref()
            .unwrap()
            .contains("connection failed before session settled"),
        "unexpected error: {:?}",
        session.error
    );
    server.join().unwrap();
}

#[test]
fn server_vanishing_cleanly_fails_the_sessions_not_the_process() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Read everything the client says (OPEN + ping for each of the
        // two sessions), answer nothing, and hang up at a record
        // boundary. Draining first keeps the close a clean FIN — bytes
        // left unread would turn it into an RST, which is the *other*
        // test's failure mode.
        for _ in 0..4 {
            read_record(&mut stream).unwrap().expect("a record");
        }
    });

    let batch = (0u64..2)
        .map(|id| SessionPlan::new(id, Box::new(alice(id, 1))))
        .collect();
    let report = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(30)))
        .batch(vec![batch])
        .expect("batch runs");
    server.join().unwrap();
    assert!(
        report.transport_error().is_none(),
        "a clean close is not a transport failure: {:?}",
        report.transport_error()
    );
    assert_eq!(report.failed(), 2);
    for s in report.sessions() {
        assert!(
            s.error
                .as_deref()
                .unwrap()
                .contains("connection closed before session settled"),
            "unexpected error: {:?}",
            s.error
        );
    }
}

#[test]
fn a_silent_server_trips_the_clients_idle_deadline() {
    // The mirror of `a_silent_client_is_torn_down_at_the_idle_deadline`:
    // the server accepts, reads everything, and never answers — the
    // socket stays open, so only the client's own idle deadline (the
    // `Driver` builder knob, symmetric with the server's
    // `with_idle_timeout`) can end the wait.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // OPEN + the first ping, then silence with the socket held open.
        for _ in 0..2 {
            read_record(&mut stream).unwrap().expect("a record");
        }
        stream
    });

    let started = Instant::now();
    let report = Driver::new(addr)
        .idle_timeout(Some(Duration::from_millis(250)))
        .batch(vec![vec![SessionPlan::new(0, Box::new(alice(0, 1)))]])
        .expect("an idle connection is a per-connection outcome, not a batch error");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "idle teardown took {:?}",
        started.elapsed()
    );
    let conn = &report.conns[0];
    match &conn.transport_error {
        Some(NetError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
            assert!(
                e.to_string().contains("no wire activity"),
                "unexpected message: {e}"
            );
        }
        other => panic!("expected a client-side idle timeout, got {other:?}"),
    }
    assert_eq!(conn.failed(), 1);
    assert!(
        conn.sessions[0]
            .error
            .as_deref()
            .unwrap()
            .contains("before session settled"),
        "unexpected error: {:?}",
        conn.sessions[0].error
    );
    drop(server.join().unwrap());
}

// --------------------------------------------- cross-connection chaos

/// Splices two sockets together, one copier thread per direction, until
/// each direction has seen EOF (which it passes on as a half-close): a
/// network path the test can put in front of a server — and cut.
fn splice(a: TcpStream, b: TcpStream) -> [std::thread::JoinHandle<()>; 2] {
    [(a.try_clone().unwrap(), b.try_clone().unwrap()), (b, a)].map(|(mut from, mut to)| {
        std::thread::spawn(move || {
            let _ = std::io::copy(&mut from, &mut to);
            let _ = to.shutdown(Shutdown::Write);
        })
    })
}

#[test]
fn a_killed_connection_does_not_poison_its_siblings() {
    const ROUNDS: u8 = 3;
    let recon = ReconServer::bind("127.0.0.1:0", Arc::new(EchoFactory { rounds: ROUNDS })).unwrap();
    let upstream = recon.local_addr().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // The first connection is passed through to the server and
        // served faithfully; the second is dropped on the floor the
        // moment it is accepted.
        let healthy = std::thread::spawn(move || recon.serve_one());
        let (first, _) = listener.accept().unwrap();
        let path = splice(first, TcpStream::connect(upstream).unwrap());
        let (doomed, _) = listener.accept().unwrap();
        drop(doomed);
        let report = healthy.join().expect("server conn must not panic");
        for copier in path {
            copier.join().expect("copier");
        }
        report
    });

    let mut client = Driver::new(addr).conns(2).connect().unwrap();
    let batches: Vec<Vec<SessionPlan<'_>>> = vec![
        (0u64..4)
            .map(|id| SessionPlan::new(id, Box::new(alice(id, ROUNDS))))
            .collect(),
        (10u64..14)
            .map(|id| SessionPlan::new(id, Box::new(alice(id, ROUNDS))))
            .collect(),
    ];
    let reports = client.batch(batches).expect("round runs").conns;
    assert_eq!(reports.len(), 2);

    // The surviving connection: every session settled, bit-for-bit.
    assert!(reports[0].transport_error.is_none());
    assert_eq!(reports[0].completed(), 4);
    for s in &reports[0].sessions {
        assert!(s.is_ok(), "session {}: {:?}", s.id, s.error);
        assert_eq!(
            entries(&s.transcript),
            entries(&reference_transcript(s.id, ROUNDS)),
            "session {} transcript drifted from the serial reference",
            s.id
        );
    }

    // The killed connection: every session failed, with a per-session
    // error — no panic, no poisoned sibling, no global abort.
    assert_eq!(reports[1].failed(), 4);
    for s in &reports[1].sessions {
        assert!(
            s.error
                .as_deref()
                .unwrap()
                .contains("before session settled"),
            "unexpected error: {:?}",
            s.error
        );
    }
    assert_eq!(client.live_conns(), 1);

    client.finish();
    let conn = server.join().unwrap().expect("healthy conn report");
    assert_eq!(conn.sessions.len(), 4);
    for s in &conn.sessions {
        assert!(s.error.is_none(), "session {}: {:?}", s.id, s.error);
        assert_eq!(
            entries(&s.transcript),
            entries(&reference_transcript(s.id, ROUNDS)),
            "server transcript for session {} drifted",
            s.id
        );
    }
}

#[test]
fn live_connections_carry_successive_batches() {
    const ROUNDS: u8 = 2;
    let recon = Arc::new(
        ReconServer::bind("127.0.0.1:0", Arc::new(EchoFactory { rounds: ROUNDS })).unwrap(),
    );
    let addr = recon.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // Two reactors on one listener, one connection each, so each
        // connection's report comes back.
        let conns: Vec<_> = (0..2)
            .map(|_| {
                let recon = Arc::clone(&recon);
                std::thread::spawn(move || recon.serve_one())
            })
            .collect();
        conns
            .into_iter()
            .map(|h| h.join().expect("server conn must not panic"))
            .collect::<Vec<_>>()
    });

    let mut client = Driver::new(addr).conns(2).connect().unwrap();
    // Two rounds of batches over the same pair of live connections;
    // session ids must be fresh per connection across rounds.
    for base in [0u64, 100] {
        let batches: Vec<Vec<SessionPlan<'_>>> = (0..2)
            .map(|conn| {
                (0..3)
                    .map(|i| {
                        let id = base + conn * 10 + i;
                        SessionPlan::new(id, Box::new(alice(id, ROUNDS)))
                    })
                    .collect()
            })
            .collect();
        let reports = client.batch(batches).expect("round runs").conns;
        for report in &reports {
            assert!(report.transport_error.is_none());
            assert_eq!(report.completed(), 3);
            for s in &report.sessions {
                assert_eq!(
                    entries(&s.transcript),
                    entries(&reference_transcript(s.id, ROUNDS)),
                    "session {} transcript drifted from the serial reference",
                    s.id
                );
            }
        }
    }
    assert_eq!(client.live_conns(), 2);
    client.finish();

    for conn in server.join().unwrap() {
        let conn = conn.expect("clean connection report");
        assert_eq!(conn.sessions.len(), 6, "both rounds on one connection");
        assert!(conn.sessions.iter().all(|s| s.error.is_none()));
    }
}
