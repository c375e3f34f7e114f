//! Malformed-stream behaviour: a broken, truncated, oversized, or
//! out-of-contract byte stream must fail *cleanly* — a typed error or an
//! error `DONE` status, never a panic, hang, or huge allocation. The
//! same holds for an out-of-contract *call*: a batch the driver refuses
//! has sent nothing and changed nothing.

use proptest::prelude::*;
use rsr_core::channel::Frame;
use rsr_core::continuous::{
    shared, AliceRound, ContinuousConfig, ContinuousParty, ContinuousSession, SharedParty,
};
use rsr_core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use rsr_core::gap_protocol::{GapConfig, GapProtocol};
use rsr_core::session::Session;
use rsr_hash::lsh::LshParams;
use rsr_hash::BitSamplingFamily;
use rsr_iblt::bits::BitWriter;
use rsr_iblt::riblt::RibltConfig;
use rsr_iblt::wire::{put_i128, put_i64, put_len, CellWidths};
use rsr_iblt::CellLayout;
use rsr_metric::{MetricSpace, Point};
use rsr_net::{
    read_record, write_record, ConnectionReport, Driver, NetError, NetSession, ReconServer, Record,
    SessionFactory, SessionPlan, SessionSpec, MAX_RECORD_BYTES, PROTO_CONT, STATUS_OK,
    STATUS_SESSION_ERROR, STATUS_UNKNOWN_SESSION,
};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn encoded(record: &Record) -> Vec<u8> {
    let mut buf = Vec::new();
    write_record(&mut buf, record).expect("encodes");
    buf
}

fn open_record(session: u64) -> Vec<u8> {
    encoded(&Record::Open {
        session,
        spec: None,
    })
}

// ---------------------------------------------------------------- codec

#[test]
fn truncated_length_prefix_is_malformed() {
    // 2 of the 4 length-prefix bytes, then EOF.
    let mut bytes: &[u8] = &open_record(1)[..2];
    assert!(matches!(
        read_record(&mut bytes),
        Err(NetError::Malformed("truncated length prefix"))
    ));
}

#[test]
fn truncated_body_is_malformed() {
    let full = open_record(1);
    let mut bytes: &[u8] = &full[..full.len() - 3];
    assert!(matches!(
        read_record(&mut bytes),
        Err(NetError::Malformed("truncated record body"))
    ));
}

#[test]
fn oversized_length_prefix_fails_before_allocating() {
    // Claims a body just past the cap; only the 4 prefix bytes exist, so
    // an implementation that allocated/read first would error differently
    // (or OOM on u32::MAX) instead of rejecting by policy.
    for claimed in [MAX_RECORD_BYTES + 1, u32::MAX] {
        let mut bytes: &[u8] = &claimed.to_be_bytes();
        match read_record(&mut bytes) {
            Err(NetError::Oversized { claimed: got }) => assert_eq!(got, claimed),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}

#[test]
fn record_shorter_than_its_header_is_malformed() {
    let mut bytes: &[u8] = &3u32.to_be_bytes();
    assert!(matches!(
        read_record(&mut bytes),
        Err(NetError::Malformed(_))
    ));
}

#[test]
fn unknown_record_kind_is_rejected() {
    // OPEN, FRAME and DONE are the whole grammar.
    for kind in [3, 0x7F] {
        let mut bytes = open_record(1);
        bytes[4] = kind; // corrupt the kind byte
        let mut r: &[u8] = &bytes;
        match read_record(&mut r) {
            Err(NetError::UnknownKind(got)) => assert_eq!(got, kind),
            other => panic!("kind {kind}: expected UnknownKind, got {other:?}"),
        }
    }
}

#[test]
fn frame_payload_must_match_its_bit_length() {
    let frame = Frame {
        label: "m".into(),
        payload: vec![0xFF; 4],
        bit_len: 17, // needs 3 bytes, not 4
    };
    let mut bytes = Vec::new();
    // The writer debug-asserts this invariant, so craft the bytes via a
    // release-mode-compatible path: encode a valid record then break the
    // declared bit length.
    let mut valid = frame.clone();
    valid.bit_len = 32;
    write_record(
        &mut bytes,
        &Record::Frame {
            session: 0,
            frame: valid,
        },
    )
    .unwrap();
    // bit_len field sits right before the payload: last 4 payload bytes,
    // preceded by 8 bit-length bytes.
    let len = bytes.len();
    bytes[len - 12..len - 4].copy_from_slice(&17u64.to_be_bytes());
    let mut r: &[u8] = &bytes;
    assert!(matches!(
        read_record(&mut r),
        Err(NetError::Malformed(
            "frame payload length disagrees with its bit length"
        ))
    ));
}

#[test]
fn non_utf8_label_is_rejected() {
    let frame = Frame {
        label: "ab".into(),
        payload: vec![],
        bit_len: 0,
    };
    let mut bytes = Vec::new();
    write_record(&mut bytes, &Record::Frame { session: 0, frame }).unwrap();
    // The two label bytes follow kind (1) + session (8) + label len (2).
    bytes[4 + 11] = 0xFF;
    bytes[4 + 12] = 0xFE;
    let mut r: &[u8] = &bytes;
    assert!(matches!(
        read_record(&mut r),
        Err(NetError::Malformed("frame label is not utf-8"))
    ));
}

// --------------------------------------------------------------- server

/// Accepts exactly one frame, sends nothing.
struct OneFrameSink {
    got: bool,
}

impl Session for OneFrameSink {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(None)
    }

    fn on_frame(&mut self, _: Frame) -> Result<(), String> {
        self.got = true;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.got
    }
}

/// Knows sessions 0..4 only.
struct SmallFactory;

impl SessionFactory for SmallFactory {
    fn open_spec(
        &self,
        session_id: u64,
        _spec: Option<&rsr_net::SessionSpec>,
    ) -> Option<Box<dyn rsr_net::NetSession + '_>> {
        (session_id < 4)
            .then(|| Box::new(OneFrameSink { got: false }) as Box<dyn rsr_net::NetSession>)
    }
}

fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(SmallFactory)).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let _ = server.serve_one();
    });
    (addr, handle)
}

fn raw_client(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// The next record off `stream`, which must be a `DONE` for `session`;
/// returns its status and message.
fn expect_done(stream: &mut TcpStream, session: u64) -> (u8, String) {
    match read_record(stream).unwrap().expect("a reply").0 {
        Record::Done {
            session: got,
            status,
            message,
        } if got == session => (status, message),
        other => panic!("expected DONE for session {session}, got {other:?}"),
    }
}

#[test]
fn unknown_session_id_gets_an_error_done_not_a_dead_connection() {
    let (addr, server) = spawn_server();
    let mut stream = raw_client(addr);
    // A frame for an id the factory does not know, a frame for one it
    // knows but that was never opened, then a properly opened session:
    // the server must answer the first two with STATUS_UNKNOWN_SESSION —
    // a FRAME opens nothing — and still serve the third.
    let frame = Frame {
        label: "m".into(),
        payload: vec![0xAA],
        bit_len: 8,
    };
    let mut bytes = Vec::new();
    for session in [99, 3] {
        bytes.extend(encoded(&Record::Frame {
            session,
            frame: frame.clone(),
        }));
    }
    bytes.extend(open_record(2));
    bytes.extend(encoded(&Record::Frame { session: 2, frame }));
    stream.write_all(&bytes).unwrap();

    assert_eq!(expect_done(&mut stream, 99).0, STATUS_UNKNOWN_SESSION);
    assert_eq!(expect_done(&mut stream, 3).0, STATUS_UNKNOWN_SESSION);
    assert_eq!(expect_done(&mut stream, 2).0, STATUS_OK);
    drop(stream);
    server.join().unwrap();
}

#[test]
fn garbage_stream_closes_the_connection_cleanly() {
    let (addr, server) = spawn_server();
    let mut stream = raw_client(addr);
    // An oversized length prefix: the server must drop the connection
    // (we observe EOF), not hang or allocate.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.write_all(&[0u8; 64]).unwrap();
    assert!(
        read_record(&mut stream).unwrap().is_none(),
        "server should close the connection"
    );
    server.join().unwrap();
}

#[test]
fn a_frame_after_the_clients_done_is_stale() {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(SmallFactory)).unwrap();
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());
    let mut stream = raw_client(addr);
    // The client abandons session 2, then a late FRAME for it arrives in
    // the same write. The close is immediate, so the FRAME finds no half
    // and must not finish the session or earn it a DONE.
    let mut bytes = open_record(2);
    bytes.extend(encoded(&Record::Done {
        session: 2,
        status: STATUS_OK,
        message: String::new(),
    }));
    bytes.extend(encoded(&Record::Frame {
        session: 2,
        frame: good_frame(),
    }));
    stream.write_all(&bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let mut replies = Vec::new();
    while let Some((record, _)) = read_record(&mut stream).expect("replies decode") {
        replies.push(record);
    }
    assert!(replies.is_empty(), "replies: {replies:?}");
    let report = server.join().unwrap().expect("an orderly close");
    let summary = &report.sessions[0];
    assert_eq!(summary.id, 2);
    assert_eq!(summary.transcript.num_messages(), 0);
    assert_eq!(summary.error.as_deref(), Some("abandoned by client"));
}

// --------------------------------------------------------------- client

/// Sends one frame and is done; [`good_frame`] is the one each
/// [`OneFrameSink`] expects.
struct OneFrameSource {
    frame: Option<Frame>,
}

impl Session for OneFrameSource {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(self.frame.take())
    }

    fn on_frame(&mut self, _: Frame) -> Result<(), String> {
        Err("unexpected frame".into())
    }

    fn is_done(&self) -> bool {
        self.frame.is_none()
    }
}

fn good_frame() -> Frame {
    Frame {
        label: "m".into(),
        payload: vec![0xAA],
        bit_len: 8,
    }
}

fn one_frame_plans<const N: usize>(ids: [u64; N]) -> Vec<SessionPlan<'static>> {
    ids.into_iter()
        .map(|id| {
            let source = OneFrameSource {
                frame: Some(good_frame()),
            };
            SessionPlan::new(id, Box::new(source))
        })
        .collect()
}

#[test]
fn client_reports_unknown_sessions_without_poisoning_the_batch() {
    let (addr, server) = spawn_server();
    // Session 7 is unknown to the factory; 0 and 1 are fine.
    let report = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .batch(vec![one_frame_plans([0, 7, 1])])
        .expect("batch runs");
    server.join().unwrap();
    assert!(
        report.transport_error().is_none(),
        "transport stays healthy: {:?}",
        report.transport_error()
    );
    assert_eq!(report.completed(), 2);
    assert_eq!(report.failed(), 1);
    let failed = report.sessions().find(|s| s.id == 7).unwrap();
    assert!(
        failed.error.as_deref().unwrap().contains("unknown session"),
        "unexpected error: {:?}",
        failed.error
    );
}

#[test]
fn a_rejected_batch_burns_no_session_ids() {
    let (addr, server) = spawn_server();
    let mut driver = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .connect()
        .unwrap();
    let err = driver
        .batch(vec![one_frame_plans([0, 1, 1])])
        .expect_err("a duplicate id refuses the whole batch");
    assert!(
        matches!(err, NetError::Malformed("duplicate session id in batch")),
        "unexpected refusal: {err:?}"
    );
    // Nothing was sent and nothing committed: the corrected batch may
    // name ids 0 and 1 again.
    let report = driver
        .batch(vec![one_frame_plans([0, 1, 2])])
        .expect("the corrected batch is admitted");
    assert_eq!(report.completed(), 3, "{:?}", report.conns[0].sessions);
    driver.finish();
    server.join().unwrap();
}

/// Serves continuous sessions only: every open gets a resident party
/// over keys `0..spec.n`.
struct ResidentFactory;

const CHURN_BOUND: usize = 8;

fn resident_party(seed: u64, keys: std::ops::Range<u64>) -> ContinuousParty {
    ContinuousParty::new(ContinuousConfig::for_churn(CHURN_BOUND, seed), keys)
}

impl SessionFactory for ResidentFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        None
    }

    fn open_continuous(&self, _: u64, spec: &SessionSpec) -> Option<SharedParty> {
        Some(shared(resident_party(spec.seed, 0..u64::from(spec.n))))
    }
}

#[test]
fn a_rejected_open_continuous_leaves_no_continuous_standing() {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(ResidentFactory)).unwrap();
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());
    let mut driver = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .connect()
        .unwrap();
    let spec = SessionSpec {
        protocol: PROTO_CONT,
        n: 16,
        k: CHURN_BOUND as u32,
        dim: 0,
        seed: 7,
        continuous: false,
    };
    let party = shared(resident_party(spec.seed, 0..18));

    // Refused for the duplicate id 1 — after the open of id 5 was looked
    // at. Dropping the refused plans rolls the party's round back.
    let mut plans = vec![SessionPlan::open_continuous(5, spec, &party).unwrap()];
    plans.extend(one_frame_plans([1, 1]));
    let err = driver.batch(vec![plans]).expect_err("duplicate id");
    assert!(
        matches!(err, NetError::Malformed("duplicate session id in batch")),
        "unexpected refusal: {err:?}"
    );

    // Id 5 was never opened, so a later round under it must still be
    // refused instead of sending a delta for a session the server has
    // not got. (The plan comes from a party that is genuinely past round
    // 0.)
    let mut settled = ContinuousSession::new(resident_party(1, 0..4), resident_party(1, 0..3));
    settled.drive_round().expect("in-memory round 0");
    let later = SessionPlan::next_round(5, &settled.alice()).unwrap();
    assert_eq!(later.round, Some(1));
    let err = driver
        .batch(vec![vec![later]])
        .expect_err("id 5 has no continuous standing");
    assert!(
        matches!(
            err,
            NetError::Malformed("continuous round for a session this connection never opened")
        ),
        "unexpected refusal: {err:?}"
    );

    // And the id is still fresh: opening it now works and settles.
    let open = SessionPlan::open_continuous(5, spec, &party).unwrap();
    let report = driver.batch(vec![vec![open]]).expect("id 5 is unused");
    assert_eq!(report.completed(), 1, "{:?}", report.conns[0].sessions);
    driver.close_session(0, 5).expect("retire the session");
    driver.finish();
    server.join().unwrap().expect("connection served");
}

/// A round-0 delta that is well-formed and no honest party builds: key
/// `x` in one of its q cells, every other cell zero. Against an empty
/// resident party it is exactly what the server is left to decode.
fn lone_cell_delta(seed: u64) -> Frame {
    let cfg = ContinuousConfig::for_churn(CHURN_BOUND, seed);
    let layout = CellLayout::new(cfg.cells, cfg.q, cfg.seed);
    let x = 0xfeed_u64;
    let lone = layout.cells_of(x)[0];
    let widths = CellWidths::xor(cfg.n_bound);
    let mut w = BitWriter::new();
    w.write(0, 32); // round index
    for idx in 0..layout.num_cells() {
        let (count, key, check) = if idx == lone {
            (1, x, layout.check_of(x))
        } else {
            (0, 0, 0)
        };
        put_i64(&mut w, count, widths.count);
        w.write(key, widths.key);
        w.write(check, widths.check);
    }
    Frame::seal("round: delta table", w)
}

#[test]
fn a_delta_that_never_peels_costs_its_round_not_a_worker() {
    // One worker: if decoding the hostile delta did not return, nothing
    // else on the connection could settle.
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(ResidentFactory))
        .unwrap()
        .with_shards(1);
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());
    let mut driver = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .connect()
        .unwrap();
    let spec = SessionSpec {
        protocol: PROTO_CONT,
        n: 0,
        k: CHURN_BOUND as u32,
        dim: 0,
        seed: 7,
        continuous: true,
    };
    let hostile = SessionPlan {
        id: 5,
        spec: Some(spec),
        session: Box::new(OneFrameSource {
            frame: Some(lone_cell_delta(spec.seed)),
        }),
        round: Some(0),
    };
    let party = shared(resident_party(spec.seed, 0..3));
    let honest = SessionPlan::open_continuous(6, spec, &party).unwrap();

    let report = driver
        .batch(vec![vec![hostile, honest]])
        .expect("batch runs");
    assert!(
        report.transport_error().is_none(),
        "transport stays healthy: {:?}",
        report.transport_error()
    );
    let failed = report.sessions().find(|s| s.id == 5).unwrap();
    assert!(
        failed
            .error
            .as_deref()
            .is_some_and(|e| e.contains("delta did not decode")),
        "unexpected outcome: {:?}",
        failed.error
    );
    assert_eq!(report.completed(), 1, "{:?}", report.conns[0].sessions);

    // The connection and the session beside it carry on.
    party.lock().unwrap().insert(100).unwrap();
    let next = SessionPlan::next_round(6, &party).unwrap();
    let report = driver.batch(vec![vec![next]]).expect("round 1 runs");
    assert_eq!(report.completed(), 1, "{:?}", report.conns[0].sessions);
    driver.close_session(0, 6).expect("retire the session");
    driver.finish();
    server.join().unwrap().expect("connection served");
}

/// Resident parties sized by the spec's churn bound `k`, so a test can
/// pick a table whose delta frame does not end on a byte boundary.
struct SizedResidentFactory;

impl SessionFactory for SizedResidentFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        None
    }

    fn open_continuous(&self, _: u64, spec: &SessionSpec) -> Option<SharedParty> {
        let cfg = ContinuousConfig::for_churn(spec.k as usize, spec.seed);
        Some(shared(ContinuousParty::new(cfg, 0..u64::from(spec.n))))
    }
}

#[test]
fn a_frame_with_a_set_padding_bit_fails_its_session_only() {
    // 30 cells × 150 bits + the 32-bit round index = 4,532 bits: the
    // delta frame's last byte carries 4 padding bits.
    let spec = SessionSpec {
        protocol: PROTO_CONT,
        n: 0,
        k: 15,
        dim: 0,
        seed: 7,
        continuous: true,
    };
    let cfg = ContinuousConfig::for_churn(spec.k as usize, spec.seed);
    let mut padded = {
        let party = shared(ContinuousParty::new(cfg, 0..3));
        let mut round = rsr_core::continuous::AliceRound::begin(&party).unwrap();
        Session::poll_send(&mut round)
            .unwrap()
            .expect("the delta frame")
    };
    assert_eq!(padded.bit_len % 8, 4);
    *padded.payload.last_mut().unwrap() |= 1;

    let server = ReconServer::bind("127.0.0.1:0", Arc::new(SizedResidentFactory))
        .unwrap()
        .with_shards(1);
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());
    let mut driver = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .connect()
        .unwrap();
    let hostile = SessionPlan {
        id: 5,
        spec: Some(spec),
        session: Box::new(OneFrameSource {
            frame: Some(padded),
        }),
        round: Some(0),
    };
    let party = shared(ContinuousParty::new(cfg, 0..3));
    let honest = SessionPlan::open_continuous(6, spec, &party).unwrap();

    let report = driver
        .batch(vec![vec![hostile, honest]])
        .expect("batch runs");
    assert!(
        report.transport_error().is_none(),
        "transport stays healthy: {:?}",
        report.transport_error()
    );
    let failed = report.sessions().find(|s| s.id == 5).unwrap();
    assert!(
        failed
            .error
            .as_deref()
            .is_some_and(|e| e.contains("malformed round delta frame")),
        "unexpected outcome: {:?}",
        failed.error
    );
    assert_eq!(report.completed(), 1, "{:?}", report.conns[0].sessions);
    assert_eq!(party.lock().unwrap().rounds_settled(), 1);
    driver.close_session(0, 6).expect("retire the session");
    driver.finish();
    server.join().unwrap().expect("connection served");
}

// ------------------------------------------------ wire-id re-admission

/// Serves every id both ways: a bare or spec `OPEN` gets a
/// [`OneFrameSink`], a continuous one a resident party.
struct BothFactory;

impl SessionFactory for BothFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        Some(Box::new(OneFrameSink { got: false }))
    }

    fn open_continuous(&self, _: u64, spec: &SessionSpec) -> Option<SharedParty> {
        Some(shared(resident_party(spec.seed, 0..16)))
    }
}

fn cont_spec() -> SessionSpec {
    SessionSpec {
        protocol: PROTO_CONT,
        n: 16,
        k: CHURN_BOUND as u32,
        dim: 0,
        seed: 7,
        continuous: true,
    }
}

/// Opens id 5 as continuous, retires it with `DONE`, sends `again` under
/// the same id, then half-closes. A retired id stays used: the server
/// must neither re-admit it nor — the regression — list it twice and
/// panic building the report. Returns what the server answered `again`
/// with (if anything) and the connection's report.
fn readmit_after_retire(again: Record) -> (Option<(u8, String)>, ConnectionReport) {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(BothFactory)).unwrap();
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());
    let mut stream = raw_client(addr);
    let mut bytes = encoded(&Record::Open {
        session: 5,
        spec: Some(cont_spec()),
    });
    bytes.extend(encoded(&Record::Done {
        session: 5,
        status: STATUS_OK,
        message: String::new(),
    }));
    bytes.extend(encoded(&again));
    stream.write_all(&bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    let mut replies = Vec::new();
    while let Some((record, _)) = read_record(&mut stream).expect("replies decode") {
        match record {
            Record::Done {
                session: 5,
                status,
                message,
            } => replies.push((status, message)),
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert!(replies.len() <= 1, "one record, one answer: {replies:?}");
    let report = server
        .join()
        .expect("the reactor thread must not panic")
        .expect("an orderly close");
    let ids: Vec<u64> = report.sessions.iter().map(|s| s.id).collect();
    assert_eq!(ids, vec![5], "exactly one summary for id 5");
    (replies.pop(), report)
}

#[test]
fn a_retired_continuous_id_cannot_be_reopened_as_continuous() {
    let (reply, _) = readmit_after_retire(Record::Open {
        session: 5,
        spec: Some(cont_spec()),
    });
    assert_eq!(
        reply,
        Some((STATUS_SESSION_ERROR, "session opened twice".to_owned()))
    );
}

#[test]
fn a_retired_continuous_id_cannot_be_reopened_bare() {
    let (reply, _) = readmit_after_retire(Record::Open {
        session: 5,
        spec: None,
    });
    assert_eq!(
        reply,
        Some((STATUS_SESSION_ERROR, "session opened twice".to_owned()))
    );
}

#[test]
fn a_frame_for_a_retired_continuous_id_is_dropped_as_stale() {
    let (reply, report) = readmit_after_retire(Record::Frame {
        session: 5,
        frame: good_frame(),
    });
    assert_eq!(reply, None, "a stale frame opens nothing and says nothing");
    assert_eq!(report.frames_in, 1);
}

// ------------------------------------------------- continuous admission

/// `party`'s delta frame for round index `round`, whatever round the
/// party is really at: the same bytes `AliceRound` sends, index aside.
fn delta_at(party: &ContinuousParty, round: u32) -> Frame {
    let mut w = BitWriter::new();
    w.write(u64::from(round), 32);
    party.delta().write_to(&mut w, party.config().n_bound);
    Frame::seal("round: delta table", w)
}

/// Serves one connection with [`ResidentFactory`]; returns the address
/// and the server thread.
fn spawn_resident_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<ConnectionReport, NetError>>,
) {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(ResidentFactory))
        .unwrap()
        .with_shards(1);
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.serve_one()))
}

/// The next record off `stream`, which must be a `FRAME` for `session`.
fn expect_frame(stream: &mut TcpStream, session: u64) -> Frame {
    match read_record(stream).unwrap().expect("a reply").0 {
        Record::Frame {
            session: got,
            frame,
        } if got == session => frame,
        other => panic!("expected FRAME for session {session}, got {other:?}"),
    }
}

/// Half-closes `stream`, checks the server said nothing more, and
/// returns the connection's report.
fn hang_up(
    mut stream: TcpStream,
    server: std::thread::JoinHandle<Result<ConnectionReport, NetError>>,
) -> ConnectionReport {
    stream.shutdown(Shutdown::Write).unwrap();
    if let Some((record, _)) = read_record(&mut stream).expect("replies decode") {
        panic!("unexpected reply: {record:?}");
    }
    server.join().unwrap().expect("an orderly close")
}

#[test]
fn a_frame_on_a_resident_idle_id_begins_a_round_and_gets_one_frame_back() {
    let (addr, server) = spawn_resident_server();
    let mut stream = raw_client(addr);
    // The server's party holds 0..16; this client holds 0..14 and 20.
    let party = shared(resident_party(cont_spec().seed, 0..14));
    party.lock().unwrap().insert(20).unwrap();
    let mut alice = AliceRound::begin(&party).unwrap();
    let delta = Session::poll_send(&mut alice).unwrap().expect("the delta");
    let mut bytes = encoded(&Record::Open {
        session: 5,
        spec: Some(cont_spec()),
    });
    bytes.extend(encoded(&Record::Frame {
        session: 5,
        frame: delta,
    }));
    stream.write_all(&bytes).unwrap();

    // The reply is the whole answer: it settles the client's round.
    Session::on_frame(&mut alice, expect_frame(&mut stream, 5)).unwrap();
    assert!(Session::is_done(&alice));
    let union: Vec<u64> = (0..16).chain([20]).collect();
    assert!(party.lock().unwrap().set().iter().eq(&union));
    let report = hang_up(stream, server);
    assert_eq!((report.frames_in, report.frames_out), (1, 1));
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].error, None);
}

#[test]
fn a_repeated_delta_is_answered_then_refused_as_desynced_and_the_id_stays_resident() {
    let (addr, server) = spawn_resident_server();
    let mut stream = raw_client(addr);
    let party = shared(resident_party(cont_spec().seed, 0..16));
    let mut alice = AliceRound::begin(&party).unwrap();
    let delta = Session::poll_send(&mut alice).unwrap().expect("the delta");
    let mut bytes = encoded(&Record::Open {
        session: 5,
        spec: Some(cont_spec()),
    });
    for _ in 0..2 {
        bytes.extend(encoded(&Record::Frame {
            session: 5,
            frame: delta.clone(),
        }));
    }
    stream.write_all(&bytes).unwrap();

    // A round runs to completion within the record that begins it: the
    // first frame's round settles and replies, and the second begins
    // round 1 with round 0's index and fails there.
    let reply = expect_frame(&mut stream, 5);
    assert_eq!(
        expect_done(&mut stream, 5),
        (
            STATUS_SESSION_ERROR,
            "desynced peer: delta for round 0, expected 1 (resync required)".to_owned()
        )
    );
    Session::on_frame(&mut alice, reply).unwrap();
    drop(alice);

    // The id is still resident: round 1 runs on it.
    let mut alice = AliceRound::begin(&party).unwrap();
    let delta = Session::poll_send(&mut alice)
        .unwrap()
        .expect("round 1's delta");
    stream
        .write_all(&encoded(&Record::Frame {
            session: 5,
            frame: delta,
        }))
        .unwrap();
    Session::on_frame(&mut alice, expect_frame(&mut stream, 5)).unwrap();
    assert_eq!(party.lock().unwrap().rounds_settled(), 2);
    let report = hang_up(stream, server);
    assert_eq!(report.frames_out, 2, "two settled rounds, two replies");
}

#[test]
fn a_delta_with_the_wrong_index_fails_its_round_only() {
    let (addr, server) = spawn_resident_server();
    let mut stream = raw_client(addr);
    let party = resident_party(cont_spec().seed, 0..16);
    let mut bytes = encoded(&Record::Open {
        session: 5,
        spec: Some(cont_spec()),
    });
    bytes.extend(encoded(&Record::Frame {
        session: 5,
        frame: delta_at(&party, 3),
    }));
    stream.write_all(&bytes).unwrap();
    let (status, message) = expect_done(&mut stream, 5);
    assert_eq!(status, STATUS_SESSION_ERROR);
    assert!(
        message.contains("desynced peer: delta for round 3, expected 0"),
        "{message}"
    );

    // The failed round rolled the server's party back; round 0 runs.
    stream
        .write_all(&encoded(&Record::Frame {
            session: 5,
            frame: delta_at(&party, 0),
        }))
        .unwrap();
    expect_frame(&mut stream, 5);
    let report = hang_up(stream, server);
    assert_eq!((report.frames_in, report.frames_out), (2, 1));
}

#[test]
fn a_round_over_its_churn_bound_fails_and_its_retry_settles() {
    let (addr, server) = spawn_resident_server();
    let mut driver = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .connect()
        .unwrap();
    let party = shared(resident_party(cont_spec().seed, 0..16));
    let open = SessionPlan::open_continuous(5, cont_spec(), &party).unwrap();
    let report = driver.batch(vec![vec![open]]).expect("round 0 runs");
    assert_eq!(report.completed(), 1, "{:?}", report.conns[0].sessions);

    // 100 new keys against an 8-key churn bound cannot peel.
    for key in 1000..1100 {
        party.lock().unwrap().insert(key).unwrap();
    }
    let over = SessionPlan::next_round(5, &party).unwrap();
    let report = driver.batch(vec![vec![over]]).expect("round 1 runs");
    let failed = &report.conns[0].sessions[0];
    assert!(
        failed
            .error
            .as_deref()
            .is_some_and(|e| e.contains("delta did not decode")),
        "unexpected outcome: {:?}",
        failed.error
    );
    assert_eq!(party.lock().unwrap().rounds_settled(), 1, "rolled back");

    // Delete the excess and retry under the same id.
    for key in 1002..1100 {
        party.lock().unwrap().remove(key).unwrap();
    }
    let retry = SessionPlan::next_round(5, &party).unwrap();
    let report = driver.batch(vec![vec![retry]]).expect("the retry runs");
    assert_eq!(report.completed(), 1, "{:?}", report.conns[0].sessions);
    let union: Vec<u64> = (0..16).chain([1000, 1001]).collect();
    assert!(party.lock().unwrap().set().iter().eq(&union));
    driver.close_session(0, 5).expect("retire the session");
    driver.finish();
    let report = server.join().unwrap().expect("connection served");
    assert_eq!(report.frames_out, 2, "two settled rounds, two replies");
}

// ------------------------------------------------------------ served emd

/// Serves Bob's half of one Algorithm 1 instance for every id.
struct EmdBobFactory {
    proto: EmdProtocol,
    bob: Vec<Point>,
}

impl SessionFactory for EmdBobFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        Some(Box::new(self.proto.bob_session(&self.bob)))
    }
}

/// An Algorithm 1 message that is well-formed and no honest Alice sends:
/// it declares `n = 2³² − 1` (which sizes every cell field) and each
/// level table holds key `x` in one of its q cells, every other cell
/// zero. Peeling such a table moves `x` between its cells forever, one
/// fabricated `dim`-coordinate pair per lap, unless peels are bounded.
fn lone_cell_emd_message(proto: &EmdProtocol, seed: u64) -> Frame {
    let (n, cfg, space) = (u32::MAX as usize, proto.config(), proto.space());
    let widths = CellWidths::sum(n, space.delta());
    let x = 0xfeed_u64;
    let mut w = BitWriter::new();
    put_len(&mut w, n);
    for level in 0..proto.prefix_lens().len() {
        // The level's public coins, as `EmdProtocol` derives them.
        let level_seed = seed ^ ((level as u64 + 1) << 24);
        let table = RibltConfig::for_pairs(cfg.k, cfg.q, space.dim(), space.delta(), level_seed);
        let layout = CellLayout::new(table.min_cells, table.q, table.seed);
        let lone = layout.cells_of(x)[0];
        for idx in 0..layout.num_cells() {
            let count = i64::from(idx == lone);
            put_i64(&mut w, count, widths.count);
            put_i128(&mut w, i128::from(count) * i128::from(x), widths.key);
            let check = i128::from(count) * i128::from(layout.check_of(x));
            put_i128(&mut w, check, widths.check);
            for _ in 0..space.dim() {
                put_i64(&mut w, count, widths.value);
            }
        }
    }
    Frame::seal("alice→bob: RIBLTs", w)
}

#[test]
fn a_riblt_that_never_peels_costs_its_session_not_the_server() {
    // Algorithm 1's shape: k = 4, q = 3, Hamming d = 64. One worker: if
    // decoding the hostile message did not return — or exhausted the
    // process's memory on fabricated pairs — nothing else on the
    // connection could settle.
    let (n, k, dim, seed) = (32, 4, 64, 30);
    let space = MetricSpace::hamming(dim);
    let w = rsr_workloads::planted_emd(space, n, k, 1, seed);
    let proto = || EmdProtocol::new(space, EmdProtocolConfig::for_space(&space, n, k), seed);
    let factory = Arc::new(EmdBobFactory {
        proto: proto(),
        bob: w.bob,
    });
    let hostile_frame = lone_cell_emd_message(&factory.proto, seed);
    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory))
        .unwrap()
        .with_shards(1);
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());

    let alice = proto();
    let hostile = OneFrameSource {
        frame: Some(hostile_frame),
    };
    let report = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .batch(vec![vec![
            SessionPlan::new(5, Box::new(hostile)),
            SessionPlan::new(6, Box::new(alice.alice_session(&w.alice))),
        ]])
        .expect("batch runs");
    server.join().unwrap().expect("connection served");
    assert!(
        report.transport_error().is_none(),
        "transport stays healthy: {:?}",
        report.transport_error()
    );
    let failed = report.sessions().find(|s| s.id == 5).unwrap();
    assert!(
        failed
            .error
            .as_deref()
            .is_some_and(|e| e.contains("no RIBLT level decoded")),
        "unexpected outcome: {:?}",
        failed.error
    );
    assert_eq!(report.completed(), 1, "{:?}", report.conns[0].sessions);
}

// ------------------------------------------------------------ served gap

/// Serves Bob's half of one Gap instance for every id.
struct GapBobFactory {
    proto: GapProtocol<BitSamplingFamily>,
    bob: Vec<Point>,
}

impl SessionFactory for GapBobFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        Some(Box::new(self.proto.bob_session(&self.bob)))
    }
}

/// A round-2 frame naming `tfp` `count` times.
fn repeated_request(tfp: u64, count: u32) -> Frame {
    let mut w = BitWriter::new();
    w.write(u64::from(count), 32);
    for _ in 0..count {
        w.write(tfp, 64);
    }
    Frame::seal("alice→bob: requested fingerprints", w)
}

#[test]
fn a_hostile_gap_request_fails_its_session_only() {
    // The server holds Bob. Round 2 is the client's to write, and Bob
    // answers it with one child per named fingerprint: a request naming
    // more children than Bob holds, or one fingerprint twice, must be
    // refused before anything is copied, and a sibling session on the
    // same connection must still settle.
    let (n, k, dim, r1, r2) = (40, 2, 128, 2.0, 44.0);
    let space = MetricSpace::hamming(dim);
    let fam = BitSamplingFamily::new(dim, dim as f64);
    let params = LshParams::new(r1, r2, 1.0 - r1 / dim as f64, 1.0 - r2 / dim as f64);
    let w = rsr_workloads::sensor_pairs(space, n, k, r1, r2, 28);
    let factory = Arc::new(GapBobFactory {
        proto: GapProtocol::new(space, &fam, GapConfig::for_params(params, n, k), 28),
        bob: w.bob,
    });
    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory)).unwrap();
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());
    let mut stream = raw_client(addr);

    let mut bytes = Vec::new();
    for session in 0..3 {
        bytes.extend(open_record(session));
    }
    stream.write_all(&bytes).unwrap();
    let mut round1 = HashMap::new();
    while round1.len() < 3 {
        match read_record(&mut stream)
            .unwrap()
            .expect("a round-1 frame")
            .0
        {
            Record::Frame { session, frame } => assert!(round1.insert(session, frame).is_none()),
            other => panic!("expected round 1, got {other:?}"),
        }
    }
    // An honest Alice names one fingerprint Bob really holds.
    let mut alice = factory.proto.alice_session(&w.alice);
    Session::on_frame(&mut alice, round1.remove(&2).unwrap()).unwrap();
    let honest = Session::poll_send(&mut alice).unwrap().expect("round 2");
    let mut r = honest.reader();
    assert!(r.read(32).unwrap() >= 1, "the instance differs");
    let tfp = r.read(64).unwrap();

    for (session, count, refusal) in [
        (0, n as u32 + 1, "more children than the sender holds"),
        (1, 2, "one fingerprint twice"),
    ] {
        let frame = repeated_request(tfp, count);
        stream
            .write_all(&encoded(&Record::Frame { session, frame }))
            .unwrap();
        let (status, message) = expect_done(&mut stream, session);
        assert_eq!(status, STATUS_SESSION_ERROR, "{message}");
        assert!(message.contains(refusal), "session {session}: {message}");
    }

    stream
        .write_all(&encoded(&Record::Frame {
            session: 2,
            frame: honest,
        }))
        .unwrap();
    let round3 = match read_record(&mut stream).unwrap().expect("round 3").0 {
        Record::Frame { session: 2, frame } => frame,
        other => panic!("expected round 3, got {other:?}"),
    };
    Session::on_frame(&mut alice, round3).unwrap();
    let round4 = Session::poll_send(&mut alice).unwrap().expect("round 4");
    stream
        .write_all(&encoded(&Record::Frame {
            session: 2,
            frame: round4,
        }))
        .unwrap();
    assert_eq!(expect_done(&mut stream, 2).0, STATUS_OK);
    assert!(Session::is_done(&alice));
    drop(stream);
    let report = server.join().unwrap().expect("served");
    assert_eq!(report.sessions.len(), 3);
}

// ---------------------------------------------- frames for a stepping half

/// Echoes each of three frames back under its own label; naps inside
/// `on_frame` so the client's next records have arrived before the
/// reactor finishes the step.
struct Napper {
    got: usize,
    echo: Option<Frame>,
}

impl Session for Napper {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(self.echo.take())
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        std::thread::sleep(Duration::from_millis(100));
        self.got += 1;
        self.echo = Some(frame);
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.got == 3 && self.echo.is_none()
    }
}

struct NapFactory;

impl SessionFactory for NapFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        Some(Box::new(Napper { got: 0, echo: None }))
    }
}

fn spawn_nap_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<ConnectionReport, NetError>>,
) {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(NapFactory))
        .unwrap()
        .with_shards(1);
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.serve_one()))
}

fn labelled(label: &'static str) -> Frame {
    Frame {
        label: label.into(),
        ..good_frame()
    }
}

#[test]
fn frames_for_a_napping_half_are_applied_in_arrival_order() {
    let (addr, server) = spawn_nap_server();
    let mut stream = raw_client(addr);
    // One write: the later FRAMEs arrive while the first wake still
    // naps, and the reactor applies them in order after it.
    let mut bytes = open_record(4);
    for label in ["first", "second", "third"] {
        bytes.extend(encoded(&Record::Frame {
            session: 4,
            frame: labelled(label),
        }));
    }
    stream.write_all(&bytes).unwrap();
    assert_eq!(expect_frame(&mut stream, 4).label, "first");
    assert_eq!(expect_frame(&mut stream, 4).label, "second");
    assert_eq!(expect_frame(&mut stream, 4).label, "third");
    assert_eq!(expect_done(&mut stream, 4).0, STATUS_OK);
    let report = hang_up(stream, server);
    let summary = &report.sessions[0];
    assert_eq!(summary.error, None);
    let labels: Vec<_> = summary.transcript.entries().map(|(l, _)| l).collect();
    let order = ["first", "first", "second", "second", "third", "third"];
    assert_eq!(labels, order);
    assert_eq!(report.frames_in, 3);
    assert_eq!(report.frames_out, 3);
}

#[test]
fn a_half_stepping_when_the_client_leaves_is_dropped_after_its_step() {
    for (abandon, reason) in [
        (true, "abandoned by client"),
        (false, "connection closed mid-session"),
    ] {
        let (addr, server) = spawn_nap_server();
        let mut stream = raw_client(addr);
        let mut bytes = open_record(4);
        bytes.extend(encoded(&Record::Frame {
            session: 4,
            frame: labelled("first"),
        }));
        if abandon {
            bytes.extend(encoded(&Record::Done {
                session: 4,
                status: STATUS_SESSION_ERROR,
                message: "gave up".into(),
            }));
        }
        // Without the DONE, the half-close is the lost connection.
        stream.write_all(&bytes).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // The wake in flight still says its echo; no DONE follows it.
        assert_eq!(expect_frame(&mut stream, 4).label, "first");
        if let Some((record, _)) = read_record(&mut stream).expect("replies decode") {
            panic!("{reason}: unexpected reply {record:?}");
        }
        let report = server.join().unwrap().expect("an orderly close");
        let summary = &report.sessions[0];
        assert_eq!(summary.error.as_deref(), Some(reason));
        assert_eq!(summary.transcript.num_messages(), 2, "{reason}");
    }
}

// ------------------------------------------------------ robustness loop

/// Takes frames until two good ones arrived; a frame labelled `bad`
/// fails the session.
struct Picky {
    got: u8,
}

impl Session for Picky {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(None)
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        if frame.label == "bad" {
            return Err("bad frame".into());
        }
        self.got += 1;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.got >= 2
    }
}

/// One-shot [`Picky`] sessions and continuous resident parties alike,
/// for every id.
struct PickyFactory;

impl SessionFactory for PickyFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        Some(Box::new(Picky { got: 0 }))
    }

    fn open_continuous(&self, _: u64, spec: &SessionSpec) -> Option<SharedParty> {
        Some(shared(resident_party(spec.seed, 0..16)))
    }
}

/// The well-formed record `kind` selects, addressed to `session`; kind 6
/// is a continuous round's delta at index `round`.
fn record_of(kind: u8, session: u64, round: u32) -> Record {
    let mut spec = cont_spec();
    match kind {
        0 => Record::Open {
            session,
            spec: None,
        },
        1 => {
            spec.continuous = false;
            Record::Open {
                session,
                spec: Some(spec),
            }
        }
        2 => Record::Open {
            session,
            spec: Some(spec),
        },
        3 => Record::Frame {
            session,
            frame: good_frame(),
        },
        4 => Record::Frame {
            session,
            frame: Frame {
                label: "bad".into(),
                ..good_frame()
            },
        },
        5 => Record::Done {
            session,
            status: STATUS_OK,
            message: String::new(),
        },
        _ => Record::Frame {
            session,
            frame: delta_at(&resident_party(cont_spec().seed, 0..16), round),
        },
    }
}

proptest! {
    /// Any sequence of well-formed records over a few wire ids — opens
    /// of every flavour, good and session-failing frames, round deltas,
    /// `DONE`s, in any order — then EOF: `serve_one` returns (no panic,
    /// no hang) an orderly report that lists each wire id at most once.
    #[test]
    fn any_well_formed_record_sequence_is_served_to_a_clean_report(
        script in prop::collection::vec((0u8..7, 0u64..3, 0u32..3), 1..=24),
    ) {
        let server = ReconServer::bind("127.0.0.1:0", Arc::new(PickyFactory))
            .unwrap()
            .with_shards(2);
        let addr = server.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let _ = done_tx.send(server.serve_one());
        });

        let mut stream = raw_client(addr);
        let mut bytes = Vec::new();
        for &(kind, session, round) in &script {
            bytes.extend(encoded(&record_of(kind, session, round)));
        }
        stream.write_all(&bytes).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Whatever the server answers must decode, and it must hang up.
        while read_record(&mut stream).expect("replies decode").is_some() {}

        let outcome = done_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("serve_one hung or panicked on {script:?}"));
        server.join().expect("server thread");
        let report = outcome.unwrap_or_else(|e| panic!("{e} on {script:?}"));
        let mut seen = HashSet::new();
        for s in &report.sessions {
            prop_assert!(s.id < 3 && seen.insert(s.id), "id {} listed twice on {script:?}", s.id);
        }
    }
}
