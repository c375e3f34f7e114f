//! Back-to-back continuous rounds over loopback, with every record and
//! byte they move asserted — shared by the test binaries that run them.

use rsr_core::channel::Frame;
use rsr_core::continuous::{shared, ContinuousConfig, ContinuousParty, SharedParty};
use rsr_iblt::bits::BitWriter;
use rsr_iblt::wire::put_len;
use rsr_net::{
    Driver, NetSession, ReconServer, Record, SessionFactory, SessionPlan, SessionSpec, PROTO_CONT,
    STATUS_OK,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The continuous session's wire id.
const ID: u64 = 1;

/// Far above the two keys a round differs by, so no round meets a
/// twin-key pair at this seed.
fn spec() -> SessionSpec {
    SessionSpec {
        protocol: PROTO_CONT,
        n: 64,
        k: 64,
        dim: 0,
        seed: 0x2ec0,
        continuous: true,
    }
}

fn party_of(spec: &SessionSpec) -> ContinuousParty {
    let cfg = ContinuousConfig::for_churn(spec.k as usize, spec.seed);
    ContinuousParty::new(cfg, 0..u64::from(spec.n))
}

fn lock(party: &SharedParty) -> std::sync::MutexGuard<'_, ContinuousParty> {
    party.lock().unwrap()
}

/// Builds the resident party from the wire spec and keeps a handle, so
/// the test can stream churn into the server's side too.
#[derive(Default)]
struct KeepingFactory {
    party: Mutex<Option<SharedParty>>,
}

impl SessionFactory for KeepingFactory {
    fn open_spec(&self, _: u64, _: Option<&SessionSpec>) -> Option<Box<dyn NetSession + '_>> {
        None
    }

    fn open_continuous(&self, _: u64, spec: &SessionSpec) -> Option<SharedParty> {
        let party = shared(party_of(spec));
        *self.party.lock().unwrap() = Some(Arc::clone(&party));
        Some(party)
    }
}

/// The delta frame of round `round`, as `AliceRound` seals it.
fn delta_frame(party: &SharedParty, round: u32) -> Frame {
    let p = lock(party);
    let mut w = BitWriter::new();
    w.write(u64::from(round), 32);
    p.delta().write_to(&mut w, p.config().n_bound);
    Frame::seal("round: delta table", w)
}

/// The reply frame of round `round`, as `BobRound` seals it.
fn reply_frame(round: u32, keys: &[u64]) -> Frame {
    let mut w = BitWriter::new();
    w.write(u64::from(round), 32);
    put_len(&mut w, keys.len());
    for &key in keys {
        w.write(key, 64);
    }
    Frame::seal("round: peer-only keys", w)
}

fn wire_len(frame: Frame) -> u64 {
    Record::Frame { session: ID, frame }.wire_len()
}

/// Opens one continuous session and runs round 0 plus `rounds`
/// incremental rounds on it, one key of churn a side each. Asserts that
/// each round moves exactly one `FRAME` each way, counts every byte on
/// both endpoints, and settles both parties to the union.
pub fn run_rounds(rounds: u32) {
    let factory = Arc::new(KeepingFactory::default());
    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory))
        .unwrap()
        .with_shards(1);
    let addr = server.local_addr().unwrap();
    let server = std::thread::spawn(move || server.serve_one());
    let mut driver = Driver::new(addr)
        .idle_timeout(Some(Duration::from_secs(10)))
        .connect()
        .unwrap();

    let alice = shared(party_of(&spec()));
    let mut union: BTreeSet<u64> = lock(&alice).set().clone();
    let mut bob = None;
    let mut client_out = 0;
    for round in 0..=rounds {
        // One new key on each side; round 0 reconciles equal sets.
        let mut bob_only = Vec::new();
        if let Some(bob) = &bob {
            let (a, b) = (1_000_000 + u64::from(round), 2_000_000 + u64::from(round));
            lock(&alice).insert(a).unwrap();
            lock(bob).insert(b).unwrap();
            union.extend([a, b]);
            bob_only.push(b);
        }
        let delta = delta_frame(&alice, round);
        let (plan, mut out) = if round == 0 {
            let plan = SessionPlan::open_continuous(ID, spec(), &alice).unwrap();
            let open = Record::Open {
                session: ID,
                spec: Some(spec()),
            };
            (plan, open.wire_len())
        } else {
            (SessionPlan::next_round(ID, &alice).unwrap(), 0)
        };
        out += wire_len(delta);

        let report = driver.batch(vec![vec![plan]]).expect("the round runs");
        let conn = &report.conns[0];
        assert_eq!(conn.failed(), 0, "round {round}: {:?}", conn.sessions);
        assert_eq!((conn.frames_out, conn.frames_in), (1, 1), "round {round}");
        assert_eq!(conn.wire_bytes_out, out, "round {round}: bytes out");
        assert_eq!(
            conn.wire_bytes_in,
            wire_len(reply_frame(round, &bob_only)),
            "round {round}: bytes in"
        );
        client_out += out;

        let bob = bob.get_or_insert_with(|| {
            let party = factory.party.lock().unwrap();
            Arc::clone(party.as_ref().expect("the server opened the session"))
        });
        assert_eq!(*lock(&alice).set(), union, "round {round}: client");
        assert_eq!(*lock(bob).set(), union, "round {round}: server");
    }
    assert_eq!(lock(&alice).rounds_settled(), rounds + 1);

    driver.close_session(0, ID).expect("retire the session");
    driver.finish();
    let report = server.join().unwrap().expect("connection served");
    let frames = rounds as usize + 1;
    assert_eq!((report.frames_in, report.frames_out), (frames, frames));
    let retire = Record::Done {
        session: ID,
        status: STATUS_OK,
        message: String::new(),
    };
    assert_eq!(report.wire_bytes_in, client_out + retire.wire_len());
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].error, None);
    assert_eq!(report.sessions[0].transcript.num_messages(), 2 * frames);
}
