//! Continuous (long-lived) reconciliation sessions.
//!
//! Every protocol in this crate is one-shot: build a sketch over the
//! whole set, exchange, decode, done. Real deployments reconcile the
//! *same* pair of hosts repeatedly as their sets drift, and the round
//! cost should track the drift, not the set. This module adds that mode:
//! each party keeps a [`ContinuousParty`] resident — its set and a
//! journal of the keys whose membership changed since the last settle.
//! A round builds one IBLT sized for the expected *churn* between
//! settles from the journal and ships it: O(m + churn) work and O(m)
//! wire, where m tracks the churn bound, however large the set has
//! grown.
//!
//! # Why the journals reconcile the live difference
//!
//! Both parties settle to the *same* set `U` (the union — see below).
//! A party's journal then holds exactly how its set `A` differs from
//! `U` (an undone change erases its entry), and the table `T` is linear,
//! so Alice's delta — the empty table plus her journal — is
//! `T(A) − T(U)`. Bob applies his own journal, negated, to the table he
//! receives and gets `T(A) − T(B)`, which peels to the **current**
//! symmetric difference — Alice-only keys with positive sign, Bob-only
//! keys with negative. Before the first settle there is no journal and
//! `U` is empty, so the delta is built from the set itself and the
//! first round reconciles the initial difference with no special
//! casing.
//!
//! # Lifecycle
//!
//! ```text
//!            begin_round                 settle
//!   Idle ───────────────► Syncing ───────────────► Settled
//!    ▲                      │  ▲                      │
//!    │ resync               │  └──────────────────────┘
//!    └──────────────────────┤        begin_round
//!              round failed │
//!                (rollback) ▼
//!                    previous phase
//! ```
//!
//! Mutations are accepted in `Idle` and `Settled` and rejected with
//! [`ContinuousError::Busy`] while `Syncing` — a round reconciles the
//! sets as frozen at [`begin_round`](ContinuousParty::begin_round). A
//! failed round (undecodable delta: churn exceeded the table bound, or
//! a desynced peer) mutates **nothing**: both parties keep their sets
//! and journals, the phase rolls back, and the round can simply be
//! retried after the churn bound is raised or via [`resync`](ContinuousParty::resync).
//!
//! # Settle semantics
//!
//! A settled round leaves both parties holding the **union** of the two
//! sets: each side learns the keys only the peer held and inserts them.
//! A key deleted on one side but not the other is therefore
//! *resurrected* by the next round — delete propagation needs the
//! deletion to happen on both sides between settles (or a tombstone
//! scheme layered above the keys, which is out of scope here). Union is
//! what makes "incremental equals one-shot" well-defined: after round r
//! both parties hold exactly what a fresh one-shot reconciliation of
//! the current sets would produce.
//!
//! # Failure and recovery
//!
//! The one genuinely dangerous failure is a *half-settled* round: Bob
//! settles when his decode succeeds, then his reply to Alice is lost in
//! transit. The parties' journals no longer start from the same settled
//! set, and the algebra above no longer telescopes. The round counter
//! carried inside every frame detects this on the next round (the
//! parties disagree on the round index → the round fails loudly,
//! nothing mutates), and [`resync`](ContinuousParty::resync) recovers:
//! dropping both journals makes the next round reconcile the full
//! current difference from the empty set — still O(m) wire, and correct
//! as long as that difference fits the table.

use crate::channel::Frame;
use crate::session::{drive_in_memory, Session};
use crate::transcript::{Party, Transcript};
use rsr_iblt::bits::BitWriter;
use rsr_iblt::iblt::Iblt;
use rsr_iblt::wire::{get_len, put_len};
use rsr_obs::{AtomicHistogram, Counter};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Registry handles for the continuous-session metrics, resolved once
/// (the executor's `ExecMetrics` pattern). Sites gate on
/// [`rsr_obs::enabled`]; with metrics off each costs one relaxed load.
struct ContMetrics {
    /// Party-side round settles (`cont_rounds_settled`; each settled
    /// round counts once per participating party).
    rounds_settled: Arc<Counter>,
    /// Party-side round failures (`cont_rounds_failed`).
    rounds_failed: Arc<Counter>,
    /// `begin_round`→settle latency per party (`cont_round_settle_us`).
    settle_us: Arc<AtomicHistogram>,
    /// Rounds a party settled over its whole lifetime, resyncs
    /// included, recorded at drop (`cont_rounds_per_session`).
    rounds_per_session: Arc<AtomicHistogram>,
}

fn cont_metrics() -> &'static ContMetrics {
    static METRICS: OnceLock<ContMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rsr_obs::global();
        ContMetrics {
            rounds_settled: reg.counter("cont_rounds_settled"),
            rounds_failed: reg.counter("cont_rounds_failed"),
            settle_us: reg.histogram("cont_round_settle_us"),
            rounds_per_session: reg.histogram("cont_rounds_per_session"),
        }
    })
}

/// Where a [`ContinuousParty`] is in its round lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPhase {
    /// Fresh (or resynced): no round has settled; mutations accepted.
    Idle,
    /// A round is in flight; mutations are rejected until it resolves.
    Syncing,
    /// At least one round has settled; mutations accepted and the next
    /// round will reconcile only the churn since the last settle.
    Settled,
}

impl fmt::Display for SessionPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SessionPhase::Idle => "idle",
            SessionPhase::Syncing => "syncing",
            SessionPhase::Settled => "settled",
        })
    }
}

/// Everything that can go wrong operating a continuous session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContinuousError {
    /// A mutation arrived while a round was in flight.
    Busy,
    /// A round operation was attempted from the wrong phase.
    BadPhase {
        /// The phase the party was actually in.
        from: SessionPhase,
    },
    /// A round failed (undecodable delta, desynced peer, malformed
    /// frame, or transport stall). Nothing was mutated.
    Round(String),
}

impl fmt::Display for ContinuousError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContinuousError::Busy => f.write_str("set mutation rejected: a round is in flight"),
            ContinuousError::BadPhase { from } => {
                write!(f, "round operation invalid in phase `{from}`")
            }
            ContinuousError::Round(msg) => write!(f, "round failed: {msg}"),
        }
    }
}

impl std::error::Error for ContinuousError {}

/// Shared table parameters for one continuous pair. Both parties must
/// be built from an **equal** config — the journal algebra needs
/// cell-identical layouts, seeds and checksums on both sides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContinuousConfig {
    /// Minimum table cells `m`; sized for the churn bound, not the set.
    pub cells: usize,
    /// Hash functions per key.
    pub q: usize,
    /// Table seed (layout + checksum, shared public coins).
    pub seed: u64,
    /// Count bound used by the wire codec — it must cover the **set**
    /// size, not the churn: the first round's delta holds the whole set
    /// (there is no journal yet), so its per-cell counts scale with n.
    /// This only costs the wire a log(n) count width per cell; the
    /// *number* of cells stays churn-sized, which is where the O(churn)
    /// claim lives. Sets larger than this bound cannot be encoded.
    pub n_bound: usize,
}

impl ContinuousConfig {
    /// A config for rounds whose symmetric difference is at most
    /// `churn_bound` keys: 2 cells per difference key (above the q = 3
    /// peeling threshold of ≈1.22), floored at 24 cells for tiny bounds.
    /// That is not "with high probability" at small sizes: a round fails
    /// when two of its keys share a cell in every partition, and at
    /// `for_churn(42)` (84 cells) with 32 keys 966 of 40,000 seeded
    /// tables did not peel, about 1 round in 41 (`docs/architecture.md`,
    /// "Decode: peeling only"). A failed round mutates nothing and can
    /// be retried. The wire count bound is set for sets up to 2²⁰ keys;
    /// override `n_bound` for larger sets.
    pub fn for_churn(churn_bound: usize, seed: u64) -> ContinuousConfig {
        ContinuousConfig {
            cells: (2 * churn_bound).max(24),
            q: 3,
            seed,
            n_bound: 1 << 20,
        }
    }
}

/// One endpoint of a long-lived reconciliation pair: the resident set
/// and the journal of its changes since the last settle.
#[derive(Debug)]
pub struct ContinuousParty {
    cfg: ContinuousConfig,
    set: BTreeSet<u64>,
    /// Keys whose membership changed since the last settle, `true` for
    /// an insert. `None` before the first settle and after a resync: the
    /// changes are then the whole set, read from `set` itself.
    journal: Option<BTreeMap<u64, bool>>,
    phase: SessionPhase,
    rounds_settled: u32,
    /// Rounds settled since construction, across resyncs.
    lifetime_settled: u32,
    rounds_failed: u32,
    round_started: Option<Instant>,
}

impl ContinuousParty {
    /// Builds a party over an initial set. There is no journal yet, so
    /// the first round reconciles the full initial difference — which
    /// must therefore fit the config's churn bound, like any other
    /// round's delta.
    pub fn new(cfg: ContinuousConfig, initial: impl IntoIterator<Item = u64>) -> ContinuousParty {
        // Key by key: `collect` would buffer and sort a copy of the set.
        let mut set = BTreeSet::new();
        set.extend(initial);
        ContinuousParty {
            cfg,
            set,
            journal: None,
            phase: SessionPhase::Idle,
            rounds_settled: 0,
            lifetime_settled: 0,
            rounds_failed: 0,
            round_started: None,
        }
    }

    /// The shared table parameters.
    pub fn config(&self) -> &ContinuousConfig {
        &self.cfg
    }

    /// The current set.
    pub fn set(&self) -> &BTreeSet<u64> {
        &self.set
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// Rounds this party has settled since construction or its last
    /// [`resync`](ContinuousParty::resync), which resets it — it is the
    /// round index the next round's frames carry. Failed rounds do not
    /// advance it.
    pub fn rounds_settled(&self) -> u32 {
        self.rounds_settled
    }

    /// Rounds that failed and rolled back.
    pub fn rounds_failed(&self) -> u32 {
        self.rounds_failed
    }

    /// Streams one insert: one set insert plus one journal entry.
    /// Rejected while a round is in flight; returns whether the set
    /// changed.
    pub fn insert(&mut self, key: u64) -> Result<bool, ContinuousError> {
        if self.phase == SessionPhase::Syncing {
            return Err(ContinuousError::Busy);
        }
        let changed = self.set.insert(key);
        if changed {
            self.record(key, true);
        }
        Ok(changed)
    }

    /// Streams one delete; the mirror of [`ContinuousParty::insert`].
    pub fn remove(&mut self, key: u64) -> Result<bool, ContinuousError> {
        if self.phase == SessionPhase::Syncing {
            return Err(ContinuousError::Busy);
        }
        let changed = self.set.remove(&key);
        if changed {
            self.record(key, false);
        }
        Ok(changed)
    }

    /// Journals one membership change. A change that undoes the
    /// journalled one (an insert of a key removed since the last settle,
    /// or the reverse) erases the entry instead.
    fn record(&mut self, key: u64, inserted: bool) {
        if let Some(journal) = &mut self.journal {
            if journal.remove(&key).is_none() {
                journal.insert(key, inserted);
            }
        }
    }

    /// Freezes the set for a round: Idle/Settled → Syncing. The round
    /// index the wire frames carry is the number of settled rounds so
    /// far, which detects desynced peers.
    pub fn begin_round(&mut self) -> Result<u32, ContinuousError> {
        match self.phase {
            SessionPhase::Idle | SessionPhase::Settled => {
                self.phase = SessionPhase::Syncing;
                self.round_started = Some(Instant::now());
                Ok(self.rounds_settled)
            }
            SessionPhase::Syncing => Err(ContinuousError::BadPhase { from: self.phase }),
        }
    }

    /// The delta table of the changes since the last settle — what a
    /// round ships. O(m) in the table size plus q cell updates per
    /// journalled key, independent of the set once a round has settled.
    pub fn delta(&self) -> Iblt {
        let mut delta = Iblt::new(self.cfg.cells, self.cfg.q, self.cfg.seed);
        self.apply_changes(&mut delta, false);
        delta
    }

    /// Adds this party's changes since the last settle to `table`:
    /// inserted keys with sign +1 and removed keys with −1, or the
    /// reverse when `negate`.
    fn apply_changes(&self, table: &mut Iblt, negate: bool) {
        let mut apply = |key: u64, inserted: bool| {
            if inserted != negate {
                table.insert(key);
            } else {
                table.delete(key);
            }
        };
        match &self.journal {
            Some(journal) => journal
                .iter()
                .for_each(|(&key, &inserted)| apply(key, inserted)),
            None => self.set.iter().for_each(|&key| apply(key, true)),
        }
    }

    /// Applies the peer-only keys and empties the journal: Syncing →
    /// Settled. Both parties now hold the union, the set the next
    /// round's journals start from.
    fn settle(&mut self, peer_only: &[u64]) {
        debug_assert_eq!(self.phase, SessionPhase::Syncing);
        self.set.extend(peer_only.iter().copied());
        self.journal = Some(BTreeMap::new());
        self.phase = SessionPhase::Settled;
        self.rounds_settled += 1;
        self.lifetime_settled += 1;
        if rsr_obs::enabled() {
            let m = cont_metrics();
            m.rounds_settled.inc();
            if let Some(started) = self.round_started.take() {
                m.settle_us.record(started.elapsed().as_micros() as u64);
            }
        }
        self.round_started = None;
    }

    /// Rolls a failed round back: Syncing → the phase the party was in
    /// before `begin_round`. Set and journal are untouched, so the round
    /// is simply retryable.
    fn abort_round(&mut self) {
        if self.phase == SessionPhase::Syncing {
            self.phase = if self.rounds_settled > 0 {
                SessionPhase::Settled
            } else {
                SessionPhase::Idle
            };
            self.rounds_failed += 1;
            self.round_started = None;
            if rsr_obs::enabled() {
                cont_metrics().rounds_failed.inc();
            }
        }
    }

    /// Recovers from a desynced peer (a half-settled round whose reply
    /// was lost): drops the journal and rewinds the round index, so the
    /// next round reconciles the full current difference from a state
    /// both sides can agree on — run it on **both** parties. Rejected
    /// mid-round.
    pub fn resync(&mut self) -> Result<(), ContinuousError> {
        if self.phase == SessionPhase::Syncing {
            return Err(ContinuousError::BadPhase { from: self.phase });
        }
        self.journal = None;
        self.rounds_settled = 0;
        self.phase = SessionPhase::Idle;
        Ok(())
    }

    /// The frame a round opens with: the round index and the delta.
    fn delta_frame(&self, round: u32) -> Frame {
        let delta = self.delta();
        let mut w = BitWriter::with_capacity(32 + delta.wire_bits(self.cfg.n_bound));
        w.write(round as u64, 32);
        delta.write_to(&mut w, self.cfg.n_bound);
        Frame::seal("round: delta table", w)
    }

    fn decode_delta_frame(&self, frame: &Frame) -> Result<(u32, Iblt), String> {
        frame
            .decode_exact(|r| {
                let round = r.read(32)? as u32;
                let table = Iblt::read_from(
                    r,
                    self.cfg.cells,
                    self.cfg.q,
                    self.cfg.seed,
                    self.cfg.n_bound,
                )?;
                Some((round, table))
            })
            .ok_or_else(|| "malformed round delta frame".to_owned())
    }
}

impl Drop for ContinuousParty {
    fn drop(&mut self) {
        if rsr_obs::enabled() && self.lifetime_settled > 0 {
            cont_metrics()
                .rounds_per_session
                .record(u64::from(self.lifetime_settled));
        }
    }
}

/// A [`ContinuousParty`] shared between its owner (who streams churn
/// into it between rounds) and the per-round [`Session`]s that drive it
/// over whatever transport — each round locks per call, so the handle
/// is `Send + Sync` and a networked executor can own the round session
/// while the application keeps mutating between rounds.
pub type SharedParty = Arc<Mutex<ContinuousParty>>;

/// Wraps a party for sharing with round sessions.
pub fn shared(party: ContinuousParty) -> SharedParty {
    Arc::new(Mutex::new(party))
}

fn lock(party: &SharedParty) -> std::sync::MutexGuard<'_, ContinuousParty> {
    party.lock().unwrap_or_else(|e| e.into_inner())
}

/// The reply frame: round index plus the keys only the replier held.
fn keys_frame(round: u32, keys: &[u64]) -> Frame {
    let mut w = BitWriter::new();
    w.write(round as u64, 32);
    put_len(&mut w, keys.len());
    for &key in keys {
        w.write(key, 64);
    }
    Frame::seal("round: peer-only keys", w)
}

fn decode_keys_frame(frame: &Frame) -> Result<(u32, Vec<u64>), String> {
    frame
        .decode_exact(|r| {
            let round = r.read(32)? as u32;
            let count = get_len(r)?;
            let keys = (0..count)
                .map(|_| r.read(64))
                .collect::<Option<Vec<u64>>>()?;
            Some((round, keys))
        })
        .ok_or_else(|| "malformed round reply frame".to_owned())
}

/// The initiating half of one round: sends the local delta, waits for
/// the peer-only key list, settles. Dropping it unfinished (transport
/// death) rolls the party's round back automatically.
pub struct AliceRound {
    party: SharedParty,
    round: u32,
    delta: Option<Frame>,
    done: bool,
}

impl AliceRound {
    /// Begins a round on `party` (must be Idle or Settled).
    pub fn begin(party: &SharedParty) -> Result<AliceRound, ContinuousError> {
        let mut p = lock(party);
        let round = p.begin_round()?;
        let delta = Some(p.delta_frame(round));
        drop(p);
        Ok(AliceRound {
            party: Arc::clone(party),
            round,
            delta,
            done: false,
        })
    }

    /// The round index this session is driving.
    pub fn round(&self) -> u32 {
        self.round
    }

    fn fail(&mut self, msg: String) -> String {
        lock(&self.party).abort_round();
        self.done = true; // rolled back; Drop must not abort again
        msg
    }
}

impl Session for AliceRound {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(self.delta.take())
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        if self.done {
            return Err(self.fail("unexpected frame after round settled".into()));
        }
        let (round, peer_only) = match decode_keys_frame(&frame) {
            Ok(decoded) => decoded,
            Err(e) => return Err(self.fail(e)),
        };
        if round != self.round {
            return Err(self.fail(format!(
                "desynced peer: reply for round {round}, expected {} (resync required)",
                self.round
            )));
        }
        lock(&self.party).settle(&peer_only);
        self.done = true;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn protocol(&self) -> &'static str {
        "continuous"
    }
}

impl Drop for AliceRound {
    fn drop(&mut self) {
        if !self.done {
            lock(&self.party).abort_round();
        }
    }
}

/// The responding half of one round: receives the peer's delta,
/// subtracts its own, decodes the live symmetric difference, settles,
/// and replies with the keys only it held. Dropping it unfinished rolls
/// the round back.
pub struct BobRound {
    party: SharedParty,
    round: u32,
    reply: Option<Frame>,
    replied: bool,
}

impl BobRound {
    /// Begins a round on `party` (must be Idle or Settled).
    pub fn begin(party: &SharedParty) -> Result<BobRound, ContinuousError> {
        let round = lock(party).begin_round()?;
        Ok(BobRound {
            party: Arc::clone(party),
            round,
            reply: None,
            replied: false,
        })
    }

    fn fail(&mut self, msg: String) -> String {
        lock(&self.party).abort_round();
        self.replied = true; // rolled back; Drop must not abort again
        msg
    }
}

impl Session for BobRound {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        let reply = self.reply.take();
        if reply.is_some() {
            self.replied = true;
        }
        Ok(reply)
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        if self.replied || self.reply.is_some() {
            return Err(self.fail("unexpected second frame in a round".into()));
        }
        let mut p = lock(&self.party);
        let (round, their_delta) = match p.decode_delta_frame(&frame) {
            Ok(decoded) => decoded,
            Err(e) => {
                drop(p);
                return Err(self.fail(e));
            }
        };
        if round != self.round {
            drop(p);
            return Err(self.fail(format!(
                "desynced peer: delta for round {round}, expected {} (resync required)",
                self.round
            )));
        }
        // Δ_peer − Δ_mine = T_peer − T_mine: peel the live difference.
        let mut diff = their_delta;
        p.apply_changes(&mut diff, true);
        let decoded = diff.decode();
        if !decoded.complete {
            let cells = p.cfg.cells;
            drop(p);
            return Err(self.fail(format!(
                "round {round}: delta did not decode (churn exceeded the {cells}-cell table bound?)"
            )));
        }
        // Positive survivors came from the peer's table: keys only it
        // holds. Negative survivors are ours alone — the reply payload.
        p.settle(&decoded.inserted);
        drop(p);
        self.reply = Some(keys_frame(round, &decoded.deleted));
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.replied
    }

    fn protocol(&self) -> &'static str {
        "continuous"
    }
}

impl Drop for BobRound {
    fn drop(&mut self) {
        if !self.replied {
            lock(&self.party).abort_round();
        }
    }
}

/// An in-process continuous pair plus its per-round transcript
/// segments — the single-process counterpart of driving round sessions
/// over a transport, and the reference driver the C1 churn sweep
/// (`rsr-exp net`) measures.
pub struct ContinuousSession {
    alice: SharedParty,
    bob: SharedParty,
    segments: Vec<Transcript>,
}

impl ContinuousSession {
    /// Pairs two freshly built parties (their configs must be equal).
    pub fn new(alice: ContinuousParty, bob: ContinuousParty) -> ContinuousSession {
        assert_eq!(
            alice.config(),
            bob.config(),
            "continuous parties must share table parameters"
        );
        ContinuousSession::from_shared(shared(alice), shared(bob))
    }

    /// Pairs two already-shared parties.
    pub fn from_shared(alice: SharedParty, bob: SharedParty) -> ContinuousSession {
        ContinuousSession {
            alice,
            bob,
            segments: Vec::new(),
        }
    }

    /// Alice's handle, for streaming churn between rounds.
    pub fn alice(&self) -> SharedParty {
        Arc::clone(&self.alice)
    }

    /// Bob's handle, for streaming churn between rounds.
    pub fn bob(&self) -> SharedParty {
        Arc::clone(&self.bob)
    }

    /// Drives one full round in memory: both parties freeze, exchange
    /// delta and reply, settle to the union. On success the round's
    /// transcript segment is appended and returned; on failure nothing
    /// is mutated and both parties are back in their pre-round phase.
    pub fn drive_round(&mut self) -> Result<&Transcript, ContinuousError> {
        let mut alice = AliceRound::begin(&self.alice)?;
        // A begin failure here rolls Alice back via AliceRound::drop.
        let mut bob = BobRound::begin(&self.bob)?;
        let transcript = drive_in_memory(Party::Alice, &mut alice, &mut bob)
            .map_err(|e| ContinuousError::Round(e.to_string()))?;
        self.segments.push(transcript);
        Ok(self.segments.last().expect("just pushed"))
    }

    /// Transcript segments of every settled round, in order.
    pub fn segments(&self) -> &[Transcript] {
        &self.segments
    }

    /// Rounds settled through this driver.
    pub fn rounds(&self) -> usize {
        self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cfg: ContinuousConfig, a: &[u64], b: &[u64]) -> ContinuousSession {
        ContinuousSession::new(
            ContinuousParty::new(cfg, a.iter().copied()),
            ContinuousParty::new(cfg, b.iter().copied()),
        )
    }

    fn sets_equal(s: &ContinuousSession) -> bool {
        lock(&s.alice()).set() == lock(&s.bob()).set()
    }

    #[test]
    fn first_round_reconciles_the_initial_difference() {
        let cfg = ContinuousConfig::for_churn(16, 42);
        let mut s = pair(cfg, &[1, 2, 3, 10], &[3, 4, 5]);
        let t = s.drive_round().expect("round settles");
        assert!(t.total_bits() > 0);
        assert!(sets_equal(&s));
        let expect: BTreeSet<u64> = [1, 2, 3, 4, 5, 10].into();
        assert_eq!(*lock(&s.alice()).set(), expect);
        assert_eq!(lock(&s.alice()).phase(), SessionPhase::Settled);
        assert_eq!(lock(&s.bob()).rounds_settled(), 1);
    }

    #[test]
    fn churned_rounds_settle_to_the_union_of_current_sets() {
        let cfg = ContinuousConfig::for_churn(32, 7);
        let base: Vec<u64> = (0..500).collect();
        let mut s = pair(cfg, &base, &base);
        s.drive_round().expect("round 0");
        for r in 1..6u64 {
            {
                let alice = s.alice();
                let mut a = lock(&alice);
                a.insert(10_000 + r).unwrap();
                a.remove(r).unwrap();
            }
            {
                let bob = s.bob();
                let mut b = lock(&bob);
                b.insert(20_000 + r).unwrap();
            }
            s.drive_round().unwrap_or_else(|e| panic!("round {r}: {e}"));
            assert!(sets_equal(&s), "round {r} diverged");
            // Union semantics: Alice's deletes resurface from Bob.
            assert!(lock(&s.alice()).set().contains(&r));
            assert!(lock(&s.alice()).set().contains(&(20_000 + r)));
        }
        assert_eq!(s.rounds(), 6);
        assert_eq!(lock(&s.alice()).rounds_settled(), 6);
    }

    #[test]
    fn round_wire_cost_is_independent_of_set_size() {
        // The headline invariant: at fixed churn, a round's bits do not
        // grow with n. Identical churn over a 100-key and a 10,000-key
        // base set must produce byte-identical round traffic.
        let cfg = ContinuousConfig::for_churn(16, 99);
        let mut bits = Vec::new();
        for n in [100u64, 10_000] {
            let base: Vec<u64> = (0..n).collect();
            let mut s = pair(cfg, &base, &base);
            s.drive_round().expect("initial settle");
            lock(&s.alice()).insert(1 << 40).unwrap();
            lock(&s.bob()).insert(1 << 41).unwrap();
            let t = s.drive_round().expect("churn round");
            bits.push(t.total_bits());
        }
        assert_eq!(bits[0], bits[1]);
    }

    #[test]
    fn mutations_are_rejected_mid_round() {
        let cfg = ContinuousConfig::for_churn(8, 3);
        let party = shared(ContinuousParty::new(cfg, [1, 2]));
        let _alice = AliceRound::begin(&party).expect("begin");
        assert_eq!(lock(&party).insert(9), Err(ContinuousError::Busy));
        assert_eq!(lock(&party).remove(1), Err(ContinuousError::Busy));
        assert_eq!(
            lock(&party).begin_round(),
            Err(ContinuousError::BadPhase {
                from: SessionPhase::Syncing
            })
        );
    }

    #[test]
    fn overflowing_churn_fails_cleanly_and_is_retryable() {
        let cfg = ContinuousConfig::for_churn(4, 5);
        let base: Vec<u64> = (0..50).collect();
        let mut s = pair(cfg, &base, &base);
        s.drive_round().expect("initial settle");
        {
            let alice = s.alice();
            let mut a = lock(&alice);
            for k in 1000..1100u64 {
                a.insert(k).unwrap();
            }
        }
        let err = s.drive_round().expect_err("churn over bound");
        assert!(matches!(err, ContinuousError::Round(_)), "got {err:?}");
        // Nothing mutated: Bob never learned the keys, Alice kept hers,
        // both phases rolled back to Settled and remain usable.
        assert!(!lock(&s.bob()).set().contains(&1000));
        assert!(lock(&s.alice()).set().contains(&1000));
        assert_eq!(lock(&s.alice()).phase(), SessionPhase::Settled);
        assert_eq!(lock(&s.alice()).rounds_failed(), 1);
        // Retry after the overflow drains: delete the excess and go.
        {
            let alice = s.alice();
            let mut a = lock(&alice);
            for k in 1002..1100u64 {
                a.remove(k).unwrap();
            }
        }
        s.drive_round().expect("retry settles");
        assert!(sets_equal(&s));
        assert!(lock(&s.bob()).set().contains(&1000));
    }

    #[test]
    fn dropping_an_unfinished_round_rolls_back() {
        let cfg = ContinuousConfig::for_churn(8, 6);
        let party = shared(ContinuousParty::new(cfg, [1]));
        let alice = AliceRound::begin(&party).expect("begin");
        assert_eq!(lock(&party).phase(), SessionPhase::Syncing);
        drop(alice); // transport died mid-round
        assert_eq!(lock(&party).phase(), SessionPhase::Idle);
        assert_eq!(lock(&party).rounds_failed(), 1);
        // The party is immediately usable again.
        lock(&party).insert(2).expect("mutable after rollback");
        assert!(AliceRound::begin(&party).is_ok());
    }

    #[test]
    fn desynced_round_counters_are_detected_and_resync_recovers() {
        let cfg = ContinuousConfig::for_churn(16, 8);
        let mut s = pair(cfg, &[1, 2], &[2, 3]);
        s.drive_round().expect("round 0");
        // Simulate a half-settled round: Bob alone settles again (his
        // reply to Alice was "lost"), so the counters now disagree.
        {
            let bob = s.bob();
            let mut b = lock(&bob);
            b.begin_round().expect("begin");
            b.settle(&[]);
        }
        let err = s.drive_round().expect_err("desync detected");
        assert!(err.to_string().contains("desync"), "got {err}");
        // Recovery: resync both sides, then reconcile fully.
        lock(&s.alice()).resync().expect("resync alice");
        lock(&s.bob()).resync().expect("resync bob");
        lock(&s.alice()).insert(50).unwrap();
        s.drive_round().expect("post-resync round");
        assert!(sets_equal(&s));
        assert!(lock(&s.bob()).set().contains(&50));
    }

    #[test]
    fn transcript_segments_accumulate_per_round() {
        let cfg = ContinuousConfig::for_churn(8, 12);
        let mut s = pair(cfg, &[1], &[2]);
        s.drive_round().expect("round 0");
        lock(&s.alice()).insert(77).unwrap();
        s.drive_round().expect("round 1");
        assert_eq!(s.segments().len(), 2);
        // Every segment is one delta + one reply: two messages, two
        // direction changes.
        for seg in s.segments() {
            assert_eq!(seg.num_messages(), 2);
            assert_eq!(seg.num_rounds(), 2);
        }
    }
}
