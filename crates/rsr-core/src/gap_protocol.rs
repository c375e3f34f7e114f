//! The Gap Guarantee protocol of §4.1 (Theorem 4.2).
//!
//! Four rounds. Each party builds, for every point, a **key**: a vector of
//! `h = Θ(log n)` entries, each entry a pairwise hash of a batch of
//! `m = ⌈log_{p2}(1/2)⌉` LSH values. Far points (distance > r2) get keys
//! that agree in few entries; close points (distance ≤ r1) agree in most.
//! Rounds 1–3 run the sets-of-sets reconciliation substrate so Alice
//! recovers the multiset of Bob's keys; in round 4 she transmits every
//! element whose key differs in sufficiently many entries
//! (`> h·(1/2 − ε/6)` mismatches, i.e. fewer than `h·(1/2 + ε/6)`
//! matches) from every one of Bob's keys. Bob finishes with
//! `S'_B = S_B ∪ T_A`, which contains a point within `r2` of every point
//! of `S_A` with probability ≥ 1 − 1/n.

use crate::channel::Frame;
use crate::session::{drive_in_memory, DriveError, Session};
use crate::transcript::{Party, Transcript};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsr_hash::keys::{BatchKeyer, GapKey};
use rsr_hash::mix::hash_words;
use rsr_hash::LshFamily;
use rsr_iblt::bits::BitWriter;
use rsr_metric::{MetricSpace, Point};
use rsr_obs::Counter;
use rsr_setsofsets::protocol::{alice_finish, alice_round2, bob_round1, bob_round3};
use rsr_setsofsets::wire as sos_wire;
use rsr_setsofsets::{
    estimate_fp_cells, AliceState, BobState, Round2, SosConfig, SosError, Splice,
};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Transcript labels of the four messages, in order.
pub(crate) const GAP_LABELS: [&str; 4] = [
    "bob→alice: fingerprint IBLT",
    "alice→bob: requested fingerprints",
    "bob→alice: differing keys",
    "alice→bob: far elements",
];

/// Parameters of the Gap protocol (derive with [`GapConfig::for_params`]).
#[derive(Clone, Copy, Debug)]
pub struct GapConfig {
    /// Near radius `r1`.
    pub r1: f64,
    /// Far radius `r2`.
    pub r2: f64,
    /// Bound `k` on far points per side.
    pub k: usize,
    /// Entries per key, `h = Θ(log n)`.
    pub h: usize,
    /// LSH values per entry, `m = ⌈log_{p2}(1/2)⌉`.
    pub m: usize,
    /// Bits per key entry (`Θ(log n)`).
    pub entry_bits: u32,
    /// Minimum entry matches for a key to count as *close* to one of
    /// Bob's. Theorem 4.2 uses `⌈h(1/2 + ε/6)⌉`; Theorem 4.5 uses 1.
    pub close_threshold: usize,
    /// Cells for the sets-of-sets fingerprint IBLT.
    pub fp_cells: usize,
}

impl GapConfig {
    /// Derives the Theorem 4.2 parameters from the LSH family's
    /// `(r1, r2, p1, p2)` guarantee and the instance size.
    ///
    /// Requires `ρ = log p1 / log p2 ≤ 1 − ε` for some `ε > 0`, which
    /// holds whenever `p1 > p2`.
    pub fn for_params(params: rsr_hash::lsh::LshParams, n: usize, k: usize) -> Self {
        let n = n.max(2);
        let rho = params.rho();
        let epsilon = (1.0 - rho).max(0.05);
        // m = ⌈log_{p2}(1/2)⌉ so a far pair matches a batch w.p. ≤ 1/2.
        let m = if params.p2 <= 0.5 {
            1
        } else {
            ((0.5f64).ln() / params.p2.ln()).ceil() as usize
        };
        // 8·⌈log₂ n⌉ entries: the far side's per-entry match probability
        // can sit just under the threshold fraction when a far pair lies
        // barely beyond r2, so the batch count needs enough concentration
        // to push the false-close tail below 1/n per far point.
        let h = ((n as f64).log2().ceil() as usize * 8).max(24);
        let close_threshold = ((h as f64) * (0.5 + epsilon / 6.0)).ceil() as usize;
        let log_n = (n as f64).log2().ceil() as u32;
        // Expected number of differing keys: k far per side plus close
        // pairs whose mh LSH draws did not all agree.
        let p_key_equal = params.p1.powf((m * h) as f64);
        let expected_diffs = 2 * (k + ((n as f64) * (1.0 - p_key_equal)).ceil() as usize) + 4;
        GapConfig {
            r1: params.r1,
            r2: params.r2,
            k,
            h,
            m,
            entry_bits: (2 * log_n + 6).clamp(16, 61),
            close_threshold: close_threshold.min(h),
            fp_cells: estimate_fp_cells(expected_diffs),
        }
    }
}

/// Errors of the Gap protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GapError {
    /// The sets-of-sets substrate failed (difference exceeded sizing).
    SetsOfSets(SosError),
    /// The session layer failed: a frame did not decode or arrived out of
    /// protocol order. Cannot happen on a faithful transport.
    Session(&'static str),
    /// A key Bob shipped in round 3 does not have the protocol's `h`
    /// entries. Cannot happen with a faithful peer.
    KeyLength {
        /// Entries per key, `h`.
        expected: usize,
        /// Entries the shipped key has.
        got: usize,
    },
}

impl fmt::Display for GapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GapError::SetsOfSets(e) => write!(f, "sets-of-sets reconciliation failed: {e}"),
            GapError::Session(what) => write!(f, "session layer failure: {what}"),
            GapError::KeyLength { expected, got } => {
                write!(f, "peer shipped a key of {got} entries, not {expected}")
            }
        }
    }
}

impl std::error::Error for GapError {}

impl From<SosError> for GapError {
    fn from(e: SosError) -> Self {
        GapError::SetsOfSets(e)
    }
}

/// Result of a Gap protocol run.
#[derive(Clone, Debug)]
pub struct GapOutcome {
    /// Bob's final set `S'_B = S_B ∪ T_A`.
    pub reconciled: Vec<Point>,
    /// The transmitted far points `T_A ⊆ S_A`.
    pub transmitted: Vec<Point>,
    /// Number of Alice keys classified far.
    pub far_keys: usize,
    /// Communication transcript (4 messages).
    pub transcript: Transcript,
}

/// The Gap Guarantee protocol, generic over the LSH family. The family
/// is a name only: its draws live in the keyer.
pub struct GapProtocol<F: LshFamily> {
    space: MetricSpace,
    config: GapConfig,
    keyer: BatchKeyer,
    family: PhantomData<F>,
}

impl<F: LshFamily> GapProtocol<F> {
    /// Creates the protocol; both parties use the same family, config and
    /// seed (public coins).
    pub fn new(space: MetricSpace, family: &F, config: GapConfig, seed: u64) -> Self {
        assert!(config.r1 < config.r2);
        assert!(config.h >= 1 && config.m >= 1);
        assert!(config.close_threshold >= 1 && config.close_threshold <= config.h);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a90_0001);
        let keyer = BatchKeyer::sample(family, config.h, config.m, config.entry_bits, &mut rng);
        GapProtocol {
            space,
            config,
            keyer,
            family: PhantomData,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GapConfig {
        &self.config
    }

    /// The key of a point (exposed for experiments).
    pub fn key_of(&self, p: &Point) -> GapKey {
        self.keyer.key(p)
    }

    /// One side's keys, `h` words each, in point order.
    fn side_keys(&self, points: &[Point]) -> Vec<u64> {
        let (keys, chained) = self.keyer.keys(points);
        if rsr_obs::enabled() {
            gap_metrics().points_chained.add(chained as u64);
        }
        keys
    }

    /// One side's keys, `h` words each, as the sets-of-sets children.
    fn children<'k>(&self, keys: &'k [u64]) -> Vec<&'k [u64]> {
        keys.chunks_exact(self.config.h).collect()
    }

    /// The sets-of-sets configuration the protocol's rounds 1–3 use
    /// (shared public coins).
    fn sos_config(&self) -> SosConfig {
        SosConfig {
            fp_cells: self.config.fp_cells,
            q: 3,
            seed: 0x6a90_5050,
            entry_bits: self.config.entry_bits,
        }
    }

    /// Alice's session endpoint over `alice`'s points.
    pub fn alice_session<'a>(&'a self, alice: &'a [Point]) -> GapAliceSession<'a, F> {
        GapAliceSession {
            proto: self,
            alice,
            keys: self.side_keys(alice),
            state: AliceSessionState::AwaitRound1,
            transmitted: None,
            far_keys: 0,
        }
    }

    /// Bob's session endpoint over `bob`'s points.
    pub fn bob_session<'a>(&'a self, bob: &'a [Point]) -> GapBobSession<'a, F> {
        GapBobSession {
            proto: self,
            bob,
            keys: self.side_keys(bob),
            state: BobSessionState::SendRound1,
            reconciled: None,
        }
    }

    /// Runs the full four-round protocol through the session layer.
    ///
    /// The message flow is Bob → Alice → Bob → Alice (rounds 1–3, the
    /// sets-of-sets substrate) then Alice → Bob (round 4, far elements).
    /// Every transcript entry is the measured size of the encoded frame.
    pub fn run(&self, alice: &[Point], bob: &[Point]) -> Result<GapOutcome, GapError> {
        let mut a = self.alice_session(alice);
        let mut b = self.bob_session(bob);
        let transcript = drive_in_memory(Party::Bob, &mut a, &mut b).map_err(|e| match e {
            DriveError::Session(e) => e,
            DriveError::Stalled => GapError::Session("sessions stalled"),
        })?;
        let reconciled = b.into_reconciled().expect("bob finished");
        let (transmitted, far_keys) = a.into_transmitted().expect("alice finished");
        Ok(GapOutcome {
            reconciled,
            transmitted,
            far_keys,
            transcript,
        })
    }
}

/// `gap_points_chained` (points keyed by the batch chain rather than the
/// bit-sampling table) and `gap_far_key_compares` (full-key comparisons
/// in Alice's far test), resolved once and recorded behind
/// [`rsr_obs::enabled`].
struct GapMetrics {
    points_chained: Arc<Counter>,
    far_key_compares: Arc<Counter>,
}

fn gap_metrics() -> &'static GapMetrics {
    static METRICS: OnceLock<GapMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rsr_obs::global();
        GapMetrics {
            points_chained: reg.counter("gap_points_chained"),
            far_key_compares: reg.counter("gap_far_key_compares"),
        }
    })
}

/// Alice's session states, in protocol order.
enum AliceSessionState {
    AwaitRound1,
    SendRound2 { round2: Round2, state: AliceState },
    AwaitRound3 { state: AliceState },
    SendRound4 { far: Vec<Point> },
    Done,
}

/// Alice's half of the Gap protocol: recover Bob's key multiset through
/// rounds 1–3, classify her keys, ship the far elements.
pub struct GapAliceSession<'a, F: LshFamily> {
    proto: &'a GapProtocol<F>,
    alice: &'a [Point],
    /// Alice's keys, `h` words each, in point order.
    keys: Vec<u64>,
    state: AliceSessionState,
    transmitted: Option<Vec<Point>>,
    far_keys: usize,
}

impl<F: LshFamily> GapAliceSession<'_, F> {
    /// The far elements Alice shipped plus her far-key count, once done.
    pub fn into_transmitted(self) -> Option<(Vec<Point>, usize)> {
        self.transmitted.map(|t| (t, self.far_keys))
    }
}

impl<F: LshFamily> Session for GapAliceSession<'_, F> {
    type Error = GapError;

    fn protocol(&self) -> &'static str {
        "gap"
    }

    fn poll_send(&mut self) -> Result<Option<Frame>, GapError> {
        match std::mem::replace(&mut self.state, AliceSessionState::Done) {
            AliceSessionState::SendRound2 { round2, state } => {
                let mut w = BitWriter::new();
                sos_wire::put_round2(&mut w, &round2);
                self.state = AliceSessionState::AwaitRound3 { state };
                Ok(Some(Frame::seal(GAP_LABELS[1], w)))
            }
            AliceSessionState::SendRound4 { far } => {
                let mut w = BitWriter::new();
                crate::wire::put_points(&mut w, &far, self.proto.space.universe());
                self.far_keys = far.len();
                self.transmitted = Some(far);
                // `mem::replace` above already left the state at Done.
                Ok(Some(Frame::seal(GAP_LABELS[3], w)))
            }
            other => {
                self.state = other;
                Ok(None)
            }
        }
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), GapError> {
        match std::mem::replace(&mut self.state, AliceSessionState::Done) {
            AliceSessionState::AwaitRound1 => {
                let sos_cfg = self.proto.sos_config();
                let r1 = frame
                    .decode_exact(|r| sos_wire::get_round1(r, &sos_cfg))
                    .ok_or(GapError::Session("round-1 frame did not decode"))?;
                let (round2, state) = alice_round2(&self.proto.children(&self.keys), &r1, &sos_cfg)
                    .map_err(GapError::SetsOfSets)?;
                self.state = AliceSessionState::SendRound2 { round2, state };
                Ok(())
            }
            AliceSessionState::AwaitRound3 { state } => {
                let sos_cfg = self.proto.sos_config();
                let r3 = frame
                    .decode_exact(sos_wire::get_round3)
                    .ok_or(GapError::Session("round-3 frame did not decode"))?;
                let splice = alice_finish(&self.proto.children(&self.keys), &state, r3, &sos_cfg)
                    .map_err(GapError::SetsOfSets)?;
                let h = self.proto.config.h;
                if let Some(key) = splice.bob_only.iter().find(|key| key.len() != h) {
                    return Err(GapError::KeyLength {
                        expected: h,
                        got: key.len(),
                    });
                }
                let (far_mask, compares) =
                    far_keys(&self.keys, h, &splice, self.proto.config.close_threshold);
                if rsr_obs::enabled() {
                    gap_metrics().far_key_compares.add(compares);
                }
                let far: Vec<Point> = self
                    .alice
                    .iter()
                    .zip(far_mask)
                    .filter(|&(_, far)| far)
                    .map(|(p, _)| p.clone())
                    .collect();
                self.state = AliceSessionState::SendRound4 { far };
                Ok(())
            }
            _ => Err(GapError::Session("frame arrived out of protocol order")),
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, AliceSessionState::Done) && self.transmitted.is_some()
    }
}

/// Entry bands Alice's far test probes before it scans: band `b` is
/// entries `3b .. 3b + 3`, clipped to `h`.
const PROBE_BANDS: usize = 3;
const BAND_ENTRIES: usize = 3;

/// The non-empty probe bands of an `h`-entry key.
fn probe_bands(h: usize) -> impl Iterator<Item = Range<usize>> {
    (0..PROBE_BANDS)
        .map(move |b| (b * BAND_ENTRIES).min(h)..((b + 1) * BAND_ENTRIES).min(h))
        .filter(|band| !band.is_empty())
}

/// Alice's far test: `far[i]` iff her key `i` matches no key of Bob's
/// multiset in `threshold` or more entries, plus the number of full-key
/// comparisons it made. Bob's multiset is round 3's children plus her
/// kept keys, so a kept key matches itself in all `h ≥ threshold`
/// entries and is close.
///
/// An Alice-only key is first checked against the keys of Bob's that
/// equal it on one of a few entry bands (a close partner almost always
/// shares one), found in a sorted index per band; only when none of them
/// reaches `threshold` is it scanned against all of Bob's multiset, as
/// the definition reads. The bands only order the search: a key is far
/// exactly when no key of Bob's reaches the threshold.
fn far_keys(keys: &[u64], h: usize, splice: &Splice, threshold: usize) -> (Vec<bool>, u64) {
    debug_assert!(threshold <= h);
    let keys = || keys.chunks_exact(h).zip(&splice.kept);
    let bob: Vec<&[u64]> = splice
        .bob_only
        .iter()
        .map(Vec::as_slice)
        .chain(keys().filter(|&(_, &kept)| kept).map(|(key, _)| key))
        .collect();
    let band_value =
        |key: &[u64], band: &Range<usize>| hash_words(band.start as u64, &key[band.clone()]);
    let index: Vec<_> = probe_bands(h)
        .map(|band| {
            let mut sorted: Vec<(u64, usize)> = bob
                .iter()
                .enumerate()
                .map(|(i, key)| (band_value(key, &band), i))
                .collect();
            sorted.sort_unstable();
            (band, sorted)
        })
        .collect();
    let mut compares = 0;
    let mut close = |key: &[u64], bk: &[u64]| {
        compares += 1;
        BatchKeyer::matches(key, bk) >= threshold
    };
    let far = keys()
        .map(|(key, &kept)| {
            if kept {
                return false;
            }
            for (band, sorted) in &index {
                let value = band_value(key, band);
                let from = sorted.partition_point(|&(v, _)| v < value);
                for &(_, i) in sorted[from..].iter().take_while(|&&(v, _)| v == value) {
                    if close(key, bob[i]) {
                        return false;
                    }
                }
            }
            !bob.iter().any(|bk| close(key, bk))
        })
        .collect();
    (far, compares)
}

/// Bob's session states, in protocol order.
enum BobSessionState {
    SendRound1,
    AwaitRound2 { sos: BobState },
    SendRound3 { round2: Round2, sos: BobState },
    AwaitRound4,
    Done,
}

/// Bob's half of the Gap protocol: summarize keys, answer the content
/// request, absorb the far elements.
pub struct GapBobSession<'a, F: LshFamily> {
    proto: &'a GapProtocol<F>,
    bob: &'a [Point],
    /// Bob's keys, `h` words each, in point order.
    keys: Vec<u64>,
    state: BobSessionState,
    reconciled: Option<Vec<Point>>,
}

impl<F: LshFamily> GapBobSession<'_, F> {
    /// Bob's final set `S'_B = S_B ∪ T_A`, once the session is done.
    pub fn into_reconciled(self) -> Option<Vec<Point>> {
        self.reconciled
    }
}

impl<F: LshFamily> Session for GapBobSession<'_, F> {
    type Error = GapError;

    fn protocol(&self) -> &'static str {
        "gap"
    }

    fn poll_send(&mut self) -> Result<Option<Frame>, GapError> {
        match std::mem::replace(&mut self.state, BobSessionState::Done) {
            BobSessionState::SendRound1 => {
                let (r1, sos) =
                    bob_round1(&self.proto.children(&self.keys), &self.proto.sos_config());
                let mut w = BitWriter::new();
                sos_wire::put_round1(&mut w, &r1);
                self.state = BobSessionState::AwaitRound2 { sos };
                Ok(Some(Frame::seal(GAP_LABELS[0], w)))
            }
            BobSessionState::SendRound3 { round2, sos } => {
                let r3 = bob_round3(&self.proto.children(&self.keys), &sos, &round2)
                    .map_err(GapError::SetsOfSets)?;
                let mut w = BitWriter::new();
                sos_wire::put_round3(&mut w, &r3, &self.proto.sos_config());
                self.state = BobSessionState::AwaitRound4;
                Ok(Some(Frame::seal(GAP_LABELS[2], w)))
            }
            other => {
                self.state = other;
                Ok(None)
            }
        }
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), GapError> {
        match std::mem::replace(&mut self.state, BobSessionState::Done) {
            BobSessionState::AwaitRound2 { sos } => {
                let round2 = frame
                    .decode_exact(sos_wire::get_round2)
                    .ok_or(GapError::Session("round-2 frame did not decode"))?;
                self.state = BobSessionState::SendRound3 { round2, sos };
                Ok(())
            }
            BobSessionState::AwaitRound4 => {
                let far = frame
                    .decode_exact(|r| crate::wire::get_points(r, self.proto.space.universe()))
                    .ok_or(GapError::Session("round-4 frame did not decode"))?;
                let mut reconciled = self.bob.to_vec();
                reconciled.extend(far);
                self.reconciled = Some(reconciled);
                // `mem::replace` above already left the state at Done.
                Ok(())
            }
            _ => Err(GapError::Session("frame arrived out of protocol order")),
        }
    }

    fn is_done(&self) -> bool {
        matches!(self.state, BobSessionState::Done) && self.reconciled.is_some()
    }
}

/// Checks the Gap Guarantee postcondition: every point of `alice` has a
/// point of `reconciled` within `r2`.
pub fn verify_gap_guarantee(
    space: &MetricSpace,
    alice: &[Point],
    reconciled: &[Point],
    r2: f64,
) -> bool {
    alice
        .iter()
        .all(|a| space.nearest_distance(a, reconciled) <= r2 + 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rsr_hash::lsh::LshParams;
    use rsr_hash::BitSamplingFamily;

    /// Sensor-style Hamming workload: shared points with ≤ r1 bits of
    /// noise plus `k` far outliers on Alice's side.
    fn workload(
        n: usize,
        k: usize,
        dim: usize,
        r1: usize,
        r2: usize,
        seed: u64,
    ) -> (MetricSpace, Vec<Point>, Vec<Point>) {
        let space = MetricSpace::hamming(dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alice = Vec::new();
        let mut bob = Vec::new();
        for _ in 0..n - k {
            let base: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
            let mut noisy = base.clone();
            for _ in 0..rng.gen_range(0..=r1) {
                let j = rng.gen_range(0..dim);
                noisy[j] = !noisy[j];
            }
            // Noise may overshoot r1 by flipping the same bit twice; that
            // only makes the instance easier to satisfy, never invalid.
            alice.push(Point::from_bits(&base));
            bob.push(Point::from_bits(&noisy));
        }
        // k far outliers for Alice: flip > r2 bits of a shared base.
        for _ in 0..k {
            let base: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
            bob.push(Point::from_bits(&base));
            let mut far = base;
            for bit in far.iter_mut().take((2 * r2).min(dim)) {
                *bit = !*bit;
            }
            alice.push(Point::from_bits(&far));
        }
        (space, alice, bob)
    }

    fn hamming_family_and_params(dim: usize, r1: f64, r2: f64) -> (BitSamplingFamily, LshParams) {
        let fam = BitSamplingFamily::new(dim, dim as f64);
        let p1 = 1.0 - r1 / dim as f64;
        let p2 = 1.0 - r2 / dim as f64;
        (fam, LshParams::new(r1, r2, p1, p2))
    }

    #[test]
    fn config_derivation_is_sane() {
        let (_, params) = hamming_family_and_params(128, 2.0, 40.0);
        let cfg = GapConfig::for_params(params, 100, 3);
        assert!(cfg.m >= 1);
        assert!(cfg.h >= 16);
        assert!(cfg.close_threshold > cfg.h / 2);
        assert!(cfg.close_threshold <= cfg.h);
        assert!(cfg.fp_cells >= 24);
    }

    #[test]
    fn gap_guarantee_holds_on_sensor_workload() {
        let (space, alice, bob) = workload(60, 2, 128, 2, 40, 100);
        let (fam, params) = hamming_family_and_params(128, 2.0, 40.0);
        let cfg = GapConfig::for_params(params, 60, 2);
        let proto = GapProtocol::new(space, &fam, cfg, 101);
        let out = proto.run(&alice, &bob).expect("protocol should succeed");
        assert!(
            verify_gap_guarantee(&space, &alice, &out.reconciled, 40.0),
            "gap guarantee violated"
        );
        assert_eq!(out.transcript.num_messages(), 4);
    }

    #[test]
    fn far_points_are_transmitted() {
        let (space, alice, bob) = workload(40, 3, 128, 1, 50, 102);
        let (fam, params) = hamming_family_and_params(128, 1.0, 50.0);
        let cfg = GapConfig::for_params(params, 40, 3);
        let proto = GapProtocol::new(space, &fam, cfg, 103);
        let out = proto.run(&alice, &bob).unwrap();
        // Every Alice point at distance > r2 from all of Bob's must be in
        // the transmitted set (T_A contains at least those).
        for a in &alice {
            if space.nearest_distance(a, &bob) > 50.0 {
                assert!(
                    out.transmitted.contains(a),
                    "far point not transmitted: {a:?}"
                );
            }
        }
        assert!(out.far_keys >= 3);
    }

    #[test]
    fn identical_sets_transmit_nothing() {
        let space = MetricSpace::hamming(64);
        let mut rng = StdRng::seed_from_u64(104);
        let pts: Vec<Point> = (0..50)
            .map(|_| Point::from_bits(&(0..64).map(|_| rng.gen()).collect::<Vec<bool>>()))
            .collect();
        let (fam, params) = hamming_family_and_params(64, 1.0, 20.0);
        let cfg = GapConfig::for_params(params, 50, 1);
        let proto = GapProtocol::new(space, &fam, cfg, 105);
        let out = proto.run(&pts, &pts).unwrap();
        assert!(out.transmitted.is_empty());
        assert_eq!(out.reconciled.len(), 50);
    }

    #[test]
    fn close_transmissions_are_rare() {
        // False positives (close points transmitted) waste bandwidth but
        // never break correctness; they should be rare.
        let (space, alice, bob) = workload(80, 0, 128, 1, 40, 106);
        let (fam, params) = hamming_family_and_params(128, 1.0, 40.0);
        let cfg = GapConfig::for_params(params, 80, 0);
        let proto = GapProtocol::new(space, &fam, cfg, 107);
        let out = proto.run(&alice, &bob).unwrap();
        assert!(
            out.transmitted.len() <= 8,
            "too many spurious transmissions: {}",
            out.transmitted.len()
        );
    }

    /// Today's classifier, kept as the model of [`far_keys`]: every Alice
    /// key against every key of Bob's multiset.
    fn far_keys_all_pairs(
        keys: &[u64],
        h: usize,
        bob_multiset: &[Vec<u64>],
        threshold: usize,
    ) -> Vec<bool> {
        keys.chunks_exact(h)
            .map(|key| {
                !bob_multiset
                    .iter()
                    .any(|bk| BatchKeyer::matches(key, bk) >= threshold)
            })
            .collect()
    }

    /// A random Gap-shaped pair of flat key multisets, `h` entries per
    /// key, drawn from a three-letter alphabet so that partial matches of
    /// every size occur; shapes 4 and 5 add fresh keys whose partner
    /// shares no probe band, or shares one band and nothing else. Returns
    /// the keys and which of Alice's keys were planted far (entries no
    /// key of Bob's can share).
    fn gap_shaped(rng: &mut StdRng, h: usize, shape: u8) -> (Vec<u64>, Vec<u64>, Vec<bool>) {
        let key = |rng: &mut StdRng| -> Vec<u64> { (0..h).map(|_| rng.gen_range(0..3)).collect() };
        let n = rng.gen_range(0..24);
        let base: Vec<Vec<u64>> = (0..n).map(|_| key(rng)).collect();
        let (mut alice, mut bob) = (base.clone(), Vec::new());
        match shape {
            // Identical multisets.
            0 => bob = base,
            // Disjoint multisets (as children; entries still collide).
            1 => bob = (0..rng.gen_range(0..24)).map(|_| key(rng)).collect(),
            // Noisy pairs: Bob's copy of a key differs in a few entries.
            2 => {
                for k in &base {
                    let mut noisy = k.clone();
                    for _ in 0..rng.gen_range(0..=3) {
                        let j = rng.gen_range(0..h);
                        noisy[j] = rng.gen_range(0..3);
                    }
                    bob.push(noisy);
                }
            }
            // Duplicates: a key Alice holds more copies of than Bob, so a
            // copy is Alice-only by rank though its content is shared.
            3 => {
                bob = base.clone();
                for k in base.iter().take(3) {
                    alice.push(k.clone());
                    if rng.gen() {
                        alice.push(k.clone());
                    }
                }
            }
            // A fresh key whose only close partner, Bob's copy, differs
            // in every probe band: only the full scan can find it.
            4 => {
                bob = base;
                for _ in 0..rng.gen_range(1..=3) {
                    let fresh: Vec<u64> = (0..h).map(|_| rng.gen_range(1000..2000)).collect();
                    let mut copy = fresh.clone();
                    for band in probe_bands(h) {
                        copy[band.start] = rng.gen_range(2000..3000);
                    }
                    alice.push(fresh);
                    bob.push(copy);
                }
            }
            // A fresh key that equals one of Bob's on a probe band and
            // nowhere else: a candidate the threshold check must weigh.
            _ => {
                bob = base;
                for _ in 0..rng.gen_range(1..=3) {
                    let fresh: Vec<u64> = (0..h).map(|_| rng.gen_range(1000..2000)).collect();
                    let mut other: Vec<u64> = (0..h).map(|_| rng.gen_range(2000..3000)).collect();
                    let bands: Vec<Range<usize>> = probe_bands(h).collect();
                    let band = bands[rng.gen_range(0..bands.len())].clone();
                    other[band.clone()].copy_from_slice(&fresh[band]);
                    alice.push(fresh);
                    bob.push(other);
                }
            }
        }
        // Duplicates on either side, and Bob-only extras.
        for _ in 0..rng.gen_range(0..3) {
            if let Some(k) = bob.get(rng.gen_range(0..bob.len().max(1))).cloned() {
                bob.push(k);
            }
            if let Some(k) = alice.get(rng.gen_range(0..alice.len().max(1))).cloned() {
                alice.push(k);
            }
            bob.push(key(rng));
        }
        let mut planted = vec![false; alice.len()];
        for _ in 0..rng.gen_range(0..3) {
            alice.push((0..h).map(|_| rng.gen_range(100..200)).collect());
            planted.push(true);
        }
        (alice.concat(), bob.concat(), planted)
    }

    #[test]
    fn far_test_equals_the_all_pairs_model() {
        let mut rng = StdRng::seed_from_u64(4242);
        let (mut far_seen, mut close_seen) = (0, 0);
        for case in 0..600u64 {
            let h = rng.gen_range(1..=12);
            let (alice, bob, planted) = gap_shaped(&mut rng, h, (case % 6) as u8);
            let a: Vec<&[u64]> = alice.chunks_exact(h).collect();
            let b: Vec<&[u64]> = bob.chunks_exact(h).collect();
            let cfg = SosConfig {
                fp_cells: 4 * (a.len() + b.len()) + 24,
                q: 3,
                seed: case,
                entry_bits: 16,
            };
            let (r1, bob_state) = bob_round1(&b, &cfg);
            let Ok((r2, alice_state)) = alice_round2(&a, &r1, &cfg) else {
                continue; // an undecodable table is sizing, not the far test
            };
            let r3 = bob_round3(&b, &bob_state, &r2).unwrap();
            let splice = alice_finish(&a, &alice_state, r3, &cfg).unwrap();
            let multiset = splice.multiset(&a);
            let mut got: Vec<&[u64]> = multiset.iter().map(Vec::as_slice).collect();
            let mut want = b.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "case {case}: splice is Bob's multiset");
            for threshold in [1, h, rng.gen_range(1..=h)] {
                let (fast, _) = far_keys(&alice, h, &splice, threshold);
                assert_eq!(
                    fast,
                    far_keys_all_pairs(&alice, h, &multiset, threshold),
                    "case {case}, h {h}, threshold {threshold}"
                );
                for (far, planted) in fast.iter().zip(&planted) {
                    assert!(far | !planted, "case {case}: a planted far key was kept");
                }
                far_seen += fast.iter().filter(|&&f| f).count();
                close_seen += fast.iter().filter(|&&f| !f).count();
            }
        }
        assert!(
            far_seen > 100 && close_seen > 100,
            "{far_seen} far, {close_seen} close"
        );
    }

    /// A served Bob (a session whose peer is remote) on a crafted round-2
    /// frame: `count` copies of one fingerprint an honest Alice requests.
    fn bob_on_repeated_request(count: usize) -> Result<Option<Frame>, GapError> {
        let (space, alice, bob) = workload(40, 2, 128, 2, 40, 110);
        let (fam, params) = hamming_family_and_params(128, 2.0, 40.0);
        let proto = GapProtocol::new(space, &fam, GapConfig::for_params(params, 40, 2), 111);
        let mut a = proto.alice_session(&alice);
        let mut b = proto.bob_session(&bob);
        a.on_frame(b.poll_send()?.expect("round 1"))?;
        let honest = a.poll_send()?.expect("round 2");
        let mut r = honest.reader();
        assert!(r.read(32).expect("count") >= 1, "the instance differs");
        let tfp = r.read(64).expect("a fingerprint");
        let mut w = BitWriter::new();
        w.write(count as u64, 32);
        for _ in 0..count {
            w.write(tfp, 64);
        }
        b.on_frame(Frame::seal(GAP_LABELS[1], w))?;
        b.poll_send()
    }

    #[test]
    fn bob_refuses_a_round2_larger_than_his_set() {
        assert_eq!(
            bob_on_repeated_request(41).unwrap_err(),
            GapError::SetsOfSets(SosError::RequestTooLarge)
        );
    }

    #[test]
    fn bob_refuses_a_round2_naming_a_fingerprint_twice() {
        assert_eq!(
            bob_on_repeated_request(2).unwrap_err(),
            GapError::SetsOfSets(SosError::RepeatedRequest)
        );
        assert!(bob_on_repeated_request(1).unwrap().is_some());
    }

    #[test]
    fn alice_refuses_a_key_of_the_wrong_length() {
        // A hostile Bob whose first key is one entry short: its tag is in
        // his round 1, so the content verifies, but it is no Gap key.
        let (space, alice, bob) = workload(40, 2, 128, 2, 40, 112);
        let (fam, params) = hamming_family_and_params(128, 2.0, 40.0);
        let proto = GapProtocol::new(space, &fam, GapConfig::for_params(params, 40, 2), 113);
        let h = proto.config.h;
        let mut children: Vec<Vec<u64>> = proto
            .children(&proto.side_keys(&bob))
            .iter()
            .map(|k| k.to_vec())
            .collect();
        children[0].pop();
        let sos = proto.sos_config();
        let (r1, bob_state) = bob_round1(&children, &sos);
        let mut a = proto.alice_session(&alice);
        let mut w = BitWriter::new();
        sos_wire::put_round1(&mut w, &r1);
        a.on_frame(Frame::seal(GAP_LABELS[0], w)).unwrap();
        let r2 = a
            .poll_send()
            .unwrap()
            .expect("round 2")
            .decode_exact(sos_wire::get_round2)
            .unwrap();
        let r3 = bob_round3(&children, &bob_state, &r2).unwrap();
        let mut w = BitWriter::new();
        sos_wire::put_round3(&mut w, &r3, &sos);
        assert_eq!(
            a.on_frame(Frame::seal(GAP_LABELS[2], w)).unwrap_err(),
            GapError::KeyLength {
                expected: h,
                got: h - 1
            }
        );
    }

    #[test]
    fn communication_beats_naive_for_large_d() {
        let dim = 512;
        let (space, alice, bob) = workload(50, 2, dim, 2, 150, 108);
        let (fam, params) = hamming_family_and_params(dim, 2.0, 150.0);
        let cfg = GapConfig::for_params(params, 50, 2);
        let proto = GapProtocol::new(space, &fam, cfg, 109);
        let out = proto.run(&alice, &bob).unwrap();
        let naive_bits = 50 * dim as u64;
        assert!(
            out.transcript.total_bits() < naive_bits,
            "protocol {} bits ≥ naive {}",
            out.transcript.total_bits(),
            naive_bits
        );
    }
}
