//! Algorithm 1: the EMD-model protocol.
//!
//! One round, Alice → Bob. Alice builds `t = ⌈log2(D2/D1)⌉ + 1` Robust
//! IBLTs `T_1, …, T_t`. She draws `s = ⌈k/(8·D1·ln(1/p))⌉` MLSH functions
//! `g_1, …, g_s` and a pairwise-independent `h` with `Θ(log n)`-bit range
//! (all via public coins). Into `T_i` she inserts, for each point `a`, the
//! pair with key `h(g_1(a), …, g_{s_i}(a))` (prefix length
//! `s_i = 2^{i−1}·s·D1/D2`) and value `a`. Bob deletes his points the same
//! way, finds `i*` — the largest level that decodes to at most `2k` pairs
//! per party — and repairs: he matches the decoded survivors from his side
//! (`X_B`) against `S_B` by an exact min-cost matching (the ε-scaling
//! auction, `rsr_emd::AssignmentSolver::Auction`), removes the matched
//! subset `Y_B`, and adds Alice's decoded survivors `X_A`.
//!
//! Guarantee (Theorem 3.4): with the stated probabilities,
//! `EMD(S_A, S'_B) ≤ O(α^{-1}·log n)·EMD_k(S_A, S_B)` using
//! `O(k·d·log(Δn)·log(D2/D1))` bits.

use crate::channel::Frame;
use crate::mlsh_select::select_mlsh;
use crate::session::{drive_in_memory, Session};
use crate::transcript::{Party, Transcript};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsr_emd::AssignmentSolver;
use rsr_hash::keys::MultiScaleKeyer;
use rsr_hash::MlshFamily;
use rsr_iblt::bits::{BitReader, BitWriter};
use rsr_iblt::riblt::RibltConfig;
use rsr_iblt::wire::{get_len, put_len, CellWidths};
use rsr_iblt::{CellLayout, Riblt};
use rsr_metric::{MetricSpace, Point};
use rsr_obs::Counter;
use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Transcript label of the protocol's single message.
pub(crate) const EMD_MSG_LABEL: &str = "alice→bob: RIBLTs";

/// Tunable parameters of Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct EmdProtocolConfig {
    /// Difference budget `k` (the protocol targets `EMD_k`).
    pub k: usize,
    /// Lower bound `D1 ≤ EMD_k(S_A, S_B)` (default 1; "it is sensible to
    /// assume D1 ≥ 1" since the zero case is exact reconciliation).
    pub d1: f64,
    /// Upper bound `D2 ≥ EMD_k(S_A, S_B)` (default `n·diameter`).
    pub d2: f64,
    /// Hash functions per RIBLT (`q ≥ 3`).
    pub q: usize,
    /// Output width of the key hash `h` (`Θ(log n)` bits).
    pub key_bits: u32,
    /// Cap on the number of drawn MLSH functions `s` (guards runaway
    /// parameter choices on huge `D2/D1` ratios; the scaled wrapper keeps
    /// `s` tiny by construction).
    pub max_s: usize,
}

impl EmdProtocolConfig {
    /// The no-prior-knowledge defaults of §3: `D1 = 1`,
    /// `D2 = n·d·Δ`-style (we use `n·diameter(space)`), `q = 3`,
    /// `key_bits = Θ(log n)`.
    pub fn for_space(space: &MetricSpace, n: usize, k: usize) -> Self {
        let n = n.max(2);
        let d2 = (n as f64) * space.diameter().max(1.0);
        let log_n = (n as f64).log2().ceil() as u32;
        EmdProtocolConfig {
            k: k.max(1),
            d1: 1.0,
            d2,
            q: 3,
            key_bits: (2 * log_n + 8).clamp(16, 61),
            max_s: 1 << 22,
        }
    }

    /// Number of levels `t = ⌈log2(D2/D1)⌉ + 1`.
    pub fn num_levels(&self) -> usize {
        ((self.d2 / self.d1).log2().ceil().max(0.0) as usize) + 1
    }
}

/// Alice's one-round message: `t` Robust IBLTs, held as their encoding.
///
/// A message is its bits on both sides. [`EmdProtocol::alice_encode`]
/// builds each level table in turn and writes it out;
/// [`EmdMessage::read_wire`] admits a received message and builds no
/// table. Bob parses a level only when [`EmdProtocol::bob_decode`]
/// reaches it, from the top level down, and stops at the first that
/// decodes, so the levels below `i*` are never expanded. Admission still
/// checks the whole message: `|count| ≤ n` in every cell of every level,
/// no field wider than 64 bits, and the buffer long enough; under
/// [`Frame::decode_exact`] also the exact length and zero padding. That
/// is what parsing every level refused.
#[derive(Clone, Debug)]
pub struct EmdMessage {
    /// The sender's set size, which sizes every cell field.
    n: usize,
    /// Number of level tables `t`.
    levels: usize,
    /// The encoding: a 32-bit `n`, then the `t` level tables, all of
    /// one size.
    bytes: Vec<u8>,
    /// Exact encoded length in bits.
    bit_len: u64,
}

impl EmdMessage {
    /// Total wire size in bits (the protocol's entire communication):
    /// a 32-bit set-size header plus the `t` level tables. Exactly the
    /// measured length of [`EmdMessage::write_wire`]'s output.
    pub fn wire_bits(&self) -> u64 {
        self.bit_len
    }

    /// Number of levels (RIBLTs).
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// Encodes the message: the sender's set size `n` (which sizes every
    /// cell field), then each level table.
    pub fn write_wire(&self, w: &mut BitWriter) {
        w.write_bits(&self.bytes, self.bit_len);
    }

    /// Admits a message written by [`EmdMessage::write_wire`], given the
    /// protocol (public coins: level count and per-level table configs):
    /// checks every level with [`Riblt::admit_from`] and keeps the bits,
    /// without building a table.
    pub fn read_wire(r: &mut BitReader<'_>, proto: &EmdProtocol) -> Option<EmdMessage> {
        let mut from_start = r.clone();
        let n = get_len(r)?;
        let levels = proto.prefix_lens.len();
        for level in 0..levels {
            Riblt::admit_from(r, proto.level_config(level), n)?;
        }
        let bit_len = r.bit_pos() - from_start.bit_pos();
        let mut w = BitWriter::with_capacity(bit_len);
        from_start.copy_into(bit_len, &mut w)?;
        Some(EmdMessage {
            n,
            levels,
            bytes: w.finish(),
            bit_len,
        })
    }

    /// The message's frame, with a copy of its bytes as the payload.
    pub fn to_frame(&self) -> Frame {
        self.clone().into_frame(EMD_MSG_LABEL)
    }

    /// The frame of this message under `label`; its payload is the
    /// message's own bytes.
    pub(crate) fn into_frame(self, label: impl Into<Cow<'static, str>>) -> Frame {
        Frame {
            label: label.into(),
            payload: self.bytes,
            bit_len: self.bit_len,
        }
    }

    /// Parses level `level`'s table, under `proto`'s configuration.
    fn level(&self, proto: &EmdProtocol, level: usize) -> Option<Riblt> {
        let mut r = BitReader::new(&self.bytes);
        r.skip(32 + level as u64 * proto.level_bits(self.n))?;
        Riblt::read_from(&mut r, proto.level_config(level), self.n)
    }
}

/// `emd_levels_received` and `emd_levels_parsed`, resolved once and
/// recorded behind [`rsr_obs::enabled`].
struct LevelMetrics {
    received: Arc<Counter>,
    parsed: Arc<Counter>,
}

fn level_metrics() -> &'static LevelMetrics {
    static METRICS: OnceLock<LevelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rsr_obs::global();
        LevelMetrics {
            received: reg.counter("emd_levels_received"),
            parsed: reg.counter("emd_levels_parsed"),
        }
    })
}

/// Bob's result.
#[derive(Clone, Debug)]
pub struct EmdOutcome {
    /// Bob's reconciled set `S'_B` (same size as his input).
    pub reconciled: Vec<Point>,
    /// The level `i* ∈ 1..=t` that decoded (largest decodable).
    pub i_star: usize,
    /// Decoded survivor counts `(|X_A|, |X_B|)`.
    pub decoded: (usize, usize),
    /// Communication transcript of the run.
    pub transcript: Transcript,
}

/// Failure: no level decoded within the `2k`-per-side budget
/// (Algorithm 1: "If no T_i successfully decodes Bob reports failure".)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmdFailure;

impl fmt::Display for EmdFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no RIBLT level decoded within the 2k budget")
    }
}

impl std::error::Error for EmdFailure {}

/// The Algorithm 1 protocol object. Both parties construct it with the
/// same seed (public coins) so all hash functions agree.
pub struct EmdProtocol {
    space: MetricSpace,
    config: EmdProtocolConfig,
    keyer: MultiScaleKeyer,
    /// Prefix length `s_i` per level (non-decreasing).
    prefix_lens: Vec<usize>,
    seed: u64,
}

impl EmdProtocol {
    /// Creates the protocol for a space and configuration.
    pub fn new(space: MetricSpace, config: EmdProtocolConfig, seed: u64) -> Self {
        assert!(config.q >= 3, "Algorithm 1 requires q ≥ 3");
        assert!(config.d1 >= 1.0 && config.d2 >= config.d1);
        let family = select_mlsh(&space, config.k, config.d2);
        let p = family.mlsh_params().p;
        let ln_inv_p = -(p.ln());
        assert!(ln_inv_p > 0.0);
        // s = ⌈k / (8·D1·ln(1/p))⌉, at least 1 per level schedule.
        let s = ((config.k as f64 / (8.0 * config.d1 * ln_inv_p)).ceil() as usize)
            .clamp(1, config.max_s);
        let t = config.num_levels();
        let prefix_lens: Vec<usize> = (1..=t)
            .map(|i| {
                let raw =
                    (2f64.powi(i as i32 - 1) * s as f64 * config.d1 / config.d2).ceil() as usize;
                raw.clamp(1, s)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa11c_e0de);
        let keyer = MultiScaleKeyer::sample(&family, s, config.key_bits, &mut rng);
        EmdProtocol {
            space,
            config,
            keyer,
            prefix_lens,
            seed,
        }
    }

    /// The metric space the protocol runs over.
    pub fn space(&self) -> &MetricSpace {
        &self.space
    }

    /// The configuration.
    pub fn config(&self) -> &EmdProtocolConfig {
        &self.config
    }

    /// The per-level key prefix lengths `s_1 ≤ … ≤ s_t`.
    pub fn prefix_lens(&self) -> &[usize] {
        &self.prefix_lens
    }

    /// Number of MLSH draws `s`.
    pub fn num_hash_draws(&self) -> usize {
        self.keyer.num_functions()
    }

    fn level_config(&self, level: usize) -> RibltConfig {
        RibltConfig::for_pairs(
            self.config.k,
            self.config.q,
            self.space.dim(),
            self.space.delta(),
            self.seed ^ ((level as u64 + 1) << 24),
        )
    }

    /// Encoded bits of one level table for a sender of `n` points. Every
    /// level has this size: levels differ only in their table seed.
    fn level_bits(&self, n: usize) -> u64 {
        let c = self.level_config(0);
        let cells = CellLayout::new(c.min_cells, c.q, c.seed).num_cells();
        cells as u64 * CellWidths::sum(n, c.delta).per_cell(c.dim)
    }

    /// Every point's key at every level, point-major (`t` words per
    /// point): one batched pass over the draws.
    fn batch_keys(&self, points: &[Point]) -> Vec<u64> {
        let mut keys = vec![0; points.len() * self.prefix_lens.len()];
        self.keyer.keys_into(points, &self.prefix_lens, &mut keys);
        keys
    }

    /// Alice's side: build and "send" the `t` RIBLTs, one level table at
    /// a time, each written out as soon as it is built.
    pub fn alice_encode(&self, alice: &[Point]) -> EmdMessage {
        debug_assert!(
            alice.iter().all(|p| self.space.universe().contains(p)),
            "point outside universe"
        );
        let (n, levels) = (alice.len(), self.prefix_lens.len());
        let keys = self.batch_keys(alice);
        let mut w = BitWriter::with_capacity(32 + levels as u64 * self.level_bits(n));
        put_len(&mut w, n);
        for level in 0..levels {
            let mut table = Riblt::new(self.level_config(level));
            for (p, point_keys) in alice.iter().zip(keys.chunks_exact(levels)) {
                table.insert(point_keys[level], p);
            }
            table.write_to(&mut w, n);
        }
        let bit_len = w.bit_len();
        EmdMessage {
            n,
            levels,
            bytes: w.finish(),
            bit_len,
        }
    }

    /// Bob's side: from the top level down, parse a level, delete his
    /// pairs from it and peel it, until one decodes; then repair his set.
    pub fn bob_decode(&self, msg: &EmdMessage, bob: &[Point]) -> Result<EmdOutcome, EmdFailure> {
        let mut parsed = 0;
        let outcome = self.decode_levels(msg, bob, &mut parsed);
        if rsr_obs::enabled() {
            let m = level_metrics();
            m.received.add(msg.num_levels() as u64);
            m.parsed.add(parsed);
        }
        outcome
    }

    /// [`EmdProtocol::bob_decode`], counting the levels it parses.
    fn decode_levels(
        &self,
        msg: &EmdMessage,
        bob: &[Point],
        parsed: &mut u64,
    ) -> Result<EmdOutcome, EmdFailure> {
        let budget = 2 * self.config.k;
        let t = self.prefix_lens.len();
        let bob_keys = self.batch_keys(bob);
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xb0bd_ec0d);
        for level in (0..msg.num_levels()).rev() {
            let mut table = msg.level(self, level).ok_or(EmdFailure)?;
            *parsed += 1;
            for (p, keys) in bob.iter().zip(bob_keys.chunks_exact(t)) {
                table.delete(keys[level], p);
            }
            let d = table.decode(&mut rng);
            if !d.complete || d.inserted.len() > budget || d.deleted.len() > budget {
                continue;
            }
            let x_a: Vec<Point> = d.inserted.iter().map(|p| p.value.clone()).collect();
            let x_b: Vec<Point> = d.deleted.iter().map(|p| p.value.clone()).collect();
            let reconciled = rsr_emd::replace_matched_with(
                AssignmentSolver::Auction,
                self.space.metric(),
                bob,
                &x_b,
                &x_a,
            );
            let mut transcript = Transcript::new();
            transcript.record("alice→bob: RIBLTs", msg.wire_bits());
            return Ok(EmdOutcome {
                reconciled,
                i_star: level + 1,
                decoded: (x_a.len(), x_b.len()),
                transcript,
            });
        }
        Err(EmdFailure)
    }

    /// Alice's session endpoint over `alice`'s points.
    pub fn alice_session(&self, alice: &[Point]) -> EmdAliceSession {
        EmdAliceSession {
            msg: Some(self.alice_encode(alice)),
        }
    }

    /// Bob's session endpoint over `bob`'s points.
    pub fn bob_session<'a>(&'a self, bob: &'a [Point]) -> EmdBobSession<'a> {
        EmdBobSession {
            proto: self,
            bob,
            outcome: None,
        }
    }

    /// Runs the whole one-round protocol: both sessions are driven over an
    /// in-memory channel, and the outcome's transcript is the channel's —
    /// sizes measured from the encoded frames, rounds from channel turns.
    pub fn run(&self, alice: &[Point], bob: &[Point]) -> Result<EmdOutcome, EmdFailure> {
        let mut a = self.alice_session(alice);
        let mut b = self.bob_session(bob);
        let transcript = drive_in_memory(Party::Alice, &mut a, &mut b).map_err(|_| EmdFailure)?;
        let mut outcome = b.into_outcome().expect("bob finished");
        outcome.transcript = transcript;
        Ok(outcome)
    }
}

/// Alice's half of Algorithm 1: send the `t` level tables, done.
pub struct EmdAliceSession {
    msg: Option<EmdMessage>,
}

/// Bob's half of Algorithm 1: receive the tables, decode, repair.
pub struct EmdBobSession<'a> {
    proto: &'a EmdProtocol,
    bob: &'a [Point],
    outcome: Option<EmdOutcome>,
}

impl EmdBobSession<'_> {
    /// The decoded outcome, once the session is done.
    pub fn into_outcome(self) -> Option<EmdOutcome> {
        self.outcome
    }
}

impl Session for EmdAliceSession {
    type Error = EmdFailure;

    fn protocol(&self) -> &'static str {
        "emd"
    }

    fn poll_send(&mut self) -> Result<Option<Frame>, EmdFailure> {
        Ok(self.msg.take().map(|m| m.into_frame(EMD_MSG_LABEL)))
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), EmdFailure> {
        // One-way protocol: nothing ever flows towards Alice.
        Err(EmdFailure)
    }

    fn is_done(&self) -> bool {
        self.msg.is_none()
    }
}

impl Session for EmdBobSession<'_> {
    type Error = EmdFailure;

    fn protocol(&self) -> &'static str {
        "emd"
    }

    fn poll_send(&mut self) -> Result<Option<Frame>, EmdFailure> {
        Ok(None)
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), EmdFailure> {
        let msg = frame
            .decode_exact(|r| EmdMessage::read_wire(r, self.proto))
            .ok_or(EmdFailure)?;
        self.outcome = Some(self.proto.bob_decode(&msg, self.bob)?);
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.outcome.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rsr_emd::{emd, emd_k};
    use rsr_metric::Metric;

    /// Noisy-cluster workload on the binary cube: `n − k` shared points
    /// with ≤ 1 bit of noise, `k` arbitrary outliers per side.
    fn hamming_workload(
        n: usize,
        k: usize,
        dim: usize,
        seed: u64,
    ) -> (MetricSpace, Vec<Point>, Vec<Point>) {
        let space = MetricSpace::hamming(dim);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alice = Vec::with_capacity(n);
        let mut bob = Vec::with_capacity(n);
        for _ in 0..n - k {
            let base: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
            let mut noisy = base.clone();
            let flip = rng.gen_range(0..dim);
            noisy[flip] = !noisy[flip];
            alice.push(Point::from_bits(&base));
            bob.push(Point::from_bits(&noisy));
        }
        for _ in 0..k {
            alice.push(Point::from_bits(
                &(0..dim).map(|_| rng.gen()).collect::<Vec<bool>>(),
            ));
            bob.push(Point::from_bits(
                &(0..dim).map(|_| rng.gen()).collect::<Vec<bool>>(),
            ));
        }
        (space, alice, bob)
    }

    #[test]
    fn identical_sets_round_trip() {
        let space = MetricSpace::hamming(32);
        let mut rng = StdRng::seed_from_u64(80);
        let pts: Vec<Point> = (0..50)
            .map(|_| Point::from_bits(&(0..32).map(|_| rng.gen()).collect::<Vec<bool>>()))
            .collect();
        let cfg = EmdProtocolConfig::for_space(&space, 50, 2);
        let proto = EmdProtocol::new(space, cfg, 81);
        let out = proto.run(&pts, &pts).expect("identical sets must decode");
        assert_eq!(out.reconciled.len(), 50);
        // Everything cancels at the finest level.
        assert_eq!(out.i_star, cfg.num_levels());
        assert_eq!(out.decoded, (0, 0));
        assert_eq!(emd(Metric::Hamming, &out.reconciled, &pts), 0.0);
        // So Bob parses one level of the t he receives: what
        // `emd_levels_parsed` and `emd_levels_received` add per settle
        // (the counters themselves: tests/emd_levels_parsed.rs).
        let msg = proto.alice_encode(&pts);
        let mut parsed = 0;
        proto
            .decode_levels(&msg, &pts, &mut parsed)
            .expect("decodes");
        assert_eq!((parsed, msg.num_levels()), (1, cfg.num_levels()));
    }

    #[test]
    fn prefix_lens_nondecreasing_and_bounded() {
        let space = MetricSpace::hamming(64);
        let cfg = EmdProtocolConfig::for_space(&space, 100, 4);
        let proto = EmdProtocol::new(space, cfg, 7);
        let lens = proto.prefix_lens();
        assert_eq!(lens.len(), cfg.num_levels());
        assert!(lens.windows(2).all(|w| w[0] <= w[1]));
        assert!(*lens.last().unwrap() <= proto.num_hash_draws());
        assert!(lens[0] >= 1);
    }

    #[test]
    fn emd_improves_over_no_protocol() {
        // Outlier-dominated workload: shared points identical, k far
        // outliers per side. Theorem 3.4 only promises an O(log n)·EMD_k
        // bound, so improvement is guaranteed only when the pre-protocol
        // EMD is far above EMD_k — which is exactly this shape.
        let space = MetricSpace::hamming(48);
        let mut rng = StdRng::seed_from_u64(82);
        let mut alice: Vec<Point> = (0..57)
            .map(|_| Point::from_bits(&(0..48).map(|_| rng.gen()).collect::<Vec<bool>>()))
            .collect();
        let mut bob = alice.clone();
        for _ in 0..3 {
            alice.push(Point::from_bits(
                &(0..48).map(|_| rng.gen()).collect::<Vec<bool>>(),
            ));
            bob.push(Point::from_bits(
                &(0..48).map(|_| rng.gen()).collect::<Vec<bool>>(),
            ));
        }
        let cfg = EmdProtocolConfig::for_space(&space, 60, 3);
        let proto = EmdProtocol::new(space, cfg, 83);
        let out = proto.run(&alice, &bob).expect("decodable");
        let before = emd(Metric::Hamming, &alice, &bob);
        let after = emd(Metric::Hamming, &alice, &out.reconciled);
        assert!(
            after < before / 2.0,
            "protocol did not improve EMD: {after} vs {before}"
        );
    }

    #[test]
    fn approximation_within_log_factor() {
        // Smoke version of `rsr-exp paper`'s ratio keys: the ratio
        // EMD(S_A, S'_B)/EMD_k should be modest (the guarantee is
        // O(log n) with constant probability; we allow generous slack
        // and retry over seeds to keep the test deterministic-ish).
        let mut successes = 0;
        let trials = 5;
        for t in 0..trials {
            let (space, alice, bob) = hamming_workload(40, 2, 32, 90 + t);
            let cfg = EmdProtocolConfig::for_space(&space, 40, 2);
            let proto = EmdProtocol::new(space, cfg, 91 + t);
            let Ok(out) = proto.run(&alice, &bob) else {
                continue;
            };
            let base = emd_k(Metric::Hamming, &alice, &bob, 2).max(1.0);
            let achieved = emd(Metric::Hamming, &alice, &out.reconciled);
            if achieved <= 40.0 * (40f64).ln() * base {
                successes += 1;
            }
        }
        assert!(successes >= 3, "only {successes}/{trials} within bound");
    }

    #[test]
    fn communication_is_accounted() {
        let (space, alice, bob) = hamming_workload(30, 2, 32, 84);
        let cfg = EmdProtocolConfig::for_space(&space, 30, 2);
        let proto = EmdProtocol::new(space, cfg, 85);
        let msg = proto.alice_encode(&alice);
        let out = proto.bob_decode(&msg, &bob).unwrap();
        assert_eq!(out.transcript.total_bits(), msg.wire_bits());
        assert!(msg.wire_bits() > 0);
        assert_eq!(msg.num_levels(), cfg.num_levels());
    }

    #[test]
    fn communication_scales_with_k_not_n() {
        let space = MetricSpace::hamming(32);
        let bits = |n: usize, k: usize| {
            let cfg = EmdProtocolConfig::for_space(&space, n, k);
            let proto = EmdProtocol::new(space, cfg, 86);
            let pts: Vec<Point> = (0..n as i64)
                .map(|i| {
                    Point::from_bits(
                        &(0..32)
                            .map(|j| (i >> (j % 16)) & 1 == 1)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            proto.alice_encode(&pts).wire_bits() as f64
        };
        // Doubling k roughly doubles communication; doubling n only adds
        // log factors.
        let b_base = bits(100, 2);
        let b_2k = bits(100, 4);
        let b_2n = bits(200, 2);
        assert!(b_2k / b_base > 1.5, "k scaling too weak: {}", b_2k / b_base);
        assert!(
            b_2n / b_base < 1.5,
            "n scaling too strong: {}",
            b_2n / b_base
        );
    }

    #[test]
    fn reconciled_points_live_in_universe() {
        let (space, alice, bob) = hamming_workload(40, 2, 24, 87);
        let cfg = EmdProtocolConfig::for_space(&space, 40, 2);
        let proto = EmdProtocol::new(space, cfg, 88);
        let out = proto.run(&alice, &bob).unwrap();
        for p in &out.reconciled {
            assert!(space.universe().contains(p), "escaped universe: {p:?}");
        }
    }

    #[test]
    fn l2_space_runs_end_to_end() {
        let space = MetricSpace::l2(256, 2);
        let mut rng = StdRng::seed_from_u64(89);
        let alice: Vec<Point> = (0..30)
            .map(|_| Point::new(vec![rng.gen_range(0..256), rng.gen_range(0..256)]))
            .collect();
        let bob: Vec<Point> = alice
            .iter()
            .map(|p| {
                Point::new(
                    p.coords()
                        .iter()
                        .map(|&c| (c + rng.gen_range(-1i64..=1)).clamp(0, 255))
                        .collect(),
                )
            })
            .collect();
        let cfg = EmdProtocolConfig::for_space(&space, 30, 2);
        let proto = EmdProtocol::new(space, cfg, 90);
        // May fail with protocol probability; just require it doesn't panic
        // and that success yields a sane set.
        if let Ok(out) = proto.run(&alice, &bob) {
            assert_eq!(out.reconciled.len(), 30);
        }
    }
}
