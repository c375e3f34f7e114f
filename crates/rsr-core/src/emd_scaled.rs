//! Corollary 3.6: interval-scaled Algorithm 1.
//!
//! For `([Δ]^d, ℓ2)` (and equally for Hamming, as the paper notes) the
//! range `[D1, D2]` is split into `I = O(log(D2/D1))` constant-ratio
//! intervals; Algorithm 1 runs in parallel on each with the MLSH width
//! tuned to that interval, and "Bob uses the output of the version for the
//! smallest index interval which did not report failure". This keeps the
//! per-interval hash-draw count `s = O(D2^{(j)}/D1^{(j)}) = O(1)` and
//! yields `O(k·d·log(nΔ)·log(D2/D1))` total communication.

use crate::channel::Frame;
use crate::emd_protocol::{EmdFailure, EmdMessage, EmdOutcome, EmdProtocol, EmdProtocolConfig};
use crate::session::{drive_in_memory, Session};
use crate::transcript::{Party, Transcript};
use rsr_metric::{MetricSpace, Point};

/// The scaled protocol: one Algorithm 1 instance per interval.
pub struct ScaledEmdProtocol {
    protocols: Vec<EmdProtocol>,
}

/// Alice's message: the per-interval messages, in interval order.
pub struct ScaledEmdMessage {
    messages: Vec<EmdMessage>,
}

impl ScaledEmdMessage {
    /// Total communication in bits.
    pub fn wire_bits(&self) -> u64 {
        self.messages.iter().map(EmdMessage::wire_bits).sum()
    }

    /// Number of intervals.
    pub fn num_intervals(&self) -> usize {
        self.messages.len()
    }
}

/// Outcome of the scaled protocol: the winning interval's outcome plus the
/// interval index.
pub struct ScaledEmdOutcome {
    /// The winning sub-protocol's outcome.
    pub inner: EmdOutcome,
    /// Index of the smallest interval that succeeded (0-based).
    pub interval: usize,
    /// Total communication across all intervals (the whole message was
    /// shipped regardless of which interval wins).
    pub total_bits: u64,
    /// Full transcript: one message per interval, all in a single round
    /// (every interval travels in parallel before Bob speaks).
    pub transcript: Transcript,
}

impl ScaledEmdProtocol {
    /// Creates the protocol with the default `D1 = 1`,
    /// `D2 = n·diameter`, and interval ratio 4.
    pub fn new(space: MetricSpace, n: usize, k: usize, seed: u64) -> Self {
        let d2 = (n.max(2) as f64) * space.diameter().max(1.0);
        Self::with_range(space, n, k, 1.0, d2, 4.0, seed)
    }

    /// Creates the protocol over an explicit range `[d1, d2]` split at
    /// ratio `ratio > 1`.
    pub fn with_range(
        space: MetricSpace,
        n: usize,
        k: usize,
        d1: f64,
        d2: f64,
        ratio: f64,
        seed: u64,
    ) -> Self {
        assert!(ratio > 1.0);
        assert!(d1 >= 1.0 && d2 >= d1);
        let base = EmdProtocolConfig::for_space(&space, n, k);
        let mut protocols = Vec::new();
        let mut lo = d1;
        let mut idx = 0u64;
        while lo < d2 || protocols.is_empty() {
            let hi = (lo * ratio).min(d2).max(lo * ratio.min(2.0)).max(lo + 1.0);
            let config = EmdProtocolConfig {
                k: base.k,
                d1: lo,
                d2: hi,
                q: base.q,
                key_bits: base.key_bits,
                max_s: base.max_s,
            };
            protocols.push(EmdProtocol::new(space, config, seed ^ (idx << 40)));
            if hi >= d2 {
                break;
            }
            lo = hi;
            idx += 1;
        }
        ScaledEmdProtocol { protocols }
    }

    /// Number of intervals `I`.
    pub fn num_intervals(&self) -> usize {
        self.protocols.len()
    }

    /// Alice's side: encode every interval.
    pub fn alice_encode(&self, alice: &[Point]) -> ScaledEmdMessage {
        ScaledEmdMessage {
            messages: self
                .protocols
                .iter()
                .map(|p| p.alice_encode(alice))
                .collect(),
        }
    }

    /// Bob's side: use the smallest-index interval that succeeds.
    pub fn bob_decode(
        &self,
        msg: &ScaledEmdMessage,
        bob: &[Point],
    ) -> Result<ScaledEmdOutcome, EmdFailure> {
        let total_bits = msg.wire_bits();
        let mut transcript = Transcript::new();
        for (interval, m) in msg.messages.iter().enumerate() {
            transcript.record_from(Party::Alice, interval_label(interval), m.wire_bits());
        }
        for (interval, (proto, m)) in self.protocols.iter().zip(&msg.messages).enumerate() {
            if let Ok(inner) = proto.bob_decode(m, bob) {
                return Ok(ScaledEmdOutcome {
                    inner,
                    interval,
                    total_bits,
                    transcript,
                });
            }
        }
        Err(EmdFailure)
    }

    /// Alice's session endpoint: one frame per interval, sent in a single
    /// channel turn.
    pub fn alice_session(&self, alice: &[Point]) -> ScaledEmdAliceSession {
        let msg = self.alice_encode(alice);
        ScaledEmdAliceSession {
            pending: msg.messages.into_iter().enumerate().collect(),
        }
    }

    /// Bob's session endpoint: collects the per-interval frames, then
    /// decodes the smallest succeeding interval.
    pub fn bob_session<'a>(&'a self, bob: &'a [Point]) -> ScaledEmdBobSession<'a> {
        ScaledEmdBobSession {
            proto: self,
            bob,
            received: Vec::with_capacity(self.protocols.len()),
            outcome: None,
        }
    }

    /// Full round trip through the session layer; the outcome's transcript
    /// and `total_bits` are measured from the encoded frames.
    pub fn run(&self, alice: &[Point], bob: &[Point]) -> Result<ScaledEmdOutcome, EmdFailure> {
        let mut a = self.alice_session(alice);
        let mut b = self.bob_session(bob);
        let transcript = drive_in_memory(Party::Alice, &mut a, &mut b).map_err(|_| EmdFailure)?;
        let mut outcome = b.into_outcome().expect("bob finished");
        outcome.total_bits = transcript.total_bits();
        outcome.transcript = transcript;
        Ok(outcome)
    }
}

/// Transcript label of one interval's message.
fn interval_label(interval: usize) -> String {
    format!("alice→bob: interval {interval} RIBLTs")
}

/// Alice's half of the Corollary 3.6 protocol: a burst of `I` frames.
pub struct ScaledEmdAliceSession {
    /// `(interval, message)` pairs still to send, in interval order.
    pending: std::collections::VecDeque<(usize, EmdMessage)>,
}

/// Bob's half: buffer all intervals, then decode the smallest success.
pub struct ScaledEmdBobSession<'a> {
    proto: &'a ScaledEmdProtocol,
    bob: &'a [Point],
    received: Vec<EmdMessage>,
    outcome: Option<ScaledEmdOutcome>,
}

impl ScaledEmdBobSession<'_> {
    /// The decoded outcome, once the session is done.
    pub fn into_outcome(self) -> Option<ScaledEmdOutcome> {
        self.outcome
    }
}

impl Session for ScaledEmdAliceSession {
    type Error = EmdFailure;

    fn protocol(&self) -> &'static str {
        "scaled_emd"
    }

    fn poll_send(&mut self) -> Result<Option<Frame>, EmdFailure> {
        Ok(self
            .pending
            .pop_front()
            .map(|(interval, msg)| msg.into_frame(interval_label(interval))))
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), EmdFailure> {
        Err(EmdFailure) // one-way protocol
    }

    fn is_done(&self) -> bool {
        self.pending.is_empty()
    }
}

impl Session for ScaledEmdBobSession<'_> {
    type Error = EmdFailure;

    fn protocol(&self) -> &'static str {
        "scaled_emd"
    }

    fn poll_send(&mut self) -> Result<Option<Frame>, EmdFailure> {
        Ok(None)
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), EmdFailure> {
        let interval = self.received.len();
        let proto = self.proto.protocols.get(interval).ok_or(EmdFailure)?;
        let msg = frame
            .decode_exact(|r| EmdMessage::read_wire(r, proto))
            .ok_or(EmdFailure)?;
        self.received.push(msg);
        if self.received.len() == self.proto.protocols.len() {
            let msg = ScaledEmdMessage {
                messages: std::mem::take(&mut self.received),
            };
            self.outcome = Some(self.proto.bob_decode(&msg, self.bob)?);
        }
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.outcome.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rsr_emd::emd;
    use rsr_metric::Metric;

    fn l2_workload(n: usize, k: usize, seed: u64) -> (MetricSpace, Vec<Point>, Vec<Point>) {
        let space = MetricSpace::l2(512, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alice = Vec::new();
        let mut bob = Vec::new();
        for _ in 0..n - k {
            let p: Vec<i64> = (0..2).map(|_| rng.gen_range(0..512)).collect();
            let noisy: Vec<i64> = p
                .iter()
                .map(|&c| (c + rng.gen_range(-1i64..=1)).clamp(0, 511))
                .collect();
            alice.push(Point::new(p));
            bob.push(Point::new(noisy));
        }
        for _ in 0..k {
            alice.push(Point::new(vec![
                rng.gen_range(0..512),
                rng.gen_range(0..512),
            ]));
            bob.push(Point::new(vec![
                rng.gen_range(0..512),
                rng.gen_range(0..512),
            ]));
        }
        (space, alice, bob)
    }

    #[test]
    fn interval_count_is_logarithmic() {
        let space = MetricSpace::l2(512, 2);
        let proto = ScaledEmdProtocol::new(space, 100, 4, 1);
        let expect = ((100.0 * space.diameter()).log2() / 2.0).ceil() as usize;
        assert!(
            proto.num_intervals() <= expect + 2,
            "{} intervals for log2(D2) = {expect}",
            proto.num_intervals()
        );
        assert!(proto.num_intervals() >= 2);
    }

    #[test]
    fn identical_sets_decode_in_first_interval() {
        let space = MetricSpace::l2(256, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let pts: Vec<Point> = (0..40)
            .map(|_| Point::new(vec![rng.gen_range(0..256), rng.gen_range(0..256)]))
            .collect();
        let proto = ScaledEmdProtocol::new(space, 40, 2, 3);
        let out = proto.run(&pts, &pts).expect("identical sets decode");
        assert_eq!(out.interval, 0);
        assert_eq!(out.inner.reconciled.len(), 40);
        assert_eq!(emd(Metric::L2, &out.inner.reconciled, &pts), 0.0);
    }

    #[test]
    fn noisy_workload_improves_emd() {
        let (space, alice, bob) = l2_workload(50, 3, 4);
        let proto = ScaledEmdProtocol::new(space, 50, 3, 5);
        let out = proto.run(&alice, &bob).expect("decodable");
        let before = emd(Metric::L2, &alice, &bob);
        let after = emd(Metric::L2, &alice, &out.inner.reconciled);
        assert!(after <= before, "no improvement: {after} vs {before}");
        assert_eq!(out.inner.reconciled.len(), 50);
    }

    #[test]
    fn total_bits_cover_all_intervals() {
        let (space, alice, _) = l2_workload(30, 2, 6);
        let proto = ScaledEmdProtocol::new(space, 30, 2, 7);
        let msg = proto.alice_encode(&alice);
        assert_eq!(msg.num_intervals(), proto.num_intervals());
        let per: Vec<u64> = msg.messages.iter().map(EmdMessage::wire_bits).collect();
        assert_eq!(msg.wire_bits(), per.iter().sum::<u64>());
    }

    #[test]
    fn explicit_range_respected() {
        let space = MetricSpace::l2(128, 2);
        let proto = ScaledEmdProtocol::with_range(space, 20, 2, 1.0, 64.0, 4.0, 8);
        // log_4(64) = 3 intervals.
        assert_eq!(proto.num_intervals(), 3);
    }
}
