//! One-shot reconciliation instances (EMD, scaled EMD, Gap): building
//! them from trace entries, settling one in process, and judging the
//! output Bob ends with.

use crate::timed::{Call, Proto, Scope, Side, Timed};
use rsr_core::emd_protocol::{EmdBobSession, EmdProtocol, EmdProtocolConfig};
use rsr_core::executor::DynSession;
use rsr_core::gap_protocol::{GapBobSession, GapConfig, GapProtocol};
use rsr_core::{drive_in_memory, Frame, Party, ScaledEmdBobSession, ScaledEmdProtocol, Session};
use rsr_emd::{emd, emd_k};
use rsr_hash::lsh::LshParams;
use rsr_hash::BitSamplingFamily;
use rsr_metric::{MetricSpace, Point};
use rsr_workloads::trace::{TraceEntry, TraceProtocol};
use rsr_workloads::{planted_emd, sensor_pairs};
use std::fmt::Display;

/// The protocol object (public coins) of one instance.
pub enum Protocol {
    Emd(EmdProtocol),
    Semd(ScaledEmdProtocol),
    Gap(GapProtocol<BitSamplingFamily>),
}

/// One runnable instance: protocol, both parties' points, and what the
/// output is judged against.
pub struct Instance {
    pub entry: TraceEntry,
    pub space: MetricSpace,
    pub protocol: Protocol,
    pub alice: Vec<Point>,
    pub bob: Vec<Point>,
}

/// Gap radii for a Hamming cube of dimension `dim` (the trace replay's
/// choice: r1 = 2, r2 = 44 at d = 128).
fn gap_radii(dim: usize) -> (f64, f64) {
    (2.0, 44.0 * dim as f64 / 128.0)
}

/// What one settle produced: the transcript's payload bits and the set
/// Bob ends with.
pub struct Settled {
    pub bits: u64,
    pub output: Vec<Point>,
}

/// How good Bob's final set is.
pub struct Quality {
    /// EMD protocols: EMD(S_A, S_B′) ÷ max(EMD_k(S_A, S_B), 1). Gap:
    /// the largest distance from a point of Alice's to Bob's final set,
    /// ÷ r2 (≤ 1 means the guarantee held).
    pub ratio: f64,
    /// Whether the output is acceptable: the ratio is within
    /// [`emd_ratio_limit`], or the Gap guarantee holds.
    pub ok: bool,
}

/// The EMD ratio above which an output counts as wrong. Theorem 3.4
/// promises O(log n) with constant probability; over 10,000 instances of
/// the benchmark's shapes the worst ratio seen was 2.9·ln n, while a set
/// of random points scores above 6·ln n.
pub fn emd_ratio_limit(n: usize) -> f64 {
    6.0 * (n.max(2) as f64).ln()
}

impl Instance {
    /// Regenerates the instance a trace entry pins: workload and public
    /// coins follow from `(protocol, n, k, dim, seed)` alone, by the same
    /// recipe as the repo's trace replay (`exp_net`).
    pub fn build(entry: &TraceEntry) -> Instance {
        let TraceEntry {
            protocol,
            n,
            k,
            dim,
            seed,
        } = *entry;
        match protocol {
            TraceProtocol::Emd => {
                let space = MetricSpace::hamming(dim);
                let w = planted_emd(space, n, k, 1, seed);
                let cfg = EmdProtocolConfig::for_space(&space, n, k);
                Instance {
                    entry: *entry,
                    space,
                    protocol: Protocol::Emd(EmdProtocol::new(space, cfg, seed ^ 0x5e55)),
                    alice: w.alice,
                    bob: w.bob,
                }
            }
            TraceProtocol::ScaledEmd => {
                let space = MetricSpace::l2(256, dim);
                let w = planted_emd(space, n, k, 1, seed);
                Instance {
                    entry: *entry,
                    space,
                    protocol: Protocol::Semd(ScaledEmdProtocol::new(space, n, k, seed ^ 0xa1a1)),
                    alice: w.alice,
                    bob: w.bob,
                }
            }
            TraceProtocol::Gap => {
                let space = MetricSpace::hamming(dim);
                let (r1, r2) = gap_radii(dim);
                let family = BitSamplingFamily::new(dim, dim as f64);
                let params = LshParams::new(r1, r2, 1.0 - r1 / dim as f64, 1.0 - r2 / dim as f64);
                let w = sensor_pairs(space, n, k, r1, r2, seed);
                let cfg = GapConfig::for_params(params, n, k);
                Instance {
                    entry: *entry,
                    space,
                    protocol: Protocol::Gap(GapProtocol::new(space, &family, cfg, seed ^ 0x6a6a)),
                    alice: w.alice,
                    bob: w.bob,
                }
            }
        }
    }

    pub fn proto(&self) -> Proto {
        match self.protocol {
            Protocol::Emd(_) => Proto::Emd,
            Protocol::Semd(_) => Proto::Semd,
            Protocol::Gap(_) => Proto::Gap,
        }
    }

    /// The planted difference size the wire bits are divided by.
    pub fn diff_keys(&self) -> usize {
        self.entry.k
    }

    /// One settle in process: build both sessions, drive them over an
    /// in-memory channel, take Bob's final set. With a `scope`, every
    /// call into a session is recorded as a span.
    pub fn settle(&self, scope: Option<Scope<'_>>) -> Result<Settled, String> {
        let (alice, bob) = (&self.alice[..], &self.bob[..]);
        match &self.protocol {
            Protocol::Emd(p) => {
                let (bits, b) = drive_pair(
                    scope,
                    Proto::Emd,
                    Party::Alice,
                    || p.alice_session(alice),
                    || p.bob_session(bob),
                )?;
                let outcome = b
                    .into_outcome()
                    .ok_or("emd: bob finished without outcome")?;
                Ok(Settled {
                    bits,
                    output: outcome.reconciled,
                })
            }
            Protocol::Semd(p) => {
                let (bits, b) = drive_pair(
                    scope,
                    Proto::Semd,
                    Party::Alice,
                    || p.alice_session(alice),
                    || p.bob_session(bob),
                )?;
                let outcome = b
                    .into_outcome()
                    .ok_or("semd: bob finished without outcome")?;
                Ok(Settled {
                    bits,
                    output: outcome.inner.reconciled,
                })
            }
            Protocol::Gap(p) => {
                let (bits, b) = drive_pair(
                    scope,
                    Proto::Gap,
                    Party::Bob,
                    || p.alice_session(alice),
                    || p.bob_session(bob),
                )?;
                let output = b
                    .into_reconciled()
                    .ok_or("gap: bob finished without a set")?;
                Ok(Settled { bits, output })
            }
        }
    }

    /// Alice's half, boxed for the executor or the wire; with a `scope`
    /// its calls are recorded as spans.
    pub fn alice_boxed<'s>(&'s self, scope: Option<Scope<'s>>) -> Box<dyn DynSession + 's> {
        fn boxed<'s, S: Session + Send + 's>(
            scope: Option<Scope<'s>>,
            proto: Proto,
            make: impl FnOnce() -> S,
        ) -> Box<dyn DynSession + 's>
        where
            S::Error: Display,
        {
            match scope {
                None => Box::new(make()),
                Some(scope) => Box::new(Timed::build(scope, proto, Side::Alice, make)),
            }
        }
        let alice = &self.alice[..];
        match &self.protocol {
            Protocol::Emd(p) => boxed(scope, Proto::Emd, || p.alice_session(alice)),
            Protocol::Semd(p) => boxed(scope, Proto::Semd, || p.alice_session(alice)),
            Protocol::Gap(p) => boxed(scope, Proto::Gap, || p.alice_session(alice)),
        }
    }

    /// Bob's half, boxed; it hands his final set to `sink` when done.
    pub fn bob_boxed<'s>(
        &'s self,
        scope: Option<Scope<'s>>,
        sink: Option<&'s OutputSink>,
        id: u64,
    ) -> Box<dyn DynSession + 's> {
        let bob = &self.bob[..];
        let make = || match &self.protocol {
            Protocol::Emd(p) => BobHalf::Emd(p.bob_session(bob)),
            Protocol::Semd(p) => BobHalf::Semd(p.bob_session(bob)),
            Protocol::Gap(p) => BobHalf::Gap(p.bob_session(bob)),
        };
        let proto = self.proto();
        let half = match scope {
            None => make(),
            Some(scope) => scope.span(proto, Side::Bob, Call::New, make),
        };
        Box::new(CapturingBob {
            half: Some(half),
            proto,
            scope,
            sink,
            id,
        })
    }

    /// Judges Bob's final set. `floor` is `EMD_k(S_A, S_B)` from
    /// [`Instance::emd_floor`] (unused for Gap).
    pub fn quality(&self, output: &[Point], floor: f64) -> Quality {
        match &self.protocol {
            Protocol::Emd(_) | Protocol::Semd(_) => {
                let ratio = emd(self.space.metric(), &self.alice, output) / floor;
                Quality {
                    ratio,
                    ok: output.len() == self.bob.len() && ratio <= emd_ratio_limit(self.entry.n),
                }
            }
            Protocol::Gap(p) => {
                // `verify_gap_guarantee` asks whether every point of
                // Alice's is within r2 (+1e-9) of the set; the largest
                // such distance answers that and gives the ratio.
                let r2 = p.config().r2;
                let worst = self
                    .alice
                    .iter()
                    .map(|a| self.space.nearest_distance(a, output))
                    .fold(0.0, f64::max);
                Quality {
                    ratio: worst / r2,
                    ok: worst <= r2 + 1e-9,
                }
            }
        }
    }

    /// The exact reference the EMD ratio is taken against:
    /// `max(EMD_k(S_A, S_B), 1)`; 1 for Gap, where it is not used.
    pub fn emd_floor(&self) -> f64 {
        match self.protocol {
            Protocol::Gap(_) => 1.0,
            _ => emd_k(self.space.metric(), &self.alice, &self.bob, self.entry.k).max(1.0),
        }
    }
}

/// Builds both sessions and drives them to completion in memory;
/// returns the transcript's bits and Bob's finished session.
fn drive_pair<A, B, E>(
    scope: Option<Scope<'_>>,
    proto: Proto,
    first: Party,
    make_alice: impl FnOnce() -> A,
    make_bob: impl FnOnce() -> B,
) -> Result<(u64, B), String>
where
    A: Session<Error = E>,
    B: Session<Error = E>,
    E: Display,
{
    match scope {
        None => {
            let (mut a, mut b) = (make_alice(), make_bob());
            let t = drive_in_memory(first, &mut a, &mut b).map_err(|e| e.to_string())?;
            Ok((t.total_bits(), b))
        }
        Some(scope) => {
            let mut a = Timed::build(scope, proto, Side::Alice, make_alice);
            let mut b = Timed::build(scope, proto, Side::Bob, make_bob);
            let t = drive_in_memory(first, &mut a, &mut b).map_err(|e| e.to_string())?;
            Ok((t.total_bits(), b.into_inner()))
        }
    }
}

/// Where server-side Bob halves leave their final sets, by session id.
pub type OutputSink = std::sync::Mutex<Vec<(u64, Vec<Point>)>>;

enum BobHalf<'a> {
    Emd(EmdBobSession<'a>),
    Semd(ScaledEmdBobSession<'a>),
    Gap(GapBobSession<'a, BitSamplingFamily>),
}

/// A Bob half of any protocol behind the executor's object type. When
/// the half finishes, its final set moves to the sink, so the harness
/// can judge what the *served* session produced.
struct CapturingBob<'a> {
    /// `None` once the half finished and its output was captured.
    half: Option<BobHalf<'a>>,
    proto: Proto,
    scope: Option<Scope<'a>>,
    sink: Option<&'a OutputSink>,
    id: u64,
}

impl CapturingBob<'_> {
    fn spanned<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        match &self.scope {
            None => f(),
            Some(scope) => scope.span(self.proto, Side::Bob, call, f),
        }
    }
}

impl DynSession for CapturingBob<'_> {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        let Some(half) = self.half.as_mut() else {
            return Ok(None);
        };
        let mut poll = || match half {
            BobHalf::Emd(s) => Session::poll_send(s).map_err(|e| e.to_string()),
            BobHalf::Semd(s) => Session::poll_send(s).map_err(|e| e.to_string()),
            BobHalf::Gap(s) => Session::poll_send(s).map_err(|e| e.to_string()),
        };
        match &self.scope {
            None => poll(),
            Some(scope) => scope.poll_span(self.proto, Side::Bob, poll),
        }
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        let mut half = self.half.take().ok_or("frame after bob finished")?;
        let result = self.spanned(Call::OnFrame, || match &mut half {
            BobHalf::Emd(s) => Session::on_frame(s, frame).map_err(|e| e.to_string()),
            BobHalf::Semd(s) => Session::on_frame(s, frame).map_err(|e| e.to_string()),
            BobHalf::Gap(s) => Session::on_frame(s, frame).map_err(|e| e.to_string()),
        });
        let done = match &half {
            BobHalf::Emd(s) => Session::is_done(s),
            BobHalf::Semd(s) => Session::is_done(s),
            BobHalf::Gap(s) => Session::is_done(s),
        };
        if !done {
            self.half = Some(half);
            return result;
        }
        let output = match half {
            BobHalf::Emd(s) => s.into_outcome().map(|o| o.reconciled),
            BobHalf::Semd(s) => s.into_outcome().map(|o| o.inner.reconciled),
            BobHalf::Gap(s) => s.into_reconciled(),
        };
        if let (Some(sink), Some(output)) = (self.sink, output) {
            sink.lock()
                .expect("a panicking thread held the output sink")
                .push((self.id, output));
        }
        result
    }

    fn is_done(&self) -> bool {
        self.half.is_none()
    }

    fn protocol(&self) -> &'static str {
        self.proto.token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsr_core::executor::{drive_batch, DEFAULT_STALL_TIMEOUT};

    fn entries() -> [TraceEntry; 3] {
        let entry = |protocol, n, k, dim, seed| TraceEntry {
            protocol,
            n,
            k,
            dim,
            seed,
        };
        [
            entry(TraceProtocol::Emd, 20, 2, 32, 41),
            entry(TraceProtocol::ScaledEmd, 24, 2, 2, 42),
            entry(TraceProtocol::Gap, 40, 3, 128, 43),
        ]
    }

    #[test]
    fn same_entry_same_instance_other_seed_other_points() {
        for entry in entries() {
            let (a, b) = (Instance::build(&entry), Instance::build(&entry));
            assert_eq!((&a.alice, &a.bob), (&b.alice, &b.bob));
            let other = Instance::build(&TraceEntry {
                seed: entry.seed + 1,
                ..entry
            });
            assert_ne!(a.alice, other.alice);
            // Same coins too: two settles agree bit for bit.
            let (x, y) = (a.settle(None).unwrap(), b.settle(None).unwrap());
            assert_eq!((x.bits, &x.output), (y.bits, &y.output));
        }
    }

    #[test]
    fn a_settle_is_judged_good_and_a_scrambled_output_is_not() {
        for entry in entries() {
            let inst = Instance::build(&entry);
            let settled = inst.settle(None).unwrap();
            let floor = inst.emd_floor();
            assert!(inst.quality(&settled.output, floor).ok, "{entry}");
            // Bob keeping his own set is acceptable for neither model:
            // his outliers stay far from Alice's.
            let stale = inst.quality(&inst.bob, floor);
            if inst.proto() == Proto::Gap {
                assert!(!stale.ok && stale.ratio > 1.0, "{entry}");
            } else {
                assert!(stale.ratio > inst.quality(&settled.output, floor).ratio);
            }
        }
    }

    #[test]
    fn the_executor_path_hands_the_same_output_to_the_sink() {
        let tracer = crate::spans::Tracer::new();
        for (id, entry) in entries().iter().enumerate() {
            let inst = Instance::build(entry);
            let sink = OutputSink::default();
            let scope = Scope {
                tracer: &tracer,
                parent: None,
                settle: id as u64,
            };
            let pair = (
                inst.alice_boxed(Some(scope)),
                inst.bob_boxed(Some(scope), Some(&sink), id as u64),
            );
            let outcomes = drive_batch(1, 7, vec![pair], DEFAULT_STALL_TIMEOUT);
            assert!(outcomes[0].is_ok(), "{:?}", outcomes[0].error);
            let settled = inst.settle(None).unwrap();
            assert_eq!(outcomes[0].transcript.total_bits(), settled.bits);
            let captured = sink.lock().unwrap();
            assert_eq!(*captured, vec![(id as u64, settled.output)]);
        }
        // Both halves' calls were recorded under the settle's id.
        let spans = tracer.take();
        for (id, name) in [
            (0, "emd.alice.new"),
            (1, "semd.bob.on_frame"),
            (2, "gap.bob.poll_send"),
        ] {
            assert!(
                spans.iter().any(|s| s.name == name && s.settle == Some(id)),
                "{name}"
            );
        }
    }
}
