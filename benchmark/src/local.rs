//! `local_emd` and `local_gap`: closed loop, one caller, in process.
//! Each settle builds the session pair of one instance and drives it
//! over an in-memory channel; nothing of `rsr-net` or the executor runs.

use crate::oneshot::{Instance, Settled};
use crate::plan::{self, WorkloadKind, MAX_ATTEMPTS, WARMUP_DIVISOR};
use crate::probes;
use crate::run::{SegmentClock, SegmentRaw, Workload};
use crate::spans::{Span, Tracer};
use crate::timed::Scope;
use std::sync::Arc;
use std::time::Instant;

/// What an instance's outputs are verified against.
pub struct Reference {
    /// Transcript bits of the in-memory reference settle.
    pub bits: u64,
    /// `max(EMD_k(S_A, S_B), 1)` (1 for Gap).
    pub floor: f64,
}

/// The inputs of a one-shot workload.
pub struct Inputs {
    pub instances: Vec<Instance>,
    pub references: Vec<Reference>,
    /// Instances whose first draw reconciled.
    pub first_try: usize,
    /// Time spent generating instances (points and public coins), ms.
    pub gen_ms: f64,
}

/// Generates every instance of the workload and its reference. The
/// protocols fail with small probability by design (a sketch that does
/// not decode: about one Gap session in 1,200 at `for_params` sizing),
/// and the benchmark must time workloads on which no operation fails, so
/// an instance whose reference settle fails is drawn again; how often
/// that happens is `success_share`. The shapes never change, so every
/// build times the same distribution of inputs, and two builds time
/// different points only where one of them drew again.
pub fn select_inputs(kind: WorkloadKind, run_seed: u64, seconds: u64) -> Result<Inputs, String> {
    let shapes = plan::shapes(kind, seconds);
    let mut out = Inputs {
        instances: Vec::with_capacity(shapes.len()),
        references: Vec::with_capacity(shapes.len()),
        first_try: 0,
        gen_ms: 0.0,
    };
    for (index, shape) in shapes.iter().enumerate() {
        let accepted = (0..MAX_ATTEMPTS).find_map(|attempt| {
            let t0 = Instant::now();
            let inst = Instance::build(&plan::candidate(kind, run_seed, shape, index, attempt));
            out.gen_ms += t0.elapsed().as_secs_f64() * 1e3;
            let settled = inst.settle(None).ok()?;
            let floor = inst.emd_floor();
            let bits = settled.bits;
            inst.quality(&settled.output, floor).ok.then_some((
                attempt,
                inst,
                Reference { bits, floor },
            ))
        });
        let (attempt, inst, reference) = accepted
            .ok_or_else(|| format!("instance {index} ({shape}) failed on {MAX_ATTEMPTS} draws"))?;
        out.first_try += usize::from(attempt == 0);
        out.instances.push(inst);
        out.references.push(reference);
    }
    Ok(out)
}

/// Verifies one settle's output against the reference; returns the
/// quality ratio, or `None` for a wrong output.
pub fn verify_settle(
    inst: &Instance,
    result: &Result<Settled, String>,
    reference: &Reference,
) -> Option<f64> {
    let settled = result.as_ref().ok()?;
    let quality = inst.quality(&settled.output, reference.floor);
    (settled.bits == reference.bits && quality.ok).then_some(quality.ratio)
}

/// One settle's latency in milliseconds and what it produced.
type Timed = (f64, Result<Settled, String>);

pub struct Local {
    kind: WorkloadKind,
    run_seed: u64,
    seconds: u64,
    replays: usize,
    inputs: Option<Inputs>,
    tracer: Arc<Tracer>,
    next_settle: u64,
}

impl Local {
    pub fn new(kind: WorkloadKind, run_seed: u64, seconds: u64) -> Local {
        let replays = match kind {
            WorkloadKind::LocalGap => plan::scaled(plan::LOCAL_GAP_REPLAYS, seconds),
            _ => plan::ONESHOT_REPLAYS,
        };
        Local {
            kind,
            run_seed,
            seconds,
            replays,
            inputs: None,
            tracer: Arc::new(Tracer::new()),
            next_settle: 0,
        }
    }

    fn inputs(&self) -> &Inputs {
        self.inputs.as_ref().expect("setup() ran first")
    }

    /// Settles the first `count` instances once each, timed one by one.
    fn pass(&mut self, count: usize, traced: bool, raw: &mut SegmentRaw, results: &mut Vec<Timed>) {
        let inputs = self.inputs.as_ref().expect("setup() ran first");
        for inst in &inputs.instances[..count] {
            let id = self.next_settle;
            self.next_settle += 1;
            let t0 = Instant::now();
            let result = if traced {
                let root = self.tracer.begin("settle", None, Some(id));
                let scope = Scope {
                    tracer: &self.tracer,
                    parent: Some(root.id()),
                    settle: id,
                };
                let result = inst.settle(Some(scope));
                self.tracer.end(root);
                result
            } else {
                inst.settle(None)
            };
            let dt = t0.elapsed().as_secs_f64();
            raw.busy_s += dt;
            results.push((dt * 1e3, result));
        }
    }
}

impl Workload for Local {
    fn setup(&mut self) -> Result<(), String> {
        // An earlier set-up's inputs go first, so peak memory is one set.
        self.inputs = None;
        self.inputs = Some(select_inputs(self.kind, self.run_seed, self.seconds)?);
        let (warmup, _) = self.counts();
        let mut results = Vec::with_capacity(warmup);
        self.pass(warmup, false, &mut SegmentRaw::default(), &mut results);
        match results.iter().position(|(_, r)| r.is_err()) {
            Some(pos) => Err(format!("warm-up settle {pos} failed")),
            None => Ok(()),
        }
    }

    fn segment(&mut self, traced: bool) -> Result<SegmentRaw, String> {
        let instances = self.inputs().instances.len();
        let mut raw = SegmentRaw::default();
        // What each instance produced on the segment's first replay, and
        // how good it was: a later replay must produce the same again.
        let mut first: Vec<Option<(Settled, f64)>> = Vec::with_capacity(instances);
        for replay in 0..self.replays {
            let mut results = Vec::with_capacity(instances);
            let clock = SegmentClock::start()?;
            self.pass(instances, traced, &mut raw, &mut results);
            clock.stop(&mut raw)?;

            let inputs = self.inputs();
            for (i, (latency_ms, result)) in results.into_iter().enumerate() {
                let (inst, reference) = (&inputs.instances[i], &inputs.references[i]);
                raw.attempted += 1;
                let ratio = if replay == 0 {
                    let ratio = verify_settle(inst, &result, reference);
                    first.push(result.ok().zip(ratio));
                    ratio
                } else {
                    first[i].as_ref().and_then(|(reference, ratio)| {
                        let same = result.is_ok_and(|s| {
                            s.bits == reference.bits && s.output == reference.output
                        });
                        same.then_some(*ratio)
                    })
                };
                let Some(ratio) = ratio else {
                    raw.latencies_ms.push(None);
                    raw.failed += 1;
                    continue;
                };
                raw.ratios.push(ratio);
                raw.latencies_ms.push(Some(latency_ms));
                raw.payload_bits += reference.bits;
                raw.wire_bytes += reference.bits as f64 / 8.0;
                raw.diff_keys += inst.diff_keys() as u64;
            }
        }
        Ok(raw)
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn success_share(&self) -> f64 {
        let inputs = self.inputs();
        inputs.first_try as f64 / inputs.instances.len() as f64
    }

    fn counts(&self) -> (usize, usize) {
        let instances = self.inputs().instances.len();
        let settles = instances * self.replays;
        ((settles / WARMUP_DIVISOR).clamp(1, instances), settles)
    }

    fn layers(
        &mut self,
        spans: &[Span],
        traced: &SegmentRaw,
    ) -> Result<Vec<(String, f64)>, String> {
        let inputs = self.inputs();
        let mut out = probes::session_layers(spans, traced.attempted as usize);
        out.extend(probes::oneshot_probes(&inputs.instances)?);
        out.push(("workloads.gen_ms".into(), inputs.gen_ms));
        Ok(out)
    }

    fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }
}
