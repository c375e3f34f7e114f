//! The probe pass of the traced run: per-layer numbers taken by calling
//! each crate's public functions one at a time, from outside, over a
//! fixed 1-in-8 subsample of the instances the workload just replayed;
//! and the per-layer numbers read off the traced segment's spans.

use crate::churn::{self, ChurnTrace};
use crate::oneshot::{Instance, Protocol};
use crate::plan::PROBE_STRIDE;
use crate::spans::{totals_by_name, NameTotals, Span, Tracer};
use crate::stats::{median, percentile, sorted};
use crate::timed::{span_name, Call, Proto, Scope, Side, Timed, ONESHOT_PROTOS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_core::continuous::{shared, AliceRound, BobRound};
use rsr_core::emd_protocol::EmdProtocol;
use rsr_core::executor::{drive_batch, DynSession, DEFAULT_STALL_TIMEOUT};
use rsr_core::gap_protocol::GapProtocol;
use rsr_core::mlsh_select::select_mlsh;
use rsr_core::{drive_in_memory, Frame, Party, ScaledEmdProtocol, Session};
use rsr_emd::{replace_matched_with, AssignmentSolver};
use rsr_hash::keys::MultiScaleKeyer;
use rsr_hash::BitSamplingFamily;
use rsr_iblt::bits::BitWriter;
use rsr_iblt::riblt::RibltConfig;
use rsr_iblt::wire::CellWidths;
use rsr_iblt::{Iblt, Riblt};
use rsr_net::{write_record, Record, RecordDecoder};
use rsr_setsofsets::{reconcile, SosConfig};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of a micro-probe; its value is their median.
const REPS: usize = 5;

type Layers = Vec<(String, f64)>;

/// Median over [`REPS`] runs of `f`'s wall time, in seconds.
fn timed(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ------------------------------------------------------ from the spans

/// What the traced segment's spans say about the session layer:
/// per one-shot protocol the busy time of each half, Alice's sketch
/// build, Bob's decode, frame serialization, and how much of a settle's
/// wall time is inside no session call at all. (The served continuous
/// Bob is built inside the server and cannot be wrapped, so `cont`
/// busy times come from [`continuous_probes`].)
pub fn session_layers(spans: &[Span], settles: usize) -> Layers {
    let totals = totals_by_name(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let call = |p, s, c| get(span_name(p, s, c));
    let mean_us = |t: NameTotals| ratio(t.total_ns as f64 / 1e3, t.count as f64);
    let mut out = Layers::new();
    for proto in ONESHOT_PROTOS {
        for (side, token) in [(Side::Alice, "alice"), (Side::Bob, "bob")] {
            let busy_ns: u64 = [Call::New, Call::PollSend, Call::OnFrame]
                .iter()
                .map(|&c| call(proto, side, c).total_ns)
                .sum();
            // One `new` span per settle of this protocol.
            let settles_of = call(proto, side, Call::New).count;
            out.push((
                format!("core.{}_{token}_busy_us", proto.token()),
                ratio(busy_ns as f64 / 1e3, settles_of as f64),
            ));
        }
    }
    out.push((
        "core.emd_alice_encode_us".into(),
        mean_us(call(Proto::Emd, Side::Alice, Call::New)),
    ));
    out.push((
        "core.emd_bob_decode_us".into(),
        mean_us(call(Proto::Emd, Side::Bob, Call::OnFrame)),
    ));
    // EMD and scaled-EMD `poll_send` is pure message → frame
    // serialization (the Gap halves compute in theirs).
    let (emd, semd) = (
        call(Proto::Emd, Side::Alice, Call::PollSend),
        call(Proto::Semd, Side::Alice, Call::PollSend),
    );
    out.push((
        "core.frame_codec_us_per_frame".into(),
        ratio(
            (emd.total_ns + semd.total_ns) as f64 / 1e3,
            (emd.count + semd.count) as f64,
        ),
    ));
    // Roots are "settle" (in process) or "step" (served): their self
    // time is what no session call accounts for — the drive loop in
    // process; transport, executor hand-offs and waiting when served.
    let roots = [get("settle"), get("step")];
    let (root_self, root_total) = roots
        .iter()
        .fold((0, 0), |(s, t), r| (s + r.self_ns, t + r.total_ns));
    out.push((
        "core.session_overhead_us".into(),
        ratio(root_self as f64 / 1e3, settles as f64),
    ));
    out.push((
        "core.unattributed_share".into(),
        ratio(root_self as f64, root_total as f64),
    ));
    out
}

// ------------------------------------------------- one-shot instances

fn subsample(instances: &[Instance]) -> Vec<&Instance> {
    instances.iter().step_by(PROBE_STRIDE).collect()
}

fn emd_of(inst: &Instance) -> Option<&EmdProtocol> {
    match &inst.protocol {
        Protocol::Emd(p) => Some(p),
        _ => None,
    }
}

fn gap_of(inst: &Instance) -> Option<&GapProtocol<BitSamplingFamily>> {
    match &inst.protocol {
        Protocol::Gap(p) => Some(p),
        _ => None,
    }
}

/// Probes over the subsample: `rsr-hash` keying, `rsr-iblt` tables,
/// `rsr-emd` assignment and repair, `rsr-metric` distances,
/// `rsr-setsofsets`, protocol construction, executor dispatch. A layer
/// the workload's instances never enter reports 0.
pub fn oneshot_probes(instances: &[Instance]) -> Result<Layers, String> {
    let sample = subsample(instances);
    let mut out = Layers::new();
    hash_probes(&sample, &mut out);
    riblt_probes(&sample, &mut out);
    xor_probes_for_gap(&sample, &mut out);
    emd_probes(&sample, &mut out);
    sos_probes(&sample, &mut out);
    proto_new_probe(&sample, &mut out);
    cells_probe(&sample, &mut out)?;
    dispatch_probe(&sample, &mut out)?;
    Ok(out)
}

fn hash_probes(sample: &[&Instance], out: &mut Layers) {
    // Algorithm 1's level keys: the keyer the protocol draws, rebuilt
    // from its public parameters (same family, s, key width).
    let mut rng = StdRng::seed_from_u64(0x6b65_7973);
    let emd: Vec<_> = sample
        .iter()
        .filter_map(|inst| {
            let p = emd_of(inst)?;
            let cfg = p.config();
            let family = select_mlsh(&inst.space, cfg.k, cfg.d2);
            let keyer =
                MultiScaleKeyer::sample(&family, p.num_hash_draws(), cfg.key_bits, &mut rng);
            Some((*inst, p, keyer))
        })
        .collect();
    let emd_points: usize = emd.iter().map(|(i, ..)| i.alice.len() + i.bob.len()).sum();
    let emd_s = timed(|| {
        for (inst, p, keyer) in &emd {
            for pt in inst.alice.iter().chain(&inst.bob) {
                black_box(keyer.level_keys(black_box(pt), p.prefix_lens()));
            }
        }
    });
    out.push((
        "hash.emd_key_us_per_point".into(),
        ratio(emd_s * 1e6, emd_points as f64),
    ));

    let gap: Vec<_> = sample
        .iter()
        .filter_map(|inst| Some((*inst, gap_of(inst)?)))
        .collect();
    let gap_points: usize = gap.iter().map(|(i, _)| i.alice.len() + i.bob.len()).sum();
    let gap_s = timed(|| {
        for (inst, p) in &gap {
            for pt in inst.alice.iter().chain(&inst.bob) {
                black_box(p.key_of(black_box(pt)));
            }
        }
    });
    out.push((
        "hash.gap_key_us_per_point".into(),
        ratio(gap_s * 1e6, gap_points as f64),
    ));

    // LSH evaluations per keyed point, exactly: the longest level prefix
    // (the incremental keyer stops there) or h·m batch draws.
    let emd_draws: usize = emd
        .iter()
        .map(|(i, p, _)| (i.alice.len() + i.bob.len()) * p.prefix_lens().last().map_or(0, |&l| l))
        .sum();
    let gap_draws: usize = gap
        .iter()
        .map(|(i, p)| (i.alice.len() + i.bob.len()) * p.config().h * p.config().m)
        .sum();
    out.push((
        "hash.draws_per_point".into(),
        ratio(
            (emd_draws + gap_draws) as f64,
            (emd_points + gap_points) as f64,
        ),
    ));
}

/// The table Algorithm 1 would use at one level, loaded the way the
/// protocol's decodable level is: shared points cancel in the key (one
/// key per pair) and leave a value residual; the k planted outliers per
/// side survive.
fn riblt_probes(sample: &[&Instance], out: &mut Layers) {
    let cases: Vec<_> = sample
        .iter()
        .filter_map(|inst| {
            let p = emd_of(inst)?;
            let cfg = RibltConfig::for_pairs(
                p.config().k,
                p.config().q,
                inst.space.dim(),
                inst.space.delta(),
                inst.entry.seed,
            );
            let mut rng = StdRng::seed_from_u64(inst.entry.seed ^ 0x7269_626c);
            let shared = inst.alice.len() - inst.entry.k;
            let pair_keys: Vec<u64> = (0..shared).map(|_| rng.gen()).collect();
            let a_keys: Vec<u64> = (0..inst.entry.k).map(|_| rng.gen()).collect();
            let b_keys: Vec<u64> = (0..inst.entry.k).map(|_| rng.gen()).collect();
            Some((*inst, cfg, pair_keys, a_keys, b_keys))
        })
        .collect();
    let build = |(inst, cfg, pair_keys, a_keys, b_keys): &(
        &Instance,
        RibltConfig,
        Vec<u64>,
        Vec<u64>,
        Vec<u64>,
    )| {
        let mut table = Riblt::new(*cfg);
        let shared = pair_keys.len();
        for (key, pt) in pair_keys.iter().chain(a_keys).zip(&inst.alice) {
            table.insert(*key, pt);
        }
        for (key, pt) in pair_keys.iter().zip(&inst.bob[..shared]) {
            table.delete(*key, pt);
        }
        for (key, pt) in b_keys.iter().zip(&inst.bob[shared..]) {
            table.delete(*key, pt);
        }
        table
    };
    let pairs: usize = cases
        .iter()
        .map(|(i, ..)| i.alice.len() + i.bob.len())
        .sum();
    let build_s = timed(|| {
        for case in &cases {
            black_box(build(case));
        }
    });
    out.push((
        "iblt.riblt_build_us_per_pair".into(),
        ratio(build_s * 1e6, pairs as f64),
    ));

    let planted: usize = cases.iter().map(|(i, ..)| 2 * i.entry.k).sum();
    let mut recovered = 0usize;
    let tables: Vec<Riblt> = cases.iter().map(build).collect();
    let decode_s = timed(|| {
        recovered = 0;
        for (table, (inst, ..)) in tables.iter().zip(&cases) {
            let mut rng = StdRng::seed_from_u64(inst.entry.seed);
            let d = table.clone().decode(&mut rng);
            recovered += d.inserted.len() + d.deleted.len();
            black_box(d);
        }
    });
    out.push((
        "iblt.riblt_decode_us_per_pair".into(),
        ratio(decode_s * 1e6, recovered as f64),
    ));
    out.push((
        "iblt.riblt_recovered_share".into(),
        ratio(recovered as f64, planted as f64),
    ));
}

/// What an XOR-table probe measured.
pub struct XorProbe {
    pub insert_ns_per_key: f64,
    pub decode_us_per_key: f64,
    pub solved_share: f64,
    pub fail_share: f64,
    pub delta_since_us: f64,
    pub codec_ns_per_cell: f64,
}

/// Probes the XOR IBLT at one table shape: `resident` keys inserted (the
/// bulk build), then `diff` more on one side, the difference taken with
/// `delta_since`, serialized both ways, and decoded.
pub fn xor_probe(cells: usize, q: usize, resident: usize, diff: usize, n_bound: usize) -> XorProbe {
    const TABLES: u64 = 64;
    let mut rng = StdRng::seed_from_u64(0x786f_7270 ^ cells as u64);
    let resident_keys: Vec<u64> = (0..resident).map(|_| rng.gen()).collect();
    let insert_s = timed(|| {
        let mut t = Iblt::new(cells, q, 1);
        for &k in &resident_keys {
            t.insert(k);
        }
        black_box(t);
    });

    let mut deltas = Vec::new();
    let mut delta_s = Vec::new();
    for seed in 0..TABLES {
        let mut base = Iblt::new(cells, q, seed);
        for &k in &resident_keys {
            base.insert(k);
        }
        let snapshot = base.snapshot();
        for _ in 0..diff {
            base.insert(rng.gen());
        }
        let t0 = Instant::now();
        let delta = base.delta_since(&snapshot);
        delta_s.push(t0.elapsed().as_secs_f64());
        deltas.push((seed, delta));
    }

    let (mut peeled, mut solved, mut failed) = (0usize, 0usize, 0usize);
    let decode_s = timed(|| {
        (peeled, solved, failed) = (0, 0, 0);
        for (_, delta) in &deltas {
            let d = delta.clone().decode();
            peeled += d.peeled;
            solved += d.solved;
            failed += usize::from(!d.complete);
            black_box(d);
        }
    });
    let real_cells: usize = deltas.iter().map(|(_, d)| d.num_cells()).sum();
    let codec_s = timed(|| {
        for (seed, delta) in &deltas {
            let bytes = delta.to_bytes(n_bound);
            black_box(Iblt::from_bytes(&bytes, cells, q, *seed, n_bound));
        }
    });
    XorProbe {
        insert_ns_per_key: ratio(insert_s * 1e9, resident as f64),
        decode_us_per_key: ratio(decode_s * 1e6, (peeled + solved) as f64),
        solved_share: ratio(solved as f64, (peeled + solved) as f64),
        fail_share: ratio(failed as f64, deltas.len() as f64),
        delta_since_us: median(&delta_s) * 1e6,
        codec_ns_per_cell: ratio(codec_s * 1e9, real_cells as f64),
    }
}

impl XorProbe {
    pub fn layers(&self, out: &mut Layers) {
        out.push(("iblt.xor_insert_ns_per_key".into(), self.insert_ns_per_key));
        out.push(("iblt.xor_decode_us_per_key".into(), self.decode_us_per_key));
        out.push(("iblt.decode_solved_share".into(), self.solved_share));
        out.push(("iblt.decode_fail_share".into(), self.fail_share));
        out.push(("iblt.delta_since_us".into(), self.delta_since_us));
        out.push(("iblt.codec_ns_per_cell".into(), self.codec_ns_per_cell));
    }
}

/// The Gap protocol's XOR table is the sets-of-sets fingerprint IBLT:
/// every one of Bob's n keys goes in, the sizing's expected number of
/// differing keys (2/5 of the cells) comes out.
fn xor_probes_for_gap(sample: &[&Instance], out: &mut Layers) {
    let shapes: Vec<(usize, usize)> = sample
        .iter()
        .filter_map(|inst| Some((gap_of(inst)?.config().fp_cells, inst.entry.n)))
        .collect();
    if shapes.is_empty() {
        return;
    }
    let cells = median(&shapes.iter().map(|s| s.0 as f64).collect::<Vec<_>>()) as usize;
    let n = median(&shapes.iter().map(|s| s.1 as f64).collect::<Vec<_>>()) as usize;
    xor_probe(cells, 3, n, cells * 2 / 5, n.max(2)).layers(out);
}

/// Assignment and repair at the shape Bob's repair step has: the k
/// decoded survivors of his side against his n points.
fn emd_probes(sample: &[&Instance], out: &mut Layers) {
    let cases: Vec<&Instance> = sample
        .iter()
        .copied()
        .filter(|i| !matches!(i.protocol, Protocol::Gap(_)))
        .collect();
    let solver = AssignmentSolver::default();
    let evals = Cell::new(0u64);
    let assign_s = timed(|| {
        evals.set(0);
        for inst in &cases {
            let (metric, n) = (inst.space.metric(), inst.bob.len());
            let x_b = &inst.bob[n - inst.entry.k..];
            black_box(solver.assign(x_b.len(), n, |i, j| {
                evals.set(evals.get() + 1);
                metric.distance(&x_b[i], &inst.bob[j])
            }));
        }
    });
    let repair_s = timed(|| {
        for inst in &cases {
            let n = inst.bob.len();
            black_box(replace_matched_with(
                solver,
                inst.space.metric(),
                &inst.bob,
                &inst.bob[n - inst.entry.k..],
                &inst.alice[n - inst.entry.k..],
            ));
        }
    });
    let mut dist_calls = 0u64;
    let dist_s = timed(|| {
        dist_calls = 0;
        for inst in &cases {
            let metric = inst.space.metric();
            for a in &inst.alice {
                for b in &inst.bob {
                    black_box(metric.distance(black_box(a), black_box(b)));
                    dist_calls += 1;
                }
            }
        }
    });
    let calls = cases.len() as f64;
    out.push((
        "emd.assign_us_per_call".into(),
        ratio(assign_s * 1e6, calls),
    ));
    out.push((
        "emd.repair_us_per_call".into(),
        ratio(repair_s * 1e6, calls),
    ));
    out.push((
        "emd.cost_evals_per_call".into(),
        ratio(evals.get() as f64, calls),
    ));
    out.push((
        "metric.dist_ns_per_call".into(),
        ratio(dist_s * 1e9, dist_calls as f64),
    ));
}

/// Rounds 1–3 of the Gap protocol on their own: the two parties' key
/// multisets through `rsr_setsofsets::reconcile`.
fn sos_probes(sample: &[&Instance], out: &mut Layers) {
    let cases: Vec<_> = sample
        .iter()
        .filter_map(|inst| {
            let p = gap_of(inst)?;
            let keys = |pts: &[rsr_metric::Point]| pts.iter().map(|pt| p.key_of(pt)).collect();
            let (alice, bob): (Vec<Vec<u64>>, Vec<Vec<u64>>) = (keys(&inst.alice), keys(&inst.bob));
            let cfg = SosConfig {
                fp_cells: p.config().fp_cells,
                q: 3,
                seed: inst.entry.seed,
                entry_bits: p.config().entry_bits,
            };
            // An undecodable fingerprint table (rare, by design) is not
            // a timing sample.
            reconcile(&alice, &bob, &cfg).ok()?;
            Some((alice, bob, cfg))
        })
        .collect();
    let (mut bits, mut rounds) = (0u64, 0usize);
    let wall_s = timed(|| {
        (bits, rounds) = (0, 0);
        for (alice, bob, cfg) in &cases {
            if let Ok(o) = reconcile(alice, bob, cfg) {
                let (r1, r2, r3) = o.round_bits;
                bits += r1 + r2 + r3;
                rounds += [r1, r2, r3].iter().filter(|&&b| b > 0).count();
                black_box(o);
            }
        }
    });
    let calls = cases.len() as f64;
    out.push((
        "sos.reconcile_us_per_call".into(),
        ratio(wall_s * 1e6, calls),
    ));
    out.push(("sos.bits_per_call".into(), ratio(bits as f64, calls)));
    out.push(("sos.rounds_per_call".into(), ratio(rounds as f64, calls)));
}

/// Protocol construction: the public-coin draws of `*Protocol::new`.
fn proto_new_probe(sample: &[&Instance], out: &mut Layers) {
    let wall_s = timed(|| {
        for inst in sample {
            let (space, e) = (inst.space, &inst.entry);
            match &inst.protocol {
                Protocol::Emd(p) => {
                    black_box(EmdProtocol::new(space, *p.config(), e.seed));
                }
                Protocol::Semd(_) => {
                    black_box(ScaledEmdProtocol::new(space, e.n, e.k, e.seed));
                }
                Protocol::Gap(p) => {
                    let family = BitSamplingFamily::new(e.dim, e.dim as f64);
                    black_box(GapProtocol::new(space, &family, *p.config(), e.seed));
                }
            }
        }
    });
    out.push((
        "hash.proto_new_us".into(),
        ratio(wall_s * 1e6, sample.len() as f64),
    ));
}

/// Table cells a frame of `frame_bits` carries at `cell_bits` per cell
/// (the frame's 32-bit header is narrower than any cell).
fn cells_shipped(frame_bits: u64, cell_bits: u64) -> u64 {
    frame_bits / cell_bits
}

/// Table cells shipped per planted difference key, counted off the
/// frames the sessions send: the bits of the frame that carries the
/// tables (Algorithm 1: Alice's level tables; Gap: Bob's fingerprint
/// table) ÷ the codec's width of one cell. (A scaled-EMD frame mixes
/// tables of several set sizes; its instances are left out.)
fn cells_probe(sample: &[&Instance], out: &mut Layers) -> Result<(), String> {
    let (mut cells, mut keys) = (0u64, 0usize);
    for inst in sample {
        let (frame, cell_bits) = match &inst.protocol {
            Protocol::Emd(p) => (
                Session::poll_send(&mut p.alice_session(&inst.alice))
                    .ok()
                    .flatten(),
                CellWidths::sum(inst.alice.len(), inst.space.delta()).per_cell(inst.space.dim()),
            ),
            Protocol::Gap(p) => (
                Session::poll_send(&mut p.bob_session(&inst.bob))
                    .ok()
                    .flatten(),
                CellWidths::xor(inst.bob.len()).per_cell(0),
            ),
            Protocol::Semd(_) => continue,
        };
        let frame = frame.ok_or("cells probe: a session had no first frame")?;
        cells += cells_shipped(frame.bit_len, cell_bits);
        keys += inst.entry.k;
    }
    out.push((
        "iblt.cells_per_diff_key".into(),
        ratio(cells as f64, keys as f64),
    ));
    Ok(())
}

/// What the executor adds: the same session pairs driven by
/// `drive_batch` on one shard, minus driven serially in memory. Pairs
/// are built outside both clocks.
fn dispatch_probe(sample: &[&Instance], out: &mut Layers) -> Result<(), String> {
    let mut serial = Vec::with_capacity(REPS);
    let mut batch = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut pairs: Vec<_> = sample
            .iter()
            .map(|i| (i.alice_boxed(None), i.bob_boxed(None, None, 0)))
            .collect();
        let t0 = Instant::now();
        for (inst, (alice, bob)) in sample.iter().zip(&mut pairs) {
            let first = match inst.protocol {
                Protocol::Gap(_) => Party::Bob,
                _ => Party::Alice,
            };
            let (mut a, mut b) = (Erased(alice.as_mut()), Erased(bob.as_mut()));
            drive_in_memory(first, &mut a, &mut b).map_err(|e| format!("dispatch probe: {e}"))?;
        }
        serial.push(t0.elapsed().as_secs_f64());

        let pairs: Vec<_> = sample
            .iter()
            .map(|i| (i.alice_boxed(None), i.bob_boxed(None, None, 0)))
            .collect();
        let t0 = Instant::now();
        let outcomes = drive_batch(1, 0x6469_7370, pairs, DEFAULT_STALL_TIMEOUT);
        batch.push(t0.elapsed().as_secs_f64());
        if let Some(e) = outcomes.iter().find_map(|o| o.error.as_ref()) {
            return Err(format!("dispatch probe: {e}"));
        }
    }
    out.push((
        "core.exec_dispatch_us_per_settle".into(),
        ratio(
            (median(&batch) - median(&serial)) * 1e6,
            sample.len() as f64,
        ),
    ));
    Ok(())
}

/// A boxed executor session seen through the typed `Session` trait, so
/// the serial driver can drive it.
struct Erased<'a, 'b>(&'a mut (dyn DynSession + 'b));

impl rsr_core::Session for Erased<'_, '_> {
    type Error = String;

    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        self.0.poll_send()
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        self.0.on_frame(frame)
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }
}

/// `net.transport_tax_us_per_settle`: the served settle's latency minus
/// an in-memory settle of the same instance, paired, mean over the
/// subsample.
pub fn transport_tax_us(instances: &[Instance], served_ms: &[Option<f64>]) -> Result<f64, String> {
    let mut diffs = Vec::new();
    for (inst, served) in instances.iter().zip(served_ms).step_by(PROBE_STRIDE) {
        let Some(served) = served else { continue };
        let t0 = Instant::now();
        inst.settle(None)
            .map_err(|e| format!("transport tax probe: {e}"))?;
        diffs.push(served * 1e3 - t0.elapsed().as_secs_f64() * 1e6);
    }
    if diffs.is_empty() {
        return Err("transport tax probe has no paired sample".into());
    }
    Ok(diffs.iter().sum::<f64>() / diffs.len() as f64)
}

// ------------------------------------------------------------- rsr-net

/// `write_record` and `RecordDecoder` over `FRAME` records at the two
/// payload sizes the served workloads ship (16 KB one-shot sketches,
/// 1.7 KB round deltas).
pub fn record_codec_probe() -> Layers {
    const SIZES: [usize; 2] = [16 * 1024, 1700];
    const PER_SIZE: usize = 64;
    let records: Vec<Record> = SIZES
        .iter()
        .flat_map(|&size| {
            (0..PER_SIZE).map(move |i| {
                let mut w = BitWriter::new();
                for j in 0..size {
                    w.write((i * 31 + j) as u64 & 0xff, 8);
                }
                Record::Frame {
                    session: i as u64,
                    frame: Frame::seal("probe", w),
                }
            })
        })
        .collect();
    let mut wire = Vec::new();
    let encode_s = timed(|| {
        wire.clear();
        for r in &records {
            write_record(&mut wire, r).expect("a probe record encodes");
        }
    });
    let decode_s = timed(|| {
        let mut decoder = RecordDecoder::new();
        // Fed in reactor-sized reads, as the socket would deliver them.
        for chunk in wire.chunks(16 * 1024) {
            decoder.feed(chunk);
            while let Ok(Some(record)) = decoder.next_record() {
                black_box(record);
            }
        }
    });
    vec![
        (
            "net.record_encode_ns_per_byte".into(),
            ratio(encode_s * 1e9, wire.len() as f64),
        ),
        (
            "net.record_decode_ns_per_byte".into(),
            ratio(decode_s * 1e9, wire.len() as f64),
        ),
    ]
}

// ---------------------------------------------------------- continuous

pub struct ContinuousProbe {
    /// Median wall time of one in-process round, µs.
    pub round_us: f64,
    pub layers: Layers,
}

/// A resident pair driven in process over the first rounds of a served
/// session's trace: what a round costs without the wire, each half's
/// busy time, the cost of streaming one churn op in, and the XOR table
/// at the round's shape.
pub fn continuous_probes(trace: &ChurnTrace) -> Result<ContinuousProbe, String> {
    const ROUNDS: usize = 512;
    let (alice, bob) = (
        shared(churn::party_of(&trace.spec)),
        shared(churn::party_of(&trace.spec)),
    );
    churn::drive_round(&alice, &bob)?;
    let tracer = Tracer::new();
    let mut round_us = Vec::new();
    let (mut apply_s, mut ops, mut cells) = (0.0, 0usize, 0u64);
    let cfg = *churn::lock(&alice).config();
    let cell_bits = CellWidths::xor(cfg.n_bound).per_cell(0);
    for (r, keys) in trace.rounds.iter().take(ROUNDS).enumerate() {
        let t0 = Instant::now();
        keys.apply(&alice)?;
        apply_s += t0.elapsed().as_secs_f64();
        ops += keys.ops();

        let scope = Scope {
            tracer: &tracer,
            parent: None,
            settle: r as u64,
        };
        let t0 = Instant::now();
        let a = scope
            .span(Proto::Cont, Side::Alice, Call::New, || {
                AliceRound::begin(&alice)
            })
            .map_err(|e| format!("probe round {r}: {e}"))?;
        let b = scope
            .span(Proto::Cont, Side::Bob, Call::New, || BobRound::begin(&bob))
            .map_err(|e| format!("probe round {r}: {e}"))?;
        let mut a = Timed::wrap(scope, Proto::Cont, Side::Alice, a);
        let mut b = Timed::wrap(scope, Proto::Cont, Side::Bob, b);
        let transcript = drive_in_memory(Party::Alice, &mut a, &mut b)
            .map_err(|e| format!("probe round {r}: {e}"))?;
        round_us.push(t0.elapsed().as_secs_f64() * 1e6);
        // The round's first frame is Alice's delta table.
        let delta_bits = transcript.entries().next().map_or(0, |(_, bits)| bits);
        cells += cells_shipped(delta_bits, cell_bits);
    }
    if round_us.is_empty() {
        return Err("the churn trace is empty".into());
    }
    let totals: BTreeMap<_, _> = totals_by_name(&tracer.take());
    let busy_us = |side| {
        let ns: u64 = [Call::New, Call::PollSend, Call::OnFrame]
            .iter()
            .filter_map(|&c| totals.get(span_name(Proto::Cont, side, c)))
            .map(|t| t.total_ns)
            .sum();
        ns as f64 / 1e3 / round_us.len() as f64
    };
    let round_p50 = percentile(&sorted(round_us.clone()), 0.50);
    let mean_ops = ops / round_us.len();
    let mut layers = vec![
        ("core.cont_round_us".to_owned(), round_p50),
        ("core.cont_alice_busy_us".into(), busy_us(Side::Alice)),
        ("core.cont_bob_busy_us".into(), busy_us(Side::Bob)),
        (
            "core.cont_apply_us_per_op".into(),
            ratio(apply_s * 1e6, ops as f64),
        ),
        (
            "iblt.cells_per_diff_key".into(),
            ratio(cells as f64, ops as f64),
        ),
    ];
    xor_probe(cfg.cells, cfg.q, trace.base.len(), mean_ops, cfg.n_bound).layers(&mut layers);
    Ok(ContinuousProbe {
        round_us: round_p50,
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_layers_divide_busy_time_by_settles_of_the_protocol() {
        let span = |id, name, start, end, parent| Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            settle: Some(0),
        };
        let spans = vec![
            span(1, "settle", 0, 10_000, None),
            span(2, "emd.alice.new", 0, 4_000, Some(1)),
            span(3, "emd.alice.poll_send", 4_000, 5_000, Some(1)),
            span(4, "emd.bob.new", 5_000, 5_000, Some(1)),
            span(5, "emd.bob.on_frame", 5_000, 9_000, Some(1)),
        ];
        let layers: BTreeMap<String, f64> = session_layers(&spans, 1).into_iter().collect();
        assert_eq!(layers["core.emd_alice_busy_us"], 5.0);
        assert_eq!(layers["core.emd_bob_busy_us"], 4.0);
        assert_eq!(layers["core.emd_alice_encode_us"], 4.0);
        assert_eq!(layers["core.emd_bob_decode_us"], 4.0);
        assert_eq!(layers["core.frame_codec_us_per_frame"], 1.0);
        assert_eq!(layers["core.session_overhead_us"], 1.0);
        assert!((layers["core.unattributed_share"] - 0.1).abs() < 1e-12);
        // A protocol the workload never ran reports 0, not NaN.
        assert_eq!(layers["core.gap_alice_busy_us"], 0.0);
        // The continuous halves are measured by `continuous_probes` only.
        assert!(!layers.contains_key("core.cont_bob_busy_us"));
    }

    #[test]
    fn cells_are_counted_off_the_frames_exactly() {
        use rsr_workloads::trace::{TraceEntry, TraceProtocol};
        let entry = |protocol, n, k, dim| TraceEntry {
            protocol,
            n,
            k,
            dim,
            seed: 41,
        };
        // Algorithm 1: one table per level behind a 32-bit header; the
        // frame's bits give back the cells the level configs ask for.
        let inst = Instance::build(&entry(TraceProtocol::Emd, 20, 2, 32));
        let p = emd_of(&inst).unwrap();
        let frame = Session::poll_send(&mut p.alice_session(&inst.alice))
            .unwrap()
            .unwrap();
        let width = CellWidths::sum(20, inst.space.delta()).per_cell(32);
        assert_eq!((frame.bit_len - 32) % width, 0);
        let level = Riblt::new(RibltConfig::for_pairs(
            p.config().k,
            p.config().q,
            32,
            inst.space.delta(),
            0,
        ));
        assert_eq!(
            cells_shipped(frame.bit_len, width) as usize,
            level.num_cells() * p.prefix_lens().len()
        );
        // Gap: Bob's first frame is the fingerprint table.
        let inst = Instance::build(&entry(TraceProtocol::Gap, 40, 3, 128));
        let p = gap_of(&inst).unwrap();
        let frame = Session::poll_send(&mut p.bob_session(&inst.bob))
            .unwrap()
            .unwrap();
        let width = CellWidths::xor(40).per_cell(0);
        assert_eq!((frame.bit_len - 32) % width, 0);
        assert_eq!(
            cells_shipped(frame.bit_len, width) as usize,
            Iblt::new(p.config().fp_cells, 3, 0).num_cells()
        );
    }
}
