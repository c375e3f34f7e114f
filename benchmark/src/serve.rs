//! `serve_mix` and `serve_churn`: closed loop over loopback TCP. One
//! in-process [`ReconServer`] (its own reactor thread and one executor
//! shard) and one [`ConnectedDriver`] with two connections; a *step*
//! puts 2 sessions (`serve_mix`) or 8 (`serve_churn`) on each connection
//! and ends when all have settled.

use crate::churn::{self, ChurnTrace};
use crate::local::{select_inputs, Reference};
use crate::oneshot::{Instance, OutputSink};
use crate::plan::{
    self, WorkloadKind, CHURN_PER_CONN, CONNS, ONESHOT_REPLAYS, PER_CONN, WARMUP_DIVISOR,
};
use crate::probes;
use crate::run::{SegmentClock, SegmentRaw, Workload};
use crate::spans::{Open, Span, Tracer};
use crate::stats::{percentile, sorted};
use crate::timed::{Call, Proto, Scope, Side};
use rsr_core::continuous::shared;
use rsr_core::SharedParty;
use rsr_net::{
    ConnectedDriver, Driver, DriverReport, NetSession, ReconServer, SessionFactory, SessionPlan,
    SessionSpec,
};
use rsr_obs::MetricsSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sessions in flight per step.
const PER_STEP: usize = CONNS * PER_CONN;
const CHURN_PER_STEP: usize = CONNS * CHURN_PER_CONN;
/// A wedged connection must fail the run, not hang it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);
/// The ungated open-loop diagnostic of `serve_mix`'s traced run.
const OPEN_LOOP_RATE: f64 = 100.0;
const OPEN_LOOP_SESSIONS: usize = 400;
/// Zero-churn rounds measured for `net.empty_round_us`.
const EMPTY_ROUND_STEPS: usize = 256;

/// What the harness and the server's threads share about tracing.
struct TraceCtl {
    tracer: Arc<Tracer>,
    on: AtomicBool,
    /// The span of the step in flight (0 = none): the parent of every
    /// session span the step causes, on either endpoint.
    step_span: AtomicU64,
    /// Steps traced so far: the settle id of the next step span.
    steps: AtomicU64,
}

impl TraceCtl {
    fn new() -> Arc<TraceCtl> {
        Arc::new(TraceCtl {
            tracer: Arc::new(Tracer::new()),
            on: AtomicBool::new(false),
            step_span: AtomicU64::new(0),
            steps: AtomicU64::new(0),
        })
    }

    /// Opens the span of a step when tracing is on.
    fn begin_step(&self) -> Option<Open> {
        self.on.load(Ordering::Relaxed).then(|| {
            let id = self.steps.fetch_add(1, Ordering::Relaxed);
            let root = self.tracer.begin("step", None, Some(id));
            self.step_span.store(root.id(), Ordering::Relaxed);
            root
        })
    }

    fn end_step(&self, root: Option<Open>) {
        if let Some(root) = root {
            self.tracer.end(root);
            self.step_span.store(0, Ordering::Relaxed);
        }
    }

    fn scope(&self, settle: u64) -> Option<Scope<'_>> {
        self.on.load(Ordering::Relaxed).then(|| Scope {
            tracer: &self.tracer,
            parent: Some(self.step_span.load(Ordering::Relaxed)).filter(|&id| id != 0),
            settle,
        })
    }
}

/// A bound server on its own thread plus the connected client pool.
struct Link {
    driver: ConnectedDriver,
    server: JoinHandle<std::io::Result<()>>,
    connect_ms: f64,
}

impl Link {
    fn open<F: SessionFactory + 'static>(factory: Arc<F>) -> Result<Link, String> {
        let t0 = Instant::now();
        let server = ReconServer::bind("127.0.0.1:0", factory)
            .map_err(|e| format!("bind loopback: {e}"))?
            .with_shards(1)
            .with_idle_timeout(Some(IDLE_TIMEOUT));
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || server.serve(Some(CONNS)));
        let driver = Driver::new(addr)
            .conns(CONNS)
            .shards(1)
            .idle_timeout(Some(IDLE_TIMEOUT))
            .connect()
            .map_err(|e| format!("connect loopback: {e}"))?;
        Ok(Link {
            driver,
            server,
            connect_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    fn close(self) -> Result<(), String> {
        self.driver.finish();
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// One step's result: the time spent building the plans (Alice's sketch
/// build happens there), the whole step's wall time, the driver report.
struct Step {
    pre_s: f64,
    wall_s: f64,
    report: DriverReport,
}

/// Runs one step: builds the plans, submits them all at once (an
/// all-zero schedule, so every session gets its own settle stamp), and
/// returns when all have settled.
fn run_step<'s>(
    driver: &mut ConnectedDriver,
    ctl: &TraceCtl,
    build: impl FnOnce() -> Result<Vec<Vec<SessionPlan<'s>>>, String>,
) -> Result<Step, String> {
    let root = ctl.begin_step();
    let t0 = Instant::now();
    let loads = build()?
        .into_iter()
        .map(|plans| {
            let schedule = vec![Duration::ZERO; plans.len()];
            (plans, schedule)
        })
        .collect();
    let pre_s = t0.elapsed().as_secs_f64();
    let report = driver.load(loads).map_err(|e| format!("step: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    ctl.end_step(root);
    if let Some(e) = report.transport_error() {
        return Err(format!("transport failed mid-step: {e}"));
    }
    Ok(Step {
        pre_s,
        wall_s,
        report,
    })
}

/// What the traced segment left behind for the per-layer numbers:
/// the `rsr-obs` registry's change over the segment, its state after
/// it, and the peak thread count.
#[derive(Default)]
struct TracedFacts {
    obs_delta: MetricsSnapshot,
    obs_after: MetricsSnapshot,
    threads_peak: u64,
}

/// Runs `steps`; when `traced`, under a thread-count sampler and between
/// two `rsr-obs` snapshots.
fn observed<T>(traced: bool, steps: impl FnOnce() -> T) -> (T, Option<TracedFacts>) {
    if !traced {
        return (steps(), None);
    }
    let before = rsr_obs::global().snapshot();
    let (out, peaks) = rsr_obs::procstat::sample_peaks_during(steps);
    let obs_after = rsr_obs::global().snapshot();
    let facts = TracedFacts {
        obs_delta: obs_after.delta_from(&before),
        obs_after,
        threads_peak: peaks.threads,
    };
    (out, Some(facts))
}

/// The `net.*` and executor numbers both served workloads share.
fn net_layers(facts: &TracedFacts, traced: &SegmentRaw, connect_ms: f64) -> Vec<(String, f64)> {
    // Besides its frames a settle costs two control records: OPEN and
    // DONE one-shot, ROUND and its echo in continuous mode.
    const CONTROL_RECORDS: f64 = 2.0;
    let settles = traced.attempted.max(1) as f64;
    let delta = |key: &str| facts.obs_delta.value(key).unwrap_or(0.0);
    let after = |key: &str| facts.obs_after.value(key).unwrap_or(0.0);
    let wakes: f64 = ["readable", "writable", "accept", "other"]
        .iter()
        .map(|w| delta(&format!("net_reactor_wakes_{w}")))
        .sum();
    let payload_bytes = traced.payload_bits as f64 / 8.0;
    let mut out = vec![
        (
            "net.framing_overhead_share".to_owned(),
            (1.0 - payload_bytes / traced.wire_bytes).max(0.0),
        ),
        (
            "net.records_per_settle".into(),
            traced.frames as f64 / settles + CONTROL_RECORDS,
        ),
        (
            "net.polls_per_settle".into(),
            (delta("net_reactor_polls") + delta("net_client_polls")) / settles,
        ),
        ("net.wakes_per_settle".into(), wakes / settles),
        (
            "net.writebuf_hwm_bytes".into(),
            after("net_writebuf_bytes_hwm"),
        ),
        ("net.threads_peak".into(), facts.threads_peak as f64),
        ("net.connect_ms".into(), connect_ms),
        (
            "core.exec_mailbox_hwm".into(),
            after("exec_shard0_mailbox_hwm"),
        ),
        (
            "core.exec_first_frame_us_p50".into(),
            after("exec_first_frame_us_p50"),
        ),
        (
            "core.exec_on_frame_us_p50".into(),
            after("exec_on_frame_us_p50"),
        ),
    ];
    out.extend(probes::record_codec_probe());
    out
}

// ---------------------------------------------------------------- mix

/// Resolves `session id mod instance count` against instances prebuilt
/// in set-up; Bob halves hand their final sets to the sink.
struct MixFactory {
    instances: Arc<Vec<Instance>>,
    sink: OutputSink,
    ctl: Arc<TraceCtl>,
}

impl SessionFactory for MixFactory {
    fn open_spec(
        &self,
        session_id: u64,
        _spec: Option<&SessionSpec>,
    ) -> Option<Box<dyn NetSession + '_>> {
        let inst = &self.instances[session_id as usize % self.instances.len()];
        Some(inst.bob_boxed(self.ctl.scope(session_id), Some(&self.sink), session_id))
    }
}

/// One position of a replay: what the client saw of the settle.
#[derive(Clone, Default)]
struct Seen {
    latency_ms: Option<f64>,
    bits: u64,
    error: Option<String>,
}

pub struct ServeMix {
    run_seed: u64,
    seconds: u64,
    instances: Arc<Vec<Instance>>,
    references: Vec<Reference>,
    first_try: usize,
    gen_ms: f64,
    factory: Option<Arc<MixFactory>>,
    link: Option<Link>,
    ctl: Arc<TraceCtl>,
    /// Replays so far: session ids of replay `p` start at `p × count`.
    phase: u64,
    facts: TracedFacts,
    /// Latency by instance of the last untraced segment, for the paired
    /// transport tax.
    last_latency: Vec<Option<f64>>,
}

impl ServeMix {
    pub fn new(run_seed: u64, seconds: u64) -> ServeMix {
        ServeMix {
            run_seed,
            seconds,
            instances: Arc::new(Vec::new()),
            references: Vec::new(),
            first_try: 0,
            gen_ms: 0.0,
            factory: None,
            link: None,
            ctl: TraceCtl::new(),
            phase: 0,
            facts: TracedFacts::default(),
            last_latency: Vec::new(),
        }
    }

    /// Replays the first `count` positions in steps of four; returns the
    /// replay's first session id and what the client saw at each
    /// position.
    fn replay(&mut self, count: usize, raw: &mut SegmentRaw) -> Result<(u64, Vec<Seen>), String> {
        let instances = Arc::clone(&self.instances);
        let ctl = Arc::clone(&self.ctl);
        let base = self.phase * instances.len() as u64;
        self.phase += 1;
        let link = self.link.as_mut().ok_or("setup() ran first")?;
        let mut seen = vec![Seen::default(); count];
        for first in (0..count).step_by(PER_STEP) {
            let step = run_step(&mut link.driver, &ctl, || {
                Ok((0..CONNS)
                    .map(|c| {
                        (0..PER_CONN)
                            .map(|j| first + c * PER_CONN + j)
                            .filter(|&pos| pos < count)
                            .map(|pos| {
                                let id = base + pos as u64;
                                SessionPlan::new(id, instances[pos].alice_boxed(ctl.scope(id)))
                            })
                            .collect()
                    })
                    .collect())
            })?;
            raw.busy_s += step.wall_s;
            for conn in &step.report.conns {
                raw.wire_bytes += (conn.wire_bytes_in + conn.wire_bytes_out) as f64;
                raw.frames += (conn.frames_in + conn.frames_out) as u64;
                for s in &conn.sessions {
                    seen[(s.id - base) as usize] = Seen {
                        latency_ms: s.settled.map(|d| (step.pre_s + d.as_secs_f64()) * 1e3),
                        bits: s.transcript.total_bits(),
                        error: s.error.clone(),
                    };
                }
            }
        }
        Ok((base, seen))
    }

    /// The final sets the server's Bob halves left in the sink, by
    /// session id.
    fn take_outputs(&self) -> HashMap<u64, Vec<rsr_metric::Point>> {
        let factory = self.factory.as_ref().expect("setup() ran first");
        std::mem::take(
            &mut *factory
                .sink
                .lock()
                .expect("a panicking thread held the output sink"),
        )
        .into_iter()
        .collect()
    }

    /// Judges one replay: every position must have settled cleanly with
    /// the reference transcript's bits, and the set the *server's* Bob
    /// ended with must be acceptable.
    fn verify(
        &self,
        outputs: &HashMap<u64, Vec<rsr_metric::Point>>,
        base: u64,
        seen: &[Seen],
        raw: &mut SegmentRaw,
    ) {
        for (pos, s) in seen.iter().enumerate() {
            raw.attempted += 1;
            let (inst, reference) = (&self.instances[pos], &self.references[pos]);
            let ratio = outputs.get(&(base + pos as u64)).and_then(|output| {
                let q = inst.quality(output, reference.floor);
                (s.error.is_none() && s.bits == reference.bits && q.ok).then_some(q.ratio)
            });
            match (ratio, s.latency_ms) {
                (Some(ratio), Some(latency)) => {
                    raw.ratios.push(ratio);
                    raw.latencies_ms.push(Some(latency));
                    raw.payload_bits += s.bits;
                    raw.diff_keys += inst.diff_keys() as u64;
                }
                _ => {
                    raw.latencies_ms.push(None);
                    raw.failed += 1;
                }
            }
        }
    }

    /// The ungated open-loop diagnostic: sessions injected on a uniform
    /// 100/s schedule whether or not earlier ones have settled.
    fn open_loop(&mut self) -> Result<Vec<(String, f64)>, String> {
        let instances = Arc::clone(&self.instances);
        let base = self.phase * instances.len() as u64;
        self.phase += OPEN_LOOP_SESSIONS.div_ceil(instances.len()) as u64;
        let link = self.link.as_mut().ok_or("setup() ran first")?;
        let mut loads: Vec<(Vec<SessionPlan<'_>>, Vec<Duration>)> =
            (0..CONNS).map(|_| (Vec::new(), Vec::new())).collect();
        for i in 0..OPEN_LOOP_SESSIONS {
            let (plans, schedule) = &mut loads[i % CONNS];
            let id = base + i as u64;
            plans.push(SessionPlan::new(
                id,
                instances[i % instances.len()].alice_boxed(None),
            ));
            schedule.push(Duration::from_secs_f64(i as f64 / OPEN_LOOP_RATE));
        }
        let report = link
            .driver
            .load(loads)
            .map_err(|e| format!("open-loop diagnostic: {e}"))?;
        let latencies = sorted(
            report
                .sessions()
                .filter_map(|s| s.latency())
                .map(|d| d.as_secs_f64() * 1e3)
                .collect(),
        );
        if latencies.is_empty() {
            return Err("open-loop diagnostic settled nothing".into());
        }
        let lag = report
            .conns
            .iter()
            .map(|c| c.max_inject_lag())
            .max()
            .unwrap_or_default();
        Ok(vec![
            ("net.open_r100_p50_ms".into(), percentile(&latencies, 0.50)),
            ("net.open_r100_p99_ms".into(), percentile(&latencies, 0.99)),
            ("net.open_inject_lag_ms".into(), lag.as_secs_f64() * 1e3),
        ])
    }
}

impl Workload for ServeMix {
    fn setup(&mut self) -> Result<(), String> {
        let inputs = select_inputs(WorkloadKind::ServeMix, self.run_seed, self.seconds)?;
        self.instances = Arc::new(inputs.instances);
        self.references = inputs.references;
        self.first_try = inputs.first_try;
        self.gen_ms = inputs.gen_ms;
        let factory = Arc::new(MixFactory {
            instances: Arc::clone(&self.instances),
            sink: Mutex::new(Vec::new()),
            ctl: Arc::clone(&self.ctl),
        });
        self.link = Some(Link::open(Arc::clone(&factory))?);
        self.factory = Some(factory);

        let (warmup, _) = self.counts();
        let mut scratch = SegmentRaw::default();
        let (base, seen) = self.replay(warmup, &mut scratch)?;
        self.verify(&self.take_outputs(), base, &seen, &mut scratch);
        if scratch.failed > 0 {
            return Err(format!("{} warm-up settles failed", scratch.failed));
        }
        Ok(())
    }

    fn segment(&mut self, traced: bool) -> Result<SegmentRaw, String> {
        let instances = self.instances.len();
        let mut raw = SegmentRaw::default();
        self.ctl.on.store(traced, Ordering::Relaxed);
        let (replays, facts) = observed(traced, || -> Result<Vec<_>, String> {
            let clock = SegmentClock::start()?;
            let replays = (0..ONESHOT_REPLAYS)
                .map(|_| self.replay(instances, &mut raw))
                .collect::<Result<Vec<_>, _>>()?;
            clock.stop(&mut raw)?;
            Ok(replays)
        });
        self.ctl.on.store(false, Ordering::Relaxed);
        let outputs = self.take_outputs();
        for (base, seen) in replays? {
            self.verify(&outputs, base, &seen, &mut raw);
        }
        match facts {
            Some(facts) => self.facts = facts,
            None => self.last_latency = raw.latencies_ms[..instances].to_vec(),
        }
        Ok(raw)
    }

    fn finish(&mut self) -> Result<(), String> {
        self.factory = None;
        let closed = match self.link.take() {
            Some(link) => link.close(),
            None => Ok(()),
        };
        // The server's threads are gone: nothing else holds the inputs.
        self.instances = Arc::new(Vec::new());
        closed
    }

    fn success_share(&self) -> f64 {
        self.first_try as f64 / self.references.len() as f64
    }

    fn counts(&self) -> (usize, usize) {
        let instances = self.references.len();
        let settles = instances * ONESHOT_REPLAYS;
        let warmup = (settles / WARMUP_DIVISOR).div_ceil(PER_STEP) * PER_STEP;
        (warmup.clamp(PER_STEP, instances), settles)
    }

    fn layers(
        &mut self,
        spans: &[Span],
        traced: &SegmentRaw,
    ) -> Result<Vec<(String, f64)>, String> {
        let mut out = probes::session_layers(spans, traced.attempted as usize);
        out.extend(probes::oneshot_probes(&self.instances)?);
        out.extend(net_layers(
            &self.facts,
            traced,
            self.link.as_ref().map_or(0.0, |l| l.connect_ms),
        ));
        out.push((
            "net.transport_tax_us_per_settle".into(),
            probes::transport_tax_us(&self.instances, &self.last_latency)?,
        ));
        out.extend(self.open_loop()?);
        out.push(("workloads.gen_ms".into(), self.gen_ms));
        Ok(out)
    }

    fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.ctl.tracer)
    }
}

// -------------------------------------------------------------- churn

/// Serves continuous opens: the resident Bob party is built from the
/// wire spec alone; a handle stays here so the harness can compare the
/// server's set with the expected union.
struct ChurnFactory {
    parties: Mutex<HashMap<u64, SharedParty>>,
}

impl SessionFactory for ChurnFactory {
    fn open_spec(
        &self,
        _session_id: u64,
        _spec: Option<&SessionSpec>,
    ) -> Option<Box<dyn NetSession + '_>> {
        None
    }

    fn open_continuous(&self, session_id: u64, spec: &SessionSpec) -> Option<SharedParty> {
        let party = shared(churn::party_of(spec));
        self.parties
            .lock()
            .expect("a panicking thread held the party map")
            .insert(session_id, Arc::clone(&party));
        Some(party)
    }
}

pub struct ServeChurn {
    run_seed: u64,
    /// Steps per segment.
    steps: usize,
    traces: Vec<ChurnTrace>,
    /// The client's resident parties of the sessions now open.
    parties: Vec<SharedParty>,
    /// How many times the sessions were opened afresh; it numbers their
    /// wire ids.
    generation: u64,
    factory: Option<Arc<ChurnFactory>>,
    link: Option<Link>,
    ctl: Arc<TraceCtl>,
    /// The next round of the trace (the same on every session).
    cursor: usize,
    gen_ms: f64,
    facts: TracedFacts,
    plain_p50_ms: f64,
}

impl ServeChurn {
    pub fn new(run_seed: u64, seconds: u64) -> ServeChurn {
        ServeChurn {
            run_seed,
            steps: plan::scaled(plan::CHURN_STEPS, seconds),
            traces: Vec::new(),
            parties: Vec::new(),
            generation: 0,
            factory: None,
            link: None,
            ctl: TraceCtl::new(),
            cursor: 0,
            gen_ms: 0.0,
            facts: TracedFacts::default(),
            plain_p50_ms: 0.0,
        }
    }

    fn warmup_steps(&self) -> usize {
        (self.steps / WARMUP_DIVISOR).max(1)
    }

    /// The wire id of resident session `index` (ids are per connection;
    /// these are unique across both, and across generations, so the
    /// factory can key on them).
    fn id(&self, index: usize) -> u64 {
        self.generation * CHURN_PER_STEP as u64 + index as u64 + 1
    }

    /// One step: a round on every resident session. `open` sends the
    /// `OPEN` + round 0 instead of a later round.
    fn step(&mut self, open: bool) -> Result<Step, String> {
        let ids: Vec<u64> = (0..CHURN_PER_STEP).map(|i| self.id(i)).collect();
        let (ctl, parties, traces) = (&self.ctl, &self.parties, &self.traces);
        let link = self.link.as_mut().ok_or("setup() ran first")?;
        run_step(&mut link.driver, ctl, || {
            (0..CONNS)
                .map(|c| {
                    (0..CHURN_PER_CONN)
                        .map(|j| {
                            let i = c * CHURN_PER_CONN + j;
                            let (id, party) = (ids[i], &parties[i]);
                            match (open, ctl.scope(id)) {
                                (true, _) => {
                                    SessionPlan::open_continuous(id, traces[i].spec, party)
                                }
                                (false, None) => SessionPlan::next_round(id, party),
                                // Alice's delta table is built here.
                                (false, Some(scope)) => {
                                    scope.span(Proto::Cont, Side::Alice, Call::New, || {
                                        SessionPlan::next_round(id, party)
                                    })
                                }
                            }
                            .map_err(|e| format!("session {i}: {e}"))
                        })
                        .collect()
                })
                .collect()
        })
    }

    /// Opens a fresh generation of resident sessions: both endpoints
    /// build their parties from the wire spec, so every generation
    /// starts from the same sets and replays the trace from round 0.
    fn open_sessions(&mut self) -> Result<(), String> {
        self.generation += 1;
        self.cursor = 0;
        self.parties = self
            .traces
            .iter()
            .map(|t| shared(churn::party_of(&t.spec)))
            .collect();
        if self.step(true)?.report.completed() != CHURN_PER_STEP {
            return Err("a continuous session did not open".into());
        }
        Ok(())
    }

    /// Retires the open generation on both endpoints.
    fn retire_sessions(&mut self) -> Result<(), String> {
        let ids: Vec<u64> = (0..self.parties.len()).map(|i| self.id(i)).collect();
        let link = self.link.as_mut().ok_or("setup() ran first")?;
        let factory = self.factory.as_ref().ok_or("setup() ran first")?;
        for (i, id) in ids.into_iter().enumerate() {
            link.driver
                .close_session(i / CHURN_PER_CONN, id)
                .map_err(|e| format!("retire session {i}: {e}"))?;
            factory
                .parties
                .lock()
                .expect("a panicking thread held the party map")
                .remove(&id);
        }
        self.parties = Vec::new();
        Ok(())
    }

    /// Runs `steps` rounds from the cursor: churn goes in un-timed, the
    /// round on every session is the timed step.
    fn rounds(&mut self, steps: usize, churn: bool, raw: &mut SegmentRaw) -> Result<(), String> {
        let first_id = self.id(0);
        for _ in 0..steps {
            let r = self.cursor;
            if churn {
                for (party, trace) in self.parties.iter().zip(&self.traces) {
                    trace.rounds[r].apply(party)?;
                }
                self.cursor += 1;
            }
            let step = self.step(false)?;
            raw.busy_s += step.wall_s;
            // Session `i` of step `r` is position `r × 16 + i` of the
            // trace, whatever order the report lists the sessions in.
            let at = raw.latencies_ms.len();
            raw.latencies_ms.resize(at + CHURN_PER_STEP, None);
            for conn in &step.report.conns {
                raw.wire_bytes += (conn.wire_bytes_in + conn.wire_bytes_out) as f64;
                raw.frames += (conn.frames_in + conn.frames_out) as u64;
                for s in &conn.sessions {
                    raw.attempted += 1;
                    let i = (s.id - first_id) as usize;
                    let trace = &self.traces[i];
                    let bits = s.transcript.total_bits();
                    let expected = if churn { trace.reference_bits[r] } else { bits };
                    match (s.is_ok() && bits == expected, s.settled) {
                        (true, Some(settled)) => {
                            raw.latencies_ms[at + i] =
                                Some((step.pre_s + settled.as_secs_f64()) * 1e3);
                            raw.payload_bits += bits;
                            raw.diff_keys += if churn {
                                trace.rounds[r].ops() as u64
                            } else {
                                1
                            };
                            // A round settles exactly or fails.
                            raw.ratios.push(1.0);
                        }
                        _ => raw.failed += 1,
                    }
                }
            }
        }
        Ok(())
    }

    /// Both endpoints' sets must equal the expected union: the base set
    /// plus every key inserted so far (a union settle resurrects every
    /// delete). Counts a failure per session whose set is off.
    fn verify_sets(&self, raw: &mut SegmentRaw) {
        let factory = self.factory.as_ref().expect("setup() ran first");
        let served = factory
            .parties
            .lock()
            .expect("a panicking thread held the party map");
        for (i, (party, trace)) in self.parties.iter().zip(&self.traces).enumerate() {
            let client = churn::lock(party);
            let inserted = trace.rounds[..self.cursor].iter().flat_map(|r| &r.inserts);
            let expected_len = trace.base.len()
                + trace.rounds[..self.cursor]
                    .iter()
                    .map(|r| r.inserts.len())
                    .sum::<usize>();
            let client_ok = client.set().len() == expected_len
                && trace
                    .base
                    .iter()
                    .chain(inserted)
                    .all(|k| client.set().contains(k));
            let server_ok = served
                .get(&self.id(i))
                .is_some_and(|p| churn::lock(p).set() == client.set());
            if !(client_ok && server_ok) {
                // The segment's settles on this session produced a wrong set.
                raw.failed += 1;
            }
        }
    }
}

impl Workload for ServeChurn {
    fn setup(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        // An earlier set-up's traces go first, so peak memory is one set.
        self.traces = Vec::new();
        self.traces = (0..CHURN_PER_STEP)
            .map(|i| churn::materialize(self.run_seed, i, self.steps))
            .collect::<Result<_, _>>()?;
        self.gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let factory = Arc::new(ChurnFactory {
            parties: Mutex::new(HashMap::new()),
        });
        self.link = Some(Link::open(Arc::clone(&factory))?);
        self.factory = Some(factory);

        self.open_sessions()?;
        let mut scratch = SegmentRaw::default();
        self.rounds(self.warmup_steps(), true, &mut scratch)?;
        self.verify_sets(&mut scratch);
        if scratch.failed > 0 {
            return Err(format!("{} warm-up rounds failed", scratch.failed));
        }
        self.retire_sessions()
    }

    fn segment(&mut self, traced: bool) -> Result<SegmentRaw, String> {
        self.open_sessions()?;
        let mut raw = SegmentRaw::default();
        self.ctl.on.store(traced, Ordering::Relaxed);
        let steps = self.steps;
        let (ran, facts) = observed(traced, || -> Result<(), String> {
            let clock = SegmentClock::start()?;
            self.rounds(steps, true, &mut raw)?;
            clock.stop(&mut raw)
        });
        self.ctl.on.store(false, Ordering::Relaxed);
        if let Some(facts) = facts {
            self.facts = facts;
        }
        ran?;
        self.verify_sets(&mut raw);
        self.retire_sessions()?;
        let verified: Vec<f64> = raw.latencies_ms.iter().flatten().copied().collect();
        if !traced && !verified.is_empty() {
            self.plain_p50_ms = percentile(&sorted(verified), 0.50);
        }
        Ok(raw)
    }

    fn finish(&mut self) -> Result<(), String> {
        self.factory = None;
        match self.link.take() {
            Some(link) => link.close(),
            None => Ok(()),
        }
    }

    fn success_share(&self) -> f64 {
        let (first_try, rounds) = self
            .traces
            .iter()
            .fold((0, 0), |(f, n), t| (f + t.first_try, n + t.rounds.len()));
        first_try as f64 / rounds as f64
    }

    fn counts(&self) -> (usize, usize) {
        (
            self.warmup_steps() * CHURN_PER_STEP,
            self.steps * CHURN_PER_STEP,
        )
    }

    fn layers(
        &mut self,
        spans: &[Span],
        traced: &SegmentRaw,
    ) -> Result<Vec<(String, f64)>, String> {
        let mut out = probes::session_layers(spans, traced.attempted as usize);
        out.extend(net_layers(
            &self.facts,
            traced,
            self.link.as_ref().map_or(0.0, |l| l.connect_ms),
        ));
        let in_process = probes::continuous_probes(&self.traces[0])?;
        out.push((
            "net.churn_transport_tax_us".into(),
            self.plain_p50_ms * 1e3 - in_process.round_us,
        ));
        out.extend(in_process.layers);
        // The smallest-message floor: rounds with nothing to reconcile.
        self.open_sessions()?;
        let mut empty = SegmentRaw::default();
        self.rounds(EMPTY_ROUND_STEPS.min(self.steps), false, &mut empty)?;
        self.retire_sessions()?;
        let settled: Vec<f64> = empty.latencies_ms.into_iter().flatten().collect();
        if settled.is_empty() {
            return Err("no empty round settled".into());
        }
        out.push((
            "net.empty_round_us".into(),
            percentile(&sorted(settled), 0.50) * 1e3,
        ));
        out.push(("workloads.gen_ms".into(), self.gen_ms));
        Ok(out)
    }

    fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.ctl.tracer)
    }
}
