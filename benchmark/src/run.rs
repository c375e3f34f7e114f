//! The shape every workload runs in: set up, replay the trace in timed
//! segments, verify what each segment produced, report each timing
//! metric's fastest replay.

use crate::plan::{SEGMENTS, SETUP_REPS};
use crate::spans::{Span, Tracer};
use crate::stats::{cpu_ms, loadavg1, median, percentile, sorted, tail_quantile};
use std::sync::Arc;
use std::time::Instant;

/// Everything one timed segment measured, before any statistics.
#[derive(Default)]
pub struct SegmentRaw {
    /// Submit → settle in milliseconds, in trace order; `None` for a
    /// settle that failed (it misses any limit).
    pub latencies_ms: Vec<Option<f64>>,
    /// Wall time inside timed steps, seconds (a step is one settle in
    /// process, 4 or 16 settles when served).
    pub busy_s: f64,
    /// Wall time of the segment's timed parts, the harness's work
    /// between steps included, seconds.
    pub wall_s: f64,
    /// Process CPU (user + system, every thread) over the same, ms.
    pub cpu_ms: f64,
    /// serve_*: socket bytes both ways, record headers included;
    /// local_*: transcript bits ÷ 8.
    pub wire_bytes: f64,
    /// Transcript payload bits.
    pub payload_bits: u64,
    /// Planted difference keys the settles reconciled.
    pub diff_keys: u64,
    /// Quality ratio per verified settle.
    pub ratios: Vec<f64>,
    /// Settles attempted, and those that errored, were refused, or
    /// produced a wrong output.
    pub attempted: u64,
    pub failed: u64,
    /// serve_*: protocol frames that crossed the sockets, both ways.
    pub frames: u64,
}

impl SegmentRaw {
    fn verified(&self) -> Vec<f64> {
        self.latencies_ms.iter().flatten().copied().collect()
    }
}

/// The timing and count metrics of one segment, or of a run.
#[derive(Clone, Copy, Debug)]
pub struct SegmentStats {
    pub settles_per_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub cpu_ms_per_settle: f64,
    pub wire_bytes_per_settle: f64,
    pub bits_per_diff_key: f64,
    pub quality_p50: f64,
    /// Share of the timed parts' wall time spent outside timed steps.
    pub between_share: f64,
}

/// A run of one or more segments that replay the same trace.
///
/// Every segment replays the same inputs, key for key, so every trace
/// position has one latency per segment and every timing metric one
/// value per segment. The host only ever adds time (in a noisy hour a
/// fixed single-threaded loop on the defining host runs 1.35× slow for
/// seconds at a time), so the run's value is the **fastest replay**:
/// the latency at a position is the smallest of the segments' latencies
/// there, and p50 and the tail are read off those; throughput is the
/// fastest segment's and CPU per settle the cheapest segment's. A cost
/// that belongs to the input (a double-size session, a round whose peel
/// stalls and runs the GF(2) solve) is in every replay and stays; what
/// the host did meanwhile drops out unless it covered all of them. The
/// median over the segments, which the count metrics use (they are
/// equal unless a settle failed), was measured first: in such an hour
/// `local_gap`'s p99 spread 33 % over ten seeds and moved 32 % between
/// two ten-seed sets; over ten runs of a like hour it spread 18 % (40 %
/// end to end) where the fastest replay of the same runs spread 4 %
/// (19 %). Each segment's own values are kept for the printout, so a
/// stall the program hands random settles still shows there.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Trace positions with a verified latency: the population the
    /// percentiles rank.
    pub samples: usize,
    /// The tail percentile used: the highest with ten of `samples`
    /// beyond it (0.99 from 1,000 samples up).
    pub tail_q: f64,
    pub value: SegmentStats,
    pub segments: Vec<SegmentStats>,
}

/// The run's latency at every trace position: the smallest of the
/// position's verified latencies over the segments. A position no
/// segment verified is left out.
fn per_position(segments: &[SegmentRaw]) -> Vec<f64> {
    let positions = segments.iter().map(|s| s.latencies_ms.len()).max();
    (0..positions.unwrap_or(0))
        .filter_map(|j| {
            segments
                .iter()
                .filter_map(|s| s.latencies_ms.get(j).copied().flatten())
                .reduce(f64::min)
        })
        .collect()
}

pub fn combine(segments: &[SegmentRaw]) -> Result<RunStats, String> {
    let latencies = sorted(per_position(segments));
    let tail_q = tail_quantile(latencies.len());
    let mut per_segment = Vec::with_capacity(segments.len());
    for raw in segments {
        let lat = sorted(raw.verified());
        if lat.is_empty() || raw.ratios.is_empty() || raw.diff_keys == 0 {
            return Err("a segment verified no settle".into());
        }
        let settles = lat.len() as f64;
        per_segment.push(SegmentStats {
            settles_per_s: settles / raw.busy_s,
            p50_ms: percentile(&lat, 0.50),
            tail_ms: percentile(&lat, tail_q),
            cpu_ms_per_settle: raw.cpu_ms / settles,
            wire_bytes_per_settle: raw.wire_bytes / settles,
            bits_per_diff_key: raw.payload_bits as f64 / raw.diff_keys as f64,
            quality_p50: percentile(&sorted(raw.ratios.clone()), 0.50),
            between_share: (1.0 - raw.busy_s / raw.wall_s).max(0.0),
        });
    }
    let each = |f: fn(&SegmentStats) -> f64| per_segment.iter().map(f).collect::<Vec<_>>();
    Ok(RunStats {
        samples: latencies.len(),
        tail_q,
        value: SegmentStats {
            settles_per_s: each(|s| s.settles_per_s).into_iter().fold(0.0, f64::max),
            p50_ms: percentile(&latencies, 0.50),
            tail_ms: percentile(&latencies, tail_q),
            cpu_ms_per_settle: each(|s| s.cpu_ms_per_settle)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
            wire_bytes_per_settle: median(&each(|s| s.wire_bytes_per_settle)),
            bits_per_diff_key: median(&each(|s| s.bits_per_diff_key)),
            quality_p50: median(&each(|s| s.quality_p50)),
            between_share: median(&each(|s| s.between_share)),
        },
        segments: per_segment,
    })
}

/// Wall and CPU clocks around a timed part of a segment. Parts add up,
/// so a segment can verify (and drop) one replay's outputs before it
/// times the next, off both clocks.
pub struct SegmentClock {
    wall: Instant,
    cpu_ms: f64,
}

impl SegmentClock {
    pub fn start() -> Result<SegmentClock, String> {
        Ok(SegmentClock {
            cpu_ms: cpu_ms()?,
            wall: Instant::now(),
        })
    }

    pub fn stop(self, raw: &mut SegmentRaw) -> Result<(), String> {
        raw.wall_s += self.wall.elapsed().as_secs_f64();
        raw.cpu_ms += cpu_ms()? - self.cpu_ms;
        Ok(())
    }
}

/// One workload. A harness error (`Err`) aborts the run without numbers;
/// a protocol failure is counted in [`SegmentRaw::failed`].
pub trait Workload {
    /// Everything before the first timed settle: input generation and
    /// selection, protocol construction (public coins), the references
    /// outputs are verified against, bind, connect, and the warm-up.
    /// Called again after [`Workload::finish`], it starts from scratch.
    fn setup(&mut self) -> Result<(), String>;
    /// One full replay of the workload's trace, then (off the clocks)
    /// verification of every output it produced. With `traced`, every
    /// call into a layer is recorded on the workload's tracer.
    fn segment(&mut self, traced: bool) -> Result<SegmentRaw, String>;
    /// Closes connections and joins the threads set-up started.
    fn finish(&mut self) -> Result<(), String>;
    /// Share of inputs that reconciled at their first draw.
    fn success_share(&self) -> f64;
    /// Settles in the warm-up and in one segment (for the printout).
    fn counts(&self) -> (usize, usize);
    /// Per-layer numbers: from the traced segment's spans, and from a
    /// probe pass over a subsample of the same inputs.
    fn layers(&mut self, spans: &[Span], traced: &SegmentRaw)
        -> Result<Vec<(String, f64)>, String>;
    fn tracer(&self) -> Arc<Tracer>;
}

/// What an untraced run reports.
pub struct EndToEnd {
    /// Wall time of every set-up; the first starts at process start.
    pub setup_s: Vec<f64>,
    /// Wall time of the segments with their verification (printed, not
    /// a metric).
    pub segments_s: f64,
    /// Threads alive right after the last segment, servers still up (the
    /// scoped executor of a round in flight adds one on top of this).
    pub resident_threads: u64,
    pub stats: RunStats,
    pub attempted: u64,
    pub failed: u64,
    pub success_share: f64,
}

/// The untraced run: [`SETUP_REPS`] set-ups, each from scratch, then
/// [`SEGMENTS`] segments. `started` is the first instant of `main`.
pub fn run_end_to_end(w: &mut dyn Workload, started: Instant) -> Result<EndToEnd, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            started
        } else {
            w.finish()?;
            Instant::now()
        };
        w.setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let segments = (0..SEGMENTS)
        .map(|_| w.segment(false))
        .collect::<Result<Vec<_>, _>>()?;
    let segments_s = t0.elapsed().as_secs_f64();
    let resident_threads = rsr_obs::procstat::read().threads;
    w.finish()?;
    Ok(EndToEnd {
        setup_s,
        segments_s,
        resident_threads,
        stats: combine(&segments)?,
        attempted: segments.iter().map(|s| s.attempted).sum(),
        failed: segments.iter().map(|s| s.failed).sum(),
        success_share: w.success_share(),
    })
}

/// What a traced run reports.
pub struct Traced {
    pub layers: Vec<(String, f64)>,
    pub spans: Vec<Span>,
    pub untraced: RunStats,
    pub traced: RunStats,
    pub attempted: u64,
    pub failed: u64,
}

/// The traced run: one set-up, one untraced and one traced segment of
/// the same trace (their throughput difference is the tracing overhead),
/// then the probe pass.
pub fn run_traced(w: &mut dyn Workload) -> Result<Traced, String> {
    w.setup()?;
    let plain = w.segment(false)?;
    rsr_obs::set_enabled(true);
    let traced = w.segment(true);
    rsr_obs::set_enabled(false);
    let traced = traced?;
    let spans = w.tracer().take();
    let (plain_stats, traced_stats) = (
        combine(std::slice::from_ref(&plain))?,
        combine(std::slice::from_ref(&traced))?,
    );
    let mut layers = w.layers(&spans, &traced)?;
    layers.push((
        "obs.trace_overhead_pct".into(),
        (1.0 - traced_stats.value.settles_per_s / plain_stats.value.settles_per_s) * 100.0,
    ));
    layers.push((
        "harness.between_settles_share".into(),
        plain_stats.value.between_share,
    ));
    w.finish()?;
    Ok(Traced {
        layers,
        spans,
        untraced: plain_stats,
        traced: traced_stats,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
    })
}

/// The facts needed to distrust a run, printed before and after it.
pub fn host_facts(when: &str) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host[{when}]: nproc={cores} loadavg1={:.2} threads_now={} transport=loopback-tcp(serve_*)/in-process(local_*)",
        loadavg1(),
        rsr_obs::procstat::read().threads
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(latencies: &[Option<f64>], busy_s: f64) -> SegmentRaw {
        SegmentRaw {
            latencies_ms: latencies.to_vec(),
            busy_s,
            wall_s: busy_s * 1.25,
            cpu_ms: 100.0,
            wire_bytes: 4000.0,
            payload_bits: 16000,
            diff_keys: 8,
            ratios: vec![1.0, 3.0, 2.0],
            attempted: latencies.len() as u64,
            failed: latencies.iter().filter(|l| l.is_none()).count() as u64,
            frames: 0,
        }
    }

    #[test]
    fn timing_metrics_take_the_fastest_replay_and_counts_the_median() {
        let calm = [Some(1.0), Some(2.0), Some(3.0), Some(4.0)];
        let stalled = [Some(1.5), Some(90.0), Some(2.5), Some(4.0)];
        let mut slow = segment(&stalled, 0.098);
        slow.cpu_ms = 160.0;
        let mut cheap = segment(&calm, 0.008);
        cheap.cpu_ms = 96.0;
        let segments = [segment(&calm, 0.010), slow, cheap];
        let stats = combine(&segments).unwrap();
        assert_eq!(stats.samples, 4);
        assert_eq!(stats.tail_q, 0.50); // 4 samples: the ladder ends at p50
        let per: Vec<f64> = stats.segments.iter().map(|s| s.settles_per_s).collect();
        assert_eq!(per, vec![4.0 / 0.010, 4.0 / 0.098, 4.0 / 0.008]);
        assert_eq!(stats.value.settles_per_s, 500.0);
        assert_eq!(stats.value.cpu_ms_per_settle, 24.0);
        // The stall still shows in the stalled segment's own row.
        assert_eq!(stats.segments[1].cpu_ms_per_settle, 40.0);
        assert_eq!(stats.segments[1].p50_ms, 2.5);
        // Latency position by position: minima 1, 2, 2.5, 4.
        assert_eq!(stats.value.p50_ms, 2.0);
        assert_eq!(stats.value.wire_bytes_per_settle, 1000.0);
        assert_eq!(stats.value.bits_per_diff_key, 2000.0);
        assert_eq!(stats.value.quality_p50, 2.0);
        assert!((stats.value.between_share - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_cost_of_the_input_stays_and_a_stall_of_one_replay_drops_out() {
        // Position 1 is expensive in every replay; position 2 stalls in
        // two of the three.
        let segments = [
            segment(&[Some(1.0), Some(9.0), Some(1.2)], 0.012),
            segment(&[Some(1.1), Some(9.5), Some(70.0)], 0.081),
            segment(&[Some(0.9), Some(9.2), Some(55.0)], 0.066),
        ];
        assert_eq!(per_position(&segments), vec![0.9, 9.0, 1.2]);
    }

    #[test]
    fn the_tail_percentile_follows_the_samples_actually_ranked() {
        let full: Vec<Option<f64>> = (0..1000).map(|i| Some(f64::from(i))).collect();
        let stats = combine(&[segment(&full, 1.0)]).unwrap();
        assert_eq!((stats.samples, stats.tail_q), (1000, 0.99));
        assert_eq!(stats.value.tail_ms, 989.0);
        // A position that failed in one segment keeps its other replays.
        let mut short = full.clone();
        short[0] = None;
        let stats = combine(&[segment(&full, 1.0), segment(&short, 1.0)]).unwrap();
        assert_eq!((stats.samples, stats.tail_q), (1000, 0.99));
        // One that failed in every segment is not ranked: 999 samples
        // leave fewer than ten beyond p99.
        let stats = combine(&[segment(&short, 1.0), segment(&short, 1.0)]).unwrap();
        assert_eq!((stats.samples, stats.tail_q), (999, 0.95));
        assert_eq!(stats.segments[0].tail_ms, 950.0);
    }

    #[test]
    fn a_failed_settle_has_no_latency() {
        let stats = combine(&[segment(&[Some(1.0), None, Some(3.0)], 0.004)]).unwrap();
        assert_eq!(stats.samples, 2);
        assert_eq!(stats.value.settles_per_s, 500.0);
        // Nothing verified at all is a harness error, not a zero.
        assert!(combine(&[segment(&[None, None], 0.1)]).is_err());
    }
}
