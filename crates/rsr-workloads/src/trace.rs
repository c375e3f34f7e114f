//! A tiny replayable trace format for session batches.
//!
//! A *trace* is a line-based description of a batch of reconciliation
//! sessions — which protocol, how big, which seed — so the exact same
//! batch can be replayed against different transports (`rsr-exp net` runs
//! one trace over the in-memory driver and over TCP loopback) or
//! regenerated across machines from the one seed that produced it. One
//! session per line, `#` comments and blank lines ignored:
//!
//! ```text
//! # protocol n k dim seed
//! emd 40 2 32 11
//! semd 30 2 2 12
//! gap 50 3 128 13
//! ```
//!
//! Protocols: `emd` (Algorithm 1 on a Hamming cube of dimension `dim`),
//! `semd` (the interval-scaled Corollary 3.6 protocol on an ℓ2 grid of
//! dimension `dim`), `gap` (the Theorem 4.2 Gap protocol on a Hamming
//! cube). The trace pins *instances*, not wire bytes: every consumer
//! derives workload and public coins deterministically from `(protocol,
//! n, k, dim, seed)`, so a replay is bit-identical wherever it runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Which protocol a trace entry drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceProtocol {
    /// Algorithm 1 (EMD model) on a Hamming cube.
    Emd,
    /// The interval-scaled EMD protocol (Corollary 3.6) on an ℓ2 grid.
    ScaledEmd,
    /// The Gap Guarantee protocol (Theorem 4.2) on a Hamming cube.
    Gap,
}

impl TraceProtocol {
    /// The token used on a trace line.
    pub fn token(self) -> &'static str {
        match self {
            TraceProtocol::Emd => "emd",
            TraceProtocol::ScaledEmd => "semd",
            TraceProtocol::Gap => "gap",
        }
    }

    fn from_token(token: &str) -> Option<TraceProtocol> {
        match token {
            "emd" => Some(TraceProtocol::Emd),
            "semd" => Some(TraceProtocol::ScaledEmd),
            "gap" => Some(TraceProtocol::Gap),
            _ => None,
        }
    }
}

impl fmt::Display for TraceProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One session of a trace: a protocol instance plus the seed that
/// deterministically regenerates its workload and public coins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// The protocol to run.
    pub protocol: TraceProtocol,
    /// Points per party.
    pub n: usize,
    /// Difference budget `k`.
    pub k: usize,
    /// Space dimension (Hamming bits or ℓ2 coordinates).
    pub dim: usize,
    /// Master seed for the workload and the protocol's public coins.
    pub seed: u64,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.protocol, self.n, self.k, self.dim, self.seed
        )
    }
}

/// Writes a trace, one entry per line, with a format-documenting header.
pub fn write_trace<W: Write>(w: &mut W, entries: &[TraceEntry]) -> io::Result<()> {
    writeln!(w, "# protocol n k dim seed")?;
    for entry in entries {
        writeln!(w, "{entry}")?;
    }
    Ok(())
}

/// Reads a trace written by [`write_trace`] (or by hand). Blank lines and
/// `#` comments are skipped; anything else that does not parse is an
/// `InvalidData` error naming the offending line.
pub fn read_trace<R: BufRead>(r: &mut R) -> io::Result<Vec<TraceEntry>> {
    let mut entries = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        entries.push(parse_line(line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {}: cannot parse {line:?}", lineno + 1),
            )
        })?);
    }
    Ok(entries)
}

fn parse_line(line: &str) -> Option<TraceEntry> {
    let mut fields = line.split_whitespace();
    let protocol = TraceProtocol::from_token(fields.next()?)?;
    let n = fields.next()?.parse().ok()?;
    let k = fields.next()?.parse().ok()?;
    let dim = fields.next()?.parse().ok()?;
    let seed = fields.next()?.parse().ok()?;
    if fields.next().is_some() || k > n || n == 0 || dim == 0 {
        return None;
    }
    Some(TraceEntry {
        protocol,
        n,
        k,
        dim,
        seed,
    })
}

/// Samples a `count`-session trace deterministically from `seed`, cycling
/// through the three protocols with sizes drawn from ranges the seed
/// matrix tests also use. The same `(count, seed)` always yields the same
/// trace, so two processes can agree on a batch by exchanging two
/// numbers instead of a file.
pub fn sample_trace(count: usize, seed: u64) -> Vec<TraceEntry> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ace_0000);
    (0..count)
        .map(|i| {
            let protocol = match i % 3 {
                0 => TraceProtocol::Emd,
                1 => TraceProtocol::ScaledEmd,
                _ => TraceProtocol::Gap,
            };
            let (n, dim) = match protocol {
                TraceProtocol::Emd => (rng.gen_range(24..=48), 24 + 8 * rng.gen_range(0..=1usize)),
                TraceProtocol::ScaledEmd => (rng.gen_range(24..=40), 2),
                TraceProtocol::Gap => (rng.gen_range(32..=56), 128),
            };
            TraceEntry {
                protocol,
                n,
                k: rng.gen_range(2..=3),
                dim,
                seed: rng.gen(),
            }
        })
        .collect()
}

/// A weighted protocol blend for [`sample_trace_with`]: what fraction of
/// sessions run each protocol, how much to scale instance sizes, and how
/// often a periodic "bulk" session (double-size, modelling a batch sync
/// riding on interactive traffic) appears. [`sample_trace`] is the
/// uniform, unscaled special case and its output is unchanged by this
/// type's existence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceMix {
    /// Relative draw weights for `[emd, semd, gap]`; any non-negative
    /// values with a positive sum (they need not sum to 1).
    pub weights: [f64; 3],
    /// Multiplies every sampled per-party set size (clamped to at least
    /// 8 points so instances stay meaningful). `1.0` keeps the base
    /// ranges [`sample_trace`] uses.
    pub n_scale: f64,
    /// When `Some(b)`, every `b`-th session is a bulk session with its
    /// (already scaled) size doubled.
    pub bulk_every: Option<usize>,
}

impl TraceMix {
    /// Equal protocol weights, base sizes, no bulk sessions — the
    /// [`sample_trace`] blend expressed as a mix.
    pub fn uniform() -> TraceMix {
        TraceMix {
            weights: [1.0, 1.0, 1.0],
            n_scale: 1.0,
            bulk_every: None,
        }
    }

    /// A "production day" blend: mostly interactive EMD reconciliations,
    /// a quarter interval-scaled, a trickle of Gap audits, and every
    /// 16th session a double-size bulk sync.
    pub fn production_day() -> TraceMix {
        TraceMix {
            weights: [0.60, 0.25, 0.15],
            n_scale: 1.0,
            bulk_every: Some(16),
        }
    }

    /// The same blend with every instance size multiplied by `n_scale` —
    /// the payload-size axis of a load sweep.
    pub fn scaled(mut self, n_scale: f64) -> TraceMix {
        assert!(n_scale > 0.0, "n_scale must be positive");
        self.n_scale *= n_scale;
        self
    }
}

/// Samples a `count`-session trace deterministically from `seed` with a
/// weighted protocol [`TraceMix`]. Like [`sample_trace`], the same
/// `(count, seed, mix)` always yields the same trace; unlike it, the
/// protocol of each session is *drawn* from the mix's weights rather
/// than cycled, so a long trace looks like sampled production traffic
/// instead of a round-robin.
pub fn sample_trace_with(count: usize, seed: u64, mix: &TraceMix) -> Vec<TraceEntry> {
    let total: f64 = mix.weights.iter().sum();
    assert!(
        mix.weights.iter().all(|w| *w >= 0.0) && total > 0.0,
        "mix weights must be non-negative with a positive sum"
    );
    assert!(mix.n_scale > 0.0, "n_scale must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ace_0001);
    (0..count)
        .map(|i| {
            let mut pick = rng.gen::<f64>() * total;
            let mut protocol = TraceProtocol::Gap;
            for (w, p) in mix.weights.iter().zip([
                TraceProtocol::Emd,
                TraceProtocol::ScaledEmd,
                TraceProtocol::Gap,
            ]) {
                if pick < *w {
                    protocol = p;
                    break;
                }
                pick -= w;
            }
            let (n, dim) = match protocol {
                TraceProtocol::Emd => (rng.gen_range(24..=48), 24 + 8 * rng.gen_range(0..=1usize)),
                TraceProtocol::ScaledEmd => (rng.gen_range(24..=40), 2),
                TraceProtocol::Gap => (rng.gen_range(32..=56), 128),
            };
            let bulk = mix.bulk_every.is_some_and(|b| b > 0 && (i + 1) % b == 0);
            let scale = mix.n_scale * if bulk { 2.0 } else { 1.0 };
            let n = ((n as f64 * scale).round() as usize).max(8);
            TraceEntry {
                protocol,
                n,
                k: rng.gen_range(2..=3),
                dim,
                seed: rng.gen(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let entries = sample_trace(9, 42);
        let mut buf = Vec::new();
        write_trace(&mut buf, &entries).unwrap();
        let parsed = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn sampling_is_deterministic_and_mixed() {
        let a = sample_trace(12, 7);
        let b = sample_trace(12, 7);
        assert_eq!(a, b);
        for proto in [
            TraceProtocol::Emd,
            TraceProtocol::ScaledEmd,
            TraceProtocol::Gap,
        ] {
            assert_eq!(a.iter().filter(|e| e.protocol == proto).count(), 4);
        }
        assert_ne!(sample_trace(12, 8), a, "seed must matter");
    }

    #[test]
    fn mix_sampling_is_deterministic_and_weighted() {
        let mix = TraceMix::production_day();
        let a = sample_trace_with(64, 9, &mix);
        assert_eq!(a, sample_trace_with(64, 9, &mix));
        assert_ne!(a, sample_trace_with(64, 10, &mix), "seed must matter");
        // The dominant protocol should dominate and nothing with positive
        // weight should vanish over 64 draws.
        let count = |p: TraceProtocol| a.iter().filter(|e| e.protocol == p).count();
        assert!(count(TraceProtocol::Emd) > count(TraceProtocol::Gap));
        assert!(count(TraceProtocol::ScaledEmd) > 0);
        assert!(count(TraceProtocol::Gap) > 0);
    }

    #[test]
    fn zero_weight_protocols_never_appear() {
        let mix = TraceMix {
            weights: [0.0, 1.0, 0.0],
            n_scale: 1.0,
            bulk_every: None,
        };
        let trace = sample_trace_with(32, 3, &mix);
        assert!(trace.iter().all(|e| e.protocol == TraceProtocol::ScaledEmd));
    }

    #[test]
    fn bulk_and_scale_grow_instances() {
        let base = TraceMix::uniform();
        let scaled = base.scaled(2.0);
        let a = sample_trace_with(24, 5, &base);
        let b = sample_trace_with(24, 5, &scaled);
        // Same protocols and seeds (same rng draw sequence), doubled sizes.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.protocol, y.protocol);
            assert_eq!(x.seed, y.seed);
            assert_eq!(y.n, (x.n * 2).max(8));
        }
        // Bulk sessions double again at the configured cadence.
        let bulky = TraceMix {
            bulk_every: Some(4),
            ..base
        };
        let c = sample_trace_with(24, 5, &bulky);
        for (i, (x, y)) in a.iter().zip(&c).enumerate() {
            let expect = if (i + 1) % 4 == 0 { x.n * 2 } else { x.n };
            assert_eq!(y.n, expect.max(8), "session {i}");
        }
    }

    #[test]
    fn mix_traces_round_trip_and_validate() {
        let entries = sample_trace_with(20, 77, &TraceMix::production_day());
        let mut buf = Vec::new();
        write_trace(&mut buf, &entries).unwrap();
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), entries);
        assert!(entries.iter().all(|e| e.k <= e.n && e.n >= 8));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\n  emd 40 2 32 11  \n# tail\nsemd 30 2 2 12\n";
        let parsed = read_trace(&mut text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].protocol, TraceProtocol::Emd);
        assert_eq!(parsed[1], {
            TraceEntry {
                protocol: TraceProtocol::ScaledEmd,
                n: 30,
                k: 2,
                dim: 2,
                seed: 12,
            }
        });
    }

    #[test]
    fn malformed_lines_fail_with_the_line_number() {
        for bad in [
            "emd 40 2 32",         // missing seed
            "emd 40 2 32 11 99",   // trailing field
            "quadtree 40 2 32 11", // unknown protocol
            "emd 2 40 32 11",      // k > n
            "emd 0 0 32 11",       // empty instance
            "emd forty 2 32 11",   // non-numeric
        ] {
            let text = format!("# ok\n{bad}\n");
            let err = read_trace(&mut text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}");
            assert!(err.to_string().contains("line 2"), "{bad}: {err}");
        }
    }
}
