//! Open-loop arrival schedules for the load harness.
//!
//! A *closed-loop* driver (everything `exp_net` measured before the load
//! mode) starts the next session when a previous one finishes, so the
//! measured system throttles its own offered load and queueing delay
//! never shows up in the numbers. The load harness is *open-loop*: session
//! arrival times are **pre-computed here, before the run starts**, from a
//! target offered rate, and the generator injects each session at its
//! scheduled instant whether or not earlier sessions have finished. A
//! slow server makes latencies grow; it cannot make arrivals stop.
//!
//! Latency must then be measured from the *scheduled* arrival, not the
//! actual injection instant — if the generator itself falls behind, the
//! delay it introduced is part of the latency the target would have
//! inflicted on a punctual client (the coordinated-omission rule; see
//! `docs/loadgen.md`). This module only owns the schedule side:
//! [`schedule`] produces the offsets, [`offered_rate`] reports the rate a
//! schedule actually encodes, and `rsr-net`'s `Driver::load` does the
//! paced injection and timestamping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The inter-arrival law of an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Deterministic, evenly spaced arrivals: session `i` at `i / rate`.
    /// The gentlest arrival process at a given rate — no bursts — so it
    /// isolates the service-time component of latency.
    Uniform,
    /// Seeded-exponential inter-arrival gaps (a Poisson process): the
    /// memoryless arrival law production traffic is usually modeled by,
    /// and the honest default — bursts arrive for free.
    Exponential,
}

impl Arrival {
    /// The canonical CLI token.
    pub fn token(self) -> &'static str {
        match self {
            Arrival::Uniform => "uniform",
            Arrival::Exponential => "exp",
        }
    }

    /// Parses a CLI token (`uniform` | `exp` | `exponential` | `poisson`).
    pub fn parse(token: &str) -> Option<Arrival> {
        match token {
            "uniform" => Some(Arrival::Uniform),
            "exp" | "exponential" | "poisson" => Some(Arrival::Exponential),
            _ => None,
        }
    }
}

/// Pre-computes an open-loop arrival schedule: `count` non-decreasing
/// offsets from the run's start, targeting `rate_per_sec` offered
/// sessions per second. Deterministic in `(count, rate, arrival, seed)`
/// — the seed only matters for [`Arrival::Exponential`], whose gaps are
/// drawn with inverse-CDF sampling from the workspace's seeded RNG, so a
/// committed baseline pins its exact arrival pattern.
pub fn schedule(count: usize, rate_per_sec: f64, arrival: Arrival, seed: u64) -> Vec<Duration> {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "offered rate must be a positive, finite sessions/sec"
    );
    match arrival {
        Arrival::Uniform => (0..count)
            .map(|i| Duration::from_secs_f64(i as f64 / rate_per_sec))
            .collect(),
        Arrival::Exponential => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad_6e4a_2242_1a77);
            let mut at = 0.0f64;
            (0..count)
                .map(|_| {
                    // Inverse CDF of Exp(rate): -ln(1 - U) / rate, with
                    // U in [0, 1) so the argument never hits zero.
                    let u: f64 = rng.gen();
                    at += -(1.0 - u).ln() / rate_per_sec;
                    Duration::from_secs_f64(at)
                })
                .collect()
        }
    }
}

/// The offered rate a schedule encodes, in sessions/sec: arrivals per
/// unit of schedule span. Zero for schedules with fewer than two
/// arrivals or no span (a burst of simultaneous arrivals has no finite
/// rate).
pub fn offered_rate(schedule: &[Duration]) -> f64 {
    match (schedule.first(), schedule.last()) {
        (Some(&first), Some(&last)) if schedule.len() >= 2 && last > first => {
            (schedule.len() - 1) as f64 / (last - first).as_secs_f64()
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_schedule_is_exact() {
        let s = schedule(5, 100.0, Arrival::Uniform, 99);
        let expect: Vec<Duration> = (0..5).map(|i| Duration::from_millis(10 * i)).collect();
        assert_eq!(s, expect);
        assert!((offered_rate(&s) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_schedule_is_deterministic_per_seed() {
        let a = schedule(64, 200.0, Arrival::Exponential, 7);
        let b = schedule(64, 200.0, Arrival::Exponential, 7);
        assert_eq!(a, b, "same seed must reproduce the schedule exactly");
        let c = schedule(64, 200.0, Arrival::Exponential, 8);
        assert_ne!(a, c, "the seed must matter");
    }

    #[test]
    fn exponential_schedule_is_sorted_with_plausible_rate() {
        let s = schedule(2000, 500.0, Arrival::Exponential, 3);
        assert!(
            s.windows(2).all(|w| w[0] <= w[1]),
            "offsets must not go back in time"
        );
        // The mean of 2000 Exp(500) gaps concentrates tightly: the
        // realized rate should be within 10% of the target.
        let rate = offered_rate(&s);
        assert!(
            (rate / 500.0 - 1.0).abs() < 0.10,
            "realized rate {rate:.1}/s too far from offered 500/s"
        );
    }

    #[test]
    fn degenerate_schedules_have_no_rate() {
        assert_eq!(offered_rate(&[]), 0.0);
        assert_eq!(offered_rate(&[Duration::ZERO]), 0.0);
        assert_eq!(offered_rate(&[Duration::ZERO, Duration::ZERO]), 0.0);
    }

    #[test]
    fn arrival_tokens_round_trip() {
        for a in [Arrival::Uniform, Arrival::Exponential] {
            assert_eq!(Arrival::parse(a.token()), Some(a));
        }
        assert_eq!(Arrival::parse("poisson"), Some(Arrival::Exponential));
        assert_eq!(Arrival::parse("bursty"), None);
    }
}
