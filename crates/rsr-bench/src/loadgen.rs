//! Open-loop arrival schedules for the load harness.
//!
//! A *closed-loop* driver (every driver the N1 throughput table times)
//! starts the next session when a previous one finishes, so the
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

/// Pre-computes an open-loop arrival schedule: `count` non-decreasing
/// offsets from the run's start, targeting `rate_per_sec` offered
/// sessions per second. The gaps are seeded-exponential (a Poisson
/// process: the memoryless arrival law production traffic is usually
/// modeled by, bursts included), drawn with inverse-CDF sampling from
/// the workspace's seeded RNG. Deterministic in `(count, rate, seed)`,
/// so a committed baseline pins its exact arrival pattern.
pub fn schedule(count: usize, rate_per_sec: f64, seed: u64) -> Vec<Duration> {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "offered rate must be a positive, finite sessions/sec"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad_6e4a_2242_1a77);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            // Inverse CDF of Exp(rate): -ln(1 - U) / rate, with U in
            // [0, 1) so the argument never hits zero.
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate_per_sec;
            Duration::from_secs_f64(at)
        })
        .collect()
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
    fn schedule_offsets_are_pinned() {
        // The offsets the committed `load_*_offered_per_sec` keys were
        // generated from: any change to the seeding, the RNG draw or the
        // inverse CDF moves them, and fails here first.
        let nanos = [
            1_440_094, 4_689_687, 5_119_301, 5_797_312, 8_532_237, 12_940_246, 14_213_776,
            23_017_866,
        ];
        let expect: Vec<Duration> = nanos.into_iter().map(Duration::from_nanos).collect();
        assert_eq!(schedule(8, 200.0, 7), expect);
    }

    #[test]
    fn exponential_schedule_is_deterministic_per_seed() {
        let a = schedule(64, 200.0, 7);
        let b = schedule(64, 200.0, 7);
        assert_eq!(a, b, "same seed must reproduce the schedule exactly");
        let c = schedule(64, 200.0, 8);
        assert_ne!(a, c, "the seed must matter");
    }

    #[test]
    fn exponential_schedule_is_sorted_with_plausible_rate() {
        let s = schedule(2000, 500.0, 3);
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
}
