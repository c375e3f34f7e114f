//! Continuous rounds run on the thread that reads their record, at both
//! endpoints, and each round is exactly one frame each way. Its own
//! binary: the metrics registry is process-wide, and no other test may
//! record into it.

mod support;

/// Incremental rounds after the opening round 0.
const ROUNDS: u32 = 200;

#[test]
fn continuous_rounds_keep_their_counters() {
    rsr_obs::set_enabled(true);
    let before = rsr_obs::global().snapshot();
    support::run_rounds(ROUNDS);
    let moved = rsr_obs::global().snapshot().delta_from(&before);
    let moved = |key: &str| moved.value(key).unwrap_or(0.0);

    // One delta out of the client, one reply out of the server.
    let rounds = f64::from(ROUNDS + 1);
    assert_eq!(moved("session_frames_continuous"), 2.0 * rounds);
    assert!(moved("session_bits_continuous") > 0.0);
}
