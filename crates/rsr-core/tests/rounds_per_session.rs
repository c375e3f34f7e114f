//! `cont_rounds_per_session` records the rounds a party settled over its
//! whole lifetime, a `resync` included. Its own binary: the metrics
//! registry is process-wide, and no other test may record into it.

use rsr_core::continuous::{ContinuousConfig, ContinuousParty, ContinuousSession};

#[test]
fn rounds_per_session_counts_across_a_resync() {
    rsr_obs::set_enabled(true);
    let cfg = ContinuousConfig::for_churn(8, 3);
    let mut s = ContinuousSession::new(
        ContinuousParty::new(cfg, [1, 2]),
        ContinuousParty::new(cfg, [2, 3]),
    );
    s.drive_round().expect("round 0");
    s.alice().lock().unwrap().insert(4).unwrap();
    s.drive_round().expect("round 1");
    for party in [s.alice(), s.bob()] {
        party.lock().unwrap().resync().expect("idle between rounds");
        assert_eq!(party.lock().unwrap().rounds_settled(), 0);
    }
    s.bob().lock().unwrap().insert(5).unwrap();
    s.drive_round().expect("the round after the resync");
    drop(s);

    let snapshot = rsr_obs::global().snapshot();
    assert_eq!(snapshot.value("cont_rounds_per_session_count"), Some(2.0));
    assert_eq!(snapshot.value("cont_rounds_per_session_max"), Some(3.0));
}
