//! `emd_levels_received` and `emd_levels_parsed` count what Bob's lazy
//! parse saves: he parses levels from the top down and stops at the
//! first that decodes, so a settle at level `i*` of `t` parses
//! `t − i* + 1`. Its own binary: the metrics registry is process-wide,
//! and no other test may record into it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use rsr_metric::{MetricSpace, Point};

fn counts() -> (f64, f64) {
    let snapshot = rsr_obs::global().snapshot();
    let get = |key| snapshot.value(key).unwrap_or(0.0);
    (get("emd_levels_received"), get("emd_levels_parsed"))
}

#[test]
fn bob_parses_only_the_levels_down_to_the_one_that_decodes() {
    rsr_obs::set_enabled(true);
    let space = MetricSpace::hamming(32);
    let mut rng = StdRng::seed_from_u64(5);
    let mut random_point = || Point::from_bits(&(0..32).map(|_| rng.gen()).collect::<Vec<bool>>());
    let alice: Vec<Point> = (0..32).map(|_| random_point()).collect();
    // Bob: every point one bit off Alice's, so the finest levels hold
    // far more than 2k survivors and fail.
    let bob: Vec<Point> = alice
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut bits: Vec<bool> = p.coords().iter().map(|&c| c == 1).collect();
            bits[i] = !bits[i];
            Point::from_bits(&bits)
        })
        .collect();
    let cfg = EmdProtocolConfig::for_space(&space, 32, 4);
    let proto = EmdProtocol::new(space, cfg, 6);
    let t = cfg.num_levels() as f64;

    // Identical sets decode at the top level: one level parsed of t.
    let out = proto.run(&alice, &alice).expect("identical sets decode");
    assert_eq!(out.i_star, cfg.num_levels());
    assert_eq!(counts(), (t, 1.0));

    // Noise everywhere: every level from the top down to i*.
    let out = proto.run(&alice, &bob).expect("decodable");
    assert!(out.i_star < cfg.num_levels(), "i* = {}", out.i_star);
    let parsed = (cfg.num_levels() - out.i_star + 1) as f64;
    assert_eq!(counts(), (2.0 * t, 1.0 + parsed));
}
