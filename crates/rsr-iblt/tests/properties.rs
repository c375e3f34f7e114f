//! Property-based tests for IBLT / RIBLT invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_iblt::riblt::RibltConfig;
use rsr_iblt::{CellLayout, Iblt, Riblt};
use rsr_metric::Point;
use std::collections::{BTreeSet, HashMap};

proptest! {
    /// Below threshold, decoding an IBLT is a multiset isomorphism: every
    /// inserted key comes back exactly once, on the right side.
    #[test]
    fn iblt_decode_recovers_symmetric_difference(
        seed in 0u64..1000,
        a_keys in prop::collection::btree_set(0u64..10_000, 0..30),
        b_keys in prop::collection::btree_set(0u64..10_000, 0..30),
    ) {
        let mut t = Iblt::new(6 * 30, 3, seed);
        for &k in &a_keys {
            t.insert(k);
        }
        for &k in &b_keys {
            t.delete(k);
        }
        let d = t.decode();
        prop_assume!(d.complete); // loads here are far below threshold; decode failure is ~impossible
        let got_a: BTreeSet<u64> = d.inserted.iter().copied().collect();
        let got_b: BTreeSet<u64> = d.deleted.iter().copied().collect();
        let want_a: BTreeSet<u64> = a_keys.difference(&b_keys).copied().collect();
        let want_b: BTreeSet<u64> = b_keys.difference(&a_keys).copied().collect();
        prop_assert_eq!(got_a, want_a);
        prop_assert_eq!(got_b, want_b);
        prop_assert_eq!(d.inserted.len() + d.deleted.len(),
            a_keys.symmetric_difference(&b_keys).count());
    }

    /// RIBLT with distinct keys and exact values decodes losslessly —
    /// "if Z_A and Z_B also have no duplicate keys, then the RIBLT peeling
    /// procedure would be identical to the standard IBLT peeling procedure
    /// and we would recover Z_A and Z_B with no error" (§3).
    #[test]
    fn riblt_noiseless_decode_is_exact(
        seed in 0u64..1000,
        keys in prop::collection::btree_set(0u64..100_000, 1..20),
        coords in prop::collection::vec(0i64..500, 20 * 3),
    ) {
        let config = RibltConfig {
            min_cells: 6 * 20,
            q: 3,
            dim: 3,
            delta: 500,
            seed,
        };
        let mut t = Riblt::new(config);
        let mut want = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let v = Point::new(coords[3 * i..3 * i + 3].to_vec());
            t.insert(k, &v);
            want.push((k, v));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let d = t.decode(&mut rng);
        prop_assume!(d.complete);
        let mut got: Vec<_> = d.inserted.iter().map(|x| (x.key, x.value.clone())).collect();
        got.sort();
        prop_assert_eq!(got, want);
        prop_assert!(d.deleted.is_empty());
    }

    /// Insert-then-delete of identical pairs always cancels to an empty,
    /// residual-free table, regardless of interleaving: a probe pair
    /// inserted afterwards decodes to exactly its own key and value.
    #[test]
    fn riblt_exact_cancellation(
        seed in 0u64..1000,
        items in prop::collection::vec((0u64..1000, 0i64..100), 1..40),
        probe_val in 0i64..100,
    ) {
        let config = RibltConfig {
            min_cells: 30,
            q: 3,
            dim: 1,
            delta: 100,
            seed,
        };
        let mut t = Riblt::new(config);
        for &(k, v) in &items {
            t.insert(k, &Point::new(vec![v]));
        }
        for &(k, v) in items.iter().rev() {
            t.delete(k, &Point::new(vec![v]));
        }
        let d = t.clone().decode(&mut StdRng::seed_from_u64(1));
        prop_assert!(d.complete);
        prop_assert!(d.inserted.is_empty() && d.deleted.is_empty());
        t.insert(5000, &Point::new(vec![probe_val]));
        let d = t.decode(&mut StdRng::seed_from_u64(1));
        prop_assert!(d.complete);
        let got: Vec<_> = d.inserted.iter().map(|x| (x.key, x.value.clone())).collect();
        prop_assert_eq!(got, vec![(5000, Point::new(vec![probe_val]))]);
        prop_assert!(d.deleted.is_empty());
    }

    /// Near-pairs (same key, values off by bounded noise) always cancel
    /// their keys; the table stays decodable and the extracted survivors
    /// are exactly the unpaired items.
    #[test]
    fn riblt_near_pairs_cancel_keys(
        seed in 0u64..500,
        pairs in prop::collection::vec((0u64..1000, 0i64..90, 0i64..10), 1..25),
        survivor_key in 2000u64..3000,
        survivor_val in 0i64..100,
    ) {
        let config = RibltConfig {
            min_cells: 60,
            q: 3,
            dim: 1,
            delta: 100,
            seed,
        };
        let mut t = Riblt::new(config);
        for &(k, v, noise) in &pairs {
            t.insert(k, &Point::new(vec![v]));
            t.delete(k, &Point::new(vec![v + noise]));
        }
        t.insert(survivor_key, &Point::new(vec![survivor_val]));
        let mut rng = StdRng::seed_from_u64(2);
        let d = t.decode(&mut rng);
        prop_assert!(d.complete, "keys must all cancel or peel");
        prop_assert_eq!(d.inserted.len(), 1);
        prop_assert!(d.deleted.is_empty());
        prop_assert_eq!(d.inserted[0].key, survivor_key);
        // The survivor's value may have absorbed error, but stays in grid.
        let got = d.inserted[0].value.coord(0);
        prop_assert!((0..100).contains(&got));
    }

    /// The wire size is monotone in the cell count.
    #[test]
    fn iblt_wire_monotone(cells_a in 9usize..60, extra in 3usize..60) {
        let a = Iblt::new(cells_a, 3, 0);
        let b = Iblt::new(cells_a + extra, 3, 0);
        prop_assert!(b.wire_bits(100) >= a.wire_bits(100));
    }
}

proptest! {
    /// A random symmetric difference *within the decoding threshold* of an
    /// Algorithm-1-sized table round-trips exactly: the table is sized via
    /// `RibltConfig::for_pairs(k, …)` for up to `4k` surviving pairs, we
    /// load at most `k` per side on top of a cancelled shared bulk, and
    /// decoding must recover exactly the planted difference.
    #[test]
    fn riblt_difference_within_threshold_roundtrips(
        seed in 0u64..400,
        k_total in 1usize..12,
        shared in 0usize..60,
        a_keys in prop::collection::btree_set(0u64..50_000, 0..12),
        b_keys in prop::collection::btree_set(50_000u64..100_000, 0..12),
    ) {
        let k = k_total.max(a_keys.len()).max(b_keys.len());
        let config = RibltConfig::for_pairs(k, 3, 1, 1000, seed);
        let mut t = Riblt::new(config);
        for i in 0..shared as u64 {
            let v = Point::new(vec![(i % 1000) as i64]);
            t.insert(200_000 + i, &v);
            t.delete(200_000 + i, &v);
        }
        // Values derived from keys: distinct keys per side, exact values.
        let value_of = |key: u64| Point::new(vec![(key.wrapping_mul(31) % 1000) as i64]);
        let mut want_a: Vec<(u64, Point)> = a_keys.iter().map(|&key| (key, value_of(key))).collect();
        let mut want_b: Vec<(u64, Point)> = b_keys.iter().map(|&key| (key, value_of(key))).collect();
        for (key, v) in &want_a {
            t.insert(*key, v);
        }
        for (key, v) in &want_b {
            t.delete(*key, v);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        let d = t.decode(&mut rng);
        prop_assert!(d.complete, "within-threshold difference must decode");
        let mut got_a: Vec<_> = d.inserted.iter().map(|x| (x.key, x.value.clone())).collect();
        let mut got_b: Vec<_> = d.deleted.iter().map(|x| (x.key, x.value.clone())).collect();
        got_a.sort();
        got_b.sort();
        want_a.sort();
        want_b.sort();
        prop_assert_eq!(got_a, want_a);
        prop_assert_eq!(got_b, want_b);
    }

    /// An *oversized* difference fails cleanly: decode reports incomplete
    /// (or, rarely, still succeeds) but never fabricates — every recovered
    /// key is a planted key with its exact planted value, never a blend.
    #[test]
    fn riblt_oversized_difference_fails_cleanly(
        seed in 0u64..400,
        overload_factor in 3usize..10,
    ) {
        let k = 4;
        let config = RibltConfig::for_pairs(k, 3, 1, 1000, seed);
        let n = overload_factor * config.min_cells;
        let mut t = Riblt::new(config);
        let planted: std::collections::BTreeMap<u64, i64> =
            (0..n as u64).map(|i| (i * 7 + 1, (i as i64 * 13) % 1000)).collect();
        for (&key, &v) in &planted {
            t.insert(key, &Point::new(vec![v]));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let d = t.decode(&mut rng);
        // Massive overload: the 2-core is nonempty w.h.p. — and whatever
        // *was* peeled must be genuine.
        prop_assert!(!d.complete, "decode must report failure when overloaded");
        prop_assert!(d.deleted.is_empty());
        for pair in &d.inserted {
            let want = planted.get(&pair.key);
            prop_assert!(want.is_some(), "fabricated key {}", pair.key);
            prop_assert_eq!(pair.value.coord(0), *want.unwrap(), "blended value for key {}", pair.key);
        }
    }

    /// The XOR IBLT under the same overload: no fabricated keys either.
    #[test]
    fn iblt_oversized_never_fabricates(seed in 0u64..400, extra in 2usize..8) {
        let cells = 24;
        let mut t = Iblt::new(cells, 3, seed);
        let planted: BTreeSet<u64> = (0..(extra * cells) as u64).map(|i| i * 11 + 3).collect();
        for &key in &planted {
            t.insert(key);
        }
        let d = t.decode();
        prop_assert!(!d.complete);
        for key in d.inserted.iter().chain(&d.deleted) {
            prop_assert!(planted.contains(key), "fabricated key {key}");
        }
    }

    /// Serialization round-trips: the reconstructed IBLT decodes to the
    /// same result, and the buffer length is exactly the accounted bits
    /// rounded up to bytes.
    #[test]
    fn iblt_serialization_roundtrip(
        seed in 0u64..500,
        keys in prop::collection::btree_set(0u64..100_000, 0..25),
    ) {
        let n_bound = 32;
        let mut t = Iblt::new(96, 3, seed);
        for &k in &keys {
            t.insert(k);
        }
        let bytes = t.to_bytes(n_bound);
        prop_assert_eq!(bytes.len() as u64, t.wire_bits(n_bound).div_ceil(8));
        let back = Iblt::from_bytes(&bytes, 96, 3, seed, n_bound).expect("valid buffer");
        let d1 = t.decode();
        let d2 = back.decode();
        prop_assert_eq!(d1.complete, d2.complete);
        let mut a = d1.inserted;
        let mut b = d2.inserted;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// RIBLT serialization round-trips bit-exactly.
    #[test]
    fn riblt_serialization_roundtrip(
        seed in 0u64..500,
        items in prop::collection::vec((0u64..10_000, 0i64..400, 0i64..400), 0..15),
    ) {
        let config = RibltConfig {
            min_cells: 90,
            q: 3,
            dim: 2,
            delta: 400,
            seed,
        };
        let n_bound = 16;
        let mut t = Riblt::new(config);
        for &(k, x, y) in &items {
            t.insert(k, &Point::new(vec![x, y]));
        }
        let bytes = t.to_bytes(n_bound);
        prop_assert_eq!(bytes.len() as u64, t.wire_bits(n_bound).div_ceil(8));
        let back = Riblt::from_bytes(&bytes, config, n_bound).expect("valid buffer");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rng2 = StdRng::seed_from_u64(seed);
        let d1 = t.decode(&mut rng);
        let d2 = back.decode(&mut rng2);
        prop_assert_eq!(d1.complete, d2.complete);
        let mut a: Vec<_> = d1.inserted.iter().map(|p| (p.key, p.value.clone())).collect();
        let mut b: Vec<_> = d2.inserted.iter().map(|p| (p.key, p.value.clone())).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// Truncated buffers are rejected, never mis-decoded.
    #[test]
    fn truncated_buffers_rejected(seed in 0u64..200, cut in 1usize..20) {
        let mut t = Iblt::new(48, 3, seed);
        for k in 0..10u64 {
            t.insert(k);
        }
        let bytes = t.to_bytes(16);
        let cut = cut.min(bytes.len());
        let truncated = &bytes[..bytes.len() - cut];
        prop_assert!(Iblt::from_bytes(truncated, 48, 3, seed, 16).is_none());
    }
}

/// The failure that is left at design load, built on purpose: *twin
/// keys* — two keys sharing all q cells. Every cell holding one holds
/// both, so none of them is ever pure, and the table carries only
/// `k₁ ⊕ k₂` about the pair: nothing local to this table, peeling or
/// linear algebra, can split them. A second table seed can — the two
/// keys are twins under one layout only.
#[test]
fn twin_keys_stall_one_seed_and_decode_under_another() {
    let (cells, q, seed) = (84, 3, 7);
    let layout = CellLayout::new(cells, q, seed);
    // Birthday search over the 28³ = 21,952 cell triples: a repeat turns
    // up after a few hundred candidates, certainly within 2¹⁶.
    let mut seen = HashMap::new();
    let (a, b) = (0u64..1 << 16)
        .find_map(|k| seen.insert(layout.cells_of(k), k).map(|twin| (twin, k)))
        .expect("two of 2^16 keys share their three cells");
    assert_eq!(layout.cells_of(a), layout.cells_of(b));

    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = BTreeSet::from([a, b]);
    while keys.len() < 32 {
        keys.insert(rng.gen());
    }
    let decode_under = |seed| {
        let mut t = Iblt::new(cells, q, seed);
        for &k in &keys {
            t.insert(k);
        }
        t.decode()
    };

    let stalled = decode_under(seed);
    assert!(!stalled.complete);
    assert!(stalled.deleted.is_empty());
    for k in &stalled.inserted {
        assert!(keys.contains(k), "fabricated key {k}");
        assert!(*k != a && *k != b, "a twin was peeled");
    }

    let retried = decode_under(seed + 1);
    assert!(retried.complete);
    assert_eq!(
        retried.inserted.iter().copied().collect::<BTreeSet<_>>(),
        keys
    );
}
