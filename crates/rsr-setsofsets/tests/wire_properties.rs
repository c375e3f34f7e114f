//! Property tests for the sets-of-sets round codecs: random parent
//! multisets, every round message round-trips byte-exactly and the
//! reported round bits equal the measured encoder output.

use proptest::prelude::*;
use rsr_iblt::bits::{BitReader, BitWriter};
use rsr_setsofsets::protocol::{alice_round2, bob_round1, bob_round3};
use rsr_setsofsets::{estimate_fp_cells, reconcile, wire, ChildSet, SosConfig};

fn children(max_parents: usize, entry_cap: u64) -> impl Strategy<Value = Vec<ChildSet>> {
    prop::collection::vec(prop::collection::vec(0u64..entry_cap, 1..6), 0..max_parents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Round 1 round-trips: the reconstructed fingerprint IBLT drives
    /// Alice's round 2 to the identical request list.
    #[test]
    fn round1_roundtrip(
        seed in 0u64..1000,
        alice in children(12, 1 << 24),
        bob in children(12, 1 << 24),
    ) {
        let cfg = SosConfig {
            fp_cells: estimate_fp_cells(alice.len() + bob.len()),
            q: 3,
            seed,
            entry_bits: 24,
        };
        let (r1, _) = bob_round1(&bob, &cfg);
        let mut w = BitWriter::new();
        wire::put_round1(&mut w, &r1);
        prop_assert_eq!(w.bit_len(), wire::round1_wire_bits(&r1));
        let buf = w.finish();
        prop_assert_eq!(buf.len() as u64, wire::round1_wire_bits(&r1).div_ceil(8));
        let back = wire::get_round1(&mut BitReader::new(&buf), &cfg).expect("decodes");
        let direct = alice_round2(&alice, &r1, &cfg);
        let via_wire = alice_round2(&alice, &back, &cfg);
        match (direct, via_wire) {
            (Ok((a, _)), Ok((b, _))) => {
                prop_assert_eq!(a.num_requested(), b.num_requested());
                let mut wa = BitWriter::new();
                wire::put_round2(&mut wa, &a);
                let mut wb = BitWriter::new();
                wire::put_round2(&mut wb, &b);
                prop_assert_eq!(wa.finish(), wb.finish());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "round-1 serialization changed the outcome"),
        }
    }

    /// Rounds 2 and 3 round-trip byte-exactly through a full protocol
    /// exchange, and the measured sizes match the accounting helpers.
    #[test]
    fn round2_and_round3_roundtrip(
        seed in 0u64..1000,
        shared in children(10, 1 << 24),
        bob_extra in children(6, 1 << 24),
    ) {
        let alice = shared.clone();
        let mut bob = shared;
        bob.extend(bob_extra);
        let cfg = SosConfig {
            fp_cells: estimate_fp_cells(bob.len() + 4),
            q: 3,
            seed,
            entry_bits: 24,
        };
        let (r1, bob_state) = bob_round1(&bob, &cfg);
        let Ok((r2, _)) = alice_round2(&alice, &r1, &cfg) else {
            return Ok(()); // fingerprint table overloaded: sizing, not codec
        };
        let mut w = BitWriter::new();
        wire::put_round2(&mut w, &r2);
        prop_assert_eq!(w.bit_len(), wire::round2_wire_bits(&r2));
        let buf = w.finish();
        let r2_back = wire::get_round2(&mut BitReader::new(&buf)).expect("decodes");
        let mut w2 = BitWriter::new();
        wire::put_round2(&mut w2, &r2_back);
        prop_assert_eq!(w2.finish(), buf);

        let r3 = bob_round3(&bob, &bob_state, &r2_back).expect("requests are honest");
        let mut w3 = BitWriter::new();
        wire::put_round3(&mut w3, &r3, &cfg);
        prop_assert_eq!(w3.bit_len(), wire::round3_wire_bits(&r3, &cfg));
        let buf3 = w3.finish();
        let r3_back = wire::get_round3(&mut BitReader::new(&buf3)).expect("decodes");
        let mut w3b = BitWriter::new();
        wire::put_round3(&mut w3b, &r3_back, &cfg);
        prop_assert_eq!(w3b.finish(), buf3);
    }

    /// `reconcile`'s reported round bits are the measured encoder sizes —
    /// in particular the total can never be smaller than the payload the
    /// rounds must carry.
    #[test]
    fn reconcile_round_bits_are_measured(
        seed in 0u64..500,
        shared in children(10, 1 << 20),
        bob_extra in children(4, 1 << 20),
    ) {
        let alice = shared.clone();
        let mut bob = shared;
        bob.extend(bob_extra.clone());
        let cfg = SosConfig {
            fp_cells: estimate_fp_cells(bob.len() + 4),
            q: 3,
            seed,
            entry_bits: 20,
        };
        let Ok(out) = reconcile(&alice, &bob, &cfg) else {
            return Ok(());
        };
        // Round 1 ships the IBLT (+ 32-bit count header).
        prop_assert!(out.round_bits.0 > 32);
        // Round 2 carries one 64-bit fingerprint per Bob-only child.
        prop_assert_eq!(
            out.round_bits.1,
            32 + 64 * out.bob_only_children.len() as u64
        );
        // Round 3 carries at least every entry of every shipped child.
        let entry_payload: u64 = out
            .bob_only_children
            .iter()
            .map(|c| c.len() as u64 * u64::from(cfg.entry_bits))
            .sum();
        prop_assert!(out.round_bits.2 >= 40 + entry_payload);
        prop_assert_eq!(
            out.total_bits(),
            out.round_bits.0 + out.round_bits.1 + out.round_bits.2
        );
    }
}
