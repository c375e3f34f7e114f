//! Byte-exact wire codec for the three sets-of-sets round messages.
//!
//! Formats (all through the shared `rsr-iblt` bit codec; every count is a
//! 32-bit field):
//!
//! * **Round 1**: `num_children`, then the fingerprint IBLT's cells with
//!   count fields sized for `num_children` items.
//! * **Round 2**: the requested tagged fingerprints as raw 64-bit words,
//!   one run.
//! * **Round 3**: the child count, an 8-bit *entry width*, then per child
//!   its 64-bit tagged fingerprint, a 32-bit length, and the entries as
//!   one run at the chosen width. The width is the configured
//!   `entry_bits` escalated (and measured honestly) when a child carries
//!   wider entries — the Gap protocol's batch hashes always fit, but
//!   generic callers may ship arbitrary `u64` child sets.
//!
//! Construction parameters (`fp_cells`, `q`, seed, `entry_bits`) travel as
//! public coins inside [`SosConfig`], not on the wire.

use crate::protocol::{Round1, Round2, Round3, SosConfig};
use rsr_iblt::bits::{BitReader, BitWriter};
use rsr_iblt::wire::{bits_for, get_len, put_len};
use rsr_iblt::Iblt;

/// Seed tweak for the round-1 fingerprint IBLT (matches `bob_round1`).
pub(crate) const FP_IBLT_SEED_TWEAK: u64 = 0xb0b1;

/// Encodes a round-1 message.
pub fn put_round1(w: &mut BitWriter, r1: &Round1) {
    put_len(w, r1.num_children);
    r1.iblt.write_to(w, r1.num_children);
}

/// Decodes a round-1 message given the shared configuration.
pub fn get_round1(r: &mut BitReader<'_>, cfg: &SosConfig) -> Option<Round1> {
    let num_children = get_len(r)?;
    let iblt = Iblt::read_from(
        r,
        cfg.fp_cells,
        cfg.q,
        cfg.seed ^ FP_IBLT_SEED_TWEAK,
        num_children,
    )?;
    Some(Round1 { iblt, num_children })
}

/// Exact encoded size of a round-1 message in bits.
pub fn round1_wire_bits(r1: &Round1) -> u64 {
    32 + r1.iblt.wire_bits(r1.num_children)
}

/// Encodes a round-2 message.
pub fn put_round2(w: &mut BitWriter, r2: &Round2) {
    put_len(w, r2.requested.len());
    w.write_run(&r2.requested, 64, |tfp| tfp);
}

/// Decodes a round-2 message.
pub fn get_round2(r: &mut BitReader<'_>) -> Option<Round2> {
    let count = get_len(r)?;
    Some(Round2 {
        requested: read_words(r, count, 64)?,
    })
}

/// Exact encoded size of a round-2 message in bits.
pub fn round2_wire_bits(r2: &Round2) -> u64 {
    32 + 64 * r2.requested.len() as u64
}

/// The entry width a round-3 message uses: the configured `entry_bits`,
/// escalated to fit the widest entry actually shipped.
fn round3_entry_width(r3: &Round3, cfg: &SosConfig) -> u32 {
    let needed = r3
        .children
        .iter()
        .flat_map(|(_, c)| c.iter())
        .map(|&e| bits_for(e as u128))
        .max()
        .unwrap_or(1);
    needed.max(cfg.entry_bits).min(64)
}

/// Encodes a round-3 message.
pub fn put_round3(w: &mut BitWriter, r3: &Round3, cfg: &SosConfig) {
    let width = round3_entry_width(r3, cfg);
    put_len(w, r3.children.len());
    w.write(u64::from(width), 8);
    for (tfp, child) in &r3.children {
        w.write(*tfp, 64);
        put_len(w, child.len());
        w.write_run(child, width, |entry| entry);
    }
}

/// Decodes a round-3 message. The child list grows as children decode,
/// and a child's entries are allocated only once the frame holds them:
/// a declared count the frame cannot back allocates nothing.
pub fn get_round3(r: &mut BitReader<'_>) -> Option<Round3> {
    let count = get_len(r)?;
    let width = r.read(8)? as u32;
    if !(1..=64).contains(&width) {
        return None;
    }
    let mut children = Vec::new();
    for _ in 0..count {
        let tfp = r.read(64)?;
        let len = get_len(r)?;
        children.push((tfp, read_words(r, len, width)?));
    }
    Some(Round3 { children })
}

/// A run of `count` `width`-bit words, or `None` if the frame holds fewer
/// bits than the run: the declared count is checked before it sizes an
/// allocation.
fn read_words(r: &mut BitReader<'_>, count: usize, width: u32) -> Option<Vec<u64>> {
    if !r.has_bits(u64::from(width).saturating_mul(count as u64)) {
        return None;
    }
    let mut words = vec![0; count];
    r.read_run(width, &mut words, |word| word)?;
    Some(words)
}

/// Exact encoded size of a round-3 message in bits.
pub fn round3_wire_bits(r3: &Round3, cfg: &SosConfig) -> u64 {
    let width = round3_entry_width(r3, cfg);
    32 + 8
        + r3.children
            .iter()
            .map(|(_, c)| 64 + 32 + c.len() as u64 * u64::from(width))
            .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{alice_round2, bob_round1, bob_round3, ChildSet};

    fn cfg() -> SosConfig {
        SosConfig {
            fp_cells: 30,
            q: 3,
            seed: 0xFEED,
            entry_bits: 24,
        }
    }

    #[test]
    fn round1_roundtrips_and_measures() {
        let bob: Vec<ChildSet> = vec![vec![1, 2], vec![3, 4], vec![9, 9]];
        let (r1, _) = bob_round1(&bob, &cfg());
        let mut w = BitWriter::new();
        put_round1(&mut w, &r1);
        assert_eq!(w.bit_len(), round1_wire_bits(&r1));
        let buf = w.finish();
        let back = get_round1(&mut BitReader::new(&buf), &cfg()).expect("decodes");
        assert_eq!(back.num_children, 3);
        // The reconstructed IBLT behaves identically: Alice's round 2 on
        // either copy requests the same fingerprints.
        let alice: Vec<ChildSet> = vec![vec![1, 2]];
        let (want, _) = alice_round2(&alice, &r1, &cfg()).unwrap();
        let (got, _) = alice_round2(&alice, &back, &cfg()).unwrap();
        let mut a = want.requested.clone();
        let mut b = got.requested.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn round2_roundtrips() {
        let r2 = Round2 {
            requested: vec![u64::MAX, 0, 42],
        };
        let mut w = BitWriter::new();
        put_round2(&mut w, &r2);
        assert_eq!(w.bit_len(), round2_wire_bits(&r2));
        let buf = w.finish();
        let back = get_round2(&mut BitReader::new(&buf)).unwrap();
        assert_eq!(back.requested, r2.requested);
    }

    #[test]
    fn round3_roundtrips_via_protocol() {
        let alice: Vec<ChildSet> = vec![vec![1, 2]];
        let bob: Vec<ChildSet> = vec![vec![1, 2], vec![7, 8, 9]];
        let c = cfg();
        let (r1, bob_state) = bob_round1(&bob, &c);
        let (r2, _) = alice_round2(&alice, &r1, &c).unwrap();
        let r3 = bob_round3(&bob, &bob_state, &r2).unwrap();
        let mut w = BitWriter::new();
        put_round3(&mut w, &r3, &c);
        assert_eq!(w.bit_len(), round3_wire_bits(&r3, &c));
        let buf = w.finish();
        let back = get_round3(&mut BitReader::new(&buf)).unwrap();
        assert_eq!(back.children, r3.children);
    }

    #[test]
    fn round3_escalates_entry_width_for_wide_entries() {
        // entry_bits = 24 but an entry needs 30 bits: the codec must ship
        // it intact and charge for the wider field.
        let r3 = Round3 {
            children: vec![(5, vec![1_000_031_000u64])],
        };
        let c = cfg();
        let mut w = BitWriter::new();
        put_round3(&mut w, &r3, &c);
        assert_eq!(w.bit_len(), round3_wire_bits(&r3, &c));
        let buf = w.finish();
        let back = get_round3(&mut BitReader::new(&buf)).unwrap();
        assert_eq!(back.children, r3.children);
        assert!(round3_wire_bits(&r3, &c) > 32 + 8 + 64 + 32 + 24);
    }

    #[test]
    fn truncated_rounds_rejected() {
        let r2 = Round2 {
            requested: vec![1, 2, 3],
        };
        let mut w = BitWriter::new();
        put_round2(&mut w, &r2);
        let buf = w.finish();
        assert!(get_round2(&mut BitReader::new(&buf[..buf.len() - 1])).is_none());
    }
}
