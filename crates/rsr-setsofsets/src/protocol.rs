//! The three-round sets-of-sets reconciliation protocol.

use rsr_hash::mix::{hash_words, IncrementalHasher};
use rsr_iblt::Iblt;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A child set: a fixed-shape vector of 64-bit entries. (The Gap protocol's
/// keys are vectors of `h` batch hashes; a plain set can be encoded by
/// sorting its elements.)
pub type ChildSet = Vec<u64>;

/// Children whose fingerprint chains [`fingerprints`] hashes side by side.
/// One child's fingerprint is a dependent chain of `combine` steps, so it
/// is latency-bound; eight independent chains fill the pipeline, as in
/// `rsr-hash`'s keying lanes.
const LANES: usize = 8;

/// Configuration shared by both parties (public coins).
#[derive(Clone, Copy, Debug)]
pub struct SosConfig {
    /// Cells in the round-1 fingerprint IBLT. Size with
    /// [`estimate_fp_cells`] from the expected number of differing
    /// children.
    pub fp_cells: usize,
    /// Hash functions per IBLT key.
    pub q: usize,
    /// Shared seed.
    pub seed: u64,
    /// Bits charged per child-set entry on the wire (the Gap protocol's
    /// entries are `Θ(log n)`-bit batch hashes).
    pub entry_bits: u32,
}

/// Sizing rule for the fingerprint IBLT: the q=3 peeling threshold is at
/// density ≈ 0.81, so `2.5×` the expected number of differing children
/// (min 24 cells) gives comfortable slack.
pub fn estimate_fp_cells(expected_diffs: usize) -> usize {
    (5 * expected_diffs.max(1)).div_ceil(2).max(24)
}

/// Errors the protocol can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SosError {
    /// The fingerprint IBLT did not decode: the difference exceeded the
    /// table capacity. Re-run with a larger `fp_cells`.
    FingerprintDecodeFailed,
    /// A round-3 child set did not hash to its requested fingerprint.
    ContentVerificationFailed,
    /// Bob could not find a child matching a requested fingerprint (can
    /// only happen if the rounds were mismatched across configs).
    UnknownFingerprint,
    /// Round 2 requested more children than Bob holds.
    RequestTooLarge,
    /// Round 2 requested one fingerprint twice.
    RepeatedRequest,
    /// Round 3 did not carry exactly the requested fingerprints, each
    /// once.
    UnrequestedContent,
}

impl fmt::Display for SosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SosError::FingerprintDecodeFailed => {
                write!(f, "fingerprint IBLT decode failed (difference too large)")
            }
            SosError::ContentVerificationFailed => {
                write!(f, "received child set fails fingerprint verification")
            }
            SosError::UnknownFingerprint => write!(f, "requested fingerprint unknown to sender"),
            SosError::RequestTooLarge => {
                write!(f, "request names more children than the sender holds")
            }
            SosError::RepeatedRequest => write!(f, "request names one fingerprint twice"),
            SosError::UnrequestedContent => {
                write!(f, "reply does not carry exactly the requested fingerprints")
            }
        }
    }
}

impl std::error::Error for SosError {}

/// Round-1 message (Bob → Alice).
#[derive(Clone, Debug)]
pub struct Round1 {
    pub(crate) iblt: Iblt,
    pub(crate) num_children: usize,
}

/// Round-2 message (Alice → Bob): tagged fingerprints only Bob has.
#[derive(Clone, Debug)]
pub struct Round2 {
    pub(crate) requested: Vec<u64>,
}

impl Round2 {
    /// Number of requested children (sizes Bob's round-3 reply).
    pub fn num_requested(&self) -> usize {
        self.requested.len()
    }
}

/// Round-3 message (Bob → Alice): contents of the requested children.
#[derive(Clone, Debug)]
pub struct Round3 {
    /// `(tagged fingerprint, child contents)` pairs.
    pub(crate) children: Vec<(u64, ChildSet)>,
}

/// Bob's state between round 1 and round 3: his tagged fingerprints, in
/// child order, computed once in round 1.
#[derive(Clone, Debug)]
pub struct BobState {
    tagged: Vec<u64>,
}

/// Alice's state between rounds 2 and the finish.
#[derive(Clone, Debug)]
pub struct AliceState {
    /// Tagged fingerprints present only on Alice's side.
    pub alice_only: Vec<u64>,
    /// Tagged fingerprints present only on Bob's side (requested).
    pub bob_only: Vec<u64>,
    /// Alice's tagged fingerprints, in child order (computed once, in
    /// round 2).
    tagged: Vec<u64>,
    /// How many copies of each plain fingerprint Alice holds.
    copies: HashMap<u64, u64>,
}

/// What Alice's finish learns of Bob's multiset, without copying it: which
/// of her own children it holds verbatim, plus the children only Bob has.
#[derive(Clone, Debug)]
pub struct Splice {
    /// `kept[i]`: Alice's child `i` is in Bob's multiset (its tagged
    /// fingerprint is not Alice-only).
    pub kept: Vec<bool>,
    /// The verified round-3 children, in round-3 order.
    pub bob_only: Vec<ChildSet>,
}

impl Splice {
    /// Bob's multiset: Alice's kept children, then the Bob-only ones.
    pub fn multiset<C: AsRef<[u64]>>(&self, alice: &[C]) -> Vec<ChildSet> {
        alice
            .iter()
            .zip(&self.kept)
            .filter(|(_, &kept)| kept)
            .map(|(c, _)| c.as_ref().to_vec())
            .chain(self.bob_only.iter().cloned())
            .collect()
    }
}

/// Final outcome: Alice's reconstruction of Bob's multiset plus accounting.
#[derive(Clone, Debug)]
pub struct SosOutcome {
    /// Bob's parent multiset as reconstructed by Alice (order-insensitive).
    pub bob_multiset: Vec<ChildSet>,
    /// Children that only Bob had (what round 3 shipped).
    pub bob_only_children: Vec<ChildSet>,
    /// Number of Alice-only children removed during splicing.
    pub alice_only_count: usize,
    /// Bits sent in each round `(r1, r2, r3)`.
    pub round_bits: (u64, u64, u64),
}

impl SosOutcome {
    /// Total communication in bits across all rounds.
    pub fn total_bits(&self) -> u64 {
        self.round_bits.0 + self.round_bits.1 + self.round_bits.2
    }
}

/// Plain (untagged) fingerprints of every child: `hash_words` of its
/// entries, eight children's chains side by side. Children of unequal
/// length share the chain up to the shortest, then finish one by one.
fn fingerprints<C: AsRef<[u64]>>(seed: u64, children: &[C]) -> Vec<u64> {
    let start = IncrementalHasher::new(seed ^ 0x50f5_0f50);
    let mut out = Vec::with_capacity(children.len());
    for block in children.chunks(LANES) {
        // A short last block repeats its last child in the spare lanes.
        let lanes: [&[u64]; LANES] =
            std::array::from_fn(|i| block.get(i).unwrap_or(&block[block.len() - 1]).as_ref());
        let shared = lanes.iter().map(|c| c.len()).min().unwrap_or(0);
        let mut inc: [IncrementalHasher; LANES] = std::array::from_fn(|_| start.clone());
        for j in 0..shared {
            for (inc, child) in inc.iter_mut().zip(lanes) {
                inc.update(child[j]);
            }
        }
        for (inc, child) in inc.iter_mut().zip(lanes) {
            for &w in &child[shared..] {
                inc.update(w);
            }
        }
        out.extend(inc[..block.len()].iter().map(IncrementalHasher::current));
    }
    out
}

/// The tagged fingerprint of the `rank`-th copy of a child whose plain
/// fingerprint is `fp`.
fn tag(seed: u64, fp: u64, rank: u64) -> u64 {
    hash_words(seed ^ 0x7a66_ed00, &[fp, rank])
}

/// Occurrence-tagged fingerprints: the `r`-th copy of an identical child
/// gets tag `r`, making duplicates distinct IBLT keys while keeping the
/// tagging consistent across parties. Also returns how many copies of each
/// plain fingerprint there are.
fn tagged_fingerprints<C: AsRef<[u64]>>(
    seed: u64,
    children: &[C],
) -> (Vec<u64>, HashMap<u64, u64>) {
    let mut copies: HashMap<u64, u64> = HashMap::with_capacity(children.len());
    let tagged = fingerprints(seed, children)
        .into_iter()
        .map(|fp| {
            let rank = copies.entry(fp).or_insert(0);
            *rank += 1;
            tag(seed, fp, *rank - 1)
        })
        .collect();
    (tagged, copies)
}

/// Round 1: Bob summarizes his tagged fingerprints in an IBLT, and keeps
/// them for round 3.
pub fn bob_round1<C: AsRef<[u64]>>(bob: &[C], cfg: &SosConfig) -> (Round1, BobState) {
    let (tagged, _) = tagged_fingerprints(cfg.seed, bob);
    let mut iblt = Iblt::new(
        cfg.fp_cells,
        cfg.q,
        cfg.seed ^ crate::wire::FP_IBLT_SEED_TWEAK,
    );
    for &tfp in &tagged {
        iblt.insert(tfp);
    }
    let r1 = Round1 {
        iblt,
        num_children: bob.len(),
    };
    (r1, BobState { tagged })
}

/// Round 2: Alice subtracts her fingerprints, decodes the difference, and
/// requests Bob-only children.
pub fn alice_round2<C: AsRef<[u64]>>(
    alice: &[C],
    r1: &Round1,
    cfg: &SosConfig,
) -> Result<(Round2, AliceState), SosError> {
    let (tagged, copies) = tagged_fingerprints(cfg.seed, alice);
    let mut table = r1.iblt.clone();
    for &tfp in &tagged {
        table.delete(tfp);
    }
    let decode = table.decode();
    if !decode.complete {
        return Err(SosError::FingerprintDecodeFailed);
    }
    // Bob inserted, Alice deleted: Bob-only survive positive.
    let state = AliceState {
        alice_only: decode.deleted,
        bob_only: decode.inserted.clone(),
        tagged,
        copies,
    };
    Ok((
        Round2 {
            requested: decode.inserted,
        },
        state,
    ))
}

/// Round 3: Bob ships the contents of the requested children. A request
/// for more children than Bob holds, or for one fingerprint twice, is
/// refused before anything is copied.
pub fn bob_round3<C: AsRef<[u64]>>(
    bob: &[C],
    state: &BobState,
    r2: &Round2,
) -> Result<Round3, SosError> {
    if r2.requested.len() > bob.len() {
        return Err(SosError::RequestTooLarge);
    }
    let mut slot: HashMap<u64, usize> = HashMap::with_capacity(r2.requested.len());
    for (i, &tfp) in r2.requested.iter().enumerate() {
        if slot.insert(tfp, i).is_some() {
            return Err(SosError::RepeatedRequest);
        }
    }
    let mut found: Vec<Option<usize>> = vec![None; r2.requested.len()];
    for (child, tfp) in state.tagged.iter().enumerate() {
        if let Some(&i) = slot.get(tfp) {
            found[i] = Some(child);
        }
    }
    let children = r2
        .requested
        .iter()
        .zip(found)
        .map(|(&tfp, child)| {
            let child = child.ok_or(SosError::UnknownFingerprint)?;
            Ok((tfp, bob[child].as_ref().to_vec()))
        })
        .collect::<Result<_, _>>()?;
    Ok(Round3 { children })
}

/// Finish: Alice checks round 3 and splices her multiset into Bob's.
///
/// Round 3 must carry exactly the requested fingerprints, each once, and
/// its children must hash to them: the `c` Bob-only copies of a child
/// Alice holds `a` copies of carry ranks `a..a + c`. Both checks cost
/// O(C log C) for C children, whatever the reply holds.
pub fn alice_finish<C: AsRef<[u64]>>(
    alice: &[C],
    state: &AliceState,
    r3: Round3,
    cfg: &SosConfig,
) -> Result<Splice, SosError> {
    debug_assert_eq!(alice.len(), state.tagged.len());
    let mut claimed: Vec<u64> = r3.children.iter().map(|&(tfp, _)| tfp).collect();
    let mut requested = state.bob_only.clone();
    claimed.sort_unstable();
    requested.sort_unstable();
    if claimed != requested || claimed.windows(2).any(|w| w[0] == w[1]) {
        return Err(SosError::UnrequestedContent);
    }
    let children: Vec<ChildSet> = r3.children.into_iter().map(|(_, c)| c).collect();
    let mut next_rank: HashMap<u64, u64> = HashMap::with_capacity(children.len());
    let mut implied: Vec<u64> = fingerprints(cfg.seed, &children)
        .into_iter()
        .map(|fp| {
            let rank = next_rank
                .entry(fp)
                .or_insert_with(|| state.copies.get(&fp).copied().unwrap_or(0));
            *rank += 1;
            tag(cfg.seed, fp, *rank - 1)
        })
        .collect();
    implied.sort_unstable();
    if implied != claimed {
        return Err(SosError::ContentVerificationFailed);
    }
    let alice_only: HashSet<u64> = state.alice_only.iter().copied().collect();
    Ok(Splice {
        kept: state
            .tagged
            .iter()
            .map(|t| !alice_only.contains(t))
            .collect(),
        bob_only: children,
    })
}

/// Runs the full 3-round protocol and accounts communication.
///
/// The per-round bit counts are *measured*: each round message is encoded
/// through [`crate::wire`] and the encoder's exact bit length is reported,
/// so the accounting cannot drift from the bytes a transport would carry.
pub fn reconcile(
    alice: &[ChildSet],
    bob: &[ChildSet],
    cfg: &SosConfig,
) -> Result<SosOutcome, SosError> {
    let (r1, bob_state) = bob_round1(bob, cfg);
    let r1_bits = crate::wire::round1_wire_bits(&r1);
    let (r2, state) = alice_round2(alice, &r1, cfg)?;
    let r2_bits = crate::wire::round2_wire_bits(&r2);
    let r3 = bob_round3(bob, &bob_state, &r2)?;
    let r3_bits = crate::wire::round3_wire_bits(&r3, cfg);
    let splice = alice_finish(alice, &state, r3, cfg)?;
    Ok(SosOutcome {
        bob_multiset: splice.multiset(alice),
        bob_only_children: splice.bob_only,
        alice_only_count: state.alice_only.len(),
        round_bits: (r1_bits, r2_bits, r3_bits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(fp_cells: usize) -> SosConfig {
        SosConfig {
            fp_cells,
            q: 3,
            seed: 0xABCD,
            entry_bits: 32,
        }
    }

    fn sorted(mut v: Vec<ChildSet>) -> Vec<ChildSet> {
        v.sort();
        v
    }

    #[test]
    fn identical_multisets_need_no_round3_content() {
        let sets: Vec<ChildSet> = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let out = reconcile(&sets, &sets, &cfg(30)).unwrap();
        assert_eq!(sorted(out.bob_multiset), sorted(sets));
        assert!(out.bob_only_children.is_empty());
        assert_eq!(out.alice_only_count, 0);
    }

    #[test]
    fn bob_only_child_is_recovered() {
        let alice: Vec<ChildSet> = vec![vec![1, 2], vec![3, 4]];
        let bob: Vec<ChildSet> = vec![vec![1, 2], vec![3, 4], vec![9, 9]];
        let out = reconcile(&alice, &bob, &cfg(30)).unwrap();
        assert_eq!(sorted(out.bob_multiset), sorted(bob));
        assert_eq!(out.bob_only_children, vec![vec![9, 9]]);
    }

    #[test]
    fn alice_only_child_is_dropped() {
        let alice: Vec<ChildSet> = vec![vec![1, 2], vec![7, 7]];
        let bob: Vec<ChildSet> = vec![vec![1, 2]];
        let out = reconcile(&alice, &bob, &cfg(30)).unwrap();
        assert_eq!(sorted(out.bob_multiset), sorted(bob));
        assert_eq!(out.alice_only_count, 1);
    }

    #[test]
    fn multiset_multiplicities_are_respected() {
        // Alice has 1 copy of [5,5], Bob has 3.
        let alice: Vec<ChildSet> = vec![vec![5, 5], vec![1, 1]];
        let bob: Vec<ChildSet> = vec![vec![5, 5], vec![5, 5], vec![5, 5], vec![1, 1]];
        let out = reconcile(&alice, &bob, &cfg(40)).unwrap();
        assert_eq!(sorted(out.bob_multiset), sorted(bob));
        assert_eq!(out.bob_only_children.len(), 2); // two extra copies shipped
    }

    #[test]
    fn multiplicity_decrease() {
        let alice: Vec<ChildSet> = vec![vec![5, 5], vec![5, 5], vec![1, 1]];
        let bob: Vec<ChildSet> = vec![vec![5, 5], vec![1, 1]];
        let out = reconcile(&alice, &bob, &cfg(40)).unwrap();
        assert_eq!(sorted(out.bob_multiset), sorted(bob));
        assert_eq!(out.alice_only_count, 1);
    }

    #[test]
    fn communication_scales_with_differences_not_size() {
        // Same number of differences, 10× the parent size → round-3 bits
        // unchanged; round-1 bits depend only on fp_cells.
        let shared_small: Vec<ChildSet> = (0..20u64).map(|i| vec![i, i + 1]).collect();
        let shared_big: Vec<ChildSet> = (0..200u64).map(|i| vec![i, i + 1]).collect();
        let extra: Vec<ChildSet> = vec![vec![999, 999], vec![888, 888]];

        let mk = |shared: &[ChildSet]| {
            let alice = shared.to_vec();
            let mut bob = shared.to_vec();
            bob.extend(extra.clone());
            reconcile(&alice, &bob, &cfg(30)).unwrap()
        };
        let small = mk(&shared_small);
        let big = mk(&shared_big);
        assert_eq!(small.round_bits.2, big.round_bits.2);
        // Round 1 grows only by the log-factor in the per-cell count width.
        let ratio = big.round_bits.0 as f64 / small.round_bits.0 as f64;
        assert!(
            ratio < 1.15,
            "round-1 bits grew superlogarithmically: {ratio}"
        );
    }

    #[test]
    fn overloaded_fingerprint_table_reports_failure() {
        let alice: Vec<ChildSet> = Vec::new();
        let bob: Vec<ChildSet> = (0..500u64).map(|i| vec![i]).collect();
        let err = reconcile(&alice, &bob, &cfg(24)).unwrap_err();
        assert_eq!(err, SosError::FingerprintDecodeFailed);
    }

    #[test]
    fn estimate_fp_cells_has_floor_and_slack() {
        assert!(estimate_fp_cells(0) >= 24);
        assert!(estimate_fp_cells(100) >= 250);
    }

    #[test]
    fn disjoint_multisets_fully_replace() {
        let alice: Vec<ChildSet> = vec![vec![1], vec![2], vec![3]];
        let bob: Vec<ChildSet> = vec![vec![7], vec![8]];
        let out = reconcile(&alice, &bob, &cfg(40)).unwrap();
        assert_eq!(sorted(out.bob_multiset), sorted(bob));
        assert_eq!(out.alice_only_count, 3);
        assert_eq!(out.bob_only_children.len(), 2);
    }

    #[test]
    fn empty_sides() {
        let none: Vec<ChildSet> = Vec::new();
        let some: Vec<ChildSet> = vec![vec![1, 2, 3]];
        let out = reconcile(&none, &some, &cfg(24)).unwrap();
        assert_eq!(out.bob_multiset, some);
        let out = reconcile(&some, &none, &cfg(24)).unwrap();
        assert!(out.bob_multiset.is_empty());
        let out = reconcile(&none, &none, &cfg(24)).unwrap();
        assert!(out.bob_multiset.is_empty());
    }

    #[test]
    fn laned_fingerprints_equal_hash_words_per_child() {
        for count in [0usize, 1, 7, 8, 9, 17] {
            // Equal lengths, as the Gap keys have.
            let equal: Vec<ChildSet> = (0..count as u64).map(|i| vec![i, i * 3, 7]).collect();
            // Unequal lengths, including empty children, inside one block.
            let ragged: Vec<ChildSet> = (0..count as u64)
                .map(|i| (0..(i * 5) % 11).map(|j| i ^ (j << 8)).collect())
                .collect();
            for children in [equal, ragged] {
                let want: Vec<u64> = children
                    .iter()
                    .map(|c| hash_words(0xABCD ^ 0x50f5_0f50, c))
                    .collect();
                assert_eq!(fingerprints(0xABCD, &children), want, "{children:?}");
            }
        }
    }

    /// An honest exchange up to Bob's round-3 input.
    fn through_round2(alice: &[ChildSet], bob: &[ChildSet]) -> (BobState, Round2, AliceState) {
        let (r1, bob_state) = bob_round1(bob, &cfg(40));
        let (r2, alice_state) = alice_round2(alice, &r1, &cfg(40)).unwrap();
        (bob_state, r2, alice_state)
    }

    #[test]
    fn bob_refuses_a_request_for_more_children_than_he_holds() {
        let bob: Vec<ChildSet> = vec![vec![1], vec![2]];
        let (state, _, _) = through_round2(&[], &bob);
        let r2 = Round2 {
            requested: vec![state.tagged[0], state.tagged[1], 99],
        };
        assert_eq!(
            bob_round3(&bob, &state, &r2).unwrap_err(),
            SosError::RequestTooLarge
        );
    }

    #[test]
    fn bob_refuses_a_repeated_fingerprint() {
        let bob: Vec<ChildSet> = vec![vec![1], vec![2], vec![3]];
        let (state, _, _) = through_round2(&[], &bob);
        let r2 = Round2 {
            requested: vec![state.tagged[1], state.tagged[1]],
        };
        assert_eq!(
            bob_round3(&bob, &state, &r2).unwrap_err(),
            SosError::RepeatedRequest
        );
    }

    #[test]
    fn bob_refuses_an_unknown_fingerprint() {
        let bob: Vec<ChildSet> = vec![vec![1], vec![2]];
        let (state, _, _) = through_round2(&[], &bob);
        let r2 = Round2 {
            requested: vec![state.tagged[0], 12345],
        };
        assert_eq!(
            bob_round3(&bob, &state, &r2).unwrap_err(),
            SosError::UnknownFingerprint
        );
    }

    /// Alice's finish on a round 3 whose children are edited by `edit`.
    fn finish_with(edit: impl FnOnce(&mut Vec<(u64, ChildSet)>)) -> Result<Splice, SosError> {
        let alice: Vec<ChildSet> = vec![vec![1, 2], vec![3, 4]];
        let bob: Vec<ChildSet> = vec![vec![1, 2], vec![5, 6], vec![7, 8], vec![7, 8]];
        let (bob_state, r2, alice_state) = through_round2(&alice, &bob);
        let mut r3 = bob_round3(&bob, &bob_state, &r2).unwrap();
        assert_eq!(r3.children.len(), 3);
        edit(&mut r3.children);
        alice_finish(&alice, &alice_state, r3, &cfg(40))
    }

    #[test]
    fn alice_accepts_the_requested_children_in_any_order() {
        let splice = finish_with(|c| c.reverse()).unwrap();
        assert_eq!(splice.kept, vec![true, false]);
        assert_eq!(splice.bob_only.len(), 3);
    }

    #[test]
    fn alice_refuses_an_unrequested_fingerprint() {
        let err = finish_with(|c| c[0].0 ^= 1).unwrap_err();
        assert_eq!(err, SosError::UnrequestedContent);
    }

    #[test]
    fn alice_refuses_a_repeated_fingerprint() {
        let err = finish_with(|c| c.push(c[0].clone())).unwrap_err();
        assert_eq!(err, SosError::UnrequestedContent);
        // Same count as requested, one fingerprint twice.
        let err = finish_with(|c| c[1] = c[0].clone()).unwrap_err();
        assert_eq!(err, SosError::UnrequestedContent);
    }

    #[test]
    fn alice_refuses_a_missing_child() {
        let err = finish_with(|c| {
            c.pop();
        })
        .unwrap_err();
        assert_eq!(err, SosError::UnrequestedContent);
    }

    #[test]
    fn alice_refuses_content_that_does_not_hash_to_its_fingerprint() {
        let err = finish_with(|c| c[0].1[0] ^= 1).unwrap_err();
        assert_eq!(err, SosError::ContentVerificationFailed);
        // Both copies of a duplicate must carry distinct ranks: swapping
        // one copy's content for another Bob-only child's is caught.
        let err = finish_with(|c| {
            let other = c.iter().position(|(_, x)| *x == vec![5, 6]).unwrap();
            let dup = c.iter().position(|(_, x)| *x == vec![7, 8]).unwrap();
            c[other].1 = c[dup].1.clone();
        })
        .unwrap_err();
        assert_eq!(err, SosError::ContentVerificationFailed);
    }

    #[test]
    fn large_sets_with_small_difference() {
        let shared: Vec<ChildSet> = (0..1000u64).map(|i| vec![i, i * 3, i * 7]).collect();
        let mut alice = shared.clone();
        alice.push(vec![1_000_001, 2, 3]);
        let mut bob = shared;
        bob.push(vec![2_000_001, 4, 5]);
        bob.push(vec![2_000_002, 6, 7]);
        let out = reconcile(&alice, &bob, &cfg(estimate_fp_cells(3))).unwrap();
        assert_eq!(sorted(out.bob_multiset), sorted(bob));
    }
}
