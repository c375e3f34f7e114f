//! The churn trace `serve_churn` replays: per round, the keys one
//! resident session inserts and deletes, chosen so that every round
//! reconciles.
//!
//! A continuous round fails when its delta table does not decode, and a
//! failed round leaves its churn to pile onto the next one, which then
//! fails too. With the default sizing (`ContinuousConfig::for_churn`)
//! one 32-key round in 41 fails (200,000 trials), and no affordable
//! table makes that negligible over the 25,000 rounds of a segment:
//! with 8× the cells it is still one round in 13,000. So the trace is
//! drawn against an in-process twin of the session (the same twin gives
//! the reference transcript bits): a round whose draw does not settle on
//! the twin is drawn again, and the share of first draws that settled is
//! what `success_share` reports. The served sessions then replay the
//! accepted draws, and must settle every one.

use crate::plan::{self, splitmix64, WorkloadKind, CHURN_BASE_KEYS, CHURN_RATE, MAX_ATTEMPTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_core::continuous::{shared, AliceRound, BobRound, ContinuousConfig, ContinuousParty};
use rsr_core::{drive_in_memory, Party, SharedParty};
use rsr_net::{SessionSpec, PROTO_CONT};
use rsr_workloads::{base_set, sample_churn, ChurnSpec};
use std::sync::MutexGuard;

/// All churn lands on the client (skew 1.0): the server party changes
/// only by settling.
pub fn churn_spec() -> ChurnSpec {
    ChurnSpec {
        skew: 1.0,
        ..ChurnSpec::steady(CHURN_RATE)
    }
}

/// The wire spec of resident session `index`: base-set size, churn
/// bound, and the seed both endpoints derive their party from.
pub fn session_spec(run_seed: u64, index: usize) -> SessionSpec {
    SessionSpec {
        protocol: PROTO_CONT,
        n: CHURN_BASE_KEYS as u32,
        k: churn_spec().peak_round_ops() as u32,
        dim: 0,
        seed: plan::derive_seed(run_seed, WorkloadKind::ServeChurn, index as u64, 0),
        continuous: false,
    }
}

/// One endpoint's resident party, from the wire spec alone (the recipe
/// of the repo's `exp_churn`): client and server start from identical
/// sets and identical table coins.
pub fn party_of(spec: &SessionSpec) -> ContinuousParty {
    let cfg = ContinuousConfig::for_churn(spec.k as usize, spec.seed ^ 0xc047_1a61);
    ContinuousParty::new(cfg, base_set(spec.n as usize, spec.seed))
}

pub fn lock(party: &SharedParty) -> MutexGuard<'_, ContinuousParty> {
    party.lock().unwrap_or_else(|e| e.into_inner())
}

/// The keys one round changes on the client.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundKeys {
    pub inserts: Vec<u64>,
    pub deletes: Vec<u64>,
}

impl RoundKeys {
    pub fn ops(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Streams the round's churn into a party.
    pub fn apply(&self, party: &SharedParty) -> Result<(), String> {
        let mut p = lock(party);
        for &key in &self.inserts {
            p.insert(key).map_err(|e| e.to_string())?;
        }
        for &key in &self.deletes {
            p.remove(key).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Takes the round's churn back out (after a failed draw).
    fn undo(&self, party: &SharedParty) -> Result<(), String> {
        let mut p = lock(party);
        for &key in &self.inserts {
            p.remove(key).map_err(|e| e.to_string())?;
        }
        for &key in &self.deletes {
            p.insert(key).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// One in-process round of a resident pair; the transcript's bits.
pub fn drive_round(alice: &SharedParty, bob: &SharedParty) -> Result<u64, String> {
    let mut a = AliceRound::begin(alice).map_err(|e| e.to_string())?;
    let mut b = BobRound::begin(bob).map_err(|e| e.to_string())?;
    drive_in_memory(Party::Alice, &mut a, &mut b)
        .map(|t| t.total_bits())
        .map_err(|e| e.to_string())
}

/// The accepted trace of one resident session.
pub struct ChurnTrace {
    pub spec: SessionSpec,
    /// The base set, in ascending order.
    pub base: Vec<u64>,
    pub rounds: Vec<RoundKeys>,
    /// Transcript bits of each round on the twin.
    pub reference_bits: Vec<u64>,
    /// Rounds whose first draw settled.
    pub first_try: usize,
}

/// Draws round `round`'s keys: fresh random inserts, and deletes picked
/// from the base set. A union settle gives a deleted key back (the
/// server still holds it), so every base key is present again at the
/// next round's start and the draw needs no view of the live set — the
/// crate's `RoundChurn::alice_keys` copies the whole set per round,
/// which would dwarf a 32-key round itself.
fn draw(seed: u64, inserts: usize, deletes: usize, base: &[u64]) -> RoundKeys {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = RoundKeys {
        inserts: (0..inserts).map(|_| rng.gen()).collect(),
        deletes: Vec::with_capacity(deletes),
    };
    while keys.deletes.len() < deletes.min(base.len()) {
        let key = base[rng.gen_range(0..base.len())];
        if !keys.deletes.contains(&key) {
            keys.deletes.push(key);
        }
    }
    keys
}

/// Materializes `rounds` rounds for session `index`, each the first draw
/// that settles on an in-process twin of the session.
pub fn materialize(run_seed: u64, index: usize, rounds: usize) -> Result<ChurnTrace, String> {
    let spec = session_spec(run_seed, index);
    let (alice, bob) = (shared(party_of(&spec)), shared(party_of(&spec)));
    let base: Vec<u64> = lock(&alice).set().iter().copied().collect();
    drive_round(&alice, &bob).map_err(|e| format!("twin round 0: {e}"))?;
    let counts = sample_churn(&churn_spec(), rounds, spec.seed);
    let mut trace = ChurnTrace {
        spec,
        base,
        rounds: Vec::with_capacity(rounds),
        reference_bits: Vec::with_capacity(rounds),
        first_try: 0,
    };
    for (r, count) in counts.iter().enumerate() {
        let accepted = (0..MAX_ATTEMPTS).find_map(|attempt| {
            let seed = splitmix64(count.seed ^ attempt.wrapping_mul(0x9e6c_63d0_876a_9a99));
            let keys = draw(seed, count.a_inserts, count.a_deletes, &trace.base);
            // A random 64-bit key that is already present (it never is)
            // would make `undo` remove a key the draw did not add.
            if keys.inserts.iter().any(|k| lock(&alice).set().contains(k)) {
                return None;
            }
            keys.apply(&alice).ok()?;
            match drive_round(&alice, &bob) {
                Ok(bits) => Some((attempt, keys, bits)),
                Err(_) => {
                    keys.undo(&alice).ok()?;
                    None
                }
            }
        });
        let (attempt, keys, bits) = accepted
            .ok_or_else(|| format!("session {index} round {r}: no draw settled on the twin"))?;
        trace.first_try += usize::from(attempt == 0);
        trace.rounds.push(keys);
        trace.reference_bits.push(bits);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_distinct_and_sized() {
        let base: Vec<u64> = (0..100).collect();
        let a = draw(5, 24, 8, &base);
        assert_eq!(a, draw(5, 24, 8, &base));
        assert_ne!(a, draw(6, 24, 8, &base));
        assert_eq!((a.inserts.len(), a.deletes.len(), a.ops()), (24, 8, 32));
        let mut d = a.deletes.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 8);
        assert!(a.deletes.iter().all(|k| base.contains(k)));
        // More deletes than the base holds: clamped, still terminates.
        assert_eq!(draw(5, 0, 9, &[1, 2, 3]).deletes.len(), 3);
    }

    #[test]
    fn traces_repeat_per_seed_and_settle_every_round_on_a_fresh_pair() {
        let a = materialize(11, 0, 24).unwrap();
        let again = materialize(11, 0, 24).unwrap();
        assert_eq!(a.rounds, again.rounds);
        assert_eq!(a.reference_bits, again.reference_bits);
        assert_ne!(a.rounds, materialize(12, 0, 24).unwrap().rounds);
        assert_ne!(a.rounds, materialize(11, 1, 24).unwrap().rounds);
        assert!(a.first_try <= a.rounds.len() && a.rounds.len() == 24);

        // Replaying the accepted draws on a fresh pair settles every
        // round with the recorded bits and ends at the expected union.
        let (alice, bob) = (shared(party_of(&a.spec)), shared(party_of(&a.spec)));
        drive_round(&alice, &bob).unwrap();
        for (keys, bits) in a.rounds.iter().zip(&a.reference_bits) {
            keys.apply(&alice).unwrap();
            assert_eq!(drive_round(&alice, &bob).unwrap(), *bits);
        }
        let inserted: usize = a.rounds.iter().map(|r| r.inserts.len()).sum();
        assert_eq!(lock(&alice).set().len(), a.base.len() + inserted);
        assert_eq!(lock(&alice).set(), lock(&bob).set());
    }
}
