//! Property tests for continuous reconciliation: after *any*
//! interleaving of inserts and deletes, round-r incremental
//! reconciliation must settle to exactly what a fresh one-shot session
//! over the current sets would produce — the invariant that makes the
//! incremental mode a pure optimization, never a semantic change.

use proptest::prelude::*;
use rsr_core::continuous::{ContinuousConfig, ContinuousParty, ContinuousSession, SharedParty};
use rsr_core::set_recon::exact_reconcile;
use rsr_iblt::iblt::Iblt;
use rsr_metric::{MetricSpace, Point};
use std::collections::BTreeSet;

/// Keys live in a small universe so random deletes actually hit and
/// random inserts actually collide across the parties.
const UNIVERSE: u64 = 64;

fn current_sets(s: &ContinuousSession) -> (BTreeSet<u64>, BTreeSet<u64>) {
    let a = s.alice().lock().unwrap().set().clone();
    let b = s.bob().lock().unwrap().set().clone();
    (a, b)
}

/// The reference: a brand-new pair built from the raw current sets,
/// reconciled in one shot (its first round covers the full difference).
fn one_shot_settle(cfg: ContinuousConfig, a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> BTreeSet<u64> {
    let mut fresh = ContinuousSession::new(
        ContinuousParty::new(cfg, a.iter().copied()),
        ContinuousParty::new(cfg, b.iter().copied()),
    );
    fresh.drive_round().expect("one-shot reference settles");
    let (fa, fb) = current_sets(&fresh);
    assert_eq!(fa, fb, "one-shot reference diverged");
    fa
}

/// One streamed mutation: which party (0/1), insert-or-delete (0/1),
/// which key. The flags are `u8` because the compat `proptest` strategy
/// set has ranges but no `any::<bool>()`.
type Op = (u8, u8, u64);

fn apply_ops(s: &ContinuousSession, ops: &[Op]) {
    for &(on_alice, is_insert, key) in ops {
        let party = if on_alice != 0 { s.alice() } else { s.bob() };
        let mut p = party.lock().unwrap();
        if is_insert != 0 {
            p.insert(key).expect("mutable between rounds");
        } else {
            p.remove(key).expect("mutable between rounds");
        }
    }
}

/// The reference a party's journal is checked against: a resident table
/// fed every change to the party's set, and its snapshot at the last
/// settle (empty before the first settle and after a resync).
struct ResidentTable {
    cfg: ContinuousConfig,
    table: Iblt,
    snapshot: Iblt,
}

impl ResidentTable {
    fn new(cfg: ContinuousConfig, initial: &BTreeSet<u64>) -> ResidentTable {
        let mut table = Iblt::new(cfg.cells, cfg.q, cfg.seed);
        initial.iter().for_each(|&key| table.insert(key));
        ResidentTable {
            cfg,
            table,
            snapshot: Iblt::new(cfg.cells, cfg.q, cfg.seed),
        }
    }

    /// Mirrors one mutation that changed the party's set.
    fn apply(&mut self, is_insert: bool, key: u64) {
        if is_insert {
            self.table.insert(key);
        } else {
            self.table.delete(key);
        }
    }

    fn delta_bytes(&self) -> Vec<u8> {
        self.table
            .delta_since(&self.snapshot)
            .to_bytes(self.cfg.n_bound)
    }

    /// Mirrors a settle: the peer-only keys join the table, then the
    /// snapshot is retaken.
    fn settle(&mut self, peer_only: impl Iterator<Item = u64>) {
        peer_only.for_each(|key| self.table.insert(key));
        self.snapshot = self.table.snapshot();
    }

    fn resync(&mut self) {
        self.snapshot = Iblt::new(self.cfg.cells, self.cfg.q, self.cfg.seed);
    }
}

fn party_delta_bytes(party: &SharedParty) -> Vec<u8> {
    let p = party.lock().unwrap();
    p.delta().to_bytes(p.config().n_bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The journal builds the same delta, cell for cell and byte for
    /// byte, as the resident table and snapshot it replaced — over random
    /// initial sets, random inserts and removes (including ones that
    /// undo a journalled change), several settled rounds and one resync.
    #[test]
    fn journal_delta_equals_resident_table_delta(
        a_init in prop::collection::btree_set(0u64..UNIVERSE, 0..24),
        b_init in prop::collection::btree_set(0u64..UNIVERSE, 0..24),
        churn in prop::collection::vec(
            prop::collection::vec((0u8..2, 0u8..2, 0u64..UNIVERSE), 0..16),
            2..6,
        ),
        resync_at in 1usize..6,
        seed in 0u64..40,
    ) {
        let cfg = ContinuousConfig::for_churn(UNIVERSE as usize, seed);
        let mut s = ContinuousSession::new(
            ContinuousParty::new(cfg, a_init.iter().copied()),
            ContinuousParty::new(cfg, b_init.iter().copied()),
        );
        let mut reference = [ResidentTable::new(cfg, &a_init), ResidentTable::new(cfg, &b_init)];
        let parties = [s.alice(), s.bob()];
        let mut settled = 0;
        for (r, ops) in churn.iter().enumerate() {
            if r == resync_at {
                for (party, model) in parties.iter().zip(&mut reference) {
                    party.lock().unwrap().resync().expect("resync between rounds");
                    model.resync();
                }
            }
            for &(on_alice, is_insert, key) in ops {
                let side = usize::from(on_alice == 0);
                let mut p = parties[side].lock().unwrap();
                let changed = if is_insert != 0 { p.insert(key) } else { p.remove(key) };
                if changed.expect("mutable between rounds") {
                    reference[side].apply(is_insert != 0, key);
                }
            }
            for (party, model) in parties.iter().zip(&reference) {
                prop_assert_eq!(
                    party_delta_bytes(party),
                    model.delta_bytes(),
                    "round {}: journal delta differs from the resident table's",
                    r
                );
            }
            let before = current_sets(&s);
            if s.drive_round().is_err() {
                // A round that does not peel mutates nothing; the next
                // round's delta still has to match.
                prop_assert_eq!(current_sets(&s), before);
                continue;
            }
            settled += 1;
            let after = current_sets(&s);
            reference[0].settle(after.0.difference(&before.0).copied());
            reference[1].settle(after.1.difference(&before.1).copied());
        }
        prop_assert!(settled > 0, "no round settled");
    }

    /// The headline property: whatever churn lands between rounds, every
    /// incremental round settles both parties to the same set a fresh
    /// one-shot session over the current raw sets settles to (the union),
    /// and the independent exact-reconciliation protocol agrees where its
    /// difference bound applies.
    #[test]
    fn incremental_rounds_match_a_fresh_one_shot(
        a_init in prop::collection::btree_set(0u64..UNIVERSE, 0..24),
        b_init in prop::collection::btree_set(0u64..UNIVERSE, 0..24),
        churn in prop::collection::vec(
            prop::collection::vec((0u8..2, 0u8..2, 0u64..UNIVERSE), 0..12),
            1..4,
        ),
        seed in 0u64..40,
    ) {
        // The bound covers the whole universe, so every round decodes.
        let cfg = ContinuousConfig::for_churn(UNIVERSE as usize, seed);
        let mut s = ContinuousSession::new(
            ContinuousParty::new(cfg, a_init.iter().copied()),
            ContinuousParty::new(cfg, b_init.iter().copied()),
        );
        for (r, ops) in churn.iter().enumerate() {
            apply_ops(&s, ops);
            let (a_raw, b_raw) = current_sets(&s);
            let expect: BTreeSet<u64> = a_raw.union(&b_raw).copied().collect();

            s.drive_round().unwrap_or_else(|e| panic!("round {r}: {e}"));
            let (a_settled, b_settled) = current_sets(&s);
            prop_assert_eq!(&a_settled, &b_settled, "round {} diverged", r);
            prop_assert_eq!(&a_settled, &expect, "round {} is not the union", r);

            // A fresh one-shot over the same raw sets lands identically.
            let reference = one_shot_settle(cfg, &a_raw, &b_raw);
            prop_assert_eq!(&a_settled, &reference, "round {} != one-shot", r);

            // Cross-check against the exact set-reconciliation protocol
            // (keys as 1-d points): union = Bob's set + Alice-only.
            let space = MetricSpace::l1(UNIVERSE as i64, 1);
            let pts = |set: &BTreeSet<u64>| -> Vec<Point> {
                set.iter().map(|&k| Point::new(vec![k as i64])).collect()
            };
            let out = exact_reconcile(
                &space,
                &pts(&a_raw),
                &pts(&b_raw),
                UNIVERSE as usize,
                seed ^ 0xc0_5e11,
            )
            .expect("difference fits the bound");
            let mut via_exact = b_raw.clone();
            via_exact.extend(out.alice_only.iter().map(|p| p.coords()[0] as u64));
            prop_assert_eq!(&a_settled, &via_exact, "round {} != exact recon", r);
        }
        prop_assert_eq!(s.rounds(), churn.len());
    }

    /// Failure atomicity: a round may fail (churn past the table bound),
    /// but then *nothing* moves — both sets and both round counters stay
    /// exactly as they were, and the pair remains drivable.
    #[test]
    fn failed_rounds_never_mutate(
        base in prop::collection::btree_set(0u64..UNIVERSE, 0..16),
        flood in prop::collection::btree_set(1000u64..5000, 20..60),
        seed in 0u64..40,
    ) {
        let cfg = ContinuousConfig::for_churn(4, seed); // deliberately tiny
        let mut s = ContinuousSession::new(
            ContinuousParty::new(cfg, base.iter().copied()),
            ContinuousParty::new(cfg, base.iter().copied()),
        );
        s.drive_round().expect("equal sets settle in any table");
        {
            let alice = s.alice();
            let mut a = alice.lock().unwrap();
            for &k in &flood {
                a.insert(k).unwrap();
            }
        }
        let before = current_sets(&s);
        match s.drive_round() {
            // A 20+-key difference cannot peel 8 cells, but stay honest
            // in case a pathological layout ever does.
            Ok(_) => {
                let (a, b) = current_sets(&s);
                prop_assert_eq!(a, b);
            }
            Err(_) => {
                prop_assert_eq!(current_sets(&s), before);
                let alice = s.alice();
                let bob = s.bob();
                prop_assert_eq!(alice.lock().unwrap().rounds_settled(), 1);
                prop_assert_eq!(bob.lock().unwrap().rounds_settled(), 1);
                prop_assert_eq!(alice.lock().unwrap().rounds_failed() > 0, true);
            }
        }
    }
}
