//! Executor equivalence at scale: ≥256 mixed-protocol sessions driven by
//! `rsr-core`'s `drive_batch` worker pool must produce transcripts that
//! match the serial in-memory driver **bit for bit** — same entries, same
//! senders, same labels, same measured sizes — and failures must align
//! session by session.

use robust_set_recon::core::executor::{drive_batch, DynSession, DEFAULT_STALL_TIMEOUT};
use robust_set_recon::core::{Party, Transcript};
use robust_set_recon::workloads::{TraceEntry, TraceProtocol};
use rsr_bench::experiments::net::Instance;

const SHARDS: usize = 4;
const SESSIONS: usize = 256;

/// A 256-session grid cycling all three protocols over varied sizes and
/// seeds; kept small per instance so the whole matrix stays test-budget
/// friendly in debug builds.
fn entries() -> Vec<TraceEntry> {
    (0..SESSIONS)
        .map(|i| {
            let seed = 0x51ab_0000 + i as u64 * 7919;
            match i % 3 {
                0 => TraceEntry {
                    protocol: TraceProtocol::Emd,
                    n: 16 + i % 24,
                    k: 1 + i % 3,
                    dim: 16 + 8 * (i % 3),
                    seed,
                },
                1 => TraceEntry {
                    protocol: TraceProtocol::ScaledEmd,
                    n: 16 + i % 20,
                    k: 1 + i % 2,
                    dim: 2,
                    seed,
                },
                _ => TraceEntry {
                    protocol: TraceProtocol::Gap,
                    n: 24 + i % 24,
                    k: 1 + i % 3,
                    dim: 128,
                    seed,
                },
            }
        })
        .collect()
}

/// `(sender, label, bits)` triples — the full observable transcript.
fn observable(t: &Transcript) -> Vec<(Option<Party>, String, u64)> {
    t.entries_with_sender()
        .map(|(s, l, b)| (s, l.to_owned(), b))
        .collect()
}

#[test]
fn executor_matches_serial_bit_for_bit_over_256_mixed_sessions() {
    let instances: Vec<Instance> = entries().iter().map(Instance::build).collect();

    let serial: Vec<Result<Transcript, String>> = instances
        .iter()
        .map(Instance::run_in_memory_transcript)
        .collect();

    let pairs: Vec<(Box<dyn DynSession + '_>, Box<dyn DynSession + '_>)> = instances
        .iter()
        .map(|inst| (inst.alice_session(), inst.bob_session()))
        .collect();
    let outcomes = drive_batch(SHARDS, 0x51ab, pairs, DEFAULT_STALL_TIMEOUT);

    assert_eq!(outcomes.len(), serial.len());
    let mut completed = 0;
    for (i, (mem, out)) in serial.iter().zip(&outcomes).enumerate() {
        match mem {
            Ok(t) => {
                assert!(
                    out.is_ok(),
                    "session {i}: serial ok but executor failed: {:?}",
                    out.error
                );
                assert_eq!(
                    observable(t),
                    observable(&out.transcript),
                    "session {i}: transcripts diverge"
                );
                completed += 1;
            }
            Err(_) => assert!(!out.is_ok(), "session {i}: serial failed but executor ok"),
        }
    }
    // The grid is sized so the vast majority of instances reconcile; a
    // mostly-failing matrix would vacuously pass the equality check.
    assert!(
        completed >= SESSIONS * 9 / 10,
        "only {completed}/{SESSIONS} sessions completed"
    );
}
