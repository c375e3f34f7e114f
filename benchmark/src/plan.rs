//! What each workload runs: the committed counts, the fixed instance
//! shapes, and how `--seed` becomes inputs.
//!
//! Work is a *count*, never a duration: `--seconds` scales the committed
//! counts below (which are sized for [`REFERENCE_SECONDS`] on the host
//! the benchmark was defined on), so parent and change do identical work
//! and nothing is calibrated at run time.
//!
//! Shapes (protocol, n, k, dimension) are fixed by the benchmark and do
//! not depend on the seed; the seed picks the points and the public
//! coins. Ten runs with ten seeds therefore measure ten different inputs
//! of one workload, not ten different workloads.

use rsr_workloads::trace::{sample_trace_with, TraceEntry, TraceMix, TraceProtocol};

/// The `--seconds` value the counts below are sized for.
pub const REFERENCE_SECONDS: u64 = 15;
/// Timed segments per run, each one full replay of the workload's
/// trace; every timing metric is the fastest of the replays.
pub const SEGMENTS: usize = 3;
/// Set-ups per run; `setup_s` is the fastest.
pub const SETUP_REPS: usize = 3;
/// The warm-up replays this share of a segment, inside set-up.
pub const WARMUP_DIVISOR: usize = 8;
/// The probe pass replays every this-many-th instance.
pub const PROBE_STRIDE: usize = 8;
/// Candidate draws tried per input before the run gives up.
pub const MAX_ATTEMPTS: u64 = 16;

/// `local_emd`, `serve_mix`: distinct instances, each replayed
/// [`ONESHOT_REPLAYS`] times per segment.
pub const LOCAL_EMD_INSTANCES: usize = 512;
pub const SERVE_MIX_INSTANCES: usize = 512;
pub const ONESHOT_REPLAYS: usize = 2;
/// `local_gap`: distinct instances, and replays of them per segment.
pub const LOCAL_GAP_INSTANCES: usize = 128;
pub const LOCAL_GAP_REPLAYS: usize = 8;
/// `serve_churn`: steps (one round on every resident session) per
/// segment. Every segment opens fresh sessions and replays the same
/// rounds, key for key.
pub const CHURN_STEPS: usize = 2048;
/// `serve_*`: connections, and sessions in flight on each.
pub const CONNS: usize = 2;
pub const PER_CONN: usize = 2;
pub const CHURN_PER_CONN: usize = 8;
/// `serve_churn`: base-set keys per session and mean churn per round.
pub const CHURN_BASE_KEYS: usize = 16_384;
pub const CHURN_RATE: usize = 32;
/// Seed of the fixed `serve_mix` shape draw.
const MIX_SHAPE_SEED: u64 = 0x5ea1_ed00;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    LocalEmd,
    LocalGap,
    ServeMix,
    ServeChurn,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::LocalEmd,
        WorkloadKind::LocalGap,
        WorkloadKind::ServeMix,
        WorkloadKind::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::LocalEmd => "local_emd",
            WorkloadKind::LocalGap => "local_gap",
            WorkloadKind::ServeMix => "serve_mix",
            WorkloadKind::ServeChurn => "serve_churn",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// A committed count scaled to the requested run length, at least 1.
pub fn scaled(base: usize, seconds: u64) -> usize {
    let n = (base as u64 * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS;
    n.max(1) as usize
}

/// `splitmix64`: the finalizer every seed derivation goes through.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of candidate `attempt` for input `index` of a workload.
pub fn derive_seed(run_seed: u64, kind: WorkloadKind, index: u64, attempt: u64) -> u64 {
    let mut h = splitmix64(run_seed ^ kind.tag().wrapping_mul(0xa076_1d64_78bd_642f));
    h = splitmix64(h ^ index);
    splitmix64(h ^ attempt.wrapping_mul(0xe703_7ed1_a0b4_28db))
}

/// The fixed shapes of a one-shot workload's distinct instances (their
/// `seed` field is 0: [`candidate`] fills it in).
pub fn shapes(kind: WorkloadKind, seconds: u64) -> Vec<TraceEntry> {
    let shape = |protocol, n, k, dim| TraceEntry {
        protocol,
        n,
        k,
        dim,
        seed: 0,
    };
    match kind {
        // Algorithm 1 on a 32-bit Hamming cube, n in 16..=32, k in 2..=4.
        WorkloadKind::LocalEmd => (0..scaled(LOCAL_EMD_INSTANCES, seconds))
            .map(|i| shape(TraceProtocol::Emd, 16 + (i * 7) % 17, 2 + i % 3, 32))
            .collect(),
        // Gap protocol on a 128-bit cube, n in 192..=320, k = 4.
        WorkloadKind::LocalGap => (0..LOCAL_GAP_INSTANCES)
            .map(|i| shape(TraceProtocol::Gap, 192 + (i * 37) % 129, 4, 128))
            .collect(),
        // The production-day blend (60/25/15 EMD/scaled-EMD/Gap, every
        // 16th session double size), drawn once from a fixed seed.
        WorkloadKind::ServeMix => {
            let per_step = CONNS * PER_CONN;
            let count = scaled(SERVE_MIX_INSTANCES, seconds).div_ceil(per_step) * per_step;
            sample_trace_with(count, MIX_SHAPE_SEED, &TraceMix::production_day())
                .into_iter()
                .map(|e| TraceEntry { seed: 0, ..e })
                .collect()
        }
        WorkloadKind::ServeChurn => Vec::new(),
    }
}

/// Candidate `attempt` for instance `index`: the shape with a seed.
pub fn candidate(
    kind: WorkloadKind,
    run_seed: u64,
    shape: &TraceEntry,
    index: usize,
    attempt: u64,
) -> TraceEntry {
    TraceEntry {
        seed: derive_seed(run_seed, kind, index as u64, attempt),
        ..*shape
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_candidates(kind: WorkloadKind, seed: u64) -> Vec<TraceEntry> {
        shapes(kind, REFERENCE_SECONDS)
            .iter()
            .enumerate()
            .map(|(i, s)| candidate(kind, seed, s, i, 0))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for kind in [
            WorkloadKind::LocalEmd,
            WorkloadKind::LocalGap,
            WorkloadKind::ServeMix,
        ] {
            let a = first_candidates(kind, 7);
            assert_eq!(a, first_candidates(kind, 7), "{}", kind.name());
            let b = first_candidates(kind, 8);
            assert_eq!(a.len(), b.len());
            // Shapes are fixed; every seed differs.
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.protocol, x.n, x.k, x.dim), (y.protocol, y.n, y.k, y.dim));
                assert_ne!(x.seed, y.seed);
            }
        }
    }

    #[test]
    fn seeds_differ_across_workloads_instances_and_attempts() {
        let base = derive_seed(1, WorkloadKind::LocalEmd, 0, 0);
        assert_ne!(base, derive_seed(1, WorkloadKind::LocalGap, 0, 0));
        assert_ne!(base, derive_seed(1, WorkloadKind::LocalEmd, 1, 0));
        assert_ne!(base, derive_seed(1, WorkloadKind::LocalEmd, 0, 1));
        assert_ne!(base, derive_seed(2, WorkloadKind::LocalEmd, 0, 0));
    }

    #[test]
    fn committed_counts_give_a_thousand_samples_per_segment() {
        let s = REFERENCE_SECONDS;
        assert!(shapes(WorkloadKind::LocalEmd, s).len() * ONESHOT_REPLAYS >= 1000);
        assert!(LOCAL_GAP_INSTANCES * scaled(LOCAL_GAP_REPLAYS, s) >= 1000);
        assert!(shapes(WorkloadKind::ServeMix, s).len() * ONESHOT_REPLAYS >= 1000);
        assert!(scaled(CHURN_STEPS, s) * CONNS * CHURN_PER_CONN >= 1000);
        assert_eq!(
            shapes(WorkloadKind::ServeMix, s).len() % (CONNS * PER_CONN),
            0
        );
    }

    #[test]
    fn counts_scale_with_seconds_and_never_reach_zero() {
        assert_eq!(scaled(512, REFERENCE_SECONDS), 512);
        assert_eq!(scaled(512, 2 * REFERENCE_SECONDS), 1024);
        assert_eq!(scaled(8, 1), 1);
        assert_eq!(scaled(1, 1), 1);
        assert_eq!(
            shapes(WorkloadKind::ServeMix, 1).len() % (CONNS * PER_CONN),
            0
        );
    }

    #[test]
    fn shapes_stay_in_their_stated_ranges() {
        for e in shapes(WorkloadKind::LocalEmd, REFERENCE_SECONDS) {
            assert!((16..=32).contains(&e.n) && (2..=4).contains(&e.k) && e.dim == 32);
        }
        for e in shapes(WorkloadKind::LocalGap, REFERENCE_SECONDS) {
            assert!((192..=320).contains(&e.n) && e.k == 4 && e.dim == 128);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("open_loop"), None);
    }
}
