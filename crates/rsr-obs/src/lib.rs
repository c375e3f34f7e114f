//! Process-wide observability for the reconciliation stack: an atomic
//! metrics registry, RAII span timers, a bounded post-mortem event
//! ring, and `/proc` resource sampling — std-only, allocation-free on
//! every hot path.
//!
//! The paper's contribution is a *cost model* (rounds, wire bits,
//! decode work); this crate makes the running system report those costs
//! live instead of only after the fact through transcripts. Three
//! layers instrument themselves against it: the `rsr-net` reactor
//! (poll iterations, wake reasons, wire bytes, write-buffer high-water
//! marks, connection lifecycle), the `rsr-core` executor (mailbox
//! depths, shard occupancy, open→first-frame→settle phase timings,
//! event-channel depth), and the session layer (frames and bits per
//! protocol, `on_frame` decode duration). `rsr-exp --metrics-out`
//! exports the whole registry as a flat JSON snapshot in the
//! `BENCH_*.json` key style; see docs/observability.md for the key
//! inventory and the overhead budget.
//!
//! # Design rules
//!
//! * **No dependencies.** This crate sits below `rsr-core`; anything it
//!   pulled in would be pulled into every crate in the workspace. Its
//!   histogram is therefore the canonical one — `rsr-bench` re-exports
//!   [`hist`] rather than the other way around.
//! * **Handles, not lookups.** Registry lookups take a mutex;
//!   instrumented layers resolve their handles once (a `OnceLock`
//!   struct per layer) and hot paths touch only relaxed atomics.
//! * **Off means off.** Recording is gated on [`enabled`]; a process
//!   that never calls [`set_enabled`]`(true)` pays one relaxed load per
//!   instrumentation site and nothing else. The bench harness measures
//!   exactly this on/off delta and holds it under 5%.
//! * **Bounded everything.** Histograms are fixed tables, the event
//!   ring overwrites its oldest entry, the [`Reporter`] is one thread
//!   for its whole lifetime — observability may not change the thread
//!   count or memory profile it is trying to observe.

pub mod hist;
pub mod procstat;
pub mod registry;
pub mod reporter;
pub mod ring;
pub mod span;

pub use hist::{AtomicHistogram, LogHistogram, DEFAULT_SUB_BITS, SPAN_SUB_BITS};
pub use registry::{global, Counter, Gauge, MetricsSnapshot, Registry};
pub use reporter::Reporter;
pub use ring::{global_ring, EventRing, RingEvent, DEFAULT_RING_CAPACITY};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumented layers should record. Defaults to **off**: a
/// library user who never opts in pays one relaxed load per
/// instrumentation site. One relaxed read — safe anywhere.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Flipping mid-run is safe
/// (counters simply stop or resume); bench code uses that to measure
/// its own instrumentation overhead.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_defaults_off_and_toggles() {
        // Other tests in this binary do not toggle the flag, so the
        // default is observable here.
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
    }
}
