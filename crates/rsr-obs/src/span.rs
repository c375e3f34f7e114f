//! RAII span timers: measure a scope, record microseconds on drop.
//!
//! A span is two `Instant` reads and one histogram record — no
//! allocation, no lock — so it is safe to leave in hot paths behind the
//! [`crate::enabled`] gate. The idiomatic call site is
//!
//! ```
//! let hist = rsr_obs::global().histogram("decode_us");
//! let _span = rsr_obs::enabled().then(|| rsr_obs::Span::new(&hist));
//! // ... timed work; the Option<Span> records when it drops ...
//! ```
//!
//! which costs a single relaxed load when metrics are off.

use crate::hist::AtomicHistogram;
use std::time::Instant;

/// Times from construction to drop and records the elapsed
/// **microseconds** into the given histogram.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a AtomicHistogram,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts the clock.
    pub fn new(hist: &'a AtomicHistogram) -> Span<'a> {
        Span {
            hist,
            start: Instant::now(),
        }
    }

    /// Stops the clock early and records — equivalent to dropping, but
    /// explicit at call sites where the scope end is not the right
    /// boundary.
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn span_records_on_drop() {
        let hist = AtomicHistogram::default();
        {
            let _span = Span::new(&hist);
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1);
        assert!(
            snap.max() >= 1_000,
            "recorded {} µs, expected ≥ 1ms",
            snap.max()
        );
    }

    #[test]
    fn finish_records_once() {
        let hist = AtomicHistogram::default();
        let span = Span::new(&hist);
        span.finish();
        assert_eq!(hist.snapshot().count(), 1);
    }

    #[test]
    fn optional_span_pattern_compiles_away() {
        let hist = AtomicHistogram::default();
        let enabled = false;
        {
            let _span = enabled.then(|| Span::new(&hist));
        }
        assert_eq!(hist.snapshot().count(), 0);
    }
}
