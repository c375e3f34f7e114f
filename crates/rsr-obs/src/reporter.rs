//! The periodic reporter: one bounded background thread that delivers a
//! fresh [`MetricsSnapshot`] to a callback at a fixed interval.
//!
//! Exactly **one** thread per [`Reporter`], started eagerly and joined
//! on drop — never a thread per tick — so a process holding a reporter
//! adds a constant `+1` to its thread count for the reporter's whole
//! lifetime. That constant-ness is what keeps the bench harness's
//! zero-tolerance `_threads` gate honest when `rsr-exp --metrics-out`
//! turns reporting on: the peak thread count stays flat across sweep
//! cells, just one higher than a run without the reporter.

use crate::registry::{global, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running periodic reporter. Dropping it stops the thread (after at
/// most one more interval) and delivers one final snapshot.
#[derive(Debug)]
pub struct Reporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Reporter {
    /// Starts a reporter over the [`global`] registry:
    /// every `interval`, `deliver` receives a fresh snapshot on the
    /// reporter thread. A final snapshot is delivered on shutdown, so
    /// short-lived processes still report once.
    pub fn start(
        interval: Duration,
        mut deliver: impl FnMut(&MetricsSnapshot) + Send + 'static,
    ) -> Reporter {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Sleep in short slices so drop-triggered shutdown does
                // not stall a closing process for a whole interval.
                let slice = interval.min(Duration::from_millis(50));
                let mut elapsed = Duration::ZERO;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed >= interval {
                        elapsed = Duration::ZERO;
                        deliver(&global().snapshot());
                    }
                }
                deliver(&global().snapshot());
            })
        };
        Reporter {
            stop,
            handle: Some(handle),
        }
    }

    /// Starts a reporter that rewrites `path` with the latest snapshot's
    /// JSON every `interval` (and once at shutdown). Write errors are
    /// ignored after the first successful ones — reporting must never
    /// take down the process it observes.
    pub fn to_file(path: std::path::PathBuf, interval: Duration) -> Reporter {
        Reporter::start(interval, move |snap| {
            let _ = std::fs::write(&path, snap.to_json());
        })
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn reporter_delivers_and_stops() {
        let seen = Arc::new(Mutex::new(0usize));
        {
            let seen = Arc::clone(&seen);
            let reporter = Reporter::start(Duration::from_millis(10), move |_snap| {
                *seen.lock().unwrap() += 1;
            });
            std::thread::sleep(Duration::from_millis(40));
            drop(reporter);
        }
        let delivered = *seen.lock().unwrap();
        // At least one periodic tick plus the final snapshot.
        assert!(delivered >= 2, "only {delivered} deliveries");
    }

    #[test]
    fn file_reporter_writes_snapshot_json() {
        let path =
            std::env::temp_dir().join(format!("rsr_obs_reporter_test_{}.json", std::process::id()));
        crate::global().counter("reporter_test_marker").inc();
        {
            let _reporter = Reporter::to_file(path.clone(), Duration::from_millis(5));
            std::thread::sleep(Duration::from_millis(20));
        }
        let text = std::fs::read_to_string(&path).expect("snapshot file written");
        assert!(text.contains("reporter_test_marker"), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
