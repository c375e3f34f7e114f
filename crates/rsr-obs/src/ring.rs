//! A bounded structured event ring for post-mortem dumps.
//!
//! Metrics aggregate; sometimes the question is "what were the last
//! things that *went wrong*?". The ring keeps the most recent
//! [`EventRing::capacity`] structured events — a static kind string plus
//! two caller-defined `u64` fields, stamped with microseconds since the
//! ring was created — overwriting the oldest on overflow and counting
//! what it dropped. Pushes take a mutex but no allocation; the ring is
//! for *rare* events (connection teardowns, idle teardowns, protocol
//! errors), not per-frame traffic.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default capacity of the [`global_ring`].
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingEvent {
    /// Microseconds from ring creation to the push.
    pub at_us: u64,
    /// Static event kind, e.g. `"conn_failed"`.
    pub kind: &'static str,
    /// First caller-defined field (conventionally an id).
    pub a: u64,
    /// Second caller-defined field (conventionally a detail code).
    pub b: u64,
}

/// A fixed-capacity, overwrite-oldest event buffer.
#[derive(Debug)]
pub struct EventRing {
    epoch: Instant,
    capacity: usize,
    events: Mutex<VecDeque<RingEvent>>,
    dropped: AtomicU64,
}

impl EventRing {
    /// An empty ring holding at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> EventRing {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        EventRing {
            epoch: Instant::now(),
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, kind: &'static str, a: u64, b: u64) {
        let event = RingEvent {
            at_us: self.epoch.elapsed().as_micros() as u64,
            kind,
            a,
            b,
        };
        let mut events = self.events.lock().expect("event ring poisoned");
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Events evicted to make room, ever.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the buffered events, oldest first.
    pub fn dump(&self) -> Vec<RingEvent> {
        self.events
            .lock()
            .expect("event ring poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Renders the buffer as one `kind a b @t_us` line per event —
    /// the post-mortem text a failure handler can print or write next
    /// to a metrics snapshot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("({dropped} earlier events dropped)\n"));
        }
        for e in self.dump() {
            out.push_str(&format!("{} a={} b={} @{}us\n", e.kind, e.a, e.b, e.at_us));
        }
        out
    }
}

/// The process-wide ring ([`DEFAULT_RING_CAPACITY`] events) the
/// instrumented layers push teardown/strand events into.
pub fn global_ring() -> &'static EventRing {
    static GLOBAL: OnceLock<EventRing> = OnceLock::new();
    GLOBAL.get_or_init(|| EventRing::new(DEFAULT_RING_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_most_recent_events() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push("ev", i, 100 + i);
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].a, 2);
        assert_eq!(dump[2].a, 4);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn timestamps_are_monotone() {
        let ring = EventRing::new(8);
        ring.push("first", 0, 0);
        ring.push("second", 1, 0);
        let dump = ring.dump();
        assert!(dump[0].at_us <= dump[1].at_us);
    }

    #[test]
    fn render_mentions_drops() {
        let ring = EventRing::new(1);
        ring.push("a", 1, 2);
        ring.push("b", 3, 4);
        let text = ring.render();
        assert!(text.contains("1 earlier events dropped"), "{text}");
        assert!(text.contains("b a=3 b=4"), "{text}");
    }
}
