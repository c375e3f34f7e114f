//! The process-wide metrics registry: named counters, gauges, and
//! concurrent histograms behind `Arc` handles.
//!
//! Registration is the only locked operation — an instrumented layer
//! looks its handles up **once** (typically into a `OnceLock` struct)
//! and every subsequent record is one or two relaxed atomic operations
//! on the handle itself. That keeps the hot-path cost of a counter at
//! roughly a cache-line touch, which is what makes the ≤ 5% overhead
//! budget in `rsr-exp net` achievable (see docs/observability.md).
//!
//! Recording is additionally gated by a global enable flag
//! ([`crate::enabled`]): the registry always exists, but layers skip
//! their record calls when metrics are off, so the *disabled* cost is a
//! single relaxed load per instrumentation site.
//!
//! [`Registry::snapshot`] flattens everything into a
//! [`MetricsSnapshot`]: sorted `key → f64` pairs in the same one-line
//! key style as the `BENCH_*.json` files (histograms expand to
//! `_count/_mean/_p50/_p90/_p99/_max` keys), serialized by
//! [`MetricsSnapshot::to_json`] in the identical flat-object format so
//! the bench tooling can parse either kind of file.

use crate::hist::{AtomicHistogram, LogHistogram, SPAN_SUB_BITS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing `u64` metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, live connections) that
/// also tracks its **high-water mark** — snapshots report both the
/// current value and the peak, because for a queue the peak is usually
/// the interesting number.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    hwm: AtomicI64,
}

impl Gauge {
    /// Adds `n` (which may be negative) and folds the new level into the
    /// high-water mark.
    pub fn add(&self, n: i64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        if n > 0 {
            self.hwm.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Raises the gauge to `level` if above the current value — for
    /// levels sampled externally (a buffer length) rather than tracked
    /// by inc/dec. Updates the high-water mark, never lowers the value.
    pub fn set_max(&self, level: i64) {
        self.value.fetch_max(level, Ordering::Relaxed);
        self.hwm.fetch_max(level, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever observed.
    pub fn hwm(&self) -> i64 {
        self.hwm.load(Ordering::Relaxed)
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Most callers want the process-wide
/// [`global`] registry; a private registry is useful in tests.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first request. Panics if the
    /// name is already registered as a different metric kind — two
    /// layers disagreeing about a key is a bug worth failing loudly on.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, created on first request (panics on a
    /// kind mismatch, as [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The concurrent histogram named `name`, created on first request
    /// with [`SPAN_SUB_BITS`] precision (panics on a kind mismatch).
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        match self.register(name, || {
            Metric::Histogram(Arc::new(AtomicHistogram::new(SPAN_SUB_BITS)))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn register(&self, name: &str, create: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics
            .entry(name.to_owned())
            .or_insert_with(create)
            .clone()
    }

    /// Flattens every registered metric into sorted `key → f64` pairs.
    /// Counters and gauges emit their value under their own name (plus
    /// `<name>_hwm` for gauges); a histogram named `x` expands to
    /// `x_count`, `x_mean`, `x_p50`, `x_p90`, `x_p99`, and `x_max` in
    /// the histogram's recorded unit.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut entries = Vec::with_capacity(metrics.len() * 2);
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => entries.push((name.clone(), c.get() as f64)),
                Metric::Gauge(g) => {
                    entries.push((name.clone(), g.get() as f64));
                    entries.push((format!("{name}_hwm"), g.hwm() as f64));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    entries.push((format!("{name}_count"), snap.count() as f64));
                    entries.push((format!("{name}_mean"), snap.mean()));
                    entries.push((format!("{name}_p50"), snap.value_at_quantile(0.50) as f64));
                    entries.push((format!("{name}_p90"), snap.value_at_quantile(0.90) as f64));
                    entries.push((format!("{name}_p99"), snap.value_at_quantile(0.99) as f64));
                    entries.push((format!("{name}_max"), snap.max() as f64));
                }
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }

    /// The merged [`LogHistogram`] view of histogram `name`, if it is
    /// registered — for callers that want full quantile access rather
    /// than the snapshot's fixed expansion.
    pub fn histogram_snapshot(&self, name: &str) -> Option<LogHistogram> {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h.snapshot()),
            _ => None,
        }
    }
}

/// The process-wide registry every instrumented layer records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time flattening of a [`Registry`]: sorted `(key, value)`
/// pairs, serializable in the `BENCH_*.json` flat-object style.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// The sorted `(key, value)` pairs.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// The value under `key`, if present.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// `self - earlier` for every counter-like key: keys present in both
    /// snapshots get the difference, keys only in `self` keep their
    /// value. Meaningful for counters and `_count` expansions; gauge and
    /// percentile keys become deltas too, which callers should ignore.
    pub fn delta_from(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.value(k).unwrap_or(0.0)))
            .collect();
        MetricsSnapshot { entries }
    }

    /// Serializes as a flat JSON object, one key per line, sorted —
    /// byte-compatible with the `BENCH_*.json` format so
    /// `rsr-bench`'s parser reads metrics files too.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            if value.fract() == 0.0 && value.abs() < 1e15 {
                out.push_str(&format!("  \"{key}\": {}{sep}\n", *value as i64));
            } else {
                out.push_str(&format!("  \"{key}\": {value:.6}{sep}\n"));
            }
        }
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = Registry::new();
        reg.counter("c").add(41);
        reg.counter("c").inc();
        let g = reg.gauge("g");
        g.add(5);
        g.add(-2);
        g.set_max(2); // below current: value unchanged
        for v in [10u64, 20, 30] {
            reg.histogram("h_us").record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.value("c"), Some(42.0));
        assert_eq!(snap.value("g"), Some(3.0));
        assert_eq!(snap.value("g_hwm"), Some(5.0));
        assert_eq!(snap.value("h_us_count"), Some(3.0));
        assert_eq!(snap.value("h_us_max"), Some(30.0));
        assert!((snap.value("h_us_mean").unwrap() - 20.0).abs() < 1e-9);
        assert_eq!(snap.value("missing"), None);
    }

    #[test]
    fn handles_are_shared() {
        let reg = Registry::new();
        let a = reg.counter("shared");
        let b = reg.counter("shared");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().value("shared"), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn delta_subtracts_counters() {
        let reg = Registry::new();
        let c = reg.counter("n");
        c.add(10);
        let before = reg.snapshot();
        c.add(7);
        let after = reg.snapshot();
        assert_eq!(after.delta_from(&before).value("n"), Some(7.0));
    }

    #[test]
    fn json_is_flat_sorted_object() {
        let reg = Registry::new();
        reg.counter("b").add(2);
        reg.counter("a").inc();
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        let a = json.find("\"a\"").unwrap();
        let b = json.find("\"b\"").unwrap();
        assert!(a < b, "keys not sorted: {json}");
    }

    #[test]
    fn parallel_updates_lose_nothing() {
        let reg = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let reg = Arc::clone(&reg);
                thread::spawn(move || {
                    let c = reg.counter("hits");
                    let g = reg.gauge("depth");
                    let h = reg.histogram("lat_us");
                    for i in 0..per_thread {
                        c.inc();
                        g.inc();
                        h.record(t * per_thread + i);
                        g.dec();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        let total = (threads * per_thread) as f64;
        assert_eq!(snap.value("hits"), Some(total));
        assert_eq!(snap.value("depth"), Some(0.0));
        assert_eq!(snap.value("lat_us_count"), Some(total));
        let hist = reg.histogram_snapshot("lat_us").unwrap();
        assert_eq!(hist.count(), threads * per_thread);
        assert_eq!(hist.max(), threads * per_thread - 1);
        assert_eq!(hist.min(), 0);
    }
}
