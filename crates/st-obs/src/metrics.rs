//! Process-global metric registry: named counters, gauges and histograms.
//!
//! Registration ([`counter`] / [`gauge`] / [`histogram`]) takes a mutex
//! once per lookup and allocates only when it registers a new name; hot
//! paths should still resolve a handle once and reuse it.
//! Updates through a handle are lock-free atomics and are always live —
//! unlike spans, metrics do not check the recording flag, because an atomic
//! add costs less than the branch would save and keeping them hot means a
//! late `drain()` still sees everything.
//!
//! Gauge floats are stored as `f64` bit patterns in an `AtomicU64`; the
//! `max` update is a CAS loop over those bits (no float `==` anywhere).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two histogram buckets. Bucket `i` holds values `v`
/// with `floor(log2(v)) + BUCKET_BIAS == i`, clamped into range.
const BUCKETS: usize = 64;
/// Shift so sub-1.0 values (e.g. seconds-denominated latencies) land in
/// distinct buckets: bucket 21 is `[1, 2)`, bucket 20 is `[0.5, 1)`, …
const BUCKET_BIAS: i32 = 21;

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float, with an atomic running-max variant.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (CAS loop on the f64 bits).
    pub fn max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistoInner {
    count: AtomicU64,
    /// Running sum as f64 bits (CAS-add; fine for the trace-level precision
    /// we need, and never contended in practice).
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Log₂-bucketed distribution with count/sum/min/max.
#[derive(Clone)]
pub struct Histogram(Arc<HistoInner>);

fn bucket_index(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    (v.log2().floor() as i32 + BUCKET_BIAS).clamp(0, BUCKETS as i32 - 1) as usize
}

fn cas_float(slot: &AtomicU64, v: f64, keep: impl Fn(f64, f64) -> f64) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        let next = keep(f64::from_bits(cur), v);
        match slot.compare_exchange_weak(cur, next.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: f64) {
        let h = &self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        cas_float(&h.sum_bits, v, |cur, v| cur + v);
        cas_float(&h.min_bits, v, f64::min);
        cas_float(&h.max_bits, v, f64::max);
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest observation (`NaN` before any `record`).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.0.min_bits.load(Ordering::Relaxed))
    }

    /// Largest observation (`NaN` before any `record`).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn fresh_counter() -> Counter {
    Counter(Arc::new(AtomicU64::new(0)))
}

fn fresh_gauge() -> Gauge {
    Gauge(Arc::new(AtomicU64::new(f64::NEG_INFINITY.to_bits())))
}

fn fresh_histogram() -> Histogram {
    Histogram(Arc::new(HistoInner {
        count: AtomicU64::new(0),
        sum_bits: AtomicU64::new(0f64.to_bits()),
        min_bits: AtomicU64::new(f64::NAN.to_bits()),
        max_bits: AtomicU64::new(f64::NAN.to_bits()),
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
    }))
}

/// The metric registered as `name`, after registering `fresh()` under it
/// on a miss. Only a miss allocates (the owned key); a hit is a lookup by
/// `&str` and an `Arc` clone.
fn registered(name: &str, fresh: impl FnOnce() -> Metric) -> Metric {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    match reg.get(name) {
        Some(m) => m.clone(),
        None => reg.entry(name.to_string()).or_insert_with(fresh).clone(),
    }
}

/// Get or register the counter named `name`. If `name` is already
/// registered as a different metric kind, a detached (unexported) counter
/// is returned rather than panicking — the mismatch is a caller bug, but
/// observability must never take the process down.
pub fn counter(name: &str) -> Counter {
    match registered(name, || Metric::Counter(fresh_counter())) {
        Metric::Counter(c) => c,
        _ => fresh_counter(),
    }
}

/// Get or register the gauge named `name` (same mismatch policy as
/// [`counter`]). A gauge reads `-inf` until first set, and `snapshot`
/// skips never-set gauges.
pub fn gauge(name: &str) -> Gauge {
    match registered(name, || Metric::Gauge(fresh_gauge())) {
        Metric::Gauge(g) => g,
        _ => fresh_gauge(),
    }
}

/// Get or register the histogram named `name` (same mismatch policy as
/// [`counter`]).
pub fn histogram(name: &str) -> Histogram {
    match registered(name, || Metric::Histogram(fresh_histogram())) {
        Metric::Histogram(h) => h,
        _ => fresh_histogram(),
    }
}

/// Point-in-time copy of one metric's state, as exported to JSONL.
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// A counter and its value.
    Counter {
        /// Registered name.
        name: String,
        /// Value at snapshot time.
        value: u64,
    },
    /// A gauge and its value (set at least once).
    Gauge {
        /// Registered name.
        name: String,
        /// Value at snapshot time.
        value: f64,
    },
    /// A histogram summary (at least one observation).
    Histogram {
        /// Registered name.
        name: String,
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: f64,
        /// Smallest observation.
        min: f64,
        /// Largest observation.
        max: f64,
    },
}

/// Snapshot every registered metric that has observed data. Counters are
/// included even at zero (their registration implies intent); never-set
/// gauges and empty histograms are skipped.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(reg.len());
    for (name, m) in reg.iter() {
        match m {
            Metric::Counter(c) => out.push(MetricSnapshot::Counter {
                name: name.clone(),
                value: c.get(),
            }),
            Metric::Gauge(g) => {
                // -inf bits are the never-set sentinel, and JSON cannot
                // represent non-finite numbers, so only finite gauges
                // export (a NaN grad-norm still shows up as an event from
                // the divergence detector, not here).
                let v = g.get();
                if v.is_finite() {
                    out.push(MetricSnapshot::Gauge {
                        name: name.clone(),
                        value: v,
                    });
                }
            }
            Metric::Histogram(h) => {
                if h.count() > 0 {
                    out.push(MetricSnapshot::Histogram {
                        name: name.clone(),
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                    });
                }
            }
        }
    }
    out
}

/// Zero every registered metric in place (handles stay valid). Benchmarks
/// use this to isolate per-phase numbers.
pub fn reset() {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for m in reg.values() {
        match m {
            Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.0.store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed),
            Metric::Histogram(h) => {
                h.0.count.store(0, Ordering::Relaxed);
                h.0.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
                h.0.min_bits.store(f64::NAN.to_bits(), Ordering::Relaxed);
                h.0.max_bits.store(f64::NAN.to_bits(), Ordering::Relaxed);
                for b in &h.0.buckets {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let c = counter("test.metrics.counter_roundtrip");
        let base = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), base + 5);
        // Same name resolves to the same cell.
        assert_eq!(counter("test.metrics.counter_roundtrip").get(), base + 5);
    }

    #[test]
    fn gauge_set_and_max() {
        let g = gauge("test.metrics.gauge_set_and_max");
        g.set(2.0);
        g.max(1.0);
        assert!((g.get() - 2.0).abs() < 1e-12);
        g.max(7.5);
        assert!((g.get() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_summary_fields() {
        let h = histogram("test.metrics.histogram_summary");
        h.record(1.0);
        h.record(4.0);
        h.record(0.25);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5.25).abs() < 1e-12);
        assert!((h.min() - 0.25).abs() < 1e-12);
        assert!((h.max() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        counter("test.metrics.mismatch");
        let g = gauge("test.metrics.mismatch");
        g.set(1.0); // must not clobber or panic
        assert!(snapshot().iter().any(
            |m| matches!(m, MetricSnapshot::Counter { name, .. } if name == "test.metrics.mismatch")
        ));
    }

    #[test]
    fn bucket_index_monotone() {
        assert_eq!(bucket_index(-1.0), 0);
        assert!(bucket_index(0.5) < bucket_index(1.0));
        assert!(bucket_index(1.0) < bucket_index(2.5));
        assert_eq!(bucket_index(f64::INFINITY), 0); // non-finite clamps low
    }
}
