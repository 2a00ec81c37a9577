//! Timing from outside: per-layer accumulators around calls into each
//! layer's public functions, plus st-obs span trees for a deterministic
//! sample of items.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use st_obs::SpanGuard;

use crate::spec::{MAX_SAMPLED, SAMPLE_EVERY};
use crate::stats::LogHist;

/// Count, total and distribution of one layer's calls.
#[derive(Clone, Default)]
pub struct Acc {
    pub count: u64,
    pub total_ns: u64,
    pub hist: LogHist,
}

impl Acc {
    pub fn add(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.count += 1;
        self.total_ns += ns;
        self.hist.record(ns);
    }

    /// Mean call time in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn p50_us(&self) -> f64 {
        self.hist.quantile(0.5) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.hist.quantile(0.99) / 1e3
    }

    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

#[cfg(test)]
thread_local! {
    /// The planted-defect test's dropped timer: calls of this name on the
    /// test's thread are not accumulated.
    pub static UNTIMED: std::cell::Cell<Option<&'static str>> = const { std::cell::Cell::new(None) };
}

/// An open layer call; close it with [`Tracer::stop`].
pub struct Timer {
    name: &'static str,
    t0: Instant,
    _span: SpanGuard,
}

/// Per-layer accumulators keyed by call name (`layer.op`), and the span
/// sampler. Every call is timed; spans are recorded only while a sampled
/// item is open, and only a tracer made with [`Tracer::sampling`] samples.
#[derive(Default)]
pub struct Tracer {
    accs: BTreeMap<&'static str, Acc>,
    sample: bool,
    items: usize,
    sampled: usize,
}

impl Tracer {
    /// A tracer that also records span trees for sampled items.
    pub fn sampling() -> Tracer {
        Tracer {
            sample: true,
            ..Tracer::default()
        }
    }

    pub fn start(&self, name: &'static str) -> Timer {
        let span = st_obs::span(name);
        Timer {
            name,
            t0: Instant::now(),
            _span: span,
        }
    }

    pub fn stop(&mut self, t: Timer) {
        let d = t.t0.elapsed();
        #[cfg(test)]
        if UNTIMED.with(|u| u.get()) == Some(t.name) {
            return;
        }
        self.accs.entry(t.name).or_default().add(d);
    }

    /// Time `f` as one call of `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.start(name);
        let r = f();
        self.stop(t);
        r
    }

    pub fn acc(&self, name: &str) -> Acc {
        self.accs.get(name).cloned().unwrap_or_default()
    }

    /// Total seconds inside every timed call whose name starts with one of
    /// `prefixes` — the layer self time behind `obs.coverage`.
    pub fn total_s(&self, prefixes: &[&str]) -> f64 {
        self.accs
            .iter()
            .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)))
            .map(|(_, a)| a.total_s())
            .sum()
    }

    /// Open the next item (request, decode or minibatch). One in
    /// [`SAMPLE_EVERY`] items, up to [`MAX_SAMPLED`], turns st-obs recording
    /// on and opens a root span; the item ends when the guard drops.
    pub fn item(&mut self, root: &'static str) -> Option<SampledItem> {
        let i = self.items;
        self.items += 1;
        if !self.sample || !i.is_multiple_of(SAMPLE_EVERY) || self.sampled >= MAX_SAMPLED {
            return None;
        }
        self.sampled += 1;
        st_obs::start_recording();
        Some(SampledItem {
            _root: st_obs::span(root),
        })
    }
}

/// A sampled item: recording stays on until this drops.
pub struct SampledItem {
    _root: SpanGuard,
}

impl Drop for SampledItem {
    fn drop(&mut self) {
        st_obs::stop_recording();
    }
}
