//! Scoped wall-clock spans with parent/child nesting.
//!
//! A span is opened with [`span`] and closed when the returned guard drops.
//! Guards are `!Send`, so a span opens and closes on one thread and each
//! thread maintains its own parent stack: a span's parent is whatever span
//! was innermost on the *same* thread when it opened. Worker threads (the
//! data-parallel shard pool) therefore produce their own root spans rather
//! than corrupting the coordinator's stack.
//!
//! When recording is disabled (the default), [`span`] does one relaxed
//! atomic load and returns an inert guard — no clock read, no allocation.

use std::borrow::Cow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global recording switch; flipped by `sink::start_recording`.
pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);

/// Spans opened / closed since process start (cumulative, never reset).
/// `opened == closed` at quiescence is the balance invariant the CI smoke
/// job checks.
pub(crate) static OPENED: AtomicU64 = AtomicU64::new(0);
pub(crate) static CLOSED: AtomicU64 = AtomicU64::new(0);
/// Spans discarded because the in-memory buffer hit [`MAX_BUFFERED`].
pub(crate) static DROPPED: AtomicU64 = AtomicU64::new(0);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Backstop against unbounded memory if a run records forever without
/// draining: beyond this many buffered spans, new ones are counted in
/// `DROPPED` instead of stored.
const MAX_BUFFERED: usize = 4_000_000;

thread_local! {
    /// Small sequential id for trace readability (std's `ThreadId` has no
    /// stable integer accessor).
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Stack of currently open span ids on this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Single monotonic clock origin so every span in a process shares a
/// timebase. Initialised on first use (i.e. by `start_recording`).
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn finished() -> &'static Mutex<Vec<SpanRecord>> {
    static FINISHED: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    FINISHED.get_or_init(|| Mutex::new(Vec::new()))
}

/// A completed span, as buffered in memory and emitted to the JSONL sink.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique id (1-based).
    pub id: u64,
    /// Id of the innermost span open on the same thread at open time.
    pub parent: Option<u64>,
    /// Label, conventionally `area/operation` (e.g. `train/epoch`).
    pub name: Cow<'static, str>,
    /// Small sequential per-thread id (1 = first thread to open a span).
    pub thread: u64,
    /// Microseconds since the process trace epoch at open.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: Cow<'static, str>,
    thread: u64,
    started: Instant,
}

/// RAII guard returned by [`span`]; closes the span when dropped. `!Send`
/// by construction so open/close happen on one thread.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

/// Open a span. Nesting and timing are recorded only while recording is
/// enabled; otherwise this is one atomic load.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            active: None,
            _not_send: PhantomData,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let thread = THREAD_ID.with(|t| *t);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    OPENED.fetch_add(1, Ordering::Relaxed);
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name: name.into(),
            thread,
            started: Instant::now(),
        }),
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_us = active.started.elapsed().as_micros() as u64;
        let start_us = active
            .started
            .saturating_duration_since(epoch())
            .as_micros() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop in LIFO order within a thread, so the top of the
            // stack is this span; pop defensively by id in case a guard was
            // leaked via mem::forget.
            if let Some(pos) = s.iter().rposition(|&id| id == active.id) {
                s.truncate(pos);
            }
        });
        CLOSED.fetch_add(1, Ordering::Relaxed);
        let mut buf = finished().lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() >= MAX_BUFFERED {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        buf.push(SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            thread: active.thread,
            start_us,
            dur_us,
        });
    }
}

/// Run `f` under a span named `name`, returning its result and the elapsed
/// wall-clock seconds. The elapsed time is measured even when recording is
/// off, so callers can replace hand-rolled `Instant` timing with this.
pub fn timed<R>(name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let guard = span(name);
    let out = f();
    drop(guard);
    (out, started.elapsed().as_secs_f64())
}

/// Move all buffered finished spans out (used by `sink::drain`).
pub(crate) fn take_finished() -> Vec<SpanRecord> {
    std::mem::take(&mut *finished().lock().unwrap_or_else(|e| e.into_inner()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state; they only make assertions that
    // hold under concurrent recording (relative counts and per-thread
    // structure), not absolute global counters. A drain that must see every
    // span closed runs in its own test binary (`tests/trace_roundtrip.rs`).

    #[test]
    fn disabled_spans_are_inert() {
        let before = OPENED.load(Ordering::Relaxed);
        if ENABLED.load(Ordering::Relaxed) {
            return; // another test is recording; skip
        }
        let g = span("should-not-record");
        drop(g);
        assert_eq!(OPENED.load(Ordering::Relaxed), before);
    }

    #[test]
    fn nesting_links_parents_within_thread() {
        crate::sink::start_recording();
        let (outer_id, inner) = {
            let outer = span("outer");
            let outer_id = outer.active.as_ref().map(|a| a.id);
            let inner = span("inner");
            let inner_parent = inner.active.as_ref().and_then(|a| a.parent);
            drop(inner);
            drop(outer);
            (outer_id, inner_parent)
        };
        assert!(outer_id.is_some());
        assert_eq!(inner, outer_id);
    }

    #[test]
    fn sibling_threads_get_independent_stacks() {
        crate::sink::start_recording();
        let _root = span("root");
        let child_parent = std::thread::scope(|s| {
            s.spawn(|| {
                let g = span("worker");
                let p = g.active.as_ref().and_then(|a| a.parent);
                drop(g);
                p
            })
            .join()
            .unwrap()
        });
        // The worker thread has no open spans of its own, so its span must
        // be a root — not a child of this thread's `root`.
        assert_eq!(child_parent, None);
    }

    #[test]
    fn timed_returns_result_and_duration() {
        let (value, secs) = timed("timed-block", || 21 * 2);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }
}
