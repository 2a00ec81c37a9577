//! `st-obs`: lightweight observability for the DeepST reproduction.
//!
//! Three pieces, designed so instrumented code pays close to nothing when
//! nobody is looking:
//!
//! - [`span`](mod@span) — scoped wall-clock timers with parent/child nesting. Guards
//!   are `!Send`; each thread keeps its own span stack, so spans opened on
//!   data-parallel shard workers attribute to the right thread. When
//!   recording is off, [`span::span`] is a single relaxed atomic load.
//! - [`metrics`] — a process-global registry of named counters, gauges and
//!   histograms. Handles are `Arc`-backed atomics: registration takes a
//!   lock once per name, updates are lock-free and always on (an atomic add
//!   is cheaper than asking whether anyone cares).
//! - [`sink`] — recording control, ad-hoc events, one-time warnings, and an
//!   atomically written JSONL trace file plus the schema validator the CI
//!   smoke job runs. [`write_atomic`] (tmp + fsync + rename + directory
//!   fsync) is the workspace's one atomic file writer: traces, checkpoints
//!   and result files.
//!
//! # Example
//!
//! ```
//! st_obs::start_recording();
//! {
//!     let _outer = st_obs::span("work");
//!     let _inner = st_obs::span("work/step");
//!     st_obs::counter("work.items").inc();
//! }
//! let trace = st_obs::drain();
//! assert_eq!(trace.spans.len(), 2);
//! st_obs::stop_recording();
//! ```
//!
//! The JSONL schema (one object per line, discriminated by `"type"`) is
//! documented in DESIGN.md §10 and enforced by [`sink::validate_jsonl`].

pub mod metrics;
pub mod sink;
pub mod span;

pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram, MetricSnapshot};
pub use sink::{
    drain, event, recording, start_recording, stop_recording, validate_jsonl, warn_once,
    write_atomic, write_jsonl, Trace, TraceSummary,
};
pub use span::{span, timed, SpanGuard, SpanRecord};
