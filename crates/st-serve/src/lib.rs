//! `st-serve`: a fault-hardened route-prediction service over the DeepST
//! inference runtime.
//!
//! A long-lived server (own worker threadpool, no web framework — the
//! transport is in-process handles) exposing route prediction and
//! continuation over a trained [`DeepSt`](st_core::model::DeepSt). The
//! interesting parts are the serving disciplines, not the transport:
//!
//! - **Continuous batching** ([`engine`]): a scheduler coalesces the
//!   in-flight beam-search steps of many concurrent requests into single
//!   packed GEMMs on one shared `InferSession` per worker (one trip slot
//!   per request), LLM-serving style. Requests join and leave the batch between ticks; completed
//!   routes are bit-identical to serial one-at-a-time decoding (pinned by
//!   the parity tests).
//! - **Deadlines** with cooperative cancellation between model steps.
//! - **Admission control**: a bounded queue with explicit load shedding
//!   (typed [`ServeError::Overloaded`]), never unbounded buffering.
//! - **Graceful degradation**: under queue-depth or p99 pressure the
//!   admission ladder downshifts beam width and finally goes greedy,
//!   surfaced honestly on every response as [`RouteResponse::degradation`].
//! - **Fault containment** ([`server`]): worker panics are caught, the
//!   decode engine rebuilt, in-flight jobs retried with bounded exponential
//!   backoff; a panic never crosses the request boundary and every request
//!   gets exactly one typed terminal reply.
//!
//! - **Live traffic ingest** ([`Server::ingest_traffic`]): feed events
//!   revise a shared versioned traffic state; admissions from the next
//!   scheduler tick decode under the new tensor while in-flight requests
//!   keep their admission-time context (so batched output stays
//!   bit-identical to serial decoding across an invalidation tick). Each
//!   worker's encode cache is keyed by `(slot, version)` with targeted
//!   invalidation. See DESIGN.md §15.
//!
//! The deterministic serving chaos harness
//! ([`st_core::faultinject::ServeFaultInjector`]) drives slow steps, worker
//! panics, poisoned sessions, and deadline storms through exactly these
//! paths; `tests/serve_chaos.rs` pins shed-not-stall behaviour, and the
//! feed chaos plan ([`st_core::faultinject::FeedFaultPlan`]) covers
//! out-of-order/duplicate/past-horizon event delivery.
//!
//! See DESIGN.md §13 for the architecture.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod request;
pub mod server;

pub use error::{Degradation, ServeError};
pub use request::{PendingResponse, RouteRequest, RouteResponse};
pub use server::{ServeConfig, Server};
