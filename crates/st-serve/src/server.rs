//! The long-lived server: bounded admission queue, worker threadpool,
//! degradation ladder, panic containment, bounded retries, clean shutdown.
//!
//! Threading model: clients call [`Server::enqueue`] / [`Server::predict`]
//! from any thread; validation and load shedding happen synchronously on
//! the caller. Admitted jobs sit in one bounded queue shared by all
//! workers. Each worker owns an [`Engine`](crate::engine) (its own `InferSession`, with
//! one trip slot per in-flight request, and scratch arena) and loops: admit from the queue up to its row budget,
//! run one continuous-batching tick, repeat. Faults are contained at the
//! worker loop:
//!
//! - a panic anywhere in admission or the tick is caught with
//!   `catch_unwind`; the engine is discarded and rebuilt, and its in-flight
//!   jobs are re-queued with exponential backoff (bounded by
//!   [`ServeConfig::max_retries`], then a typed `Internal` error);
//! - a poisoned step (NaN log-probs) takes the same rebuild-and-retry path
//!   without unwinding;
//! - a deadline expires cooperatively between model steps;
//! - shutdown finishes in-flight decodes, then drains the queue with typed
//!   `Overloaded` errors — nothing is ever silently dropped.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use st_core::faultinject::ServeFaultInjector;
use st_core::livetraffic::{ApplyOutcome, TrafficEvent, VersionedTraffic};
use st_core::model::DeepSt;
use st_roadnet::RoadNetwork;

use crate::engine::{validate_request, Engine, QueuedJob, TickFault};
use crate::error::{Degradation, ServeError};
use crate::request::{response_channel, PendingResponse, RouteRequest, RouteResponse};

/// Tuning knobs for the service. The defaults are sized for the synthetic
/// cities used in tests and benchmarks; production-scale graphs mostly need
/// a larger `queue_cap` and `max_batch_rows`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each with its own decode engine.
    pub workers: usize,
    /// Bounded admission-queue capacity; enqueues beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Per-worker cap on packed state rows (each admitted job reserves its
    /// beam width).
    pub max_batch_rows: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Beam width for full-quality responses.
    pub beam_width: usize,
    /// Queue depth at which admission downshifts to `ReducedBeam`.
    pub degrade_queue_depth: usize,
    /// Queue depth at which admission downshifts to `Greedy`.
    pub greedy_queue_depth: usize,
    /// Trailing p99 latency (ms) at which admission downshifts to
    /// `ReducedBeam`.
    pub degrade_p99_ms: f64,
    /// Trailing p99 latency (ms) at which admission downshifts to `Greedy`.
    pub greedy_p99_ms: f64,
    /// Re-admissions allowed after contained faults before the request
    /// fails with a typed `Internal` error.
    pub max_retries: u32,
    /// Base backoff before a faulted job may be re-admitted (doubles per
    /// attempt).
    pub retry_backoff: Duration,
    /// Traffic-slot horizon for the live feed: ingested events addressing a
    /// slot `>= traffic_slots` are rejected as past-horizon. `None` accepts
    /// any slot id.
    pub traffic_slots: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_cap: 64,
            max_batch_rows: 64,
            default_deadline: Duration::from_secs(2),
            beam_width: 8,
            degrade_queue_depth: 16,
            greedy_queue_depth: 32,
            degrade_p99_ms: 250.0,
            greedy_p99_ms: 500.0,
            max_retries: 2,
            retry_backoff: Duration::from_millis(5),
            traffic_slots: None,
        }
    }
}

/// Beam width under `ReducedBeam` degradation.
const DEGRADED_BEAM_WIDTH: usize = 3;
/// Completed-request latencies kept for the trailing p99 estimate.
const LATENCY_WINDOW: usize = 512;
/// Idle workers re-check the queue at this period even without a wakeup, so
/// backoff-delayed retries cannot stall when every worker is parked.
const IDLE_POLL: Duration = Duration::from_millis(2);

struct Shared {
    cfg: ServeConfig,
    model: Arc<DeepSt>,
    net: Arc<RoadNetwork>,
    queue: Mutex<VecDeque<QueuedJob>>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    /// Trailing completed-request latencies (ms) for the degradation
    /// ladder's p99 trigger.
    latencies: Mutex<VecDeque<f64>>,
    /// Live traffic state fed by [`Server::ingest_traffic`]. Workers read it
    /// under lock at admission, so every admission after an ingest decodes
    /// under the new version — the next scheduler tick at the latest.
    traffic: Mutex<VersionedTraffic>,
    injector: Option<Arc<ServeFaultInjector>>,
}

/// Recover a mutex guard even if a holder panicked; the protected state
/// (queue, latency window) stays structurally valid across unwinds.
fn lock_anyway<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn p99_ms(shared: &Shared) -> f64 {
    let window = lock_anyway(&shared.latencies);
    if window.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = window.iter().copied().collect();
    drop(window);
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((v.len() as f64) * 0.99).ceil() as usize;
    v[idx.saturating_sub(1).min(v.len() - 1)]
}

/// Degradation ladder: queue depth or trailing p99 picks the quality level.
fn decide_degradation(cfg: &ServeConfig, queue_depth: usize, p99: f64) -> (Degradation, usize) {
    if queue_depth >= cfg.greedy_queue_depth || p99 > cfg.greedy_p99_ms {
        (Degradation::Greedy, 1)
    } else if queue_depth >= cfg.degrade_queue_depth || p99 > cfg.degrade_p99_ms {
        (Degradation::ReducedBeam, DEGRADED_BEAM_WIDTH)
    } else {
        (Degradation::None, cfg.beam_width)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// A running route-prediction service. Dropping the server shuts it down
/// cleanly (in-flight work finishes, queued work gets typed errors, workers
/// join).
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server over a model and its road network.
    pub fn new(model: Arc<DeepSt>, net: Arc<RoadNetwork>, cfg: ServeConfig) -> Self {
        Self::start(model, net, cfg, None)
    }

    /// Start a server with a deterministic chaos injector wired into every
    /// worker's tick loop (the chaos tests).
    pub fn with_chaos(
        model: Arc<DeepSt>,
        net: Arc<RoadNetwork>,
        cfg: ServeConfig,
        injector: Arc<ServeFaultInjector>,
    ) -> Self {
        Self::start(model, net, cfg, Some(injector))
    }

    fn start(
        model: Arc<DeepSt>,
        net: Arc<RoadNetwork>,
        cfg: ServeConfig,
        injector: Option<Arc<ServeFaultInjector>>,
    ) -> Self {
        let workers = cfg.workers.max(1);
        let traffic = match cfg.traffic_slots {
            Some(n) => VersionedTraffic::with_horizon(n),
            None => VersionedTraffic::new(),
        };
        let shared = Arc::new(Shared {
            cfg,
            model,
            net,
            queue: Mutex::new(VecDeque::new()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            latencies: Mutex::new(VecDeque::new()),
            traffic: Mutex::new(traffic),
            injector,
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("st-serve-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_default();
        Self { shared, handles }
    }

    /// Validate and enqueue a request. Synchronous failures — malformed
    /// request ([`ServeError::BadRequest`]) or a full queue
    /// ([`ServeError::Overloaded`]) — return immediately; otherwise the
    /// returned handle resolves to exactly one terminal result.
    pub fn enqueue(&self, req: RouteRequest) -> Result<PendingResponse, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            st_obs::counter("serve.shed").inc();
            return Err(ServeError::Overloaded { queue_depth: 0 });
        }
        validate_request(&self.shared.model, &self.shared.net, &req)?;
        let now = Instant::now();
        let deadline_at = now + req.deadline.unwrap_or(self.shared.cfg.default_deadline);
        let (responder, pending) = response_channel();
        {
            let mut q = lock_anyway(&self.shared.queue);
            if q.len() >= self.shared.cfg.queue_cap {
                st_obs::counter("serve.shed").inc();
                return Err(ServeError::Overloaded {
                    queue_depth: q.len(),
                });
            }
            q.push_back(QueuedJob {
                req,
                responder,
                enqueued: now,
                deadline_at,
                attempts: 0,
                not_before: now,
            });
            st_obs::gauge("serve.queue_depth").set(q.len() as f64);
        }
        self.shared.wakeup.notify_one();
        Ok(pending)
    }

    /// Enqueue and block for the result, tracing the request's three phases
    /// as `serve.request` ⊃ `serve.queue`, `serve.decode` spans.
    pub fn predict(&self, req: RouteRequest) -> Result<RouteResponse, ServeError> {
        let _request = st_obs::span("serve.request");
        let pending = self.enqueue(req)?;
        {
            let _queue = st_obs::span("serve.queue");
            match pending.recv_event()? {
                crate::request::JobEvent::Admitted => {}
                crate::request::JobEvent::Done(r) => return r,
            }
        }
        let _decode = st_obs::span("serve.decode");
        loop {
            match pending.recv_event()? {
                // Re-admission after a contained fault.
                crate::request::JobEvent::Admitted => {}
                crate::request::JobEvent::Done(r) => return r,
            }
        }
    }

    /// Current admission-queue depth (monitoring / tests).
    pub fn queue_depth(&self) -> usize {
        lock_anyway(&self.shared.queue).len()
    }

    /// Feed-ingest endpoint: apply one live traffic event to the server's
    /// shared [`VersionedTraffic`] state.
    ///
    /// On a fresh application the event's slot version bumps, so every
    /// admission from the next scheduler tick onward decodes under the new
    /// tensor (each worker's encode cache evicts exactly that slot's stale
    /// entry — targeted, never a flush). In-flight decodes keep the context
    /// they were admitted with, preserving bit-parity with serial decoding.
    /// Duplicate, out-of-order and past-horizon deliveries are rejected
    /// idempotently with a typed outcome; counters:
    /// `serve.traffic_ingest.{applied,rejected}` plus the underlying
    /// `traffic.feed.*` breakdown.
    pub fn ingest_traffic(&self, ev: &TrafficEvent) -> ApplyOutcome {
        let outcome = lock_anyway(&self.shared.traffic).apply(ev);
        if outcome.is_applied() {
            st_obs::counter("serve.traffic_ingest.applied").inc();
            // Nudge parked workers so a quiet server still converges its
            // admission view promptly.
            self.shared.wakeup.notify_all();
        } else {
            st_obs::counter("serve.traffic_ingest.rejected").inc();
        }
        outcome
    }

    /// The live-feed version of `slot` (0 if never revised).
    pub fn traffic_version(&self, slot: usize) -> u64 {
        lock_anyway(&self.shared.traffic).slot_version(slot)
    }

    /// Stop accepting work, finish in-flight decodes, fail queued requests
    /// with typed errors, and join every worker.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wakeup.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Workers drain the queue on their way out; anything left (all
        // workers died before draining) still must get a typed reply.
        let leftovers: Vec<QueuedJob> = lock_anyway(&self.shared.queue).drain(..).collect();
        for job in leftovers {
            st_obs::counter("serve.shed").inc();
            job.responder
                .finish(Err(ServeError::Overloaded { queue_depth: 0 }));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// Pull admittable jobs from the shared queue into this worker's engine,
/// respecting the row budget, retry backoff, and deadlines.
fn admit_batch(shared: &Shared, engine: &mut Engine<'_>) {
    if shared.shutdown.load(Ordering::Acquire) {
        return;
    }
    let now = Instant::now();
    let mut picked: Vec<QueuedJob> = Vec::new();
    let mut expired: Vec<QueuedJob> = Vec::new();
    let depth_after;
    {
        let mut q = lock_anyway(&shared.queue);
        let mut scan = q.len();
        while scan > 0 {
            // Reserve the full configured beam width per picked job: the
            // ladder can only narrow it.
            let reserved = engine.rows_potential() + picked.len() * shared.cfg.beam_width;
            let idle_and_empty = engine.is_idle() && picked.is_empty();
            if reserved + shared.cfg.beam_width > shared.cfg.max_batch_rows && !idle_and_empty {
                break;
            }
            scan -= 1;
            let Some(job) = q.pop_front() else { break };
            if job.deadline_at <= now {
                expired.push(job);
            } else if job.not_before > now {
                // Backoff not elapsed: rotate to the back, keep scanning.
                q.push_back(job);
            } else {
                picked.push(job);
            }
        }
        depth_after = q.len();
        st_obs::gauge("serve.queue_depth").set(q.len() as f64);
    }
    for job in expired {
        st_obs::counter("serve.deadline_exceeded").inc();
        let waited_ms = now.duration_since(job.enqueued).as_millis() as u64;
        job.responder
            .finish(Err(ServeError::DeadlineExceeded { waited_ms }));
    }
    if picked.is_empty() {
        return;
    }
    let p99 = p99_ms(shared);
    // One traffic-state read for the whole admission batch: every job
    // admitted this tick binds to the same feed version snapshot.
    let traffic = lock_anyway(&shared.traffic);
    for job in picked {
        let (degradation, beam_width) = decide_degradation(&shared.cfg, depth_after, p99);
        if degradation != Degradation::None {
            st_obs::counter("serve.degraded").inc();
        }
        engine.admit(job, degradation, beam_width, &traffic);
    }
}

/// Send a faulted engine's jobs back to the queue (bounded retries with
/// exponential backoff) or fail them with a typed `Internal` error.
fn requeue_after_fault(shared: &Shared, jobs: Vec<QueuedJob>, reason: &str) {
    let now = Instant::now();
    let mut requeued = false;
    for mut job in jobs {
        if job.attempts > shared.cfg.max_retries {
            st_obs::counter("serve.retries_exhausted").inc();
            job.responder.finish(Err(ServeError::Internal(format!(
                "failed after {} attempts: {reason}",
                job.attempts
            ))));
            continue;
        }
        st_obs::counter("serve.retry").inc();
        let backoff =
            shared.cfg.retry_backoff * 2u32.saturating_pow(job.attempts.saturating_sub(1));
        job.not_before = now + backoff;
        let mut q = lock_anyway(&shared.queue);
        q.push_back(job);
        requeued = true;
    }
    if requeued {
        shared.wakeup.notify_all();
    }
}

fn worker_loop(shared: &Shared, worker_id: usize) {
    let model: &DeepSt = &shared.model;
    let net: &RoadNetwork = &shared.net;
    let injector = shared.injector.as_deref();
    let mut engine = Engine::new(model, net, worker_id);
    let mut tick_no: u64 = 0;

    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Admission + one tick under one unwind boundary: a panic anywhere
        // is contained, the engine rebuilt, and its jobs retried.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            admit_batch(shared, &mut engine);
            if engine.is_idle() {
                return Ok(false);
            }
            engine.tick(Instant::now(), tick_no, injector).map(|_| true)
        }));
        // Idle iterations don't consume a tick number, so chaos plans
        // address the Nth *decode* tick deterministically regardless of how
        // long the worker sat parked.
        if !matches!(outcome, Ok(Ok(false))) {
            tick_no += 1;
        }
        match outcome {
            Ok(Ok(true)) => {
                for ms in engine.drain_completed_ms() {
                    let mut w = lock_anyway(&shared.latencies);
                    if w.len() >= LATENCY_WINDOW {
                        w.pop_front();
                    }
                    w.push_back(ms);
                }
            }
            Ok(Ok(false)) => {
                // Idle: park until work arrives (bounded, so backoff-delayed
                // retries are eventually rescanned).
                let q = lock_anyway(&shared.queue);
                if q.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
                    let _ = shared.wakeup.wait_timeout(q, IDLE_POLL);
                }
            }
            Ok(Err(TickFault::Poisoned)) => {
                let jobs = engine.take_jobs();
                engine = Engine::new(model, net, worker_id);
                requeue_after_fault(shared, jobs, "poisoned decode step");
            }
            Err(payload) => {
                st_obs::counter("serve.worker_panic").inc();
                let msg = panic_message(payload);
                let jobs = engine.take_jobs();
                engine = Engine::new(model, net, worker_id);
                requeue_after_fault(shared, jobs, &format!("worker panic: {msg}"));
            }
        }
    }

    // Shutdown: finish in-flight decodes (still under containment; faults
    // here fail the jobs typed rather than retrying into a dead queue).
    while !engine.is_idle() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            engine.tick(Instant::now(), tick_no, injector)
        }));
        tick_no += 1;
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(TickFault::Poisoned)) | Err(_) => {
                for job in engine.take_jobs() {
                    job.responder.finish(Err(ServeError::Internal(
                        "fault during shutdown drain".into(),
                    )));
                }
                break;
            }
        }
    }
    // Drain whatever is still queued with typed errors (workers race; each
    // pops one job at a time).
    loop {
        let job = lock_anyway(&shared.queue).pop_front();
        let Some(job) = job else { break };
        st_obs::counter("serve.shed").inc();
        job.responder
            .finish(Err(ServeError::Overloaded { queue_depth: 0 }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_decides_by_depth_and_p99() {
        let cfg = ServeConfig::default();
        assert_eq!(
            decide_degradation(&cfg, 0, 0.0),
            (Degradation::None, cfg.beam_width)
        );
        assert_eq!(
            decide_degradation(&cfg, cfg.degrade_queue_depth, 0.0),
            (Degradation::ReducedBeam, DEGRADED_BEAM_WIDTH)
        );
        assert_eq!(
            decide_degradation(&cfg, cfg.greedy_queue_depth, 0.0),
            (Degradation::Greedy, 1)
        );
        assert_eq!(
            decide_degradation(&cfg, 0, cfg.greedy_p99_ms + 1.0),
            (Degradation::Greedy, 1)
        );
        assert_eq!(
            decide_degradation(&cfg, 0, cfg.degrade_p99_ms + 1.0),
            (Degradation::ReducedBeam, DEGRADED_BEAM_WIDTH)
        );
    }
}
