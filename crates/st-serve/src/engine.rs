//! The per-worker decode engine: continuous batching of many concurrent
//! route searches into single packed model steps.
//!
//! Each worker owns one `Engine`. The engine keeps a set of active jobs,
//! each a resumable [`BeamSearch`] bound to a trip slot of one shared
//! [`InferSession`]. Every scheduler tick it:
//!
//! 1. fails jobs whose deadline has passed (cooperative cancellation — the
//!    check sits between model steps, so expiry fires within one step);
//! 2. plans the next step of every job — warmup tokens for continuation
//!    prefixes contribute one row, live beam prefixes contribute their
//!    steppable rows — into **one** token batch;
//! 3. gathers all jobs' recurrent-state rows into one packed state (fresh
//!    rows zero-filled) and runs **one** `InferSession::step_into`:
//!    one GEMM per tick across every request, LLM-serving style;
//! 4. hands each job its slice of the log-probs; finished jobs respond and
//!    release their trip slot, freeing the row budget for waiting requests
//!    mid-flight (requests join and leave between ticks, no global barrier).
//!
//! Because the packed GEMM accumulates each output row independently in the
//! same sequential k-order as a batch-of-one step, routes produced here are
//! bit-identical to serial one-request-at-a-time decoding — pinned by the
//! parity tests.
//!
//! Fault handling is split: the engine *detects* (NaN log-probs →
//! `TickFault::Poisoned`) and *carries* injected chaos faults; the worker
//! loop in [`crate::server`] contains them (`catch_unwind`, session rebuild,
//! bounded retry).

use std::time::{Duration, Instant};

use st_baselines::BeamSearch;
use st_core::faultinject::ServeFaultInjector;
use st_core::livetraffic::{TrafficCache, VersionedTraffic, TRAFFIC_CACHE_CAP};
use st_core::model::DeepSt;
use st_core::predict::InferSession;
use st_roadnet::{RoadNetwork, SegmentId};
use st_tensor::Array;

use crate::error::{Degradation, ServeError};
use crate::request::{Responder, RouteRequest, RouteResponse};

/// A request queued for admission, owned by the shared queue until a worker
/// picks it up.
pub(crate) struct QueuedJob {
    /// The validated request.
    pub req: RouteRequest,
    /// Completion channel; its `Drop` guarantees a typed reply.
    pub responder: Responder,
    /// When the request entered the queue (latency measurement base).
    pub enqueued: Instant,
    /// Absolute deadline; checked at admission and between model steps.
    pub deadline_at: Instant,
    /// Times this job has been admitted to an engine (retry accounting).
    pub attempts: u32,
    /// Earliest re-admission time (retry backoff); `enqueued` for fresh jobs.
    pub not_before: Instant,
}

/// One active decode: a resumable beam search plus its binding into the
/// engine's shared session.
struct Active {
    req: RouteRequest,
    responder: Responder,
    enqueued: Instant,
    deadline_at: Instant,
    attempts: u32,
    /// Trip slot in the engine's `InferSession`.
    trip: usize,
    /// Live-traffic version the job's context was encoded at (0 = frozen
    /// request tensor, no feed revision). Bound at admission: in-flight
    /// decodes keep their context, preserving bit-parity with serial decode.
    traffic_version: u64,
    beam: BeamSearch,
    /// Prefix tokens still to feed one-at-a-time before the search steps
    /// (continuation warmup, batched in-band with other jobs' rows).
    warmup: Vec<SegmentId>,
    warm_pos: usize,
    /// Current global state-row index of each live beam row (`None` = fresh
    /// row, zero-filled at the next gather).
    rows: Vec<Option<usize>>,
    degradation: Degradation,
    beam_width: usize,
    done: bool,
}

/// What a job contributed to the current tick's packed batch.
enum PlanKind {
    /// One warmup token (row ignored for scoring).
    Warm,
    /// `n` steppable beam rows to score.
    Search(usize),
}

/// A detected decode fault the worker must contain (the engine's state can
/// no longer be trusted; rebuild and retry the in-flight jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TickFault {
    /// The packed step produced NaN log-probs (injected poison or a real
    /// numeric fault).
    Poisoned,
}

/// Per-worker continuous-batching decode engine.
pub(crate) struct Engine<'m> {
    model: &'m DeepSt,
    net: &'m RoadNetwork,
    sess: InferSession<'m>,
    /// Packed recurrent state, one row per planned batch row.
    state: Vec<Array>,
    logp: Vec<f64>,
    active: Vec<Active>,
    /// Model slot width (`cfg.max_neighbors`): log-prob row stride.
    width: usize,
    /// Encoded traffic latents keyed by `(slot id, live version)` — exact
    /// LRU with targeted invalidation on live-feed updates.
    traffic_cache: TrafficCache,
    /// Latencies (ms) of responses completed since the worker last drained
    /// them into the shared p99 window.
    completed_ms: Vec<f64>,
    worker_id: usize,
    // Per-tick plan scratch, reused across ticks.
    plan_tokens: Vec<SegmentId>,
    plan_trips: Vec<usize>,
    plan_spec: Vec<Option<usize>>,
    planned: Vec<(usize, PlanKind)>,
}

impl<'m> Engine<'m> {
    pub(crate) fn new(model: &'m DeepSt, net: &'m RoadNetwork, worker_id: usize) -> Self {
        Self {
            model,
            net,
            sess: model.infer_session(),
            state: Vec::new(),
            logp: Vec::new(),
            active: Vec::new(),
            width: model.cfg.max_neighbors,
            traffic_cache: TrafficCache::new(TRAFFIC_CACHE_CAP),
            completed_ms: Vec::new(),
            worker_id,
            plan_tokens: Vec::new(),
            plan_trips: Vec::new(),
            plan_spec: Vec::new(),
            planned: Vec::new(),
        }
    }

    /// No active jobs: the worker may block waiting for the queue.
    pub(crate) fn is_idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Upper bound on state rows the current jobs can occupy (admission
    /// budget: each job can fan out to its beam width).
    pub(crate) fn rows_potential(&self) -> usize {
        self.active.iter().map(|a| a.beam_width.max(1)).sum()
    }

    /// Latencies (ms) of jobs completed since the last drain.
    pub(crate) fn drain_completed_ms(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.completed_ms)
    }

    /// Bind a queued job to a trip slot and a fresh beam search. The
    /// degradation decision (beam width) was made by the caller from queue
    /// pressure; `live` is the server's shared traffic state, read under
    /// lock — the traffic context binds *here*, at admission, so in-flight
    /// decodes are never re-encoded mid-search (bit-parity with serial
    /// decode) while every new admission sees the latest feed version.
    /// Sends the `Admitted` event so the client's queue span closes.
    pub(crate) fn admit(
        &mut self,
        job: QueuedJob,
        degradation: Degradation,
        beam_width: usize,
        live: &VersionedTraffic,
    ) {
        let QueuedJob {
            req,
            responder,
            enqueued,
            deadline_at,
            attempts,
            ..
        } = job;
        // The live tensor of the slot replaces the request's own once the
        // feed has revised the slot; a slot the feed never touched is at
        // version 0 and encodes the request's tensor, as a server without a
        // feed would.
        let traffic_version = live.slot_version(req.slot_id);
        let c = req.traffic.as_deref().map(|snapshot| {
            let tensor = live.tensor(req.slot_id).unwrap_or(snapshot);
            self.traffic_cache
                .get_or_encode(req.slot_id, traffic_version, || {
                    self.model.encode_traffic(tensor)
                })
        });
        let ctx = self.model.encode_context(req.dest_norm, c);
        let trip = self.sess.add_trip(self.model.trip_terms(&ctx));
        let mut beam = BeamSearch::new(
            self.net,
            req.prefix.clone(),
            req.dest_coord,
            beam_width,
            self.width,
            self.model.cfg.max_route_len,
        );
        // Closures bind at admission like the traffic context: in-flight
        // decodes keep the closure set they started with, new admissions
        // detour around whatever the feed has closed since.
        let closed = live.closed_segments();
        if !closed.is_empty() {
            beam.set_closed_segments(&closed);
        }
        // All but the last prefix segment warm the recurrent state; the
        // last is the search's first step token.
        let warmup = req.prefix[..req.prefix.len() - 1].to_vec();
        responder.admitted();
        self.active.push(Active {
            req,
            responder,
            enqueued,
            deadline_at,
            attempts: attempts + 1,
            trip,
            traffic_version,
            beam,
            warmup,
            warm_pos: 0,
            rows: vec![None],
            degradation,
            beam_width,
            done: false,
        });
        st_obs::gauge("serve.active_requests").set(self.active.len() as f64);
    }

    /// Tear down all active jobs (after a contained fault) and hand them
    /// back as queued jobs for retry. The session is assumed unusable; the
    /// caller drops this engine wholesale.
    pub(crate) fn take_jobs(&mut self) -> Vec<QueuedJob> {
        let now = Instant::now();
        self.active
            .drain(..)
            .map(|a| QueuedJob {
                req: a.req,
                responder: a.responder,
                enqueued: a.enqueued,
                deadline_at: a.deadline_at,
                attempts: a.attempts,
                not_before: now,
            })
            .collect()
    }

    /// Run one scheduler tick: deadline sweep, chaos hooks, one packed
    /// model step, per-job apply, responses for finished jobs.
    pub(crate) fn tick(
        &mut self,
        now: Instant,
        tick_no: u64,
        injector: Option<&ServeFaultInjector>,
    ) -> Result<(), TickFault> {
        // 1) Cooperative deadline check, between model steps.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].deadline_at <= now {
                let a = self.active.remove(i);
                self.sess.remove_trip(a.trip);
                st_obs::counter("serve.deadline_exceeded").inc();
                let waited_ms = now.duration_since(a.enqueued).as_millis() as u64;
                a.responder
                    .finish(Err(ServeError::DeadlineExceeded { waited_ms }));
            } else {
                i += 1;
            }
        }
        if self.active.is_empty() {
            st_obs::gauge("serve.active_requests").set(0.0);
            return Ok(());
        }

        // 2) Chaos hooks, keyed by the worker's tick counter.
        if let Some(inj) = injector {
            if let Some(ms) = inj.take_slow(tick_no) {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if inj.take_panic(tick_no) {
                // st-lint: allow(panic-in-lib) — injected fault under test
                panic!("injected chaos panic at serve tick {tick_no}");
            }
        }

        // 3) Plan every job's contribution to this tick's packed batch.
        self.plan_tokens.clear();
        self.plan_trips.clear();
        self.plan_spec.clear();
        self.planned.clear();
        let net = self.net;
        for (idx, a) in self.active.iter_mut().enumerate() {
            if a.done {
                continue;
            }
            if let Some(&tok) = a.warmup.get(a.warm_pos) {
                self.plan_tokens.push(tok);
                self.plan_trips.push(a.trip);
                self.plan_spec.push(a.rows[0]);
                self.planned.push((idx, PlanKind::Warm));
                continue;
            }
            let Active {
                beam, rows, trip, ..
            } = a;
            match beam.plan_step(net) {
                None => a.done = true,
                Some((toks, locals)) => {
                    for (k, &local) in locals.iter().enumerate() {
                        self.plan_tokens.push(toks[k]);
                        self.plan_trips.push(*trip);
                        self.plan_spec.push(rows[local]);
                    }
                    self.planned.push((idx, PlanKind::Search(locals.len())));
                }
            }
        }
        if self.plan_tokens.is_empty() {
            self.sweep_done();
            return Ok(());
        }
        st_obs::gauge("serve.batch_rows").set(self.plan_tokens.len() as f64);

        // 4) One packed step for every job's rows.
        let gathered = self.sess.gather_state_or_zero(&self.state, &self.plan_spec);
        let old = std::mem::replace(&mut self.state, gathered);
        self.sess.recycle_state(old);
        self.sess.step_into(
            &self.plan_tokens,
            &self.plan_trips,
            &mut self.state,
            &mut self.logp,
        );

        // 5) Poison chaos writes NaN into the step output; detection is
        // generic, so a real numeric fault takes the same typed path.
        if let Some(inj) = injector {
            if inj.take_poison(tick_no) {
                for v in self.logp.iter_mut() {
                    *v = f64::NAN;
                }
            }
        }
        if self.logp.iter().any(|v| v.is_nan()) {
            st_obs::counter("serve.poisoned_step").inc();
            return Err(TickFault::Poisoned);
        }

        // 6) Hand each job its slice; remap surviving rows to global
        // state-row indices for the next tick's gather.
        let width = self.width;
        let mut offset = 0usize;
        for (idx, kind) in self.planned.drain(..) {
            let a = &mut self.active[idx];
            match kind {
                PlanKind::Warm => {
                    a.rows.clear();
                    a.rows.push(Some(offset));
                    a.warm_pos += 1;
                    offset += 1;
                }
                PlanKind::Search(count) => {
                    let slice = &self.logp[offset * width..(offset + count) * width];
                    match a.beam.apply_step(net, slice) {
                        Some(survivors) => {
                            let mapped: Vec<Option<usize>> =
                                survivors.iter().map(|&r| Some(offset + r)).collect();
                            a.rows = mapped;
                        }
                        None => a.done = true,
                    }
                    offset += count;
                }
            }
        }

        // 7) Finished jobs respond and release their trip slot mid-flight.
        self.sweep_done();
        Ok(())
    }

    fn sweep_done(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            if !self.active[i].done {
                i += 1;
                continue;
            }
            let a = self.active.remove(i);
            self.sess.remove_trip(a.trip);
            let route = a.beam.into_route();
            let latency = a.enqueued.elapsed();
            self.completed_ms.push(latency.as_secs_f64() * 1e3);
            st_obs::counter("serve.completed").inc();
            a.responder.finish(Ok(RouteResponse {
                route,
                degradation: a.degradation,
                beam_width: a.beam_width,
                attempts: a.attempts,
                latency,
                worker: self.worker_id,
                traffic_version: a.traffic_version,
            }));
        }
        st_obs::gauge("serve.active_requests").set(self.active.len() as f64);
    }
}

/// Check a request for structural validity before it may enter the queue.
pub(crate) fn validate_request(
    model: &DeepSt,
    net: &RoadNetwork,
    req: &RouteRequest,
) -> Result<(), ServeError> {
    if req.prefix.is_empty() {
        return Err(ServeError::BadRequest("empty route prefix".into()));
    }
    if !net.is_valid_route(&req.prefix) {
        return Err(ServeError::BadRequest(
            "prefix is not a connected route on the graph".into(),
        ));
    }
    if !(req.dest_coord.x.is_finite() && req.dest_coord.y.is_finite()) {
        return Err(ServeError::BadRequest("non-finite destination".into()));
    }
    if !(req.dest_norm[0].is_finite() && req.dest_norm[1].is_finite()) {
        return Err(ServeError::BadRequest(
            "non-finite normalized destination".into(),
        ));
    }
    match (&req.traffic, model.cfg.use_traffic) {
        (None, true) => {
            return Err(ServeError::BadRequest(
                "model uses traffic but request has no traffic tensor".into(),
            ))
        }
        (Some(t), true) => check_traffic_tensor(model, t).map_err(ServeError::BadRequest)?,
        (Some(_), false) => {
            return Err(ServeError::BadRequest(
                "model has no traffic pathway but request carries a tensor".into(),
            ))
        }
        (None, false) => {}
    }
    Ok(())
}

/// Check that `tensor` is one `model` can read: exactly `grid_h × grid_w`
/// cells, all finite. Request tensors and feed events come from outside the
/// process, and one non-finite cell poisons every decode batched with it.
pub(crate) fn check_traffic_tensor(model: &DeepSt, tensor: &[f32]) -> Result<(), String> {
    let want = model.cfg.grid_h * model.cfg.grid_w;
    if tensor.len() != want {
        return Err(format!(
            "traffic tensor has {} cells, model wants {want}",
            tensor.len()
        ));
    }
    match tensor.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(format!("traffic tensor cell {i} is not finite")),
        None => Ok(()),
    }
}
