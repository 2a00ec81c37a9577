//! serve-steady and serve-live: open-loop load against `st-serve`.
//!
//! One generator thread sends every request when it is due (Poisson or
//! rush-hour arrival times drawn from `--seed`), samples the server's queue
//! gauges every millisecond between sends and, on serve-live, replays the
//! traffic feed through `Server::ingest_traffic`. Latency runs from when a
//! request was due to when its reply was produced, so a stall also charges
//! the requests queued behind it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use st_baselines::DeepStDecoder;
use st_core::livetraffic::{ApplyOutcome, TrafficCache, TrafficEvent, TrafficEventKind};
use st_core::DeepSt;
use st_roadnet::{RoadNetwork, SegmentId};
use st_serve::{
    Degradation, PendingResponse, RouteRequest, RouteResponse, ServeConfig, ServeError, Server,
};
use st_sim::{rush_hour_rate, CityPreset, Dataset, TrafficFeed};

use crate::clock::Cycles;
use crate::decode::{self, lib_decode, route_ok};
use crate::report::{Counters, Outcome};
use crate::spec::*;
use crate::stats::{percentile, sorted, Fastest};
use crate::tracer::{Acc, Tracer};
use crate::world::{repeat_setup, served, City};

/// Longest a reply may take after the last send before it counts as hung.
const HANG_BOUND: Duration = Duration::from_secs(30);
/// Pool requests answered serially after a server starts (fills the
/// engine's token memo and traffic cache before anything is timed).
const WARMUP: usize = 40;

/// The served world: city, trained model, request pool and running server.
struct ServeWorld {
    city: City,
    model: Arc<DeepSt>,
    net: Arc<RoadNetwork>,
    /// Pool requests and the test-split trip each was built from.
    pool: Vec<RouteRequest>,
    pool_trips: Vec<usize>,
    server: Server,
    fingerprint: u64,
    skipped: usize,
    peak_tape_bytes: usize,
}

fn serve_config(ds_slots: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        traffic_slots: Some(ds_slots),
        ..ServeConfig::default()
    }
}

impl ServeWorld {
    fn setup(traced: bool, tr: &mut Tracer) -> ServeWorld {
        let s = served(&CityPreset::rivertown(), RIVERTOWN_TRIPS, traced, tr);
        let ds = &s.city.ds;
        let pool_trips: Vec<usize> = s.city.split.test.iter().take(POOL).copied().collect();
        let pool: Vec<RouteRequest> = pool_trips
            .iter()
            .enumerate()
            .map(|(k, &i)| decode::query(ds, &ds.trips[i], k % 10 < PREFIX_TENTHS))
            .collect();
        let model = Arc::new(s.model);
        let net = Arc::new(ds.net.clone());
        let server = start_server(&model, &net, ds.num_slots(), &pool);
        ServeWorld {
            city: s.city,
            model,
            net,
            pool,
            pool_trips,
            server,
            fingerprint: s.fingerprint,
            skipped: s.skipped,
            peak_tape_bytes: s.peak_tape_bytes,
        }
    }
}

fn start_server(
    model: &Arc<DeepSt>,
    net: &Arc<RoadNetwork>,
    slots: usize,
    pool: &[RouteRequest],
) -> Server {
    let server = Server::new(Arc::clone(model), Arc::clone(net), serve_config(slots));
    for req in pool.iter().take(WARMUP) {
        let _ = server.predict(req.clone());
    }
    server
}

/// Set the serving world up [`SETUP_REPEATS`] times (once when traced);
/// `after` runs on each world once its set-up time is taken.
fn setup(traced: bool, tr: &mut Tracer, after: impl FnMut(&ServeWorld)) -> (ServeWorld, f64, bool) {
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    repeat_setup(
        repeats,
        || ServeWorld::setup(traced, tr),
        |w| w.fingerprint,
        after,
    )
}

/// What the generator does at one scheduled instant.
enum Action {
    Request(usize),
    Ingest(TrafficEvent),
}

/// How one request ended.
enum Ending {
    Done(RouteResponse),
    Shed,
    Deadline,
    Internal,
    Hung,
}

struct Reply {
    pool: usize,
    /// Seconds from load start: when it was due, and when `enqueue` began.
    due_s: f64,
    sent_s: f64,
    ending: Ending,
}

impl Reply {
    /// Due-to-reply milliseconds of a completed request.
    fn latency_ms(&self) -> Option<f64> {
        match &self.ending {
            Ending::Done(r) => {
                Some((self.sent_s - self.due_s) * 1e3 + r.latency.as_secs_f64() * 1e3)
            }
            _ => None,
        }
    }

    fn reply_s(&self) -> Option<f64> {
        match &self.ending {
            Ending::Done(r) => Some(self.sent_s + r.latency.as_secs_f64()),
            _ => None,
        }
    }

    fn meets_slo(&self) -> bool {
        matches!(&self.ending, Ending::Done(r) if r.degradation == Degradation::None)
            && self.latency_ms().is_some_and(|ms| ms <= SLO_MS)
    }

    fn failed(&self) -> bool {
        !matches!(self.ending, Ending::Done(_))
    }
}

/// One applied feed event, as the server's traffic state recorded it.
struct Ingested {
    at_s: f64,
    version: u64,
    event: TrafficEvent,
}

/// Everything one open-loop load phase measured.
struct Load {
    replies: Vec<Reply>,
    ingested: Vec<Ingested>,
    rejected_ingests: usize,
    late_ms: Vec<f64>,
    enqueue: Acc,
    ingest: Acc,
    depth_sum: f64,
    depth_max: f64,
    rows_sum: f64,
    samples: u64,
    counters: Counters,
}

/// Send `schedule` (seconds from start, sorted) open loop and await every
/// reply. Feed events are numbered from `seq` as they are sent.
fn run_load(
    server: &Server,
    pool: &[RouteRequest],
    schedule: Vec<(f64, Action)>,
    deadline: Option<Duration>,
    seq: &mut u64,
) -> Load {
    let depth = st_obs::gauge("serve.queue_depth");
    let rows = st_obs::gauge("serve.batch_rows");
    let before = Counters::read();
    let mut pending: Vec<(usize, f64, f64, Result<PendingResponse, ServeError>)> = Vec::new();
    let mut load = Load {
        replies: Vec::new(),
        ingested: Vec::new(),
        rejected_ingests: 0,
        late_ms: Vec::new(),
        enqueue: Acc::default(),
        ingest: Acc::default(),
        depth_sum: 0.0,
        depth_max: 0.0,
        rows_sum: 0.0,
        samples: 0,
        counters: Counters::default(),
    };
    let t0 = Instant::now();
    let mut next_sample = Duration::ZERO;
    for (at, action) in schedule {
        let due = Duration::from_secs_f64(at);
        loop {
            let now = t0.elapsed();
            if now >= due {
                break;
            }
            if now >= next_sample {
                let d = depth.get();
                load.depth_sum += d;
                load.depth_max = load.depth_max.max(d);
                load.rows_sum += rows.get();
                load.samples += 1;
                next_sample = now + Duration::from_millis(1);
            }
            std::thread::sleep((due.min(next_sample)).saturating_sub(t0.elapsed()));
        }
        let sent = Instant::now();
        let sent_s = (sent - t0).as_secs_f64();
        match action {
            Action::Request(i) => {
                load.late_ms.push((sent_s - at) * 1e3);
                let mut req = pool[i].clone();
                req.deadline = deadline;
                let res = server.enqueue(req);
                load.enqueue.add(sent.elapsed());
                pending.push((i, at, sent_s, res));
            }
            Action::Ingest(event) => {
                let event = stamp(event, seq);
                let outcome = server.ingest_traffic(&event);
                load.ingest.add(sent.elapsed());
                match outcome {
                    ApplyOutcome::Applied { version, .. } => load.ingested.push(Ingested {
                        at_s: t0.elapsed().as_secs_f64(),
                        version,
                        event,
                    }),
                    _ => load.rejected_ingests += 1,
                }
            }
        }
    }
    let bound = Instant::now() + HANG_BOUND;
    for (pool, due_s, sent_s, res) in pending {
        let ending = match res {
            Err(ServeError::Overloaded { .. }) => Ending::Shed,
            Err(_) => Ending::Internal,
            Ok(p) => match p.wait_until(bound) {
                None => Ending::Hung,
                Some(Ok(r)) => Ending::Done(r),
                Some(Err(ServeError::DeadlineExceeded { .. })) => Ending::Deadline,
                Some(Err(ServeError::Overloaded { .. })) => Ending::Shed,
                Some(Err(_)) => Ending::Internal,
            },
        };
        load.replies.push(Reply {
            pool,
            due_s,
            sent_s,
            ending,
        });
    }
    load.counters = Counters::read().since(&before);
    load
}

/// Number `event` next in send order: one thread sends the whole feed, so
/// with rising sequence numbers every event applies.
fn stamp(event: TrafficEvent, seq: &mut u64) -> TrafficEvent {
    *seq += 1;
    TrafficEvent {
        seq: *seq - 1,
        ..event
    }
}

/// Arrival times over `[0, seconds)` of a Poisson process with intensity
/// `rate(t)`, conditioned on its expected count: every seed offers the same
/// number of requests, and given that count the times are independent draws
/// from the normalized intensity (the order-statistics property of Poisson
/// processes), so the burstiness is a Poisson process's.
fn arrivals(rate: impl Fn(f64) -> f64, seconds: f64, seed: u64) -> Vec<f64> {
    const GRID: usize = 4096;
    let dt = seconds / GRID as f64;
    let mut cum = vec![0.0f64; GRID + 1];
    for i in 0..GRID {
        cum[i + 1] = cum[i] + rate((i as f64 + 0.5) * dt) * dt;
    }
    let total = cum[GRID];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draws: Vec<f64> = (0..total.round() as usize)
        .map(|_| rng.gen::<f64>() * total)
        .collect();
    draws.sort_by(f64::total_cmp);
    draws
        .iter()
        .map(|&x| {
            let i = cum.partition_point(|&c| c <= x).clamp(1, GRID);
            let frac = (x - cum[i - 1]) / (cum[i] - cum[i - 1]).max(f64::MIN_POSITIVE);
            (i as f64 - 1.0 + frac) * dt
        })
        .collect()
}

/// Pool indices in seeded order, every pool request once per [`POOL`]
/// draws, so each run's request mix is the pool's.
struct Draws {
    rng: StdRng,
    order: Vec<usize>,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws {
            rng: StdRng::seed_from_u64(seed),
            order: Vec::new(),
        }
    }

    fn next(&mut self) -> usize {
        if self.order.is_empty() {
            self.order = (0..POOL).collect();
            self.order.shuffle(&mut self.rng);
        }
        self.order.pop().unwrap_or(0)
    }
}

fn requests_at(times: &[f64], draws: &mut Draws) -> Vec<(f64, Action)> {
    times
        .iter()
        .map(|&at| (at, Action::Request(draws.next())))
        .collect()
}

/// Output checks shared by both serve workloads: every route valid, and a
/// deterministic sample of replies re-decoded serially bit for bit, under
/// the feed event behind the traffic version each reply reports.
fn check_replies(
    out: &mut Outcome,
    w: &ServeWorld,
    load: &Load,
    closures: &[(f64, SegmentId)],
    versions: &BTreeMap<u64, &TrafficEvent>,
) {
    let invalid = load
        .replies
        .iter()
        .filter(|r| matches!(&r.ending, Ending::Done(resp) if !route_ok(&w.net, &w.pool[r.pool], &resp.route)))
        .count();
    if invalid > 0 {
        out.fail(invalid as u64, "replies with invalid routes".into());
    }
    let done: Vec<&Reply> = load
        .replies
        .iter()
        .filter(|r| matches!(r.ending, Ending::Done(_)))
        .filter(|r| {
            // A closure ingested while the request was in flight may or may
            // not have bound at its admission; such replies are not sampled.
            let (lo, hi) = (r.sent_s, r.reply_s().unwrap_or(f64::INFINITY));
            !closures.iter().any(|&(at, _)| at >= lo && at <= hi)
        })
        .collect();
    let stride = (done.len() / PARITY_SAMPLE).max(1);
    let mut cache = TrafficCache::new(8);
    let mut checked = 0;
    for r in done.iter().step_by(stride).take(PARITY_SAMPLE) {
        let Ending::Done(resp) = &r.ending else {
            continue;
        };
        let req = &w.pool[r.pool];
        let own = req.traffic.as_deref().unwrap_or_default();
        let tensor = match versions.get(&resp.traffic_version) {
            Some(ev) => ev.tensor.as_slice(),
            None => own,
        };
        let closed: Vec<SegmentId> = closures
            .iter()
            .filter(|&&(at, _)| at < r.sent_s)
            .map(|&(_, s)| s)
            .collect();
        let oracle = lib_decode::<DeepStDecoder>(
            &w.model,
            &w.net,
            req,
            tensor,
            resp.traffic_version,
            &mut cache,
            resp.beam_width,
            &closed,
        );
        checked += 1;
        if oracle != resp.route {
            out.fail(
                1,
                format!(
                    "reply for pool request {} differs from the serial decode (beam {})",
                    r.pool, resp.beam_width
                ),
            );
        }
    }
    if checked < PARITY_SAMPLE.min(done.len()) || checked == 0 {
        out.fail(1, format!("only {checked} replies re-decoded"));
    }
}

/// Serve-layer per-layer metrics of a load phase.
fn load_layer_metrics(out: &mut Outcome, load: &Load) {
    let n = load.replies.len().max(1) as f64;
    let samples = load.samples.max(1) as f64;
    let c = &load.counters;
    let degraded = load
        .replies
        .iter()
        .filter(|r| matches!(&r.ending, Ending::Done(x) if x.degradation != Degradation::None))
        .count();
    let count = |f: fn(&Reply) -> bool| load.replies.iter().filter(|r| f(r)).count() as f64;
    out.layer("serve.queue_depth.mean", load.depth_sum / samples);
    out.layer("serve.queue_depth.max", load.depth_max);
    out.layer("serve.batch_rows.mean", load.rows_sum / samples);
    out.layer(
        "serve.shed_share",
        count(|r| matches!(r.ending, Ending::Shed)) / n,
    );
    out.layer(
        "serve.deadline_share",
        count(|r| matches!(r.ending, Ending::Deadline)) / n,
    );
    out.layer("serve.degraded_share", degraded as f64 / n);
    out.layer("serve.retries", c.retry as f64);
    out.layer("traffic.applied", c.ingest_applied as f64);
    let lookups = (c.cache_hit + c.cache_miss).max(1) as f64;
    out.layer("traffic.cache_hit_ratio", c.cache_hit as f64 / lookups);
    out.layer("traffic.invalidations", c.cache_invalidate as f64);
    out.layer("traffic.closed_fallbacks", c.closed_fallback as f64);
    let server_ms: Vec<f64> = sorted(
        &load
            .replies
            .iter()
            .filter_map(|r| match &r.ending {
                Ending::Done(x) => Some(x.latency.as_secs_f64() * 1e3),
                _ => None,
            })
            .collect::<Vec<_>>(),
    );
    out.extra("serve.enqueue_us.p50", load.enqueue.p50_us(), "us");
    out.extra("serve.enqueue_us.p99", load.enqueue.p99_us(), "us");
    out.extra("serve.server_ms.p50", percentile(&server_ms, 0.5), "ms");
    out.extra("serve.server_ms.p99", percentile(&server_ms, 0.99), "ms");
    if load.ingest.count > 0 {
        out.extra("traffic.ingest_us.p50", load.ingest.p50_us(), "us");
        out.extra("traffic.ingest_us.p99", load.ingest.p99_us(), "us");
    }
}

/// Due-to-reply latency percentiles of a load phase's completed replies;
/// the run is invalid when the generator sent late.
fn latency(out: &mut Outcome, load: &Load) {
    let late_p99 = percentile(&sorted(&load.late_ms), 0.99);
    out.extra("bench.gen_late_ms.p99", late_p99, "ms");
    if late_p99 > GEN_LATE_LIMIT_MS {
        out.invalid(format!(
            "generator p99 lateness {late_p99:.3} ms exceeds {GEN_LATE_LIMIT_MS} ms"
        ));
    }
    out.latencies(&sorted(
        &load
            .replies
            .iter()
            .filter_map(Reply::latency_ms)
            .collect::<Vec<_>>(),
    ));
}

/// Serial replay of the pool: untraced (library calls) and traced (layer
/// by layer), alternated [`TRACED_ROUNDS`] times each. Gives the
/// composition of service time, `obs.overhead_pct` and `obs.coverage`.
fn replay(w: &ServeWorld, out: &mut Outcome, tr: &mut Tracer) {
    let mut cache = TrafficCache::new(128);
    decode::warm_cache(&w.model, &mut cache, &w.pool);
    let p =
        decode::passes::<DeepStDecoder>(&w.model, &w.net, &w.pool, &mut cache, TRACED_ROUNDS, tr);
    out.decode_passes(&p, true);
    out.served_training(w.peak_tape_bytes, &w.model);
}

/// Phase B: a server closed loop at its capacity, in [`B_STRETCHES`]
/// stretches, one on each set-up repetition's server as soon as it is up
/// and one more on the last after phase A (the servers are identical).
/// [`IN_FLIGHT`] requests stay outstanding (a new one is sent as the oldest
/// replies), the pool sent in one seeded order over and over across every
/// stretch. Each [`CAPACITY_CHUNK`] consecutive sends of that order is one
/// work unit; the rate is the pool's size over one pass of the order with
/// every unit at its fastest, timed from the reply that ends the previous
/// unit to the reply that ends it, in cycles from the probe readings the
/// generator takes at every reply. A stretch's first [`IN_FLIGHT`] replies
/// (the ramp-up) and its last [`IN_FLIGHT`] (the drain) start or end no
/// unit.
struct Capacity {
    order: Vec<usize>,
    sent: usize,
    /// Each unit's fastest time, in billions of cycles and in seconds.
    fastest: Fastest,
    fastest_s: Fastest,
    clock: Cycles,
    replies: u64,
    /// Replies that failed or decoded invalid routes.
    failed: u64,
    degraded: u64,
    rejected_ingests: u64,
    /// Segments closed on each server before its first stretch, replies
    /// that use one of them beyond their prefix, and boxed-in fallbacks
    /// counted during the stretches.
    closed: Vec<SegmentId>,
    closed_hits: u64,
    fallbacks: u64,
}

impl Capacity {
    fn new(seed: u64) -> Capacity {
        let mut order: Vec<usize> = (0..POOL).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xCA9A));
        Capacity {
            order,
            sent: 0,
            fastest: Fastest::new(POOL / CAPACITY_CHUNK),
            fastest_s: Fastest::new(POOL / CAPACITY_CHUNK),
            clock: Cycles::start(),
            replies: 0,
            failed: 0,
            degraded: 0,
            rejected_ingests: 0,
            closed: Vec::new(),
            closed_hits: 0,
            fallbacks: 0,
        }
    }

    /// Requests per billion cycles and per second (0 until every unit has
    /// been timed).
    fn rates(&self) -> (f64, f64) {
        let pool = POOL as f64;
        (pool / self.fastest.pass_s(), pool / self.fastest_s.pass_s())
    }

    /// Close the workload's segments on `w`'s server, numbering the events
    /// from `seq`.
    fn close(&mut self, w: &ServeWorld, seq: &mut u64) {
        self.closed.clear();
        for ev in closure_events(w) {
            if let TrafficEventKind::Closure { segment } = ev.kind {
                self.closed.push(segment);
            }
            if !matches!(
                w.server.ingest_traffic(&stamp(ev, seq)),
                ApplyOutcome::Applied { .. }
            ) {
                self.rejected_ingests += 1;
            }
        }
    }

    /// One stretch of `seconds`; after every reply, `feed_per_reply`
    /// events of `feed` go to `Server::ingest_traffic`, numbered from `seq`.
    fn stretch(
        &mut self,
        w: &ServeWorld,
        seconds: f64,
        feed: &mut dyn Iterator<Item = TrafficEvent>,
        feed_per_reply: usize,
        seq: &mut u64,
    ) {
        let fallback = st_obs::counter("decode.closed.fallback");
        let fallbacks_before = fallback.get();
        let first = self.sent;
        let (order, sent) = (&self.order, &mut self.sent);
        let mut send = || {
            let i = order[*sent % POOL];
            *sent += 1;
            (i, w.server.enqueue(w.pool[i].clone()))
        };
        let mut pending: VecDeque<_> = (0..IN_FLIGHT).map(|_| send()).collect();
        // Seconds and billions of cycles from the stretch's start to each
        // reply.
        let mut done_at = Vec::new();
        let mut done_g = Vec::new();
        let clock = &mut self.clock;
        clock.resume();
        let mut g = 0.0;
        let t0 = Instant::now();
        while let Some((i, res)) = pending.pop_front() {
            let reply = match res {
                Err(_) => None,
                Ok(p) => p
                    .wait_until(Instant::now() + HANG_BOUND)
                    .and_then(Result::ok),
            };
            match reply {
                Some(r) => {
                    self.degraded += u64::from(r.degradation != Degradation::None);
                    self.failed += u64::from(!route_ok(&w.net, &w.pool[i], &r.route));
                    self.closed_hits += u64::from(uses_closed(&w.pool[i], &r.route, &self.closed));
                }
                None => self.failed += 1,
            }
            for ev in (&mut *feed).take(feed_per_reply) {
                let ev = stamp(ev, seq);
                if !matches!(w.server.ingest_traffic(&ev), ApplyOutcome::Applied { .. }) {
                    self.rejected_ingests += 1;
                }
            }
            done_at.push(t0.elapsed().as_secs_f64());
            g += clock.lap().1;
            done_g.push(g);
            if t0.elapsed().as_secs_f64() < seconds {
                pending.push_back(send());
            }
        }
        self.replies += done_at.len() as u64;
        self.fallbacks += fallback.get() - fallbacks_before;
        let usable = done_at.len().saturating_sub(IN_FLIGHT);
        for end in IN_FLIGHT + CAPACITY_CHUNK..usable {
            if (first + end + 1).is_multiple_of(CAPACITY_CHUNK) {
                let unit = (first + end) / CAPACITY_CHUNK;
                let start = end - CAPACITY_CHUNK;
                self.fastest.record(unit, done_g[end] - done_g[start]);
                self.fastest_s.record(unit, done_at[end] - done_at[start]);
            }
        }
    }
}

/// Record phase B on `out`.
fn capacity_metrics(out: &mut Outcome, c: &Capacity) {
    if c.failed > 0 {
        out.fail(
            c.failed,
            "capacity phase: replies failed or decoded invalid routes".into(),
        );
    }
    if c.rejected_ingests > 0 {
        out.fail(
            c.rejected_ingests,
            "capacity phase: feed events were rejected".into(),
        );
    }
    if c.closed_hits > 0 && c.fallbacks == 0 {
        out.fail(
            c.closed_hits,
            "capacity phase: replies use a closed segment".into(),
        );
    }
    let (per_gcycle, per_s) = c.rates();
    if per_gcycle == 0.0 {
        out.fail(
            1,
            "capacity phase too short to time every unit of the pool order".into(),
        );
    }
    out.attempted += c.replies;
    out.detail("capacity_degraded", c.degraded as f64);
    out.e2e("ops_per_gcycle", per_gcycle);
    out.extra("ops_per_s", per_s, "1/s");
    out.extra("clock_ghz", c.clock.median_ghz(), "GHz");
}

/// serve-steady: phase A sends Poisson arrivals at [`STEADY_RATE`] for a
/// share of `seconds`; phase B runs the servers closed loop at capacity for
/// the rest, in stretches around it (see [`Capacity`]).
pub fn steady(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new(Workload::ServeSteady);
    let mut tr = if traced {
        Tracer::sampling()
    } else {
        Tracer::default()
    };
    let mut cap = Capacity::new(seed);
    let stretch_s = seconds * (1.0 - PHASE_A_SHARE) / B_STRETCHES as f64;
    let no_feed = &mut std::iter::empty();
    let (w, setup_s, agree) = setup(traced, &mut tr, |w| {
        if !traced {
            cap.stretch(w, stretch_s, no_feed, 0, &mut 0);
        }
    });
    out.setup(setup_s, agree, w.skipped);
    let mut draws = Draws::new(seed);

    let times = arrivals(|_| STEADY_RATE, seconds * PHASE_A_SHARE, seed);
    let schedule = requests_at(&times, &mut draws);
    let load = run_load(&w.server, &w.pool, schedule, None, &mut 0);
    latency(&mut out, &load);
    out.attempted += load.replies.len() as u64;
    out.failed += load.replies.iter().filter(|r| r.failed()).count() as u64;
    check_replies(&mut out, &w, &load, &[], &BTreeMap::new());
    load_layer_metrics(&mut out, &load);
    if traced {
        replay(&w, &mut out, &mut tr);
        out.finish_traced(&tr);
        return out;
    }
    cap.stretch(&w, stretch_s, no_feed, 0, &mut 0);
    capacity_metrics(&mut out, &cap);
    out
}

/// The feed's observation and incident events, cycled without end. The
/// feed's own closures are left out: closures come only from the run's
/// schedule, so the closure check knows which segments close when.
struct FeedReplay {
    events: Vec<TrafficEvent>,
    next: usize,
}

impl FeedReplay {
    fn new(ds: &Dataset) -> FeedReplay {
        let events = TrafficFeed::from_dataset(ds)
            .events()
            .iter()
            .filter(|ev| !matches!(ev.kind, TrafficEventKind::Closure { .. }))
            .cloned()
            .collect();
        FeedReplay { events, next: 0 }
    }
}

impl Iterator for FeedReplay {
    type Item = TrafficEvent;

    fn next(&mut self) -> Option<TrafficEvent> {
        let ev = self.events.get(self.next % self.events.len().max(1))?;
        self.next += 1;
        Some(ev.clone())
    }
}

/// The workload's closures: an interior segment of each of [`CLOSURES`]
/// pool routes, fixed by [`WORLD_SEED`], under the slot of the request
/// whose route it cuts.
fn closure_events(w: &ServeWorld) -> Vec<TrafficEvent> {
    let mut rng = StdRng::seed_from_u64(WORLD_SEED ^ 0xC105E);
    let ds = &w.city.ds;
    (0..CLOSURES)
        .map(|_| {
            let k = rng.gen_range(0..POOL);
            let route = &ds.trips[w.pool_trips[k]].route;
            let segment = route[(route.len() / 2).max(PREFIX_LEN).min(route.len() - 1)];
            let slot = w.pool[k].slot_id;
            TrafficEvent {
                seq: 0,
                time: 0.0,
                slot,
                kind: TrafficEventKind::Closure { segment },
                tensor: ds.traffic_tensor(slot).to_vec(),
            }
        })
        .collect()
}

/// Whether `route` uses one of `closed` beyond the request's prefix.
fn uses_closed(req: &RouteRequest, route: &[SegmentId], closed: &[SegmentId]) -> bool {
    route
        .get(req.prefix.len()..)
        .is_some_and(|rest| rest.iter().any(|s| closed.contains(s)))
}

/// serve-live. Phase B runs the set-up servers closed loop at capacity
/// while the feed keeps arriving, under the workload's closures, applied to
/// each server before its first stretch so that every stretch decodes the
/// same routes. Phase A runs on a server of its own: rush-hour arrivals
/// with deadlines and the degradation ladder on, while the same thread
/// replays the feed and applies the same closures one by one.
pub fn live(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new(Workload::ServeLive);
    let mut tr = if traced {
        Tracer::sampling()
    } else {
        Tracer::default()
    };
    let mut cap = Capacity::new(seed);
    let stretch_s = seconds * (1.0 - PHASE_A_SHARE) / B_STRETCHES as f64;
    let mut feed: Option<FeedReplay> = None;
    let mut seq = 0u64;
    let (w, setup_s, agree) = setup(traced, &mut tr, |w| {
        let events = feed.get_or_insert_with(|| FeedReplay::new(&w.city.ds));
        if !traced {
            cap.close(w, &mut seq);
            cap.stretch(w, stretch_s, events, FEED_PER_REPLY, &mut seq);
        }
    });
    out.setup(setup_s, agree, w.skipped);
    let mut draws = Draws::new(seed);
    let ds = &w.city.ds;
    let mut events = feed.unwrap_or_else(|| FeedReplay::new(ds));
    let closure_set = closure_events(&w);

    let phase_a = seconds * PHASE_A_SHARE;
    let times = arrivals(
        |t| rush_hour_rate(LIVE_BASE_RATE, LIVE_PEAK, t, phase_a),
        phase_a,
        seed,
    );
    let mut schedule = requests_at(&times, &mut draws);
    let n_events = (phase_a * FEED_RATE) as usize;
    schedule.extend(
        events
            .by_ref()
            .take(n_events)
            .enumerate()
            .map(|(k, ev)| (k as f64 / FEED_RATE, Action::Ingest(ev))),
    );
    for (j, ev) in closure_set.into_iter().enumerate() {
        let at = (j as f64 + 0.5) * phase_a / CLOSURES as f64;
        schedule.push((at, Action::Ingest(TrafficEvent { time: at, ..ev })));
    }
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));

    let server = start_server(&w.model, &w.net, ds.num_slots(), &w.pool);
    let deadline = Some(Duration::from_millis(LIVE_DEADLINE_MS));
    let load = run_load(&server, &w.pool, schedule, deadline, &mut seq);
    drop(server);
    latency(&mut out, &load);
    out.attempted += load.replies.len() as u64;
    out.failed += load.replies.iter().filter(|r| r.failed()).count() as u64;
    if load.rejected_ingests > 0 {
        out.fail(
            load.rejected_ingests as u64,
            "feed events were rejected".into(),
        );
    }
    let closures = closures(&load);
    check_closures(&mut out, &w, &load, &closures);
    let versions = load
        .ingested
        .iter()
        .map(|g| (g.version, &g.event))
        .collect();
    check_replies(&mut out, &w, &load, &closures, &versions);
    let good = load.replies.iter().filter(|r| r.meets_slo()).count();
    out.extra("goodput_rps", good as f64 / phase_a, "req/s");
    load_layer_metrics(&mut out, &load);
    if traced {
        replay(&w, &mut out, &mut tr);
        out.finish_traced(&tr);
        return out;
    }
    cap.stretch(&w, stretch_s, &mut events, FEED_PER_REPLY, &mut seq);
    capacity_metrics(&mut out, &cap);
    out
}

/// Applied closures: when their ingest returned, and the closed segment.
fn closures(load: &Load) -> Vec<(f64, SegmentId)> {
    load.ingested
        .iter()
        .filter_map(|g| match g.event.kind {
            TrafficEventKind::Closure { segment } => Some((g.at_s, segment)),
            _ => None,
        })
        .collect()
}

/// Every scheduled closure applied, and — unless a boxed-in fallback was
/// counted — no reply sent after a closure uses the closed segment.
fn check_closures(out: &mut Outcome, w: &ServeWorld, load: &Load, closures: &[(f64, SegmentId)]) {
    if closures.len() != CLOSURES {
        out.fail(
            1,
            format!("{} of {CLOSURES} closures applied", closures.len()),
        );
    }
    if load.counters.closed_fallback > 0 {
        return;
    }
    let violations = load
        .replies
        .iter()
        .filter(|r| match &r.ending {
            Ending::Done(resp) => {
                let closed: Vec<SegmentId> = closures
                    .iter()
                    .filter(|&&(at, _)| at < r.sent_s)
                    .map(|&(_, seg)| seg)
                    .collect();
                uses_closed(&w.pool[r.pool], &resp.route, &closed)
            }
            _ => false,
        })
        .count() as u64;
    if violations > 0 {
        out.fail(
            violations,
            "replies sent after a closure use the closed segment".into(),
        );
    }
}
