//! Streaming-traffic benchmark: feed ingest throughput, targeted cache
//! invalidation, and prediction reaction latency under live updates.
//!
//! Three phases on one simulated city:
//!
//! - **state ingest** — the full [`TrafficFeed`] derived from the dataset
//!   (per-slot observation sweeps + ground-truth incidents/closures) is
//!   replayed into fresh [`VersionedTraffic`] states until enough wall time
//!   accumulates for a stable events/sec figure. With `--chaos` the same
//!   feed is also mangled by a seeded [`FeedFaultPlan`] (duplicates,
//!   adjacent swaps, past-horizon stragglers) and the mangled replay must
//!   converge to the clean state bit-for-bit — the CRDT-ish idempotence
//!   property the unit tests pin, measured here at dataset scale.
//! - **serve ingest** — the clean feed is pushed through
//!   [`Server::ingest_traffic`] on a live server whose encode cache was
//!   pre-warmed at feed version 0, so every sweep exercises the versioned
//!   cache-key path; the `serve.traffic_ingest.*` and
//!   `predict.traffic_cache.*` counter deltas are reported.
//! - **reaction** — street-level incidents are injected one at a time via
//!   [`st_sim::incident_event`] into slots spread across the horizon.
//!   For each: predict, ingest, predict again. The post-ingest response
//!   must decode under the bumped traffic version — a reaction latency of
//!   **zero whole slots** (the ISSUE gate is ≤ 1). Any response still
//!   carrying the pre-ingest version counts as a *stale serve* and fails
//!   the benchmark, as does a reaction phase whose targeted-invalidation
//!   counter stays flat (that would mean stale encodes were served from
//!   cache instead of being evicted).
//!
//! Writes `results/BENCH_stream.json` (atomically: tmp + fsync + rename)
//! and a recorded trace to `results/trace_stream.jsonl`.
//!
//! Usage: `cargo run --release -p st-bench --bin bench_stream [-- --quick|--full] [--chaos]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::json;

use st_bench::{host_meta, make_dataset, results_dir, City, Scale};
use st_core::faultinject::FeedFaultPlan;
use st_core::{DeepSt, TrafficEventKind, VersionedTraffic};
use st_eval::deepst_config;
use st_eval::report::write_json;
use st_serve::{RouteRequest, ServeConfig, Server};
use st_sim::{incident_event, Dataset, TrafficFeed, Trip, SLOT_SECS};

/// Minimum wall time the state-ingest phase accumulates before trusting
/// its events/sec figure.
const INGEST_MIN_WALL: Duration = Duration::from_millis(200);
/// Upper bound on state-ingest replays (keeps --full runs bounded).
const INGEST_MAX_REPEATS: usize = 200;
/// Incidents injected in the reaction phase.
const REACTION_INCIDENTS: usize = 6;

struct Args {
    scale: Scale,
    chaos: bool,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut full = false;
    let mut chaos = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--chaos" => chaos = true,
            other => {
                eprintln!("error: unknown argument `{other}` (expected --quick, --full, --chaos)");
                std::process::exit(2);
            }
        }
    }
    let scale = if quick {
        Scale::quick()
    } else if full {
        Scale::full()
    } else {
        Scale::default()
    };
    Args { scale, chaos }
}

/// Snapshot of the streaming counters, for per-phase deltas.
#[derive(Clone)]
struct Counters {
    feed_applied: u64,
    feed_duplicate: u64,
    feed_out_of_order: u64,
    feed_past_horizon: u64,
    serve_applied: u64,
    serve_rejected: u64,
    cache_hit: u64,
    cache_miss: u64,
    cache_invalidate: u64,
}

fn counters() -> Counters {
    Counters {
        feed_applied: st_obs::counter("traffic.feed.applied").get(),
        feed_duplicate: st_obs::counter("traffic.feed.duplicate").get(),
        feed_out_of_order: st_obs::counter("traffic.feed.out_of_order").get(),
        feed_past_horizon: st_obs::counter("traffic.feed.past_horizon").get(),
        serve_applied: st_obs::counter("serve.traffic_ingest.applied").get(),
        serve_rejected: st_obs::counter("serve.traffic_ingest.rejected").get(),
        cache_hit: st_obs::counter("predict.traffic_cache.hit").get(),
        cache_miss: st_obs::counter("predict.traffic_cache.miss").get(),
        cache_invalidate: st_obs::counter("predict.traffic_cache.invalidate").get(),
    }
}

impl Counters {
    fn delta(&self, before: &Counters) -> Counters {
        Counters {
            feed_applied: self.feed_applied - before.feed_applied,
            feed_duplicate: self.feed_duplicate - before.feed_duplicate,
            feed_out_of_order: self.feed_out_of_order - before.feed_out_of_order,
            feed_past_horizon: self.feed_past_horizon - before.feed_past_horizon,
            serve_applied: self.serve_applied - before.serve_applied,
            serve_rejected: self.serve_rejected - before.serve_rejected,
            cache_hit: self.cache_hit - before.cache_hit,
            cache_miss: self.cache_miss - before.cache_miss,
            cache_invalidate: self.cache_invalidate - before.cache_invalidate,
        }
    }
}

/// A route query pinned to `slot`, carrying that slot's observed tensor
/// (what a client that has not seen the live feed would send).
fn request_for_slot(ds: &Dataset, trip: &Trip, slot: usize) -> RouteRequest {
    RouteRequest {
        prefix: vec![trip.origin_segment()],
        dest_coord: trip.dest_coord,
        dest_norm: ds.unit_coord(&trip.dest_coord),
        traffic: Some(ds.traffic_tensor(slot).to_vec()),
        slot_id: slot,
        deadline: None,
    }
}

fn main() {
    let args = parse_args();
    let city = City::Rivertown;
    println!(
        "bench_stream: {} ({} trips{})",
        city.name(),
        args.scale.trips,
        if args.chaos { ", chaos on" } else { "" }
    );
    st_obs::start_recording();

    let ds = make_dataset(city, &args.scale);
    let feed = TrafficFeed::from_dataset(&ds);
    let observations = feed
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TrafficEventKind::Observation))
        .count();
    let closures = feed
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TrafficEventKind::Closure { .. }))
        .count();
    println!(
        "  feed: {} events over {} slots ({} sweeps, {} incidents, {} closures)",
        feed.len(),
        feed.horizon_slots(),
        observations,
        feed.len() - observations - closures,
        closures
    );

    // --- phase 1: raw state-machine ingest throughput --------------------
    let before = counters();
    let t0 = Instant::now();
    let mut repeats = 0usize;
    while t0.elapsed() < INGEST_MIN_WALL && repeats < INGEST_MAX_REPEATS {
        let mut state = VersionedTraffic::with_horizon(feed.horizon_slots());
        for ev in feed.events() {
            if !state.apply(ev).is_applied() {
                eprintln!("FAIL: clean feed event rejected: {ev:?}");
                std::process::exit(1);
            }
        }
        repeats += 1;
    }
    let ingest_elapsed = t0.elapsed().as_secs_f64();
    let ingest_applied = counters().delta(&before).feed_applied;
    let events_per_sec = ingest_applied as f64 / ingest_elapsed.max(1e-9);
    println!(
        "  state ingest: {ingest_applied} events in {repeats} replays, {:.0} events/sec",
        events_per_sec
    );

    // --- phase 1b (--chaos): mangled replay must converge ----------------
    let mut chaos_json = serde_json::Value::Null;
    let mut chaos_converged = true;
    if args.chaos {
        let plan = FeedFaultPlan::random(args.scale.seed, feed.len(), 0.10, 0.15, 0.05);
        let mangled = plan.mangle(feed.events(), feed.horizon_slots());
        let mut clean_state = VersionedTraffic::with_horizon(feed.horizon_slots());
        for ev in feed.events() {
            clean_state.apply(ev);
        }
        let before = counters();
        let mut state = VersionedTraffic::with_horizon(feed.horizon_slots());
        for ev in &mangled {
            state.apply(ev);
        }
        let d = counters().delta(&before);
        for slot in 0..feed.horizon_slots() {
            if state.tensor(slot) != clean_state.tensor(slot) {
                eprintln!("FAIL: mangled replay diverged from clean state at slot {slot}");
                chaos_converged = false;
            }
        }
        if state.closed_segments() != clean_state.closed_segments() {
            eprintln!("FAIL: mangled replay lost or invented closures");
            chaos_converged = false;
        }
        if d.feed_duplicate + d.feed_out_of_order + d.feed_past_horizon == 0 {
            eprintln!("FAIL: chaos plan injected no delivery faults");
            chaos_converged = false;
        }
        println!(
            "  chaos ingest: {} mangled events — {} applied, {} dup, {} out-of-order, {} past-horizon, converged: {}",
            mangled.len(),
            d.feed_applied,
            d.feed_duplicate,
            d.feed_out_of_order,
            d.feed_past_horizon,
            chaos_converged
        );
        chaos_json = json!({
            "mangled_events": mangled.len(),
            "applied": d.feed_applied,
            "duplicate": d.feed_duplicate,
            "out_of_order": d.feed_out_of_order,
            "past_horizon": d.feed_past_horizon,
            "converged": chaos_converged,
        });
    }

    // --- phase 2: serve-side ingest with a warm encode cache -------------
    // Untrained weights run the same per-step arithmetic as trained ones;
    // streaming behaviour (versioning, invalidation, reaction) does not
    // depend on what the model learned.
    let model = Arc::new(DeepSt::new(deepst_config(&ds, 24), args.scale.seed));
    let net = Arc::new(ds.net.clone());
    let split = ds.default_split();
    let trip = &ds.trips[*split.test.first().unwrap_or(&0)];

    // Single worker so the warm-cache / invalidation counter deltas
    // below are deterministic (each worker owns its own encode cache).
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 64,
        max_batch_rows: 64,
        default_deadline: Duration::from_secs(30),
        degrade_queue_depth: usize::MAX,
        greedy_queue_depth: usize::MAX,
        degrade_p99_ms: f64::INFINITY,
        greedy_p99_ms: f64::INFINITY,
        traffic_slots: Some(ds.num_slots()),
        ..ServeConfig::default()
    };
    let server = Server::new(Arc::clone(&model), Arc::clone(&net), cfg);

    // Incident slots spread across the horizon (deduped, in order).
    let n_slots = ds.num_slots();
    let mut incident_slots: Vec<usize> = (0..REACTION_INCIDENTS)
        .map(|i| i * n_slots.max(1) / REACTION_INCIDENTS)
        .collect();
    incident_slots.dedup();

    // Warm the encode cache at feed version 0, then replay the clean feed
    // through the server: every sweep must apply, and each warmed slot's
    // version-0 entry must be lazily evicted on the next admit.
    for &slot in &incident_slots {
        let _ = server.predict(request_for_slot(&ds, trip, slot));
    }
    let before = counters();
    let t0 = Instant::now();
    for ev in feed.events() {
        server.ingest_traffic(ev);
    }
    let serve_ingest_elapsed = t0.elapsed().as_secs_f64();
    let serve_d = counters().delta(&before);
    let serve_events_per_sec = serve_d.serve_applied as f64 / serve_ingest_elapsed.max(1e-9);
    println!(
        "  serve ingest: {} applied, {} rejected, {:.0} events/sec",
        serve_d.serve_applied, serve_d.serve_rejected, serve_events_per_sec
    );

    // --- phase 3: injected incidents, reaction measured in slots ---------
    let n_seg = net.num_segments();
    let mut injected = 0usize;
    let mut stale_serves = 0usize;
    let mut routes_changed = 0usize;
    let mut max_reaction_slots = 0usize;
    let reaction_before = counters();
    for (i, &slot) in incident_slots.iter().enumerate() {
        // Fresh seqs above the whole ingested feed keep per-slot ordering
        // happy; an incident center that actually lands on the observation
        // grid is found by walking the segment list until one maps to a cell.
        let next_seq = (feed.len() + i) as u64;
        let ev = (0..n_seg).find_map(|k| {
            let center = net.midpoint((i * 37 + k) % n_seg);
            incident_event(&ds, next_seq, (slot as f64 + 0.5) * SLOT_SECS, &center, 0.9)
        });
        let Some(ev) = ev else {
            eprintln!("FAIL: no segment midpoint maps onto the observation grid");
            std::process::exit(1);
        };

        let req = request_for_slot(&ds, trip, slot);
        let pre = server
            .predict(req.clone())
            .expect("no faults armed on this server");
        if !server.ingest_traffic(&ev).is_applied() {
            eprintln!("FAIL: injected incident for slot {slot} was rejected");
            std::process::exit(1);
        }
        injected += 1;
        let post = server.predict(req).expect("no faults armed on this server");
        // Reaction latency in slots: the incident lands in `slot`; the very
        // next prediction for `slot` must already decode under the bumped
        // version (0 slots). A stale version means the reaction missed the
        // current slot entirely — report it as beyond the 1-slot gate.
        if post.traffic_version <= pre.traffic_version {
            stale_serves += 1;
            max_reaction_slots = max_reaction_slots.max(2);
        }
        if post.route != pre.route {
            routes_changed += 1;
        }
    }
    let reaction_d = counters().delta(&reaction_before);
    server.shutdown();
    println!(
        "  reaction: {injected} incidents, max {max_reaction_slots} slot(s), {stale_serves} stale serves, {routes_changed} routes changed, {} targeted invalidations",
        reaction_d.cache_invalidate
    );

    // --- trace + report --------------------------------------------------
    let trace = st_obs::drain();
    st_obs::stop_recording();
    let dir = results_dir();
    let trace_path = dir.join("trace_stream.jsonl");
    let meta = json!({
        "bench": "bench_stream",
        "city": city.name(),
        "chaos": args.chaos,
    });
    if let Err(e) = st_obs::write_jsonl(&trace_path, &meta, &trace) {
        eprintln!("error: writing trace: {e}");
        std::process::exit(1);
    }

    let out = json!({
        "bench": "bench_stream",
        "city": city.name(),
        "chaos": args.chaos,
        "host": host_meta(),
        "feed": {
            "events": feed.len(),
            "horizon_slots": feed.horizon_slots(),
            "observations": observations,
            "incidents": feed.len() - observations - closures,
            "closures": closures,
        },
        "state_ingest": {
            "replays": repeats,
            "applied": ingest_applied,
            "events_per_sec": events_per_sec,
        },
        "chaos_ingest": chaos_json,
        "serve_ingest": {
            "applied": serve_d.serve_applied,
            "rejected": serve_d.serve_rejected,
            "events_per_sec": serve_events_per_sec,
            "cache_invalidations": serve_d.cache_invalidate,
        },
        "reaction": {
            "incidents": injected,
            "max_reaction_slots": max_reaction_slots,
            "stale_serves": stale_serves,
            "routes_changed": routes_changed,
            "cache_hits": reaction_d.cache_hit,
            "cache_misses": reaction_d.cache_miss,
            "cache_invalidations": reaction_d.cache_invalidate,
        },
    });
    let path = dir.join("BENCH_stream.json");
    if let Err(e) = write_json(&path, &out) {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("  wrote {} and {}", path.display(), trace_path.display());

    // --- hard gates ------------------------------------------------------
    let mut failed = false;
    if !chaos_converged {
        failed = true; // details already printed above
    }
    if serve_d.serve_applied != feed.len() as u64 {
        eprintln!(
            "FAIL: clean feed had rejections at the serve layer ({}/{} applied)",
            serve_d.serve_applied,
            feed.len()
        );
        failed = true;
    }
    if stale_serves > 0 || max_reaction_slots > 1 {
        eprintln!(
            "FAIL: {stale_serves} prediction(s) served a stale traffic version — reaction exceeded the 1-slot gate"
        );
        failed = true;
    }
    if reaction_d.cache_invalidate < injected as u64 {
        eprintln!(
            "FAIL: only {} targeted invalidation(s) for {injected} applied incidents — stale encodes were served from cache",
            reaction_d.cache_invalidate
        );
        failed = true;
    }
    if injected == 0 {
        eprintln!("FAIL: reaction phase injected no incidents");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_stream: OK");
}
