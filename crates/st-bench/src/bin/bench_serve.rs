//! Serving benchmark: open-loop load generation against the `st-serve`
//! route-prediction service.
//!
//! Measures the service at two load levels on the same model and city:
//!
//! - **nominal** — a homogeneous Poisson arrival process at roughly half
//!   the measured serial decode capacity, the regime where no shedding or
//!   degradation should occur;
//! - **overload** — an inhomogeneous rush-hour process (the simulator's
//!   diurnal profile compressed into the benchmark window) whose peak
//!   offered rate far exceeds capacity, the regime where the admission
//!   queue must shed, deadlines must expire, and the degradation ladder
//!   must engage — all as *typed* outcomes, never hangs.
//!
//! The generator is open-loop: arrivals come from a fixed seeded process
//! regardless of how fast the server answers, so queueing delay is
//! measured rather than hidden by closed-loop self-throttling. Every
//! in-flight handle is awaited against a generous wall bound; a request
//! that resolves to neither a response nor a typed error within it counts
//! as **hung**, and any hung request fails the benchmark.
//!
//! A sample of completed nominal responses is re-decoded serially
//! (one-at-a-time `beam_decode_closed` oracle at the response's effective
//! beam width); any bitwise route mismatch fails the benchmark — the
//! continuous-batching parity guarantee, checked end-to-end through the
//! server.
//!
//! With `--chaos`, a seeded [`ServeFaultPlan`] (slow steps, worker panics,
//! poisoned sessions) is armed on both runs; the same zero-hang and
//! typed-error assertions must then hold through the faults (the CI
//! `serve-smoke` job runs this mode).
//!
//! Writes `results/BENCH_serve.json` (atomically: tmp + fsync + rename)
//! and a recorded trace to `results/trace_serve.jsonl`.
//!
//! Usage: `cargo run --release -p st-bench --bin bench_serve [-- --quick|--full] [--chaos]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::json;

use st_baselines::{beam_decode_closed, DeepStDecoder};
use st_bench::{host_meta, make_dataset, results_dir, City, Scale};
use st_core::faultinject::{ServeFaultInjector, ServeFaultPlan};
use st_core::{CancelToken, DeepSt};
use st_eval::deepst_config;
use st_eval::report::write_json_atomic;
use st_roadnet::{RoadNetwork, Route};
use st_serve::{Degradation, RouteRequest, RouteResponse, ServeConfig, ServeError, Server};
use st_sim::{poisson_arrivals, rush_hour_arrivals};

/// Wall bound per pending handle: anything unresolved past this is hung.
const HANG_BOUND: Duration = Duration::from_secs(60);
/// Completed nominal responses re-decoded against the serial oracle.
const PARITY_SAMPLE: usize = 24;

struct Args {
    scale: Scale,
    chaos: bool,
    /// Seconds of load generation per level.
    duration_s: f64,
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
    let (scale, duration_s) = if quick {
        (Scale::quick(), 2.0)
    } else if full {
        (Scale::full(), 10.0)
    } else {
        (Scale::default(), 5.0)
    };
    Args {
        scale,
        chaos,
        duration_s,
    }
}

/// Serial one-at-a-time decode of `req` — the oracle batched serving must
/// match bitwise at the same beam width.
fn serial_oracle(
    net: &RoadNetwork,
    model: &DeepSt,
    req: &RouteRequest,
    beam_width: usize,
) -> Route {
    let c = req.traffic.as_ref().map(|t| model.encode_traffic(t));
    let ctx = model.encode_context(req.dest_norm, c);
    let mut dec = DeepStDecoder::new(model, &ctx);
    match beam_decode_closed(
        net,
        &mut dec,
        &req.prefix,
        &req.dest_coord,
        beam_width,
        model.cfg.max_route_len,
        &[],
        &CancelToken::new(),
    ) {
        Ok(route) => route,
        Err(cancelled) => cancelled.partial,
    }
}

/// Snapshot of the serving counters, for per-run deltas.
#[derive(Clone)]
struct Counters {
    shed: u64,
    deadline: u64,
    degraded: u64,
    retry: u64,
    panic: u64,
    poisoned: u64,
    completed: u64,
}

fn counters() -> Counters {
    Counters {
        shed: st_obs::counter("serve.shed").get(),
        deadline: st_obs::counter("serve.deadline_exceeded").get(),
        degraded: st_obs::counter("serve.degraded").get(),
        retry: st_obs::counter("serve.retry").get(),
        panic: st_obs::counter("serve.worker_panic").get(),
        poisoned: st_obs::counter("serve.poisoned_step").get(),
        completed: st_obs::counter("serve.completed").get(),
    }
}

struct RunResult {
    label: String,
    offered_rate_hz: f64,
    arrivals: usize,
    completed: Vec<(usize, RouteResponse)>,
    shed_sync: usize,
    errors_deadline: usize,
    errors_internal: usize,
    hung: usize,
    elapsed_s: f64,
    delta: Counters,
}

/// Drive one open-loop run: enqueue `requests[i % len]` at each arrival
/// offset, then await every handle against the hang bound.
fn run_load(
    server: &Server,
    requests: &[RouteRequest],
    arrivals: &[f64],
    deadline: Option<Duration>,
    label: &str,
) -> RunResult {
    let before = counters();
    let t0 = Instant::now();
    let mut pending = Vec::new();
    let mut shed_sync = 0usize;
    let mut errors_internal = 0usize;
    for (i, &at) in arrivals.iter().enumerate() {
        let target = t0 + Duration::from_secs_f64(at);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let mut req = requests[i % requests.len()].clone();
        if deadline.is_some() {
            req.deadline = deadline;
        }
        match server.enqueue(req) {
            Ok(p) => pending.push((i, p)),
            Err(ServeError::Overloaded { .. }) => shed_sync += 1,
            Err(_) => errors_internal += 1,
        }
    }
    let bound = Instant::now() + HANG_BOUND;
    let mut completed = Vec::new();
    let mut errors_deadline = 0usize;
    let mut hung = 0usize;
    for (i, p) in pending {
        match p.wait_until(bound) {
            None => hung += 1,
            Some(Ok(resp)) => completed.push((i, resp)),
            Some(Err(ServeError::DeadlineExceeded { .. })) => errors_deadline += 1,
            Some(Err(ServeError::Overloaded { .. })) => shed_sync += 1,
            Some(Err(_)) => errors_internal += 1,
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let after = counters();
    RunResult {
        label: label.to_string(),
        offered_rate_hz: arrivals.len() as f64 / arrivals.last().copied().unwrap_or(1.0).max(1e-9),
        arrivals: arrivals.len(),
        completed,
        shed_sync,
        errors_deadline,
        errors_internal,
        hung,
        elapsed_s,
        delta: Counters {
            shed: after.shed - before.shed,
            deadline: after.deadline - before.deadline,
            degraded: after.degraded - before.degraded,
            retry: after.retry - before.retry,
            panic: after.panic - before.panic,
            poisoned: after.poisoned - before.poisoned,
            completed: after.completed - before.completed,
        },
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64) * q).ceil() as usize;
    sorted_ms[idx.saturating_sub(1).min(sorted_ms.len() - 1)]
}

fn run_json(r: &RunResult) -> serde_json::Value {
    let mut lat_ms: Vec<f64> = r
        .completed
        .iter()
        .map(|(_, resp)| resp.latency.as_secs_f64() * 1e3)
        .collect();
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let degraded_responses = r
        .completed
        .iter()
        .filter(|(_, resp)| resp.degradation != Degradation::None)
        .count();
    json!({
        "label": r.label,
        "offered_rate_hz": r.offered_rate_hz,
        "arrivals": r.arrivals,
        "completed": r.completed.len(),
        "sustained_qps": r.completed.len() as f64 / r.elapsed_s.max(1e-9),
        "p50_latency_ms": percentile(&lat_ms, 0.50),
        "p99_latency_ms": percentile(&lat_ms, 0.99),
        "shed": r.shed_sync,
        "shed_counter": r.delta.shed,
        "deadline_exceeded": r.errors_deadline,
        "deadline_counter": r.delta.deadline,
        "internal_errors": r.errors_internal,
        "degraded_responses": degraded_responses,
        "degraded_admissions": r.delta.degraded,
        "retries": r.delta.retry,
        "worker_panics": r.delta.panic,
        "poisoned_steps": r.delta.poisoned,
        "hung": r.hung,
        "elapsed_s": r.elapsed_s,
    })
}

fn main() {
    let args = parse_args();
    let city = City::Rivertown;
    println!(
        "bench_serve: {} ({} trips{})",
        city.name(),
        args.scale.trips,
        if args.chaos { ", chaos on" } else { "" }
    );
    st_obs::start_recording();

    let ds = make_dataset(city, &args.scale);
    let split = ds.default_split();
    // Untrained weights run the same per-step arithmetic as trained ones;
    // serving behaviour (latency, shedding, parity) does not depend on
    // what the model learned.
    let model = Arc::new(DeepSt::new(deepst_config(&ds, 24), args.scale.seed));
    let net = Arc::new(ds.net.clone());

    // Request pool from test-split trips: ~70% fresh route queries, ~30%
    // continuations of the first few observed segments.
    let requests: Vec<RouteRequest> = split
        .test
        .iter()
        .take(200)
        .enumerate()
        .map(|(k, &i)| {
            let trip = &ds.trips[i];
            let slot = ds.slot_of(trip.start_time);
            let prefix = if k % 10 < 3 {
                trip.route[..trip.route.len().min(4)].to_vec()
            } else {
                vec![trip.origin_segment()]
            };
            RouteRequest {
                prefix,
                dest_coord: trip.dest_coord,
                dest_norm: ds.unit_coord(&trip.dest_coord),
                traffic: Some(ds.traffic_tensor(slot).to_vec()),
                slot_id: slot,
                deadline: None,
            }
        })
        .collect();
    assert!(!requests.is_empty(), "dataset produced no test trips");

    // Serial capacity: one-at-a-time decodes, the denominator for load
    // levels and the speedup-of-batching reference.
    let sample = requests.len().min(16);
    let t0 = Instant::now();
    for req in &requests[..sample] {
        let _ = serial_oracle(&net, &model, req, 8);
    }
    let serial_qps = sample as f64 / t0.elapsed().as_secs_f64();
    println!("  serial decode capacity ≈ {serial_qps:.1} qps");

    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 32,
        max_batch_rows: 64,
        default_deadline: Duration::from_secs(5),
        beam_width: 8,
        degraded_beam_width: 3,
        degrade_queue_depth: 8,
        greedy_queue_depth: 20,
        degrade_p99_ms: 400.0,
        greedy_p99_ms: 900.0,
        max_retries: 2,
        retry_backoff: Duration::from_millis(2),
        traffic_slots: None,
    };
    let make_server = |seed: u64| {
        if args.chaos {
            let plan = ServeFaultPlan::random(seed, 200_000, 0.01, 0.002, 0.002, 20);
            Server::with_chaos(
                Arc::clone(&model),
                Arc::clone(&net),
                cfg.clone(),
                Arc::new(ServeFaultInjector::new(plan)),
            )
        } else {
            Server::new(Arc::clone(&model), Arc::clone(&net), cfg.clone())
        }
    };

    // --- nominal: Poisson at ~half serial capacity -----------------------
    let nominal_rate = (serial_qps * 0.5).max(2.0);
    let nominal_arrivals = poisson_arrivals(nominal_rate, args.duration_s, args.scale.seed);
    let server = make_server(41);
    // A couple of traced predict() calls so the trace carries the request
    // path spans alongside the load-run metrics.
    for req in requests.iter().take(3) {
        let _ = server.predict(req.clone());
    }
    let nominal = run_load(&server, &requests, &nominal_arrivals, None, "nominal");
    server.shutdown();
    println!(
        "  nominal:  {} arrivals, {} completed, {} shed, {} deadline, {} hung",
        nominal.arrivals,
        nominal.completed.len(),
        nominal.shed_sync,
        nominal.errors_deadline,
        nominal.hung
    );

    // --- overload: rush-hour burst far above capacity --------------------
    let overload_base = (serial_qps * 4.0).max(20.0);
    let overload_arrivals =
        rush_hour_arrivals(overload_base, 4.0, args.duration_s, args.scale.seed + 1);
    let server = make_server(42);
    let overload = run_load(
        &server,
        &requests,
        &overload_arrivals,
        Some(Duration::from_millis(800)),
        "overload",
    );
    server.shutdown();
    println!(
        "  overload: {} arrivals, {} completed, {} shed, {} deadline, {} degraded, {} hung",
        overload.arrivals,
        overload.completed.len(),
        overload.shed_sync,
        overload.errors_deadline,
        overload.delta.degraded,
        overload.hung
    );

    // --- parity: batched serving vs the serial oracle --------------------
    let mut parity_checked = 0usize;
    let mut parity_mismatches = 0usize;
    for (i, resp) in nominal.completed.iter().take(PARITY_SAMPLE) {
        let req = &requests[i % requests.len()];
        let oracle = serial_oracle(&net, &model, req, resp.beam_width);
        parity_checked += 1;
        if resp.route != oracle {
            parity_mismatches += 1;
            eprintln!(
                "  PARITY MISMATCH on request {i} (beam {})",
                resp.beam_width
            );
        }
    }
    println!("  parity: {parity_checked} checked, {parity_mismatches} mismatches");

    // --- trace + report --------------------------------------------------
    let trace = st_obs::drain();
    st_obs::stop_recording();
    let dir = results_dir();
    let trace_path = dir.join("trace_serve.jsonl");
    let meta = json!({
        "bench": "bench_serve",
        "city": city.name(),
        "chaos": args.chaos,
    });
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: creating {}: {e}", dir.display());
        std::process::exit(1);
    }
    if let Err(e) = st_obs::write_jsonl(&trace_path, &meta, &trace) {
        eprintln!("error: writing trace: {e}");
        std::process::exit(1);
    }

    let out = json!({
        "bench": "bench_serve",
        "city": city.name(),
        "chaos": args.chaos,
        "host": host_meta(),
        "config": {
            "workers": cfg.workers,
            "queue_cap": cfg.queue_cap,
            "max_batch_rows": cfg.max_batch_rows,
            "beam_width": cfg.beam_width,
            "degraded_beam_width": cfg.degraded_beam_width,
            "degrade_queue_depth": cfg.degrade_queue_depth,
            "greedy_queue_depth": cfg.greedy_queue_depth,
            "max_retries": cfg.max_retries,
        },
        "serial_qps": serial_qps,
        "nominal": run_json(&nominal),
        "overload": run_json(&overload),
        "parity": {
            "checked": parity_checked,
            "mismatches": parity_mismatches,
        },
    });
    let path = dir.join("BENCH_serve.json");
    if let Err(e) = write_json_atomic(&path, &out) {
        eprintln!("error: writing {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("  wrote {} and {}", path.display(), trace_path.display());

    // --- hard gates ------------------------------------------------------
    let mut failed = false;
    if nominal.hung + overload.hung > 0 {
        eprintln!(
            "FAIL: {} hung request(s) — shed-not-stall violated",
            nominal.hung + overload.hung
        );
        failed = true;
    }
    if parity_mismatches > 0 {
        eprintln!("FAIL: {parity_mismatches} batched route(s) diverged from the serial oracle");
        failed = true;
    }
    let overload_sheds = overload.shed_sync as u64 + overload.delta.deadline;
    if overload_sheds == 0 {
        eprintln!("FAIL: overload run shed nothing — load level is not an overload");
        failed = true;
    }
    if nominal.completed.is_empty() || overload.completed.is_empty() {
        eprintln!("FAIL: a load level completed zero requests");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench_serve: OK");
}
