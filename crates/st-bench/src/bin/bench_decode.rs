//! Decode-throughput benchmark for the tape-free inference runtime.
//!
//! Beam-decodes the same Rivertown queries three ways with the same DeepST
//! weights:
//!
//! 1. **taped clone-and-step** — the pre-refactor decoder: every live beam
//!    prefix owns a cloned recurrent state and advances through
//!    [`DeepSt::step_state_taped`], which records each forward step on a
//!    throwaway autodiff tape;
//! 2. **fused f32** — the packed-kernel path ([`DeepStDecoder::new`]):
//!    packed `[beam, hidden]` state, weights packed once per session, the
//!    GRU step collapsed into two prepacked `[beam, 3·hidden]` GEMMs with a
//!    fused SIMD gate epilogue;
//! 3. **int8** — fused kernels with the embedding table and slot head
//!    quantized to int8 (per-channel scales, f32 accumulation).
//!
//! Paths 1 and 2 must produce identical routes (asserted per query — this
//! doubles as a large-scale parity check). Path 3 is gated statistically:
//! top-1 route match rate against the f32 oracle must reach
//! [`INT8_MATCH_GATE`] (Jaccard overlap is also recorded).
//!
//! Each path is timed over [`SWEEPS`] full passes of the query set and the
//! fastest pass is recorded: one pass is only tens of milliseconds for the
//! fused path, so single-pass numbers are scheduler-noise-dominated.
//!
//! The headline speedup is measured against **PR 5's recorded batched
//! baseline** (committed `BENCH_decode.json`, same query set and host
//! class); the live ratio to the taped path is reported alongside. The
//! report also records host/toolchain metadata. Writes `BENCH_decode.json`.
//!
//! Usage: `cargo run --release -p st-bench --bin bench_decode [-- --quick|--full]`

use std::time::Instant;

use serde_json::json;

use st_baselines::{beam_decode, DeepStDecoder, TERM_SCALE_M};
use st_bench::{accuracy, host_meta, make_dataset, results_dir, City, Scale};
use st_core::{DeepSt, InferPrecision, TripContext};
use st_eval::deepst_config;
use st_eval::report::write_json_atomic;
use st_roadnet::{Point, RoadNetwork, Route, SegmentId};

const BEAM_WIDTH: usize = 8;

/// Timed passes over the query set per path; the fastest is recorded.
const SWEEPS: usize = 3;

/// Required decode speedup of the fused/packed f32 path over the PR 5
/// batched baseline ([`PR5_BATCHED_QPS`]).
const TARGET_SPEEDUP: f64 = 3.0;

/// PR 5's recorded quick-scale throughputs (`results/BENCH_decode.json` as
/// committed at b696363: the same 30-query Rivertown set on the same host
/// class). `PR5_BATCHED_QPS` is the batched-but-unpacked runtime the fused
/// kernels are required to beat [`TARGET_SPEEDUP`]×; the taped figure is
/// kept for the ≈13×-over-taped cross-check.
const PR5_BATCHED_QPS: f64 = 349.64;
const PR5_TAPED_QPS: f64 = 81.68;

/// Minimum top-1 route match rate of the int8 path against the f32 oracle.
const INT8_MATCH_GATE: f64 = 0.98;

/// One query: start segment, destination and encoded trip context.
type Query = (SegmentId, Point, TripContext);

fn p_stop(net: &RoadNetwork, seg: SegmentId, dest: &Point) -> f64 {
    let proj = net.project_onto(dest, seg);
    let d = proj.dist(dest) / TERM_SCALE_M;
    (-d * d).exp().clamp(1e-12, 0.95)
}

/// The pre-refactor decoder, kept verbatim as the benchmark baseline: each
/// live prefix clones its per-layer state and steps on its own tape.
fn taped_beam(
    net: &RoadNetwork,
    model: &DeepSt,
    ctx: &TripContext,
    start: SegmentId,
    dest: &Point,
    beam_width: usize,
    max_len: usize,
) -> Route {
    struct Item {
        route: Route,
        state: Vec<st_tensor::Array>,
        logp: f64,
    }
    let mut live = vec![Item {
        route: vec![start],
        state: model.initial_state(),
        logp: 0.0,
    }];
    let mut best_complete: Option<(Route, f64)> = None;
    for _ in 1..max_len {
        let mut expansions: Vec<Item> = Vec::new();
        for item in &live {
            let cur = *item.route.last().expect("routes are non-empty");
            let nexts = net.next_segments(cur);
            if nexts.is_empty() {
                continue;
            }
            let (new_state, logps) = model.step_state_taped(&item.state, cur, ctx);
            let valid = &logps[..nexts.len().min(logps.len())];
            let m = valid.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = m + valid.iter().map(|&v| (v - m).exp()).sum::<f64>().ln();
            for (j, &next) in nexts.iter().enumerate().take(valid.len()) {
                let lp_trans = valid[j] - lse;
                let ps = p_stop(net, next, dest);
                let mut new_route = item.route.clone();
                new_route.push(next);
                let complete_score = item.logp + lp_trans + ps.ln();
                if best_complete
                    .as_ref()
                    .map(|(_, s)| complete_score > *s)
                    .unwrap_or(true)
                {
                    best_complete = Some((new_route.clone(), complete_score));
                }
                expansions.push(Item {
                    route: new_route,
                    state: new_state.clone(),
                    logp: item.logp + lp_trans + (1.0 - ps).ln(),
                });
            }
        }
        if expansions.is_empty() {
            break;
        }
        expansions.sort_by(|a, b| b.logp.total_cmp(&a.logp));
        expansions.truncate(beam_width);
        if let Some((_, best)) = &best_complete {
            if expansions[0].logp < *best - 12.0 {
                break;
            }
        }
        live = expansions;
    }
    match best_complete {
        Some((route, _)) => route,
        None => live
            .into_iter()
            .next()
            .map(|i| i.route)
            .unwrap_or_else(|| vec![start]),
    }
}

fn main() {
    let scale = Scale::from_args();
    let city = City::Rivertown;
    println!("bench_decode: {} ({} trips)", city.name(), scale.trips);

    let ds = make_dataset(city, &scale);
    let split = ds.default_split();
    // Untrained weights run the exact same arithmetic per step as trained
    // ones, so the throughput comparison is unaffected by training cost.
    let model = DeepSt::new(deepst_config(&ds, 24), scale.seed);

    let take = (scale.max_eval.unwrap_or(200) / 5)
        .clamp(8, 60)
        .min(split.test.len());
    // Precompute per-query contexts once: context encoding (traffic CNN +
    // destination proxies) is shared by both decoders and not under test.
    let queries: Vec<Query> = split
        .test
        .iter()
        .take(take)
        .map(|&i| {
            let trip = &ds.trips[i];
            let slot = ds.slot_of(trip.start_time);
            let c = model.encode_traffic(ds.traffic_tensor(slot));
            let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), Some(c));
            (trip.origin_segment(), trip.dest_coord, ctx)
        })
        .collect();
    println!("  {} queries, beam width {BEAM_WIDTH}", queries.len());

    // Warm up every path (arena growth, GEMM packing buffers).
    if let Some((start, dest, ctx)) = queries.first() {
        for mut dec in [
            DeepStDecoder::new(&model, ctx),
            DeepStDecoder::with_precision(&model, ctx, InferPrecision::Int8),
        ] {
            let _ = beam_decode(&ds.net, &mut dec, *start, dest, BEAM_WIDTH, 16);
        }
        let _ = taped_beam(&ds.net, &model, ctx, *start, dest, BEAM_WIDTH, 16);
    }

    // Timed sweeps over the query set through one path; the fastest counts.
    let sweep = |decode: &dyn Fn(&Query) -> Route| -> (Vec<Route>, f64) {
        let mut best = f64::INFINITY;
        let mut routes = Vec::new();
        for _ in 0..SWEEPS {
            let t0 = Instant::now();
            routes = queries.iter().map(decode).collect();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (routes, best)
    };
    let max_len = model.cfg.max_route_len;
    let tape_free = |precision: InferPrecision| {
        sweep(&|(start, dest, ctx): &Query| {
            let mut dec = DeepStDecoder::with_precision(&model, ctx, precision);
            beam_decode(&ds.net, &mut dec, *start, dest, BEAM_WIDTH, max_len)
        })
    };

    let (taped_routes, taped_secs) = sweep(&|(start, dest, ctx): &Query| {
        taped_beam(&ds.net, &model, ctx, *start, dest, BEAM_WIDTH, max_len)
    });
    let taped_qps = queries.len() as f64 / taped_secs;
    println!("  taped clone-and-step: {taped_qps:7.2} decodes/sec ({taped_secs:.2}s)");

    let (fused_routes, fused_secs) = tape_free(InferPrecision::F32);
    let fused_qps = queries.len() as f64 / fused_secs;
    println!("  fused/packed f32:     {fused_qps:7.2} decodes/sec ({fused_secs:.2}s)");

    let (int8_routes, int8_secs) = tape_free(InferPrecision::Int8);
    let int8_qps = queries.len() as f64 / int8_secs;
    println!("  int8 quantized:       {int8_qps:7.2} decodes/sec ({int8_secs:.2}s)");

    // The f32 paths must agree bit-for-bit, hence route-for-route.
    let mismatches = taped_routes
        .iter()
        .zip(&fused_routes)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        mismatches, 0,
        "fused decode diverged from the taped baseline on {mismatches} queries"
    );
    println!("  parity: all {} f32 routes identical", queries.len());

    // The int8 path is gated statistically against the f32 oracle.
    let int8_match = accuracy::route_match_rate(&fused_routes, &int8_routes);
    let int8_jaccard = accuracy::mean_jaccard(&fused_routes, &int8_routes);
    println!(
        "  int8 route match rate: {int8_match:.4} (gate >= {INT8_MATCH_GATE}), \
         mean jaccard {int8_jaccard:.4}"
    );
    assert!(
        int8_match >= INT8_MATCH_GATE,
        "int8 decode matched only {int8_match:.4} of f32 routes (gate {INT8_MATCH_GATE})"
    );

    let speedup_vs_pr5_batched = fused_qps / PR5_BATCHED_QPS;
    let speedup_vs_pr5_taped = fused_qps / PR5_TAPED_QPS;
    let speedup_vs_taped = taped_secs / fused_secs;
    println!(
        "  fused vs PR5 batched: {speedup_vs_pr5_batched:.2}x \
         (target >= {TARGET_SPEEDUP:.1}x; {speedup_vs_pr5_taped:.2}x vs PR5 taped)"
    );
    println!("  fused vs live taped: {speedup_vs_taped:.2}x");

    let out = json!({
        "city": city.name(),
        "queries": queries.len(),
        "beam_width": BEAM_WIDTH,
        "max_route_len": model.cfg.max_route_len,
        "sweeps": SWEEPS,
        "host": host_meta(),
        "taped": { "decodes_per_sec": taped_qps, "secs": taped_secs },
        "fused": { "decodes_per_sec": fused_qps, "secs": fused_secs },
        "int8": {
            "decodes_per_sec": int8_qps,
            "secs": int8_secs,
            "route_match_rate": int8_match,
            "mean_jaccard": int8_jaccard,
            "match_gate": INT8_MATCH_GATE,
            "gate_met": int8_match >= INT8_MATCH_GATE,
        },
        "baseline_pr5": {
            "source": "results/BENCH_decode.json as committed at b696363 (PR 5), \
                       same query set and host class",
            "batched_decodes_per_sec": PR5_BATCHED_QPS,
            "taped_decodes_per_sec": PR5_TAPED_QPS,
        },
        "speedup": speedup_vs_pr5_batched,
        "speedup_vs_pr5_taped": speedup_vs_pr5_taped,
        "speedup_vs_taped": speedup_vs_taped,
        "target_speedup": TARGET_SPEEDUP,
        "target_met": speedup_vs_pr5_batched >= TARGET_SPEEDUP,
        "routes_identical": true,
    });
    let path = results_dir().join("BENCH_decode.json");
    write_json_atomic(&path, &out).expect("write BENCH_decode.json");
    println!("wrote {}", path.display());

    if speedup_vs_pr5_batched < TARGET_SPEEDUP {
        // Report without failing: CI hosts vary; the JSON records the miss.
        eprintln!(
            "warning: fused decode speedup {speedup_vs_pr5_batched:.2}x below \
             the {TARGET_SPEEDUP:.1}x target"
        );
    }
}
