//! Route decoding two ways: the library path (`beam_decode_from` on a
//! `DeepStDecoder`) and a traced decode loop that mirrors `beam_decode_from`
//! one layer call at a time — `plan_step`, then `gather`, `step`,
//! `apply_step` and `gather` — so each layer's share of a decode is timed
//! from outside.

use std::time::Instant;

use st_baselines::{beam_decode_closed, BeamSearch, DeepStDecoder, StepDecoder};
use st_core::livetraffic::TrafficCache;
use st_core::{CancelToken, DeepSt, TripContext};
use st_roadnet::{RoadNetwork, Route, SegmentId};
use st_serve::RouteRequest;
use st_sim::{Dataset, Trip};
use st_tensor::Array;

use crate::spec::{BEAM, PREFIX_LEN};
use crate::stats::Fastest;
use crate::tracer::Tracer;

/// The step decoder a decode opens for one trip context. Every run steps
/// the library's `DeepStDecoder`; the planted-defect test substitutes a
/// slower one.
pub trait Session<'m>: StepDecoder<State = Vec<Array>> {
    fn open(model: &'m DeepSt, ctx: &TripContext) -> Self;
}

impl<'m> Session<'m> for DeepStDecoder<'m> {
    fn open(model: &'m DeepSt, ctx: &TripContext) -> Self {
        DeepStDecoder::new(model, ctx)
    }
}

/// A route query for trip `trip`: a fresh query from its first segment, or
/// a continuation of its first [`PREFIX_LEN`] segments.
pub fn query(ds: &Dataset, trip: &Trip, continuation: bool) -> RouteRequest {
    let slot = ds.slot_of(trip.start_time);
    let prefix = if continuation {
        trip.route[..trip.route.len().min(PREFIX_LEN)].to_vec()
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
}

fn traffic(req: &RouteRequest) -> &[f32] {
    req.traffic
        .as_deref()
        .expect("benchmark requests always carry a traffic tensor")
}

/// Warm `cache` with the encoding of every query's traffic slot.
pub fn warm_cache(model: &DeepSt, cache: &mut TrafficCache, reqs: &[RouteRequest]) {
    for r in reqs {
        cache.get_or_encode(r.slot_id, 0, || model.encode_traffic(traffic(r)));
    }
}

/// Decode `req` through the library: cached traffic encoding, context,
/// session and `beam_decode_closed` (which is `beam_decode_from` when
/// `closed` is empty) at `beam` width.
#[allow(clippy::too_many_arguments)]
pub fn lib_decode<'m, D: Session<'m>>(
    model: &'m DeepSt,
    net: &RoadNetwork,
    req: &RouteRequest,
    tensor: &[f32],
    version: u64,
    cache: &mut TrafficCache,
    beam: usize,
    closed: &[SegmentId],
) -> Route {
    let c = cache.get_or_encode(req.slot_id, version, || model.encode_traffic(tensor));
    let ctx = model.encode_context(req.dest_norm, Some(c));
    let mut dec = D::open(model, &ctx);
    beam_decode_closed(
        net,
        &mut dec,
        &req.prefix,
        &req.dest_coord,
        beam,
        model.cfg.max_route_len,
        closed,
        &CancelToken::new(),
    )
    .unwrap_or_else(|cancelled| cancelled.partial)
}

/// Decode `req` as the library does, at [`BEAM`] width with its own tensor.
pub fn decode<'m, D: Session<'m>>(
    model: &'m DeepSt,
    net: &RoadNetwork,
    req: &RouteRequest,
    cache: &mut TrafficCache,
) -> Route {
    lib_decode::<D>(model, net, req, traffic(req), 0, cache, BEAM, &[])
}

/// One traced decode's route and work counts.
pub struct Traced {
    pub route: Route,
    /// Model steps (warm-up tokens plus search depths).
    pub steps: usize,
    /// State rows advanced across all steps.
    pub rows: usize,
}

/// [`decode`], one timed layer call at a time.
pub fn traced_decode<'m, D: Session<'m>>(
    model: &'m DeepSt,
    net: &RoadNetwork,
    req: &RouteRequest,
    cache: &mut TrafficCache,
    tr: &mut Tracer,
) -> Traced {
    let t = tr.start("predict.encode_traffic");
    let c = cache.get_or_encode(req.slot_id, 0, || model.encode_traffic(traffic(req)));
    tr.stop(t);
    let ctx = tr.time("predict.encode_context", || {
        model.encode_context(req.dest_norm, Some(c))
    });
    let mut dec = tr.time("predict.session", || D::open(model, &ctx));
    let (mut steps, mut rows) = (0usize, 0usize);
    let mut step = |dec: &mut D,
                    tr: &mut Tracer,
                    tokens: &[SegmentId],
                    state: &mut Vec<Array>,
                    logp: &mut Vec<f64>| {
        let t = tr.start("predict.step");
        dec.step(net, tokens, state, logp);
        tr.stop(t);
        steps += 1;
        rows += tokens.len();
    };

    let mut state = tr.time("predict.gather", || dec.init_state(1));
    let mut logp = Vec::new();
    if let Some((_, warm)) = req.prefix.split_last() {
        for &seg in warm {
            step(&mut dec, tr, &[seg], &mut state, &mut logp);
        }
    }
    let t = tr.start("beam.plan");
    let mut bs = BeamSearch::new(
        net,
        req.prefix.clone(),
        req.dest_coord,
        BEAM,
        dec.width(),
        model.cfg.max_route_len,
    );
    tr.stop(t);
    loop {
        let t = tr.start("beam.plan");
        let planned = bs.plan_step(net);
        tr.stop(t);
        let Some((tokens, parents)) = planned else {
            break;
        };
        let t = tr.start("predict.gather");
        let packed = dec.gather(&state, parents);
        dec.recycle(std::mem::replace(&mut state, packed));
        tr.stop(t);
        step(&mut dec, tr, tokens, &mut state, &mut logp);
        let t = tr.start("beam.apply");
        let survivors = bs.apply_step(net, &logp);
        tr.stop(t);
        let Some(survivors) = survivors else {
            break;
        };
        let t = tr.start("predict.gather");
        let kept = dec.gather(&state, survivors);
        dec.recycle(std::mem::replace(&mut state, kept));
        tr.stop(t);
    }
    tr.time("predict.gather", || dec.recycle(state));
    let route = tr.time("beam.apply", || bs.into_route());
    Traced { route, steps, rows }
}

/// Layer-call prefixes a traced decode is made of (for `obs.coverage`).
pub const DECODE_LAYERS: &[&str] = &["predict.", "beam."];

/// Every query decoded through the library and through the traced decode
/// loop, back to back.
pub struct Passes {
    /// Layer accumulators of every traced decode.
    pub tracer: Tracer,
    /// Seconds spent in traced decodes.
    pub traced_s: f64,
    /// Each query's fastest library and traced decode.
    lib_best: Fastest,
    traced_best: Fastest,
    /// Per traced decode: model steps, state rows, route segments.
    pub steps: usize,
    pub rows: usize,
    pub segments: usize,
    pub decodes: usize,
    /// Pairs whose traced route differs from the library route.
    pub mismatches: usize,
}

impl Passes {
    /// Tracing overhead: a pass of traced decodes against a pass of library
    /// decodes, each query at its fastest.
    pub fn overhead_pct(&self) -> f64 {
        (self.traced_best.pass_s() / self.lib_best.pass_s() - 1.0) * 100.0
    }

    pub fn coverage(&self) -> f64 {
        self.tracer.total_s(DECODE_LAYERS) / self.traced_s
    }
}

/// Decode every query `rounds` times, each time once through the library
/// and once through the traced decode loop, alternating which goes first.
/// `sampler` opens the sampled span trees.
pub fn passes<'m, D: Session<'m>>(
    model: &'m DeepSt,
    net: &RoadNetwork,
    reqs: &[RouteRequest],
    cache: &mut TrafficCache,
    rounds: usize,
    sampler: &mut Tracer,
) -> Passes {
    let mut p = Passes {
        tracer: Tracer::default(),
        traced_s: 0.0,
        lib_best: Fastest::new(reqs.len()),
        traced_best: Fastest::new(reqs.len()),
        steps: 0,
        rows: 0,
        segments: 0,
        decodes: 0,
        mismatches: 0,
    };
    for round in 0..rounds {
        for (k, r) in reqs.iter().enumerate() {
            let lib = |cache: &mut TrafficCache| {
                let t0 = Instant::now();
                let route = decode::<D>(model, net, r, cache);
                (route, t0.elapsed().as_secs_f64())
            };
            let mut traced = |cache: &mut TrafficCache, tr: &mut Tracer| {
                let _item = sampler.item("bench/decode");
                let t0 = Instant::now();
                let t = traced_decode::<D>(model, net, r, cache, tr);
                (t, t0.elapsed().as_secs_f64())
            };
            let ((route, lib_s), (t, traced_s)) = if (round + k) % 2 == 0 {
                let l = lib(cache);
                (l, traced(cache, &mut p.tracer))
            } else {
                let t = traced(cache, &mut p.tracer);
                (lib(cache), t)
            };
            p.lib_best.record(k, lib_s);
            p.traced_best.record(k, traced_s);
            p.traced_s += traced_s;
            p.steps += t.steps;
            p.rows += t.rows;
            p.segments += t.route.len();
            p.decodes += 1;
            p.mismatches += usize::from(t.route != route);
        }
    }
    p
}

/// A decoded route is acceptable when it is a connected route that starts
/// with the query's prefix.
pub fn route_ok(net: &RoadNetwork, req: &RouteRequest, route: &Route) -> bool {
    route.len() >= req.prefix.len()
        && route[..req.prefix.len()] == req.prefix[..]
        && net.is_valid_route(route)
}
