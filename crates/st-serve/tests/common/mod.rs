//! Shared fixtures for the st-serve integration tests: a small city, an
//! untrained (but deterministic) model, request builders, and the serial
//! single-request decode oracle the batching scheduler must match bitwise.
#![allow(dead_code)] // each test binary uses a subset of the fixtures

use std::sync::Arc;
use std::time::Duration;

use st_baselines::{beam_decode_closed, DeepStDecoder};
use st_core::config::DeepStConfig;
use st_core::model::DeepSt;
use st_core::CancelToken;
use st_roadnet::{grid_city, shortest_route, GridConfig, RoadNetwork, Route, SegmentId};
use st_serve::RouteRequest;

/// A 4×4 grid city and a seeded model over it. Untrained weights are fine:
/// serving correctness properties (parity, typed errors, validity) must not
/// depend on what the model learned.
pub fn city_and_model(seed: u64) -> (Arc<RoadNetwork>, Arc<DeepSt>) {
    let net = grid_city(&GridConfig::small_test(), 3);
    let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
    let model = DeepSt::new(cfg, seed);
    (Arc::new(net), Arc::new(model))
}

/// A fresh-route request from `start` toward `target`'s midpoint.
pub fn request_between(
    net: &RoadNetwork,
    model: &DeepSt,
    start: SegmentId,
    target: SegmentId,
    deadline: Option<Duration>,
) -> RouteRequest {
    let dest = net.midpoint(target);
    let traffic = model
        .cfg
        .use_traffic
        .then(|| vec![0.2f32; model.cfg.grid_h * model.cfg.grid_w]);
    RouteRequest {
        prefix: vec![start],
        dest_coord: dest,
        dest_norm: [(dest.x / 500.0) as f32, (dest.y / 500.0) as f32],
        traffic,
        slot_id: 0,
        deadline,
    }
}

/// A continuation request whose prefix is the first `len` hops of the
/// shortest route from `start` to `target` (always a connected route).
pub fn continuation_between(
    net: &RoadNetwork,
    model: &DeepSt,
    start: SegmentId,
    target: SegmentId,
    len: usize,
    deadline: Option<Duration>,
) -> RouteRequest {
    let (path, _) = shortest_route(net, start, target, &|s| net.segment(s).length)
        .expect("grid city is strongly connected");
    let take = len.clamp(1, path.len());
    let mut req = request_between(net, model, start, target, deadline);
    req.prefix = path[..take].to_vec();
    req
}

/// The serial one-request-at-a-time decode the continuous-batching
/// scheduler must reproduce bit for bit: a private `InferSession` and a
/// beam search at `beam_width`, warmed on the same prefix.
pub fn serial_oracle(
    net: &RoadNetwork,
    model: &DeepSt,
    req: &RouteRequest,
    beam_width: usize,
) -> Route {
    serial_oracle_closed(net, model, req, beam_width, &[])
}

/// [`serial_oracle`] with the segments in `closed` masked, as admission
/// masks the segments the live feed has closed.
pub fn serial_oracle_closed(
    net: &RoadNetwork,
    model: &DeepSt,
    req: &RouteRequest,
    beam_width: usize,
    closed: &[SegmentId],
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
        closed,
        &CancelToken::new(),
    ) {
        Ok(route) => route,
        Err(c) => c.partial,
    }
}
