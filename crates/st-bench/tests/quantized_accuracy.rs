//! Statistical route-identity harness for the int8 inference path.
//!
//! Bitwise parity is out of scope for quantized kernels, so the int8 decode
//! is validated *statistically*: on a pinned Rivertown query set, the top-1
//! route match rate against the f32 oracle must reach the same gate the
//! decode benchmark enforces (0.98), with Jaccard overlap as a secondary
//! signal. To prove the harness has teeth, a planted regression — the slot
//! head quantized to 2 magnitude levels instead of 127 via the
//! `infer_session_int8_coarse` test hook — must *fail* the gate on the same
//! queries.

use st_baselines::{beam_decode, DeepStDecoder};
use st_bench::{accuracy, make_dataset, City, Scale};
use st_core::{DeepSt, InferPrecision, TripContext};
use st_eval::deepst_config;
use st_roadnet::{Point, Route, SegmentId};

const MATCH_GATE: f64 = 0.98;
const BEAM_WIDTH: usize = 8;

/// The coarse quantization level count of the planted regression.
const PLANTED_LEVELS: i32 = 2;

struct World {
    ds: st_sim::Dataset,
    model: DeepSt,
    queries: Vec<(SegmentId, Point, TripContext)>,
}

fn world() -> World {
    let scale = Scale::quick();
    let ds = make_dataset(City::Rivertown, &scale);
    let model = DeepSt::new(deepst_config(&ds, 24), scale.seed);
    let split = ds.default_split();
    let queries = split
        .test
        .iter()
        .take(16)
        .map(|&i| {
            let trip = &ds.trips[i];
            let slot = ds.slot_of(trip.start_time);
            let c = model.encode_traffic(ds.traffic_tensor(slot));
            let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), Some(c));
            (trip.origin_segment(), trip.dest_coord, ctx)
        })
        .collect();
    World { ds, model, queries }
}

fn decode_all<'a>(
    w: &'a World,
    mut mk: impl FnMut(&'a TripContext) -> DeepStDecoder<'a>,
) -> Vec<Route> {
    w.queries
        .iter()
        .map(|(start, dest, ctx)| {
            let mut dec = mk(ctx);
            beam_decode(
                &w.ds.net,
                &mut dec,
                *start,
                dest,
                BEAM_WIDTH,
                w.model.cfg.max_route_len,
            )
        })
        .collect()
}

#[test]
fn int8_decode_meets_statistical_gate_and_planted_regression_fails_it() {
    let w = world();
    let oracle = decode_all(&w, |ctx| DeepStDecoder::new(&w.model, ctx));

    // Production int8: must clear the gate.
    let int8 = decode_all(&w, |ctx| {
        DeepStDecoder::with_precision(&w.model, ctx, InferPrecision::Int8)
    });
    let match_rate = accuracy::route_match_rate(&oracle, &int8);
    let jaccard = accuracy::mean_jaccard(&oracle, &int8);
    assert!(
        match_rate >= MATCH_GATE,
        "int8 route match rate {match_rate:.4} below gate {MATCH_GATE} (jaccard {jaccard:.4})"
    );
    assert!(
        jaccard >= MATCH_GATE,
        "int8 mean Jaccard {jaccard:.4} below gate {MATCH_GATE}"
    );

    // Planted regression: a deliberately degraded quantizer must be caught.
    // If this ever passes the gate, the harness has lost its power to
    // detect real quantization regressions — tighten the query set.
    let coarse = decode_all(&w, |ctx| {
        DeepStDecoder::from_session(w.model.infer_session_int8_coarse(PLANTED_LEVELS), ctx)
    });
    let coarse_rate = accuracy::route_match_rate(&oracle, &coarse);
    assert!(
        coarse_rate < MATCH_GATE,
        "planted regression ({PLANTED_LEVELS}-level head quantization) was not detected: \
         match rate {coarse_rate:.4} >= {MATCH_GATE}"
    );
}
