//! Decode-under-change: a live traffic update must reach predictions within
//! one slot, with zero stale cache hits.
//!
//! This is the acceptance test for the streaming traffic path at the
//! predictor level: ingest an injected incident for the slot being served,
//! then prove (a) the very next prediction in that slot differs — reaction
//! latency 0 slots, well within the one-slot bound — (b) the stale encoding
//! was never served (counts: one targeted invalidation, one re-encode miss,
//! no hit until the new version is warm), and (c) redelivery of the same
//! event is a no-op.
//!
//! The counts come from each predictor's own cache
//! (`DeepStPredictor::traffic_cache_counts`), which no other test moves, so
//! the tests need no lock against each other.

use st_baselines::{beam_decode_closed, DeepStDecoder, DeepStPredictor, PredictQuery, Predictor};
use st_core::livetraffic::{ApplyOutcome, TrafficEvent, TrafficEventKind};
use st_core::{CancelToken, DeepSt, DeepStConfig};
use st_roadnet::Route;
use st_sim::{CityPreset, Dataset};

fn rivertown() -> Dataset {
    Dataset::generate(&CityPreset::rivertown(), 24, 7)
}

fn wrapper_for(ds: &Dataset, seed: u64) -> DeepStPredictor {
    let cfg = DeepStConfig::new(
        ds.net.num_segments(),
        ds.net.max_out_degree(),
        ds.grid.height,
        ds.grid.width,
    );
    DeepStPredictor::new(DeepSt::new(cfg, seed))
}

/// Pinned queries over distinct trips, all bound to traffic slot `slot`.
fn queries<'a>(ds: &'a Dataset, tensor: &'a [f32], slot: usize, n: usize) -> Vec<PredictQuery<'a>> {
    (0..ds.trips.len())
        .step_by(ds.trips.len().div_ceil(n).max(1))
        .map(|t| {
            let trip = &ds.trips[t];
            PredictQuery {
                start: trip.origin_segment(),
                dest_coord: trip.dest_coord,
                dest_norm: ds.unit_coord(&trip.dest_coord),
                dest_segment: trip.dest_segment(),
                traffic: tensor,
                slot_id: slot,
            }
        })
        .collect()
}

/// A city-wide gridlock report for `slot`: every cell reads crawl speed.
/// Drastic on purpose — the reaction test must not hinge on one cell's
/// influence through an untrained CNN.
fn gridlock_event(ds: &Dataset, seq: u64, slot: usize) -> TrafficEvent {
    TrafficEvent {
        seq,
        time: slot as f64 * st_sim::SLOT_SECS,
        slot,
        kind: TrafficEventKind::Incident,
        tensor: vec![0.02; ds.grid.len()],
    }
}

#[test]
fn prediction_reacts_within_one_slot_with_zero_stale_hits() {
    let ds = rivertown();
    let wrapper = wrapper_for(&ds, 7);
    let slot = 3usize;
    let tensor = ds.traffic_tensor(slot);
    let qs = queries(&ds, tensor, slot, 8);

    // Steady state before the incident: first query encodes the slot, the
    // rest hit the cache.
    let before: Vec<Route> = qs.iter().map(|q| wrapper.predict(&ds.net, q)).collect();

    let before_ingest = wrapper.traffic_cache_counts();

    // The incident lands *in the slot being served*.
    let ev = gridlock_event(&ds, 1, slot);
    assert!(wrapper.ingest(&ev).is_applied());
    assert_eq!(
        wrapper.traffic_cache_counts().invalidations,
        before_ingest.invalidations + 1,
        "ingest must evict the stale encoding eagerly"
    );

    // Reaction within the same slot: predictions re-run right away and at
    // least one route must change (reaction latency 0 slots <= 1 slot).
    let after: Vec<Route> = qs.iter().map(|q| wrapper.predict(&ds.net, q)).collect();
    let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    assert!(
        changed > 0,
        "no prediction reacted to a city-wide gridlock event"
    );

    // Zero stale hits: the first post-ingest lookup was a miss at the new
    // version (fresh encode), and every later one hit the *new* encoding.
    let after_ingest = wrapper.traffic_cache_counts();
    assert_eq!(
        after_ingest.misses,
        before_ingest.misses + 1,
        "exactly one re-encode expected"
    );
    assert_eq!(
        after_ingest.hits,
        before_ingest.hits + (qs.len() as u64 - 1),
        "post-ingest lookups must hit the fresh encoding only"
    );

    // Redelivery of the same event is a no-op: no invalidation, no
    // re-encode, routes bit-identical.
    assert!(matches!(wrapper.ingest(&ev), ApplyOutcome::Duplicate));
    assert_eq!(
        wrapper.traffic_cache_counts().invalidations,
        after_ingest.invalidations
    );
    let replay: Vec<Route> = qs.iter().map(|q| wrapper.predict(&ds.net, q)).collect();
    assert_eq!(replay, after, "duplicate ingest changed predictions");
}

#[test]
fn updates_to_other_slots_leave_this_slots_predictions_alone() {
    let ds = rivertown();
    let wrapper = wrapper_for(&ds, 11);
    let slot = 2usize;
    let tensor = ds.traffic_tensor(slot);
    let qs = queries(&ds, tensor, slot, 4);
    let before: Vec<Route> = qs.iter().map(|q| wrapper.predict(&ds.net, q)).collect();
    // a storm of updates to *other* slots
    for (i, other) in [0usize, 1, 4, 5, 6].iter().enumerate() {
        assert!(wrapper
            .ingest(&gridlock_event(&ds, i as u64 + 1, *other))
            .is_applied());
    }
    // targeted invalidation: slot 2's encoding is untouched, predictions
    // bit-identical
    let after: Vec<Route> = qs.iter().map(|q| wrapper.predict(&ds.net, q)).collect();
    assert_eq!(before, after, "unrelated slot update changed predictions");
    assert_eq!(wrapper.traffic_version(slot), 0, "slot 2 was never revised");
}

/// An injected incident built by st-sim's `incident_event` helper (single
/// affected cell, real geometry) flows through the same path: versions bump,
/// the stale encoding is evicted, and the live tensor is what gets encoded.
#[test]
fn sim_incident_event_invalidates_and_reencodes() {
    let ds = rivertown();
    let wrapper = wrapper_for(&ds, 5);
    let center = ds.net.midpoint(ds.net.num_segments() / 2);
    let t = 2.5 * st_sim::SLOT_SECS;
    let ev = st_sim::incident_event(&ds, 1, t, &center, 0.95).expect("incident in range");
    let slot = ev.slot;
    let tensor = ds.traffic_tensor(slot);
    let q = &queries(&ds, tensor, slot, 2)[0];
    let _ = wrapper.predict(&ds.net, q);
    assert_eq!(wrapper.traffic_version(slot), 0);
    assert!(wrapper.ingest(&ev).is_applied());
    assert_eq!(wrapper.traffic_version(slot), 1);
    let misses = wrapper.traffic_cache_counts().misses;
    let _ = wrapper.predict(&ds.net, q);
    assert_eq!(
        wrapper.traffic_cache_counts().misses,
        misses + 1,
        "stale encoding survived the incident"
    );
}

/// A closure ingested by the predictor masks its segment, as the serving
/// engine's admission does: after an interior segment of the route the
/// predictor just returned closes, the next prediction detours around it
/// and equals `beam_decode_closed` under the same closure.
#[test]
fn ingested_closure_produces_a_detour() {
    let ds = rivertown();
    let wrapper = wrapper_for(&ds, 7);
    let slot = 3usize;
    let tensor = ds.traffic_tensor(slot);
    let qs = queries(&ds, tensor, slot, 8);
    let (q, before) = qs
        .iter()
        .map(|q| (q, wrapper.predict(&ds.net, q)))
        .find(|(_, r)| r.len() >= 3)
        .expect("some route has an interior segment");
    let closed = before[before.len() / 2];

    // The closure re-reports the slot's own tensor, so only the graph edit
    // changes between the two predictions.
    let ev = TrafficEvent {
        seq: 1,
        time: slot as f64 * st_sim::SLOT_SECS,
        slot,
        kind: TrafficEventKind::Closure { segment: closed },
        tensor: tensor.to_vec(),
    };
    assert!(wrapper.ingest(&ev).is_applied());
    let after = wrapper.predict(&ds.net, q);
    assert!(
        !after.contains(&closed),
        "prediction {after:?} still crosses closed segment {closed} (was {before:?})"
    );

    let model = wrapper.model();
    let ctx = model.encode_context(q.dest_norm, Some(model.encode_traffic(tensor)));
    let want = beam_decode_closed(
        &ds.net,
        &mut DeepStDecoder::new(model, &ctx),
        &[q.start],
        &q.dest_coord,
        8,
        model.cfg.max_route_len,
        &[closed],
        &CancelToken::new(),
    )
    .unwrap_or_else(|cancelled| cancelled.partial);
    assert_eq!(after, want, "prediction differs from the closed-set decode");
}
