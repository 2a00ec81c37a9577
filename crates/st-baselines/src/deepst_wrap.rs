//! [`Predictor`] adapter for DeepST / DeepST-C with per-slot traffic caching.

use std::cell::{Cell, RefCell};

use st_core::livetraffic::{
    bind_traffic, ApplyOutcome, CacheCounts, TrafficCache, TrafficEvent, VersionedTraffic,
};
use st_core::{CancelToken, DeepSt};
use st_roadnet::{RoadNetwork, Route};
use st_tensor::Array;

use crate::beam::{beam_decode_closed, DeepStDecoder};
use crate::predictor::{PredictQuery, Predictor};

/// Default bound on cached traffic-slot encodings: one day of the paper's
/// 20-minute slots. Keeps a long-running server's cache from growing with
/// the number of distinct slots ever seen.
pub const DEFAULT_TRAFFIC_CACHE_CAP: usize = 72;

/// Wraps a trained [`DeepSt`] so it can be evaluated alongside the baselines.
///
/// Trips in the same 20-minute slot share one `C` (§IV-D), so the CNN runs
/// once per `(slot, traffic version)`: the [`TrafficCache`] keys encodings
/// by slot *and* the slot's live-feed version, so a live update can never be
/// served a stale encoding — the version mismatch evicts exactly that slot's
/// entry (`predict.traffic_cache.invalidate`), leaving the rest of the cache
/// warm. Feed events enter through [`DeepStPredictor::ingest`]; a
/// `Closure` event also masks its segment in every later prediction.
pub struct DeepStPredictor {
    model: DeepSt,
    name: &'static str,
    traffic_cache: RefCell<TrafficCache>,
    /// Live traffic state built from ingested feed events. Slots the feed
    /// has never touched report version 0 and fall back to the query's own
    /// tensor, so a feed-less deployment behaves exactly as before.
    live: RefCell<VersionedTraffic>,
    /// Whether the output-space lint has run for this predictor (once, on
    /// the first predict call — `max_out_degree` scans the whole network).
    linted: Cell<bool>,
}

impl DeepStPredictor {
    /// Wrap a trained model. The display name is `DeepST` or `DeepST-C`
    /// depending on the model's traffic pathway.
    pub fn new(model: DeepSt) -> Self {
        Self::with_cache_cap(model, DEFAULT_TRAFFIC_CACHE_CAP)
    }

    /// Wrap a trained model with an explicit traffic-cache capacity.
    pub fn with_cache_cap(model: DeepSt, cap: usize) -> Self {
        let name = if model.cfg.use_traffic {
            "DeepST"
        } else {
            "DeepST-C"
        };
        Self {
            model,
            name,
            traffic_cache: RefCell::new(TrafficCache::new(cap)),
            live: RefCell::new(VersionedTraffic::new()),
            linted: Cell::new(false),
        }
    }

    /// Access the wrapped model.
    pub fn model(&self) -> &DeepSt {
        &self.model
    }

    /// Number of traffic-slot encodings currently cached.
    pub fn traffic_cache_len(&self) -> usize {
        self.traffic_cache.borrow().len()
    }

    /// Hits, misses and invalidations of this predictor's traffic cache
    /// (the process-wide `predict.traffic_cache.*` counters sum every
    /// cache's).
    pub fn traffic_cache_counts(&self) -> CacheCounts {
        self.traffic_cache.borrow().counts()
    }

    /// The live-feed version of `slot` (0 if the feed has never revised it).
    pub fn traffic_version(&self, slot: usize) -> u64 {
        self.live.borrow().slot_version(slot)
    }

    /// Ingest one live traffic event. On a fresh application the stale
    /// cached encoding for the event's slot (if any) is evicted *eagerly*
    /// and *targeted* — other slots stay warm — so the next predict in that
    /// slot re-encodes from the live tensor. Duplicates, reorderings and
    /// past-horizon events are rejected idempotently (typed outcome plus
    /// `traffic.feed.*` counters). A `Closure` event's segment is masked
    /// in every later prediction, so routes detour around it.
    pub fn ingest(&self, ev: &TrafficEvent) -> ApplyOutcome {
        let outcome = self.live.borrow_mut().apply(ev);
        if let ApplyOutcome::Applied { slot, version } = outcome {
            self.traffic_cache
                .borrow_mut()
                .invalidate_stale(slot, version);
        }
        outcome
    }

    fn traffic_context(&self, q: &PredictQuery<'_>) -> Option<Array> {
        if !self.model.cfg.use_traffic {
            return None;
        }
        Some(bind_traffic(
            &self.model,
            &self.live.borrow(),
            &mut self.traffic_cache.borrow_mut(),
            q.slot_id,
            q.traffic,
        ))
    }
}

impl Predictor for DeepStPredictor {
    fn name(&self) -> &str {
        self.name
    }

    fn predict(&self, net: &RoadNetwork, q: &PredictQuery<'_>) -> Route {
        if !self.linted.replace(true) {
            if let Some(diag) = self.model.lint_output_space(net) {
                st_obs::warn_once("deepst.truncated-output-space", &diag.to_string());
            }
        }
        let c = self.traffic_context(q);
        let ctx = self.model.encode_context(q.dest_norm, c);
        // Ingested closures mask their segments, as st-serve's admission
        // does; with none this is `beam_decode`.
        let closed = self.live.borrow().closed_segments();
        let mut dec = DeepStDecoder::new(&self.model, &ctx);
        beam_decode_closed(
            net,
            &mut dec,
            &[q.start],
            &q.dest_coord,
            8,
            self.model.cfg.max_route_len,
            &closed,
            &CancelToken::new(),
        )
        .unwrap_or_else(|cancelled| cancelled.partial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::DeepStConfig;
    use st_roadnet::{grid_city, GridConfig};

    fn query<'a>(net: &RoadNetwork, tensor: &'a [f32], slot_id: usize) -> PredictQuery<'a> {
        PredictQuery {
            start: 0,
            dest_coord: net.midpoint(5),
            dest_norm: [0.5, 0.5],
            dest_segment: 5,
            traffic: tensor,
            slot_id,
        }
    }

    /// Cache counts are read from the predictor's own cache: other tests
    /// in this binary move the process-wide `predict.traffic_cache.*`
    /// counters concurrently.
    #[test]
    fn wrapper_predicts_and_caches() {
        let net = grid_city(&GridConfig::small_test(), 1);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let model = DeepSt::new(cfg, 0);
        let wrapper = DeepStPredictor::new(model);
        assert_eq!(wrapper.name(), "DeepST");
        let tensor = vec![0.1f32; 64];
        let q = query(&net, &tensor, 3);
        let r1 = wrapper.predict(&net, &q);
        assert!(net.is_valid_route(&r1));
        assert_eq!(wrapper.traffic_cache_len(), 1);
        assert_eq!(wrapper.traffic_cache_counts().misses, 1);
        let _ = wrapper.predict(&net, &q);
        assert_eq!(wrapper.traffic_cache_len(), 1, "cache not reused");
        assert_eq!(wrapper.traffic_cache_counts().hits, 1);
    }

    #[test]
    fn traffic_cache_is_bounded_and_evicts_lru() {
        let net = grid_city(&GridConfig::small_test(), 1);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let wrapper = DeepStPredictor::with_cache_cap(DeepSt::new(cfg, 0), 2);
        let tensor = vec![0.1f32; 64];
        for slot in [0usize, 1, 2] {
            let q = query(&net, &tensor, slot);
            let _ = wrapper.predict(&net, &q);
        }
        assert_eq!(wrapper.traffic_cache_len(), 2, "cache exceeded its cap");
        // Slot 0 was least recently used and must have been evicted:
        // touching it again is a miss, while slot 2 is still a hit.
        let misses = wrapper.traffic_cache_counts().misses;
        let _ = wrapper.predict(&net, &query(&net, &tensor, 2));
        assert_eq!(
            wrapper.traffic_cache_counts().misses,
            misses,
            "recently used slot should still be cached"
        );
        let _ = wrapper.predict(&net, &query(&net, &tensor, 0));
        assert_eq!(
            wrapper.traffic_cache_counts().misses,
            misses + 1,
            "least recently used slot should have been evicted"
        );
    }

    fn feed_event(seq: u64, slot: usize, tensor: Vec<f32>) -> TrafficEvent {
        TrafficEvent {
            seq,
            time: seq as f64,
            slot,
            kind: st_core::livetraffic::TrafficEventKind::Incident,
            tensor,
        }
    }

    #[test]
    fn ingest_invalidates_exactly_the_changed_slot() {
        let net = grid_city(&GridConfig::small_test(), 1);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let wrapper = DeepStPredictor::new(DeepSt::new(cfg, 0));
        let tensor = vec![0.1f32; 64];
        // warm slots 3 and 4
        let _ = wrapper.predict(&net, &query(&net, &tensor, 3));
        let _ = wrapper.predict(&net, &query(&net, &tensor, 4));
        assert_eq!(wrapper.traffic_cache_len(), 2);

        let before = wrapper.traffic_cache_counts();

        // a live update to slot 3 evicts slot 3's encoding eagerly...
        let out = wrapper.ingest(&feed_event(1, 3, vec![0.9f32; 64]));
        assert!(out.is_applied());
        assert_eq!(wrapper.traffic_version(3), 1);
        assert_eq!(wrapper.traffic_cache_len(), 1, "eviction was not eager");
        assert_eq!(
            wrapper.traffic_cache_counts().invalidations,
            before.invalidations + 1
        );

        // ...so slot 3 re-encodes (miss at the new version) while slot 4 is
        // untouched and still hits: targeted, not a flush.
        let _ = wrapper.predict(&net, &query(&net, &tensor, 3));
        assert_eq!(wrapper.traffic_cache_counts().misses, before.misses + 1);
        let _ = wrapper.predict(&net, &query(&net, &tensor, 4));
        assert_eq!(wrapper.traffic_cache_counts().hits, before.hits + 1);
        // steady state: slot 3 at version 1 now hits again
        let _ = wrapper.predict(&net, &query(&net, &tensor, 3));
        assert_eq!(wrapper.traffic_cache_counts().hits, before.hits + 2);
    }

    #[test]
    fn duplicate_and_out_of_order_ingest_is_idempotent() {
        let net = grid_city(&GridConfig::small_test(), 1);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let wrapper = DeepStPredictor::new(DeepSt::new(cfg, 0));
        assert!(wrapper
            .ingest(&feed_event(5, 2, vec![0.5; 64]))
            .is_applied());
        let v = wrapper.traffic_version(2);
        // same event redelivered: duplicate, version unmoved
        assert!(matches!(
            wrapper.ingest(&feed_event(5, 2, vec![0.5; 64])),
            ApplyOutcome::Duplicate
        ));
        // an older event arriving late: rejected, version unmoved
        assert!(matches!(
            wrapper.ingest(&feed_event(4, 2, vec![0.4; 64])),
            ApplyOutcome::OutOfOrder
        ));
        assert_eq!(wrapper.traffic_version(2), v);
    }

    /// The whole decode — context encoding included — runs on the
    /// tape-free inference runtime: the thread's tape-creation counter must
    /// not move across an entire greedy rollout.
    #[test]
    fn generation_allocates_no_tapes() {
        let net = grid_city(&GridConfig::small_test(), 2);
        let cfg = DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8);
        let model = DeepSt::new(cfg, 0);
        let created = st_tensor::Tape::created_count();
        let c = model.encode_traffic(&[0.2; 64]);
        let ctx = model.encode_context([0.9, 0.9], Some(c));
        let mut dec = DeepStDecoder::new(&model, &ctx);
        let dest = st_roadnet::Point::new(380.0, 380.0);
        let route = crate::greedy_decode(&net, &mut dec, 0, &dest, model.cfg.max_route_len);
        assert!(route.len() >= 2);
        assert_eq!(
            st_tensor::Tape::created_count(),
            created,
            "decoding allocated an autodiff tape"
        );
    }

    #[test]
    fn deepst_c_wrapper_name() {
        let net = grid_city(&GridConfig::small_test(), 1);
        let cfg =
            DeepStConfig::new(net.num_segments(), net.max_out_degree(), 8, 8).without_traffic();
        let wrapper = DeepStPredictor::new(DeepSt::new(cfg, 0));
        assert_eq!(wrapper.name(), "DeepST-C");
        let q = PredictQuery {
            start: 2,
            dest_coord: net.midpoint(9),
            dest_norm: [0.3, 0.7],
            dest_segment: 9,
            traffic: &[],
            slot_id: 0,
        };
        let r = wrapper.predict(&net, &q);
        assert!(net.is_valid_route(&r));
    }
}
