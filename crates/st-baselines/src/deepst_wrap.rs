//! [`Predictor`] adapter for DeepST / DeepST-C with per-slot traffic caching.

use std::cell::{Cell, RefCell};

use st_core::livetraffic::{
    ApplyOutcome, CacheCounts, TrafficCache, TrafficEvent, VersionedTraffic,
};
use st_core::{DeepSt, InferPrecision, InferSession, TripContext};
use st_roadnet::{RoadNetwork, Route, SegmentId};
use st_tensor::Array;

use crate::beam::{beam_decode, StepDecoder};
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
/// warm. Feed events enter through [`DeepStPredictor::ingest`].
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
    /// Numeric precision every decode session opens with.
    precision: InferPrecision,
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
            precision: InferPrecision::F32,
        }
    }

    /// Wrap a trained model decoding at the given precision.
    /// [`InferPrecision::Int8`] trades bitwise fidelity for quantized
    /// embedding/head kernels; its accuracy is gated statistically by the
    /// decode benchmark.
    pub fn with_precision(model: DeepSt, precision: InferPrecision) -> Self {
        let mut p = Self::new(model);
        p.precision = precision;
        p
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
    /// `traffic.feed.*` counters).
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
        let live = self.live.borrow();
        let version = live.slot_version(q.slot_id);
        // The live tensor supersedes the query's frozen snapshot once the
        // feed has revised this slot.
        let tensor = live.tensor(q.slot_id).unwrap_or(q.traffic);
        Some(
            self.traffic_cache
                .borrow_mut()
                .get_or_encode(q.slot_id, version, || self.model.encode_traffic(tensor)),
        )
    }
}

/// [`StepDecoder`] view of a DeepST model for one trip: a tape-free
/// [`InferSession`] with the recurrent state packed as `[rows, hidden]`
/// matrices, so one beam step over all candidates is one batched GEMM.
pub struct DeepStDecoder<'m> {
    sess: InferSession<'m>,
    width: usize,
    /// When set, steps go through the pre-packing
    /// [`InferSession::step_into_generic`] baseline instead of the fused
    /// kernels — the decode benchmark's reference path.
    generic: bool,
}

impl<'m> DeepStDecoder<'m> {
    /// Open a decoder for one trip context (fused f32 kernels).
    pub fn new(model: &'m DeepSt, ctx: &TripContext) -> Self {
        Self::with_precision(model, ctx, InferPrecision::F32)
    }

    /// Open a decoder with an explicit numeric precision for the hot loop.
    pub fn with_precision(model: &'m DeepSt, ctx: &TripContext, precision: InferPrecision) -> Self {
        Self {
            width: model.cfg.max_neighbors,
            sess: model.infer_session_with(ctx, precision),
            generic: false,
        }
    }

    /// Test hook: wrap an explicitly-constructed session (e.g. the coarse
    /// int8 session behind the planted-regression accuracy test).
    #[doc(hidden)]
    pub fn from_session(sess: InferSession<'m>) -> Self {
        Self {
            width: sess.model().cfg.max_neighbors,
            sess,
            generic: false,
        }
    }

    /// Open a decoder that steps through the unpacked per-call-GEMM
    /// baseline. Bit-identical routes to [`DeepStDecoder::new`]; kept so the
    /// decode benchmark measures the fused kernels against a live
    /// implementation.
    pub fn new_generic(model: &'m DeepSt, ctx: &TripContext) -> Self {
        Self {
            width: model.cfg.max_neighbors,
            sess: model.infer_session(ctx),
            generic: true,
        }
    }
}

impl StepDecoder for DeepStDecoder<'_> {
    type State = Vec<Array>;

    fn width(&self) -> usize {
        self.width
    }

    fn init_state(&mut self, n: usize) -> Vec<Array> {
        self.sess.zero_state(n)
    }

    fn step(
        &mut self,
        _net: &RoadNetwork,
        tokens: &[SegmentId],
        state: &mut Vec<Array>,
        logp: &mut Vec<f64>,
    ) {
        if self.generic {
            self.sess.step_into_generic(tokens, state, logp);
        } else {
            self.sess.step_into(tokens, state, logp);
        }
    }

    fn gather(&mut self, state: &Vec<Array>, rows: &[usize]) -> Vec<Array> {
        self.sess.gather_state(state, rows)
    }

    fn recycle(&mut self, state: Vec<Array>) {
        self.sess.recycle_state(state);
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
        let mut dec = DeepStDecoder::with_precision(&self.model, &ctx, self.precision);
        beam_decode(
            net,
            &mut dec,
            q.start,
            &q.dest_coord,
            8,
            self.model.cfg.max_route_len,
        )
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
