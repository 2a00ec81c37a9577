//! [`Predictor`] adapter for DeepST / DeepST-C with per-slot traffic caching.

use std::cell::{Cell, RefCell};

use st_core::livetraffic::{CacheCounts, TrafficCache, TRAFFIC_CACHE_CAP};
use st_core::DeepSt;
use st_roadnet::{RoadNetwork, Route};

use crate::beam::{beam_decode, DeepStDecoder};
use crate::predictor::{PredictQuery, Predictor};

/// Wraps a trained [`DeepSt`] so it can be evaluated alongside the baselines.
///
/// The predictor decodes the traffic tensor each query carries, frozen:
/// trips in the same 20-minute slot share one tensor and one `C` (§IV-D),
/// so the CNN runs once per slot, through a [`TrafficCache`] bounded at
/// [`TRAFFIC_CACHE_CAP`] slots; a query whose tensor differs from the one
/// cached for its slot is encoded afresh. A live feed reaches routes through
/// `st_serve::Server::ingest_traffic`, not through this adapter.
pub struct DeepStPredictor {
    model: DeepSt,
    name: &'static str,
    traffic_cache: RefCell<TrafficCache>,
    /// Whether the output-space lint has run for this predictor (once, on
    /// the first predict call — `max_out_degree` scans the whole network).
    linted: Cell<bool>,
}

impl DeepStPredictor {
    /// Wrap a trained model. The display name is `DeepST` or `DeepST-C`
    /// depending on the model's traffic pathway.
    pub fn new(model: DeepSt) -> Self {
        let name = if model.cfg.use_traffic {
            "DeepST"
        } else {
            "DeepST-C"
        };
        Self {
            model,
            name,
            traffic_cache: RefCell::new(TrafficCache::new(TRAFFIC_CACHE_CAP)),
            linted: Cell::new(false),
        }
    }

    /// Access the wrapped model.
    pub fn model(&self) -> &DeepSt {
        &self.model
    }

    /// Hits, misses and invalidations of this predictor's traffic cache
    /// (the process-wide `predict.traffic_cache.*` counters sum every
    /// cache's).
    pub fn traffic_cache_counts(&self) -> CacheCounts {
        self.traffic_cache.borrow().counts()
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
        let c = self.model.cfg.use_traffic.then(|| {
            self.traffic_cache
                .borrow_mut()
                .get_or_encode_tensor(q.slot_id, 0, q.traffic, || {
                    self.model.encode_traffic(q.traffic)
                })
        });
        let ctx = self.model.encode_context(q.dest_norm, c);
        let mut dec = DeepStDecoder::new(&self.model, &ctx);
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
        assert_eq!(wrapper.traffic_cache_counts().misses, 1);
        let r2 = wrapper.predict(&net, &q);
        assert_eq!(r2, r1);
        assert_eq!(
            wrapper.traffic_cache_counts(),
            CacheCounts {
                hits: 1,
                misses: 1,
                invalidations: 0
            },
            "cache not reused"
        );
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
