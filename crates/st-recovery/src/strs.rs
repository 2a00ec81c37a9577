//! STRS route recovery (§V-C of the paper).
//!
//! Given a sparse trajectory, infer the traveled route between consecutive
//! observations by maximizing `P(t|r)·P(r)` over candidate routes:
//! the temporal module `P(t|r)` is [`crate::ttime::TravelTimeModel`]; the
//! spatial module `P(r)` is pluggable — a higher-order Markov prior stands
//! in for STRS's inverse-RL module, and substituting DeepST's route
//! likelihood yields **STRS+**.

use std::collections::HashMap;

use st_core::{DeepSt, TripContext};
use st_mapmatch::{MapMatcher, MatchConfig};
use st_roadnet::{k_shortest_routes, RoadNetwork, Route, SegmentId};
use st_sim::GpsPoint;

use crate::ttime::TravelTimeModel;

/// A spatial transition prior `log P(r)` over candidate routes.
pub trait SpatialModel {
    /// Log spatial likelihood of a candidate gap route. `dest_norm` is the
    /// normalized coordinate of the trajectory's final destination and
    /// `slot_id`/`traffic` identify the real-time traffic tensor; models
    /// that don't use them ignore them.
    fn log_prob(
        &self,
        net: &RoadNetwork,
        route: &[SegmentId],
        dest_norm: [f32; 2],
        traffic: &[f32],
        slot_id: usize,
    ) -> f64;

    /// Display name.
    fn name(&self) -> &str;
}

/// Second-order Markov spatial prior with backoff — the stand-in for STRS's
/// inverse-RL spatial module (see DESIGN.md §1).
pub struct MarkovSpatial {
    /// first-order counts: (a, b) -> count
    uni: HashMap<(SegmentId, SegmentId), f64>,
    /// second-order counts: (a, b, c) -> count
    bi: HashMap<(SegmentId, SegmentId, SegmentId), f64>,
}

impl MarkovSpatial {
    /// Fit transition counts from historical routes.
    pub fn fit<'a>(routes: impl IntoIterator<Item = &'a Route>) -> Self {
        let mut uni = HashMap::new();
        let mut bi = HashMap::new();
        for r in routes {
            for w in r.windows(2) {
                *uni.entry((w[0], w[1])).or_insert(0.0) += 1.0;
            }
            for w in r.windows(3) {
                *bi.entry((w[0], w[1], w[2])).or_insert(0.0) += 1.0;
            }
        }
        Self { uni, bi }
    }
}

impl SpatialModel for MarkovSpatial {
    fn log_prob(
        &self,
        net: &RoadNetwork,
        route: &[SegmentId],
        _dest: [f32; 2],
        _traffic: &[f32],
        _slot: usize,
    ) -> f64 {
        let mut total = 0.0;
        for i in 1..route.len() {
            let cur = route[i - 1];
            let nexts = net.next_segments(cur);
            let deg = nexts.len().max(1) as f64;
            // second-order with backoff to first-order, add-one smoothed
            let (num, den) = if i >= 2 {
                let c2 = self
                    .bi
                    .get(&(route[i - 2], cur, route[i]))
                    .copied()
                    .unwrap_or(0.0);
                if c2 > 0.0 {
                    let den: f64 = nexts
                        .iter()
                        .map(|&n| self.bi.get(&(route[i - 2], cur, n)).copied().unwrap_or(0.0))
                        .sum();
                    (c2 + 1.0, den + deg)
                } else {
                    let c1 = self.uni.get(&(cur, route[i])).copied().unwrap_or(0.0);
                    let den: f64 = nexts
                        .iter()
                        .map(|&n| self.uni.get(&(cur, n)).copied().unwrap_or(0.0))
                        .sum();
                    (c1 + 1.0, den + deg)
                }
            } else {
                let c1 = self.uni.get(&(cur, route[i])).copied().unwrap_or(0.0);
                let den: f64 = nexts
                    .iter()
                    .map(|&n| self.uni.get(&(cur, n)).copied().unwrap_or(0.0))
                    .sum();
                (c1 + 1.0, den + deg)
            };
            total += (num / den).ln();
        }
        total
    }

    fn name(&self) -> &str {
        "STRS"
    }
}

/// DeepST as the spatial module (STRS+), with per-slot context caching.
pub struct DeepStSpatial<'m> {
    model: &'m DeepSt,
    cache: std::cell::RefCell<HashMap<(usize, [u32; 2]), TripContext>>,
}

impl<'m> DeepStSpatial<'m> {
    /// Wrap a trained DeepST model.
    pub fn new(model: &'m DeepSt) -> Self {
        Self {
            model,
            cache: std::cell::RefCell::new(HashMap::new()),
        }
    }

    fn context(&self, dest_norm: [f32; 2], traffic: &[f32], slot: usize) -> TripContext {
        let key = (slot, [dest_norm[0].to_bits(), dest_norm[1].to_bits()]);
        let mut cache = self.cache.borrow_mut();
        cache
            .entry(key)
            .or_insert_with(|| {
                let c = self
                    .model
                    .cfg
                    .use_traffic
                    .then(|| self.model.encode_traffic(traffic));
                self.model.encode_context(dest_norm, c)
            })
            .clone()
    }
}

impl SpatialModel for DeepStSpatial<'_> {
    fn log_prob(
        &self,
        net: &RoadNetwork,
        route: &[SegmentId],
        dest_norm: [f32; 2],
        traffic: &[f32],
        slot: usize,
    ) -> f64 {
        let ctx = self.context(dest_norm, traffic, slot);
        self.model.score_route(net, route, &ctx)
    }

    fn name(&self) -> &str {
        "STRS+"
    }
}

/// Recovery configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Number of candidate routes per gap (Yen's k).
    pub k_candidates: usize,
    /// Map-matching settings for the sparse observations.
    pub matching: MatchConfig,
    /// Relative weight of the spatial module against the temporal module.
    pub spatial_weight: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            k_candidates: 5,
            matching: MatchConfig {
                beta: 400.0,
                cand_radius: 150.0,
                ..MatchConfig::default()
            },
            spatial_weight: 1.0,
        }
    }
}

/// The STRS recovery engine: `argmax_r P(t|r)·P(r)` per observation gap.
pub struct Recovery<'a, S: SpatialModel> {
    net: &'a RoadNetwork,
    ttime: &'a TravelTimeModel,
    spatial: &'a S,
    matcher: MapMatcher<'a>,
    cfg: RecoveryConfig,
}

impl<'a, S: SpatialModel> Recovery<'a, S> {
    /// Assemble a recovery engine (builds the map-matching index once).
    pub fn new(
        net: &'a RoadNetwork,
        ttime: &'a TravelTimeModel,
        spatial: &'a S,
        cfg: RecoveryConfig,
    ) -> Self {
        let matcher = MapMatcher::new(net, cfg.matching.clone());
        Self {
            net,
            ttime,
            spatial,
            matcher,
            cfg,
        }
    }

    /// Recover the full route underlying a sparse trajectory.
    ///
    /// `dest_norm`, `traffic`, `slot_id` provide the context the spatial
    /// module may use. Returns `None` when matching or candidate generation
    /// fails.
    pub fn recover(
        &self,
        traj: &[GpsPoint],
        dest_norm: [f32; 2],
        traffic: &[f32],
        slot_id: usize,
    ) -> Option<Route> {
        if traj.len() < 2 {
            return None;
        }
        let anchors = self.matcher.match_points(traj)?;
        let mut full: Route = vec![anchors[0]];
        for i in 1..anchors.len() {
            let (from, to) = (full.last().copied().unwrap_or(anchors[0]), anchors[i]);
            if from == to {
                continue;
            }
            let dt = traj[i].t - traj[i - 1].t;
            let gap = self.recover_gap(from, to, dt, dest_norm, traffic, slot_id)?;
            full.extend_from_slice(&gap[1..]);
        }
        Some(full)
    }

    /// Recover a single observation gap: score the k shortest candidate
    /// routes by `log P(t|r) + w·log P(r)` and return the best.
    pub fn recover_gap(
        &self,
        from: SegmentId,
        to: SegmentId,
        travel_time: f64,
        dest_norm: [f32; 2],
        traffic: &[f32],
        slot_id: usize,
    ) -> Option<Route> {
        let cands = k_shortest_routes(self.net, from, to, self.cfg.k_candidates, &|s| {
            self.ttime.mean(s)
        });
        cands
            .into_iter()
            .map(|c| {
                let temporal = self.ttime.log_prob(&c.route, travel_time);
                let spatial = self
                    .spatial
                    .log_prob(self.net, &c.route, dest_norm, traffic, slot_id);
                (c.route, temporal + self.cfg.spatial_weight * spatial)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_sim::{downsample, CityPreset, Dataset};

    fn setup() -> (Dataset, TravelTimeModel, MarkovSpatial) {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 150, 31);
        let sp = ds.default_split();
        let train_routes: Vec<&Route> = sp.train.iter().map(|&i| &ds.trips[i].route).collect();
        let ttime = TravelTimeModel::fit(
            &ds.net,
            sp.train
                .iter()
                .map(|&i| (&ds.trips[i].route, ds.trips[i].duration())),
        );
        let spatial = MarkovSpatial::fit(train_routes);
        (ds, ttime, spatial)
    }

    #[test]
    fn markov_prefers_frequent_routes() {
        let (ds, _, spatial) = setup();
        // the most common transition out of some segment should beat a rare one
        let mut any_checked = false;
        for s in 0..ds.net.num_segments() {
            let nexts = ds.net.next_segments(s);
            if nexts.len() < 2 {
                continue;
            }
            let scores: Vec<f64> = nexts
                .iter()
                .map(|&n| spatial.log_prob(&ds.net, &[s, n], [0.0, 0.0], &[], 0))
                .collect();
            let spread = scores.iter().cloned().fold(f64::MIN, f64::max)
                - scores.iter().cloned().fold(f64::MAX, f64::min);
            if spread > 0.1 {
                any_checked = true;
                break;
            }
        }
        assert!(any_checked, "Markov prior is uniform everywhere");
    }

    #[test]
    fn recover_gap_returns_connected_route() {
        let (ds, ttime, spatial) = setup();
        let rec = Recovery::new(&ds.net, &ttime, &spatial, RecoveryConfig::default());
        let trip = &ds.trips[0];
        let (from, to) = (trip.route[0], *trip.route.last().unwrap());
        let t = trip.duration();
        let gap = rec.recover_gap(from, to, t, [0.5, 0.5], &[], 0).unwrap();
        assert!(ds.net.is_valid_route(&gap));
        assert_eq!(*gap.first().unwrap(), from);
        assert_eq!(*gap.last().unwrap(), to);
    }

    #[test]
    fn recovers_sparse_trajectories_reasonably() {
        let (ds, ttime, spatial) = setup();
        let rec = Recovery::new(&ds.net, &ttime, &spatial, RecoveryConfig::default());
        let sp = ds.default_split();
        let mut scored = 0;
        let mut acc_sum = 0.0;
        for &i in sp.test.iter().take(15) {
            let trip = &ds.trips[i];
            let sparse = downsample(&trip.gps, 60.0);
            if sparse.len() < 2 {
                continue;
            }
            let dest = ds.unit_coord(&trip.dest_coord);
            let Some(recovered) = rec.recover(&sparse, dest, &[], 0) else {
                continue;
            };
            assert!(ds.net.is_valid_route(&recovered));
            // accuracy (Eq. 9)
            let set: std::collections::BTreeSet<_> = recovered.iter().collect();
            let inter = trip.route.iter().filter(|s| set.contains(s)).count();
            acc_sum += inter as f64 / trip.route.len().max(recovered.len()) as f64;
            scored += 1;
        }
        assert!(scored >= 10, "too few recoveries: {scored}");
        let acc = acc_sum / scored as f64;
        assert!(acc > 0.6, "recovery accuracy too low: {acc}");
    }

    /// The spatial model STRS+ plugs in ([`DeepStSpatial`]) delegates every
    /// score to the wrapped DeepST: its graph must pass static analysis
    /// clean, and a planted defect on the same graph must be detected.
    #[test]
    fn strs_spatial_model_graph_passes_static_analysis() {
        use st_core::{DeepStConfig, Example, TrainModel};
        use st_tensor::analyze::LintKind;
        use st_tensor::{init, ops, Array, Binder, Tape};
        use std::sync::Arc;

        let (ds, _, _) = setup();
        let cfg = DeepStConfig::new(ds.net.num_segments(), ds.net.max_out_degree(), 8, 8)
            .without_traffic();
        let model = DeepSt::new(cfg, 7);
        let _spatial = DeepStSpatial::new(&model);
        let examples: Vec<Example> = ds
            .trips
            .iter()
            .filter_map(|t| {
                Example::new(
                    &ds.net,
                    t.route.clone(),
                    ds.unit_coord(&t.dest_coord),
                    Arc::new(Vec::new()),
                    0,
                )
            })
            .take(8)
            .collect();
        let refs: Vec<&Example> = examples.iter().collect();
        assert!(!refs.is_empty());

        // Clean: zero false positives on the graph STRS+ scores with.
        let diags = model.analyze_graph(&refs);
        assert!(diags.is_empty(), "analyzer false positives: {diags:?}");

        // Planted: a dead op subgraph on the same training tape is found.
        let mut rng = init::rng(0);
        let tape = Tape::new();
        let binder = Binder::new(&tape);
        let (loss, _) = model.batch_loss(&binder, &refs, &mut rng, false);
        let _stray = ops::square(binder.input(Array::vector(vec![1.0, 2.0])));
        let diags = st_tensor::analyze(
            &tape.export_spec(),
            loss.id(),
            &binder.bound_params(),
            &Default::default(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, LintKind::DetachedSubgraph);
    }
}
