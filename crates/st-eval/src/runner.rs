//! End-to-end experiment runner: dataset → trained methods → metrics.
//!
//! This is the machinery behind Table IV, Table VI and Fig. 7: it converts a
//! simulated [`Dataset`] into training [`Example`]s, fits every method of
//! §V-A, and evaluates most-likely-route prediction on the test split.

use rand::rngs::StdRng;
use rand::SeedableRng;

use st_baselines::{DeepStPredictor, Mmi, PredictQuery, Predictor, RnnBaseline, RnnConfig, Wsp};
use st_core::{DeepSt, DeepStConfig, Example, TrainConfig, TrainError, Trainer};
use st_roadnet::Route;
use st_sim::Dataset;

use crate::metrics::{distance_bucket, MetricSums};

/// Knobs for a full evaluation suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Master seed.
    pub seed: u64,
    /// DeepST training epochs.
    pub deepst_epochs: usize,
    /// Neural baseline training epochs.
    pub rnn_epochs: usize,
    /// Minibatch size for all neural models.
    pub batch_size: usize,
    /// Learning rate for all neural models.
    pub lr: f32,
    /// Number of destination proxies K for DeepST.
    pub k_proxies: usize,
    /// Cap on evaluated test trips (None = all).
    pub max_eval: Option<usize>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            deepst_epochs: 8,
            rnn_epochs: 8,
            batch_size: 64,
            lr: 3e-3,
            k_proxies: 24,
            max_eval: None,
        }
    }
}

/// Convert dataset trips at `indices` into model [`Example`]s with the
/// simulator's shared trip-to-example path ([`Dataset::examples`]): traffic
/// tensors are shared per slot via `Arc`, and dropped trips are counted.
pub fn build_examples(ds: &Dataset, indices: &[usize]) -> Vec<Example> {
    ds.examples(indices)
}

/// The base DeepST configuration for a dataset.
pub fn deepst_config(ds: &Dataset, k: usize) -> DeepStConfig {
    DeepStConfig::new(
        ds.net.num_segments(),
        ds.net.max_out_degree(),
        ds.grid.height,
        ds.grid.width,
    )
    .with_k(k)
}

/// Train a DeepST model (or DeepST-C with `use_traffic = false`).
pub fn train_deepst(
    ds: &Dataset,
    train: &[Example],
    val: Option<&[Example]>,
    cfg: &SuiteConfig,
    use_traffic: bool,
) -> Result<DeepSt, TrainError> {
    let mut mcfg = deepst_config(ds, cfg.k_proxies);
    mcfg.use_traffic = use_traffic;
    let model = DeepSt::new(mcfg, cfg.seed);
    let tc = TrainConfig {
        epochs: cfg.deepst_epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        grad_clip: 5.0,
        patience: Some(3),
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(model, tc);
    // Static output-space check against the actual network: the trainer only
    // sees examples, so a too-narrow `max_neighbors` head is flagged here.
    if let Some(diag) = trainer.model.lint_output_space(&ds.net) {
        st_obs::warn_once("deepst.truncated-output-space", &diag.to_string());
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEE9);
    trainer.fit(train, val, &mut rng)?;
    Ok(trainer.model)
}

/// Train every method of Table IV and return them in the paper's column
/// order: DeepST, DeepST-C, CSSRNN, RNN, MMI, WSP.
///
/// `train`/`val` must come from [`Dataset::default_split`]: WSP additionally
/// needs trip durations, which [`Example`]s do not carry, so it re-derives
/// the default split's training trips from the dataset.
pub fn train_all_methods(
    ds: &Dataset,
    train: &[Example],
    val: Option<&[Example]>,
    cfg: &SuiteConfig,
) -> Result<Vec<Box<dyn Predictor>>, TrainError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBA5E);
    let rnn_cfg = RnnConfig::new(ds.net.num_segments(), ds.net.max_out_degree());
    // One shard per minibatch, as the RNN loss is a per-transition mean
    // (see `TrainModel::loss`); no validation set, so no early stopping.
    let tc = TrainConfig {
        epochs: cfg.rnn_epochs,
        batch_size: cfg.batch_size,
        shard_size: cfg.batch_size,
        lr: cfg.lr,
        grad_clip: 5.0,
        ..TrainConfig::default()
    };

    let deepst = train_deepst(ds, train, val, cfg, true)?;
    let deepst_c = train_deepst(ds, train, val, cfg, false)?;
    let mut cssrnn = Trainer::new(RnnBaseline::cssrnn(rnn_cfg.clone(), cfg.seed), tc.clone());
    cssrnn.fit(train, None, &mut rng)?;
    let mut rnn = Trainer::new(RnnBaseline::vanilla(rnn_cfg, cfg.seed), tc);
    rnn.fit(train, None, &mut rng)?;
    let train_routes: Vec<Route> = train.iter().map(|e| e.route.clone()).collect();
    let mmi = Mmi::fit(&ds.net, train_routes.iter());
    // WSP needs durations: recover them from the dataset trips by matching
    // routes is fragile; instead feed all train-split trips directly.
    let split = ds.default_split();
    let wsp = Wsp::fit(
        &ds.net,
        split
            .train
            .iter()
            .map(|&i| (&ds.trips[i].route, ds.trips[i].duration())),
    );

    Ok(vec![
        Box::new(DeepStPredictor::new(deepst)),
        Box::new(DeepStPredictor::new(deepst_c)),
        Box::new(cssrnn.model),
        Box::new(rnn.model),
        Box::new(mmi),
        Box::new(wsp),
    ])
}

/// Per-method evaluation result (overall + per-distance-bucket).
#[derive(Debug, Clone, serde::Serialize)]
pub struct MethodResult {
    /// Method display name.
    pub name: String,
    /// Overall metrics.
    pub overall: MetricSums,
    /// Metrics per travel-distance bucket.
    pub per_bucket: Vec<MetricSums>,
}

/// Equal-count (quantile) distance buckets over the test trips, in km.
pub fn quantile_buckets(ds: &Dataset, test: &[usize], n_buckets: usize) -> Vec<(f64, f64)> {
    let mut dists: Vec<f64> = test
        .iter()
        .map(|&i| ds.net.route_length(&ds.trips[i].route) / 1000.0)
        .collect();
    dists.sort_by(|a, b| a.total_cmp(b));
    assert!(!dists.is_empty());
    let mut buckets = Vec::with_capacity(n_buckets);
    for b in 0..n_buckets {
        let lo = dists[b * dists.len() / n_buckets];
        let hi = if b == n_buckets - 1 {
            f64::INFINITY
        } else {
            dists[(b + 1) * dists.len() / n_buckets]
        };
        buckets.push((lo, hi));
    }
    buckets[0].0 = 0.0;
    buckets
}

/// Result of an [`evaluate_methods`] run: per-method metrics plus trip
/// accounting for the bucketed (Fig. 7) view.
///
/// With the paper's fixed [`crate::metrics::DISTANCE_BUCKETS`] the lowest
/// bucket starts at 1 km, so shorter trips have no bucket: they still count
/// toward every method's `overall` metrics but are absent from `per_bucket`.
/// `bucket_dropped` makes that loss visible instead of silent.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EvalSummary {
    /// Per-method metrics, in the order the methods were passed.
    pub results: Vec<MethodResult>,
    /// Number of test trips evaluated (after the `max_eval` cap).
    pub evaluated: usize,
    /// Trips evaluated overall but outside every distance bucket (for the
    /// paper's buckets: trips shorter than 1 km).
    pub bucket_dropped: usize,
}

/// Evaluate methods on the test trips: most-likely-route prediction given
/// `(r₁, x, C)` (Table IV protocol), bucketed by travel distance (Fig. 7).
///
/// Trips whose travel distance falls outside every bucket are still scored
/// in `overall` and counted in [`EvalSummary::bucket_dropped`]; see the
/// summary type for why.
pub fn evaluate_methods(
    ds: &Dataset,
    methods: &[Box<dyn Predictor>],
    test: &[usize],
    buckets: &[(f64, f64)],
    max_eval: Option<usize>,
) -> EvalSummary {
    let _sp = st_obs::span("eval/methods");
    let dropped_ctr = st_obs::counter("eval.trips_outside_buckets");
    let take = max_eval.unwrap_or(test.len()).min(test.len());
    let mut results: Vec<MethodResult> = methods
        .iter()
        .map(|m| MethodResult {
            name: m.name().to_string(),
            overall: MetricSums::default(),
            per_bucket: vec![MetricSums::default(); buckets.len()],
        })
        .collect();
    let mut bucket_dropped = 0usize;
    for &i in test.iter().take(take) {
        let trip = &ds.trips[i];
        let slot = ds.slot_of(trip.start_time);
        let tensor = ds.traffic_tensor(slot);
        let q = PredictQuery {
            start: trip.origin_segment(),
            dest_coord: trip.dest_coord,
            dest_norm: ds.unit_coord(&trip.dest_coord),
            dest_segment: trip.dest_segment(),
            traffic: tensor,
            slot_id: slot,
        };
        let km = ds.net.route_length(&trip.route) / 1000.0;
        let bucket = distance_bucket(km, buckets);
        if bucket.is_none() {
            bucket_dropped += 1;
            dropped_ctr.inc();
        }
        for (m, res) in methods.iter().zip(&mut results) {
            let predicted = m.predict(&ds.net, &q);
            res.overall.add(&trip.route, &predicted);
            if let Some(b) = bucket {
                res.per_bucket[b].add(&trip.route, &predicted);
            }
        }
    }
    EvalSummary {
        results,
        evaluated: take,
        bucket_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_sim::CityPreset;
    use std::sync::Arc;

    fn tiny() -> Dataset {
        Dataset::generate(&CityPreset::tiny_test(), 160, 13)
    }

    #[test]
    fn examples_share_tensors_per_slot() {
        let ds = tiny();
        let sp = ds.default_split();
        let ex = build_examples(&ds, &sp.train);
        assert!(!ex.is_empty());
        // two examples in the same slot share the same Arc allocation
        let mut by_slot: std::collections::HashMap<usize, &Arc<Vec<f32>>> =
            std::collections::HashMap::new();
        for e in &ex {
            if let Some(prev) = by_slot.get(&e.slot_id) {
                assert!(Arc::ptr_eq(prev, &e.traffic));
            } else {
                by_slot.insert(e.slot_id, &e.traffic);
            }
        }
    }

    #[test]
    fn quantile_buckets_cover_all_tests() {
        let ds = tiny();
        let sp = ds.default_split();
        let buckets = quantile_buckets(&ds, &sp.test, 4);
        assert_eq!(buckets.len(), 4);
        for &i in &sp.test {
            let km = ds.net.route_length(&ds.trips[i].route) / 1000.0;
            assert!(
                distance_bucket(km, &buckets).is_some(),
                "distance {km} not covered by {buckets:?}"
            );
        }
    }

    #[test]
    fn end_to_end_suite_smoke() {
        // A miniature full pipeline: train briefly, evaluate a handful.
        let ds = tiny();
        let sp = ds.default_split();
        let train = build_examples(&ds, &sp.train);
        let cfg = SuiteConfig {
            deepst_epochs: 2,
            rnn_epochs: 2,
            max_eval: Some(12),
            ..SuiteConfig::default()
        };
        let methods = train_all_methods(&ds, &train, None, &cfg).expect("suite training");
        assert_eq!(methods.len(), 6);
        let names: Vec<&str> = methods.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["DeepST", "DeepST-C", "CSSRNN", "RNN", "MMI", "WSP"]);
        let buckets = quantile_buckets(&ds, &sp.test, 3);
        let summary = evaluate_methods(&ds, &methods, &sp.test, &buckets, Some(12));
        assert_eq!(summary.evaluated, 12);
        // Quantile buckets cover every test trip, so nothing is dropped.
        assert_eq!(summary.bucket_dropped, 0);
        for r in &summary.results {
            assert_eq!(r.overall.count, 12);
            assert!((0.0..=1.0).contains(&r.overall.recall()));
            assert!((0.0..=1.0).contains(&r.overall.accuracy()));
        }
    }

    #[test]
    fn sub_bucket_trips_are_counted_not_lost() {
        // With the paper's fixed buckets (lowest starts at 1 km), short
        // trips fall outside every bucket: they must still score in
        // `overall` and be reported in `bucket_dropped`.
        let ds = tiny();
        let sp = ds.default_split();
        let train = build_examples(&ds, &sp.train);
        // One cheap method is enough to exercise the accounting.
        let train_routes: Vec<Route> = train.iter().map(|e| e.route.clone()).collect();
        let mmi = st_baselines::Mmi::fit(&ds.net, train_routes.iter());
        let methods: Vec<Box<dyn Predictor>> = vec![Box::new(mmi)];
        let buckets = crate::metrics::DISTANCE_BUCKETS;
        let summary = evaluate_methods(&ds, &methods, &sp.test, &buckets, Some(10));
        let short = sp
            .test
            .iter()
            .take(10)
            .filter(|&&i| {
                distance_bucket(ds.net.route_length(&ds.trips[i].route) / 1000.0, &buckets)
                    .is_none()
            })
            .count();
        assert_eq!(summary.bucket_dropped, short);
        assert_eq!(summary.results[0].overall.count, 10);
        let bucketed: usize = summary.results[0].per_bucket.iter().map(|b| b.count).sum();
        assert_eq!(bucketed + summary.bucket_dropped, summary.evaluated);
    }
}

/// Teacher-forced next-step accuracy of a DeepST model: the fraction of
/// ground-truth transitions whose true next segment is the model's argmax,
/// conditioning each step on the *true* prefix (no rollout compounding).
///
/// This is the per-step diagnostic separating "the model has not learned
/// the transitions" from "rollouts drift" (see DESIGN.md §4b); the expected
/// correct-prefix length of a greedy rollout is roughly `1/(1 − accuracy)`.
pub fn teacher_forced_accuracy(
    ds: &Dataset,
    model: &st_core::DeepSt,
    examples: &[Example],
    max_examples: usize,
) -> f64 {
    let mut ok = 0usize;
    let mut total = 0usize;
    let mut logps: Vec<f64> = Vec::new();
    // One tape-free session for every example: each registers its trip for
    // the length of its rollout, and the log-prob buffer is reused.
    let mut sess = model.infer_session();
    for e in examples.iter().take(max_examples) {
        let c = model
            .cfg
            .use_traffic
            .then(|| model.encode_traffic(&e.traffic));
        let ctx = model.encode_context(e.dest, c);
        let trip = sess.add_trip(model.trip_terms(&ctx));
        let mut state = sess.zero_state(1);
        for (i, &slot) in e.slots.iter().enumerate() {
            sess.step_into(&[e.route[i]], &[trip], &mut state, &mut logps);
            let n_valid = ds.net.next_segments(e.route[i]).len().min(logps.len());
            if n_valid < 2 {
                continue; // forced moves carry no signal
            }
            let Some(argmax) = logps[..n_valid]
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(j, _)| j)
            else {
                continue; // n_valid >= 2 checked above, but stay total
            };
            total += 1;
            if argmax == slot {
                ok += 1;
            }
        }
        sess.recycle_state(state);
        sess.remove_trip(trip);
    }
    ok as f64 / total.max(1) as f64
}

#[cfg(test)]
mod teacher_forced_tests {
    use super::*;
    use st_sim::CityPreset;

    #[test]
    fn improves_with_training() {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 250, 21);
        let split = ds.default_split();
        let train = build_examples(&ds, &split.train);
        let test = build_examples(&ds, &split.test);
        let cfg = SuiteConfig {
            deepst_epochs: 4,
            seed: 21,
            ..SuiteConfig::default()
        };
        let untrained = st_core::DeepSt::new(deepst_config(&ds, cfg.k_proxies), 21);
        let before = teacher_forced_accuracy(&ds, &untrained, &test, 40);
        let trained = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training");
        let after = teacher_forced_accuracy(&ds, &trained, &test, 40);
        assert!(
            after > before + 0.05,
            "training did not improve next-step accuracy: {before:.3} -> {after:.3}"
        );
        assert!((0.0..=1.0).contains(&after));
    }
}
