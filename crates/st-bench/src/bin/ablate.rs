//! Ablation studies of the reproduction's own design choices (beyond the
//! paper's Table VI):
//!
//! 1. **Beam width** of the most-likely-route decoder (1 = greedy … 16).
//! 2. **Gumbel-Softmax temperature** of the π relaxation (§IV-D).
//! 3. **Termination scale** of `f_s` (§IV-A; the paper leaves units open).
//!
//! ```bash
//! cargo run --release -p st-bench --bin ablate [-- --quick|--full]
//! ```

use std::process::ExitCode;

use st_baselines::{beam_decode, DeepStDecoder, DeepStPredictor, PredictQuery, Predictor};
use st_bench::{make_dataset, results_dir, City, Scale};
use st_core::DeepSt;
use st_eval::metrics::MetricSums;
use st_eval::report::{format_table, write_json};
use st_eval::{build_examples, deepst_config, train_deepst, SuiteConfig};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("[ablate] error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let scale = Scale::from_args();
    let city = City::Rivertown;
    eprintln!(
        "[ablate] generating {} ({} trips)",
        city.name(),
        scale.trips
    );
    let ds = make_dataset(city, &scale);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        seed: scale.seed,
        deepst_epochs: scale.epochs,
        ..SuiteConfig::default()
    };
    let take = scale.max_eval.unwrap_or(usize::MAX).min(split.test.len());

    // ---- 1. beam width sweep on one trained model ----
    eprintln!("[ablate] training the shared model...");
    let model = train_deepst(&ds, &train, None, &cfg, true).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut beam_json = Vec::new();
    for width in [1usize, 2, 4, 8, 16] {
        let mut sums = MetricSums::default();
        let (_, secs) = st_obs::timed("bench/beam_sweep", || {
            for &i in split.test.iter().take(take) {
                let trip = &ds.trips[i];
                let slot = ds.slot_of(trip.start_time);
                let c = model.encode_traffic(ds.traffic_tensor(slot));
                let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), Some(c));
                let mut dec = DeepStDecoder::new(&model, &ctx);
                let route = beam_decode(
                    &ds.net,
                    &mut dec,
                    trip.origin_segment(),
                    &trip.dest_coord,
                    width,
                    model.cfg.max_route_len,
                );
                sums.add(&trip.route, &route);
            }
        });
        eprintln!(
            "[ablate] beam {width}: acc {:.3} ({secs:.0}s)",
            sums.accuracy()
        );
        rows.push(vec![
            format!("{width}"),
            format!("{:.3}", sums.recall()),
            format!("{:.3}", sums.accuracy()),
            format!("{:.1}", secs),
        ]);
        beam_json.push(serde_json::json!({
            "width": width, "recall": sums.recall(), "accuracy": sums.accuracy(), "secs": secs
        }));
    }
    println!("\nAblation — beam width (DeepST, {}):", city.name());
    println!(
        "{}",
        format_table(&["beam", "recall@n", "accuracy", "secs"], &rows)
    );

    // ---- 2. Gumbel temperature sweep (retrains) ----
    let mut rows = Vec::new();
    let mut temp_json = Vec::new();
    for temp in [0.3f32, 0.7, 1.5] {
        let mut mcfg = deepst_config(&ds, cfg.k_proxies);
        mcfg.gumbel_temp = temp;
        let model = DeepSt::new(mcfg, cfg.seed);
        let tc = st_core::TrainConfig {
            epochs: cfg.deepst_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            grad_clip: 5.0,
            patience: None,
            ..st_core::TrainConfig::default()
        };
        let mut trainer = st_core::Trainer::new(model, tc);
        let mut rng = st_tensor::init::rng(cfg.seed);
        trainer
            .fit(&train[..], None, &mut rng)
            .map_err(|e| e.to_string())?;
        let predictor = DeepStPredictor::new(trainer.model);
        let mut sums = MetricSums::default();
        for &i in split.test.iter().take(take) {
            let trip = &ds.trips[i];
            let slot = ds.slot_of(trip.start_time);
            let q = PredictQuery {
                start: trip.origin_segment(),
                dest_coord: trip.dest_coord,
                dest_norm: ds.unit_coord(&trip.dest_coord),
                dest_segment: trip.dest_segment(),
                traffic: ds.traffic_tensor(slot),
                slot_id: slot,
            };
            sums.add(&trip.route, &predictor.predict(&ds.net, &q));
        }
        eprintln!("[ablate] gumbel τ={temp}: acc {:.3}", sums.accuracy());
        rows.push(vec![
            format!("{temp}"),
            format!("{:.3}", sums.recall()),
            format!("{:.3}", sums.accuracy()),
        ]);
        temp_json.push(
            serde_json::json!({"temp": temp, "recall": sums.recall(), "accuracy": sums.accuracy()}),
        );
    }
    println!("\nAblation — Gumbel-Softmax temperature:");
    println!("{}", format_table(&["τ", "recall@n", "accuracy"], &rows));

    // ---- 3. termination scale sweep (decode-time only) ----
    let mut rows = Vec::new();
    let mut term_json = Vec::new();
    for scale_m in [75.0f64, 150.0, 300.0] {
        // The shared decoder constant is fixed; emulate by scaling the
        // destination distance in a wrapper model-config clone.
        let mut mcfg = model.cfg.clone();
        mcfg.term_scale_m = scale_m;
        // Re-wrap the trained weights: termination scale only affects
        // prediction, so we can reuse the trained parameters via state io.
        let fresh = DeepSt::new(mcfg, cfg.seed);
        use st_nn::Module;
        fresh
            .load_state(&model.state())
            .map_err(|e| format!("transplanting trained weights (term scale {scale_m}m): {e}"))?;
        let mut sums = MetricSums::default();
        for &i in split.test.iter().take(take) {
            let trip = &ds.trips[i];
            let slot = ds.slot_of(trip.start_time);
            let c = fresh.encode_traffic(ds.traffic_tensor(slot));
            let ctx = fresh.encode_context(ds.unit_coord(&trip.dest_coord), Some(c));
            let route =
                fresh.predict_route(&ds.net, trip.origin_segment(), &trip.dest_coord, &ctx, None);
            sums.add(&trip.route, &route);
        }
        eprintln!(
            "[ablate] term scale {scale_m}m (greedy Algorithm 2): acc {:.3}",
            sums.accuracy()
        );
        rows.push(vec![
            format!("{scale_m}"),
            format!("{:.3}", sums.recall()),
            format!("{:.3}", sums.accuracy()),
        ]);
        term_json.push(serde_json::json!({"scale_m": scale_m, "recall": sums.recall(), "accuracy": sums.accuracy()}));
    }
    println!("\nAblation — termination scale (greedy Algorithm 2 decoding):");
    println!(
        "{}",
        format_table(&["scale (m)", "recall@n", "accuracy"], &rows)
    );

    let path = results_dir().join("ablate.json");
    write_json(
        &path,
        &serde_json::json!({"beam": beam_json, "gumbel": temp_json, "term_scale": term_json}),
    )
    .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    eprintln!("[ablate] wrote {}", path.display());
    Ok(())
}
