//! Ablation studies of the reproduction's own design choices (beyond the
//! paper's Table VI):
//!
//! 1. **Decoder** of the most likely route: the greedy rollout that `f_s`
//!    only stops, then beam widths 1 … 16 over the full generative
//!    probability, all on one trained model.
//! 2. **Gumbel-Softmax temperature** of the π relaxation (§IV-D).
//!
//! ```bash
//! cargo run --release -p st-bench --bin ablate [-- --quick|--full]
//! ```

use std::process::ExitCode;

use st_baselines::{
    beam_decode, greedy_decode, DeepStDecoder, DeepStPredictor, PredictQuery, Predictor,
};
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

    // ---- 1. decoder sweep on one trained model: greedy, then beam widths ----
    eprintln!("[ablate] training the shared model...");
    let model = train_deepst(&ds, &train, None, &cfg, true).map_err(|e| e.to_string())?;
    let max_len = model.cfg.max_route_len;
    let mut rows = Vec::new();
    let mut beam_json = Vec::new();
    let mut greedy_json = serde_json::Value::Null;
    for width in [None, Some(1usize), Some(2), Some(4), Some(8), Some(16)] {
        let mut sums = MetricSums::default();
        let (_, secs) = st_obs::timed("bench/decoder_sweep", || {
            for &i in split.test.iter().take(take) {
                let trip = &ds.trips[i];
                let slot = ds.slot_of(trip.start_time);
                let c = model.encode_traffic(ds.traffic_tensor(slot));
                let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), Some(c));
                let mut dec = DeepStDecoder::new(&model, &ctx);
                let (start, dest) = (trip.origin_segment(), &trip.dest_coord);
                let route = match width {
                    Some(w) => beam_decode(&ds.net, &mut dec, start, dest, w, max_len),
                    None => greedy_decode(&ds.net, &mut dec, start, dest, max_len),
                };
                sums.add(&trip.route, &route);
            }
        });
        let label = width.map_or_else(|| "greedy".to_string(), |w| w.to_string());
        eprintln!(
            "[ablate] decoder {label}: acc {:.3} ({secs:.0}s)",
            sums.accuracy()
        );
        rows.push(vec![
            label,
            format!("{:.3}", sums.recall()),
            format!("{:.3}", sums.accuracy()),
            format!("{:.1}", secs),
        ]);
        let (recall, accuracy) = (sums.recall(), sums.accuracy());
        match width {
            Some(w) => beam_json.push(serde_json::json!({
                "width": w, "recall": recall, "accuracy": accuracy, "secs": secs
            })),
            None => {
                greedy_json =
                    serde_json::json!({"recall": recall, "accuracy": accuracy, "secs": secs})
            }
        }
    }
    println!("\nAblation — decoder (DeepST, {}):", city.name());
    println!(
        "{}",
        format_table(&["decoder", "recall@n", "accuracy", "secs"], &rows)
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

    let path = results_dir().join("ablate.json");
    write_json(
        &path,
        &serde_json::json!({"beam": beam_json, "greedy": greedy_json, "gumbel": temp_json}),
    )
    .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    eprintln!("[ablate] wrote {}", path.display());
    Ok(())
}
