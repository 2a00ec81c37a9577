//! `deepst` — command-line interface to the DeepST reproduction.
//!
//! ```text
//! deepst simulate --city rivertown --trips 1000 --seed 7 --out city.json
//! deepst train    --data city.json --epochs 8 --out model.json
//! deepst predict  --data city.json --model model.json --trip 0 [--svg map.svg]
//! deepst recover  --data city.json --model model.json --trip 0 --rate-min 5
//! deepst eval     --data city.json --model model.json [--max 200]
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay within the
//! approved dependency set.

use std::collections::HashMap;
use std::process::ExitCode;

use rand::SeedableRng;

use deepst::baselines::{DeepStPredictor, PredictQuery, Predictor};
use deepst::core::{DeepSt, TrainConfig, Trainer};
use deepst::eval::{accuracy, build_examples, deepst_config, recall_at_n, RouteLayer, SvgScene};
use deepst::nn::Module;
use deepst::recovery::{DeepStSpatial, Recovery, RecoveryConfig, TravelTimeModel};
use deepst::sim::{downsample, CityPreset, Dataset};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = parse_opts(&args[1..]);
    let result = match cmd.as_str() {
        "simulate" => cmd_simulate(&opts),
        "train" => cmd_train(&opts),
        "predict" => cmd_predict(&opts),
        "recover" => cmd_recover(&opts),
        "eval" => cmd_eval(&opts),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
deepst — spatial transition learning on road networks (ICDE 2020 reproduction)

USAGE:
  deepst simulate --city <rivertown|northport|tiny> --trips <n> [--seed <s>] --out <city.json>
  deepst train    --data <city.json> [--epochs <n>] [--seed <s>] [--no-traffic] --out <model.json>
  deepst predict  --data <city.json> --model <model.json> [--trip <i>] [--svg <map.svg>]
  deepst recover  --data <city.json> --model <model.json> [--trip <i>] [--rate-min <m>]
  deepst eval     --data <city.json> --model <model.json> [--max <n>]";

fn parse_opts(args: &[String]) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].trim_start_matches('-').to_string();
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            opts.insert(key, args[i + 1].clone());
            i += 2;
        } else {
            opts.insert(key, "true".into());
            i += 1;
        }
    }
    opts
}

fn req<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    opts.get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn load_dataset(opts: &HashMap<String, String>) -> Result<Dataset, String> {
    let path = req(opts, "data")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))
}

fn load_model(opts: &HashMap<String, String>, ds: &Dataset) -> Result<DeepSt, String> {
    let path = req(opts, "model")?;
    // Model config mirrors `train`'s construction; traffic on unless the
    // checkpoint says otherwise (checked by strict load).
    let use_traffic = !opts.contains_key("no-traffic");
    let mut cfg = deepst_config(ds, num(opts, "k", 24));
    cfg.use_traffic = use_traffic;
    let model = DeepSt::new(cfg, 0);
    deepst::load_model_file(&model, path).map_err(|e| format!("load {path}: {e}"))?;
    Ok(model)
}

fn query_for<'a>(ds: &'a Dataset, i: usize) -> PredictQuery<'a> {
    let trip = &ds.trips[i];
    let slot = ds.slot_of(trip.start_time);
    PredictQuery {
        start: trip.origin_segment(),
        dest_coord: trip.dest_coord,
        dest_norm: ds.unit_coord(&trip.dest_coord),
        dest_segment: trip.dest_segment(),
        traffic: ds.traffic_tensor(slot),
        slot_id: slot,
    }
}

fn cmd_simulate(opts: &HashMap<String, String>) -> Result<(), String> {
    let preset = match req(opts, "city")?.to_ascii_lowercase().as_str() {
        "rivertown" => CityPreset::rivertown(),
        "northport" => CityPreset::northport(),
        "tiny" | "tinyville" => CityPreset::tiny_test(),
        other => return Err(format!("unknown city `{other}`")),
    };
    let trips = num(opts, "trips", 500usize);
    let seed = num(opts, "seed", 7u64);
    let out = req(opts, "out")?;
    eprintln!(
        "simulating {} with {trips} trips (seed {seed})...",
        preset.name
    );
    let ds = Dataset::generate(&preset, trips, seed);
    let stats = ds.trip_stats();
    eprintln!(
        "  {} segments, {} trips, mean {:.1} km / {:.0} segments per trip",
        ds.net.num_segments(),
        stats.n_trips,
        stats.mean_km,
        stats.mean_segments
    );
    let json = serde_json::to_string(&ds).map_err(|e| e.to_string())?;
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn cmd_train(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let out = req(opts, "out")?;
    let epochs = num(opts, "epochs", 8usize);
    let seed = num(opts, "seed", 7u64);
    let use_traffic = !opts.contains_key("no-traffic");
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let val = build_examples(&ds, &split.val);
    eprintln!(
        "training {} on {} trips for {epochs} epochs...",
        if use_traffic { "DeepST" } else { "DeepST-C" },
        train.len()
    );
    let mut cfg = deepst_config(&ds, num(opts, "k", 24));
    cfg.use_traffic = use_traffic;
    let model = DeepSt::new(cfg, seed);
    let tc = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(model, tc);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let val_opt = (!val.is_empty()).then_some(val.as_slice());
    let history = trainer
        .fit(&train[..], val_opt, &mut rng)
        .map_err(|e| format!("training failed: {e}"))?;
    for e in history.epochs {
        eprintln!(
            "  epoch {:>2}: train loss {:.3}{} ({:.1}s)",
            e.epoch,
            e.train_loss,
            e.val_loss
                .map(|v| format!(", val {v:.3}"))
                .unwrap_or_default(),
            e.seconds
        );
    }
    deepst::save_model_file(&trainer.model, out).map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote {out} ({} parameters)", trainer.model.num_params());
    Ok(())
}

fn cmd_predict(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let model = load_model(opts, &ds)?;
    let split = ds.default_split();
    let trip_ix = split.test[num(opts, "trip", 0usize) % split.test.len()];
    let predictor = DeepStPredictor::new(model);
    let q = query_for(&ds, trip_ix);
    let predicted = predictor.predict(&ds.net, &q);
    let truth = &ds.trips[trip_ix].route;
    println!("trip #{trip_ix}");
    println!("  truth:     {truth:?}");
    println!("  predicted: {predicted:?}");
    println!("  recall@n = {:.3}", recall_at_n(truth, &predicted));
    println!("  accuracy = {:.3}", accuracy(truth, &predicted));
    if let Some(svg_path) = opts.get("svg") {
        let mut scene = SvgScene::new(&ds.net, 800.0);
        scene.add_route(&RouteLayer {
            route: truth,
            color: "#1f77b4",
            label: "ground truth",
        });
        scene.add_route(&RouteLayer {
            route: &predicted,
            color: "#d62728",
            label: "DeepST",
        });
        scene.add_marker(&ds.trips[trip_ix].dest_coord, "#2ca02c", 6.0);
        scene
            .save(svg_path)
            .map_err(|e| format!("write {svg_path}: {e}"))?;
        println!("  map: {svg_path}");
    }
    Ok(())
}

fn cmd_recover(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let model = load_model(opts, &ds)?;
    let split = ds.default_split();
    let trip_ix = split.test[num(opts, "trip", 0usize) % split.test.len()];
    let rate_min = num(opts, "rate-min", 5.0f64);
    let trip = &ds.trips[trip_ix];
    let sparse = downsample(&trip.gps, rate_min * 60.0);
    let ttime = TravelTimeModel::fit(
        &ds.net,
        split
            .train
            .iter()
            .map(|&i| (&ds.trips[i].route, ds.trips[i].duration())),
    );
    let spatial = DeepStSpatial::new(&model);
    let recovery = Recovery::new(&ds.net, &ttime, &spatial, RecoveryConfig::default());
    let slot = ds.slot_of(trip.start_time);
    let dest = ds.unit_coord(&trip.dest_coord);
    let recovered = recovery
        .recover(&sparse, dest, ds.traffic_tensor(slot), slot)
        .ok_or("recovery failed (trajectory too short?)")?;
    println!(
        "trip #{trip_ix}: {} fixes downsampled to {}",
        trip.gps.len(),
        sparse.len()
    );
    println!("  truth:     {:?}", trip.route);
    println!("  recovered: {recovered:?}");
    println!("  accuracy = {:.3}", accuracy(&trip.route, &recovered));
    Ok(())
}

fn cmd_eval(opts: &HashMap<String, String>) -> Result<(), String> {
    let ds = load_dataset(opts)?;
    let model = load_model(opts, &ds)?;
    let split = ds.default_split();
    let max = num(opts, "max", 200usize).min(split.test.len());
    let predictor = DeepStPredictor::new(model);
    let mut rec = 0.0;
    let mut acc = 0.0;
    for &i in split.test.iter().take(max) {
        let q = query_for(&ds, i);
        let predicted = predictor.predict(&ds.net, &q);
        rec += recall_at_n(&ds.trips[i].route, &predicted);
        acc += accuracy(&ds.trips[i].route, &predicted);
    }
    println!("{} test trips:", max);
    println!("  recall@n = {:.3}", rec / max as f64);
    println!("  accuracy = {:.3}", acc / max as f64);
    Ok(())
}
