//! The paper's evaluation (§V): one function per table and figure.
//!
//! Each function computes its artifact from inputs a caller can share
//! across artifacts — a city's [`Dataset`] and [`Split`], the
//! [`SuiteOutput`] of [`run_prediction_suite`], and the [`Scale`] — prints
//! it, and returns the JSON written to `results/<name>.json`.
//! [`all`] computes all eight on one dataset and one prediction suite per
//! city (the `run_all` bin); each single-artifact bin calls its one function
//! through [`write_artifact`], so every command writes the same bits.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::{json, Map, Value};
use st_baselines::{DeepStPredictor, Predictor};
use st_eval::metrics::accuracy;
use st_eval::report::{format_bars, format_heatmap, format_table, write_json};
use st_eval::{build_examples, evaluate_methods, quantile_buckets, train_deepst, SuiteConfig};
use st_recovery::{DeepStSpatial, MarkovSpatial, Recovery, RecoveryConfig, TravelTimeModel};
use st_sim::{downsample, Dataset, Split};

use crate::{results_dir, run_prediction_suite, City, Scale, SuiteOutput};

/// Table III: trip count, road segments, and the min/max/mean travel
/// distance (km) and segment count per trip.
pub fn table3(city: City, ds: &Dataset) -> Value {
    let st = ds.trip_stats();
    let row = vec![
        city.name().to_string(),
        st.n_trips.to_string(),
        ds.net.num_segments().to_string(),
        format!("{:.1}", st.min_km),
        format!("{:.1}", st.max_km),
        format!("{:.1}", st.mean_km),
        st.min_segments.to_string(),
        st.max_segments.to_string(),
        format!("{:.0}", st.mean_segments),
    ];
    let headers = [
        "City",
        "#trips",
        "#road segs",
        "min km",
        "max km",
        "mean km",
        "min segs",
        "max segs",
        "mean segs",
    ];
    println!("\nTable III — dataset statistics, {}", city.name());
    println!("{}", format_table(&headers, &[row]));
    json!(st)
}

/// Fig. 5: GPS point density over the city's grid cells.
pub fn fig5(city: City, ds: &Dataset) -> Value {
    let (w, h) = (ds.grid.width, ds.grid.height);
    let mut density = vec![0.0f64; w * h];
    for gp in ds.trips.iter().flat_map(|t| &t.gps) {
        if let Some(c) = ds.grid.cell_of(&gp.p) {
            density[c] += 1.0;
        }
    }
    let points: f64 = density.iter().sum();
    println!(
        "\nFig. 5 — GPS point density, {} ({points} points)",
        city.name()
    );
    println!("{}", format_heatmap(&density, w, h));
    json!({"width": w, "height": h, "density": density})
}

/// Fig. 6: travel distance (km) and segment count of every trip, printed as
/// 10-bin histograms.
pub fn fig6(city: City, ds: &Dataset) -> Value {
    let dists: Vec<f64> = ds
        .trips
        .iter()
        .map(|t| ds.net.route_length(&t.route) / 1000.0)
        .collect();
    let nsegs: Vec<f64> = ds.trips.iter().map(|t| t.route.len() as f64).collect();
    for (what, values) in [
        ("travel distance (km)", &dists),
        ("route length (#segments)", &nsegs),
    ] {
        let (labels, counts) = histogram(values, 10);
        println!("\nFig. 6 — {}: {what}", city.name());
        println!("{}", format_bars("", &labels, &counts, 40));
    }
    json!({"distance_km": dists, "segments": nsegs})
}

/// Equal-width histogram of `values` over `[min, max]`.
fn histogram(values: &[f64], n_bins: usize) -> (Vec<String>, Vec<f64>) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(0.0f64, f64::max) + 1e-9;
    let width = (hi - lo) / n_bins as f64;
    let mut counts = vec![0.0; n_bins];
    for &v in values {
        counts[(((v - lo) / width) as usize).min(n_bins - 1)] += 1.0;
    }
    let labels = (0..n_bins)
        .map(|b| {
            let from = lo + b as f64 * width;
            format!("[{from:5.1},{:5.1})", from + width)
        })
        .collect();
    (labels, counts)
}

/// Table IV: overall recall@n and accuracy of every method.
pub fn table4(city: City, suite: &SuiteOutput) -> Value {
    let rows: Vec<Vec<String>> = suite
        .results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.3}", r.overall.recall()),
                format!("{:.3}", r.overall.accuracy()),
            ]
        })
        .collect();
    println!(
        "\nTable IV — {} ({} test trips evaluated)",
        city.name(),
        suite.evaluated
    );
    println!(
        "{}",
        format_table(&["Method", "recall@n", "accuracy"], &rows)
    );
    json!(suite.results)
}

/// Fig. 7: every method's accuracy per travel-distance bucket.
pub fn fig7(city: City, suite: &SuiteOutput) -> Value {
    let mut headers = vec!["bucket (km)"];
    headers.extend(suite.results.iter().map(|r| r.name.as_str()));
    let rows: Vec<Vec<String>> = suite
        .buckets
        .iter()
        .enumerate()
        .map(|(b, &(lo, hi))| {
            let label = if hi.is_finite() {
                format!("[{lo:.1}, {hi:.1})")
            } else {
                format!("[{lo:.1}, ∞)")
            };
            std::iter::once(label)
                .chain(
                    suite
                        .results
                        .iter()
                        .map(|r| format!("{:.3}", r.per_bucket[b].accuracy())),
                )
                .collect()
        })
        .collect();
    println!("\nFig. 7 — accuracy vs travel distance, {}", city.name());
    println!("{}", format_table(&headers, &rows));
    println!(
        "Fig. 7 — {}: {} of {} evaluated trips fall outside every distance bucket (scored overall, absent above)",
        city.name(),
        suite.bucket_dropped,
        suite.evaluated
    );
    json!({
        "buckets": suite.buckets,
        "results": suite.results,
        "evaluated": suite.evaluated,
        "bucket_dropped": suite.bucket_dropped,
    })
}

/// Table V: route recovery accuracy of STRS and STRS+ (DeepST's spatial
/// module) at sampling intervals of 1–9 minutes, with the δ row.
pub fn table5(city: City, ds: &Dataset, split: &Split, scale: &Scale) -> Result<Value, String> {
    let train = build_examples(ds, &split.train);
    let cfg = SuiteConfig {
        seed: scale.seed,
        deepst_epochs: scale.epochs,
        ..SuiteConfig::default()
    };
    let model = train_deepst(ds, &train, None, &cfg, true).map_err(|e| e.to_string())?;
    let ttime = TravelTimeModel::fit(
        &ds.net,
        split
            .train
            .iter()
            .map(|&i| (&ds.trips[i].route, ds.trips[i].duration())),
    );
    let markov = MarkovSpatial::fit(split.train.iter().map(|&i| &ds.trips[i].route));
    let deep_spatial = DeepStSpatial::new(&model);
    let rcfg = RecoveryConfig::default();
    let strs = Recovery::new(&ds.net, &ttime, &markov, rcfg.clone());
    let strsp = Recovery::new(&ds.net, &ttime, &deep_spatial, rcfg);
    let rates: Vec<f64> = (1..=9).map(f64::from).collect();
    let mut srow = Vec::new();
    let mut prow = Vec::new();
    for &rate in &rates {
        let (mut a1, mut a2, mut n) = (0.0, 0.0, 0usize);
        for &i in split.test.iter().take(scale.recovery_trajs) {
            let trip = &ds.trips[i];
            let sparse = downsample(&trip.gps, rate * 60.0);
            if sparse.len() < 2 {
                continue;
            }
            let dest = ds.unit_coord(&trip.dest_coord);
            let slot = ds.slot_of(trip.start_time);
            let tensor = ds.traffic_tensor(slot);
            let (Some(r1), Some(r2)) = (
                strs.recover(&sparse, dest, tensor, slot),
                strsp.recover(&sparse, dest, tensor, slot),
            ) else {
                continue;
            };
            a1 += accuracy(&trip.route, &r1);
            a2 += accuracy(&trip.route, &r2);
            n += 1;
        }
        srow.push(a1 / n.max(1) as f64);
        prow.push(a2 / n.max(1) as f64);
    }
    let delta: Vec<f64> = srow
        .iter()
        .zip(&prow)
        .map(|(a, b)| if *a > 0.0 { (b - a) / a * 100.0 } else { 0.0 })
        .collect();
    let mut headers = vec!["Rate (mins)".to_string()];
    headers.extend(rates.iter().map(|r| format!("{r:.0}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let row = |label: &str, values: &[f64], decimals: usize| {
        std::iter::once(label.to_string())
            .chain(values.iter().map(|v| format!("{v:.decimals$}")))
            .collect::<Vec<_>>()
    };
    let rows = [
        row("STRS", &srow, 2),
        row("STRS+", &prow, 2),
        row("δ (%)", &delta, 1),
    ];
    println!(
        "\nTable V — route recovery accuracy vs sampling rate, {}",
        city.name()
    );
    println!("{}", format_table(&header_refs, &rows));
    Ok(json!({"rates_min": rates, "strs": srow, "strs_plus": prow, "delta_pct": delta}))
}

/// Table VI: DeepST's recall@n and accuracy against the number of
/// destination proxies K ∈ {2, 8, 32, 64}, each trained for
/// max(epochs / 2, 2) epochs. The paper sweeps K ∈ {500..3000} on Harbin;
/// our cities have ~12 destination hotspots (DESIGN.md §1).
pub fn table6(city: City, ds: &Dataset, split: &Split, scale: &Scale) -> Result<Value, String> {
    let train = build_examples(ds, &split.train);
    let val = build_examples(ds, &split.val);
    let one_bucket = quantile_buckets(ds, &split.test, 1);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for k in [2usize, 8, 32, 64] {
        let cfg = SuiteConfig {
            seed: scale.seed,
            deepst_epochs: (scale.epochs / 2).max(2),
            k_proxies: k,
            ..SuiteConfig::default()
        };
        let model = train_deepst(ds, &train, Some(&val), &cfg, true).map_err(|e| e.to_string())?;
        let methods: Vec<Box<dyn Predictor>> = vec![Box::new(DeepStPredictor::new(model))];
        let summary = evaluate_methods(ds, &methods, &split.test, &one_bucket, scale.max_eval);
        let (recall, acc) = (
            summary.results[0].overall.recall(),
            summary.results[0].overall.accuracy(),
        );
        eprintln!("[table6] K = {k}: recall {recall:.3}, accuracy {acc:.3}");
        rows.push(vec![
            k.to_string(),
            format!("{recall:.3}"),
            format!("{acc:.3}"),
        ]);
        json.push(json!({"k": k, "recall": recall, "accuracy": acc}));
    }
    println!("\nTable VI — K sensitivity, {}", city.name());
    println!("{}", format_table(&["K", "recall@n", "accuracy"], &rows));
    Ok(Value::Arr(json))
}

/// Fig. 8: DeepST wall-clock seconds per epoch on 20/40/60/80/100 % of the
/// train split (two epochs each). The printout adds the R² of a linear fit
/// (the paper finds training time linear in data size).
pub fn fig8(city: City, ds: &Dataset, split: &Split, scale: &Scale) -> Result<Value, String> {
    let train = build_examples(ds, &split.train);
    let cfg = SuiteConfig {
        seed: scale.seed,
        deepst_epochs: 2,
        ..SuiteConfig::default()
    };
    let mut labels = Vec::new();
    let mut secs = Vec::new();
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let n = ((train.len() as f64) * frac) as usize;
        let (model, elapsed) = st_obs::timed("bench/fig8_train", || {
            train_deepst(ds, &train[..n], None, &cfg, true)
        });
        model.map_err(|e| e.to_string())?;
        labels.push(format!("{n} trips"));
        secs.push(elapsed / 2.0);
    }
    println!(
        "\nFig. 8 — training time per epoch vs training-set size, {}",
        city.name()
    );
    println!("{}", format_bars("", &labels, &secs, 40));
    let n = secs.len() as f64;
    let xs: Vec<f64> = (1..=secs.len()).map(|i| i as f64).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = secs.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&secs).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = secs.iter().map(|y| (y - my) * (y - my)).sum();
    let r2 = if syy > 0.0 {
        (sxy * sxy) / (sxx * syy)
    } else {
        1.0
    };
    println!("linear fit R² = {r2:.3} (paper: training time grows linearly)");
    Ok(json!({"labels": labels, "secs_per_epoch": secs}))
}

/// Every artifact for `cities`, keyed by file stem in write order, from one
/// dataset and one prediction suite per city. Table VI and Fig. 8 run on
/// Northport only (the paper uses Harbin), so they are absent when `cities`
/// leaves it out.
pub fn all(scale: &Scale, cities: &[City]) -> Result<Map, String> {
    let names = ["table3", "fig5", "fig6", "table4", "fig7", "table5"];
    let mut by_city: Vec<Map> = names.iter().map(|_| Map::new()).collect();
    let mut northport = Vec::new();
    for &city in cities {
        eprintln!("[paper] ===== {} =====", city.name());
        let suite = run_prediction_suite(city, scale).map_err(|e| e.to_string())?;
        let (ds, split) = (&suite.dataset, &suite.split);
        let values = [
            table3(city, ds),
            fig5(city, ds),
            fig6(city, ds),
            table4(city, &suite),
            fig7(city, &suite),
            table5(city, ds, split, scale)?,
        ];
        for (map, value) in by_city.iter_mut().zip(values) {
            map.insert(city.name().into(), value);
        }
        if city == City::Northport {
            northport.push(("table6", table6(city, ds, split, scale)?));
            northport.push(("fig8", fig8(city, ds, split, scale)?));
        }
    }
    Ok(names
        .into_iter()
        .zip(by_city.into_iter().map(Value::from))
        .chain(northport)
        .map(|(name, value)| (name.to_string(), value))
        .collect())
}

/// A per-city artifact: `f`'s JSON for each city, keyed by name in the
/// paper's order.
pub fn per_city(mut f: impl FnMut(City) -> Result<Value, String>) -> Result<Value, String> {
    City::ALL
        .into_iter()
        .map(|city| Ok((city.name().to_string(), f(city)?)))
        .collect::<Result<Map, String>>()
        .map(Value::from)
}

/// Write `value` to `<dir>/<name>.json`, naming the path in any error.
pub fn emit(dir: &Path, name: &str, value: &Value) -> Result<PathBuf, String> {
    let path = dir.join(format!("{name}.json"));
    write_json(&path, value).map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    Ok(path)
}

/// Entry point of a single-artifact bin: parse the [`Scale`] from the
/// command line, build the artifact and write `results/<name>.json`.
pub fn write_artifact(name: &str, build: impl FnOnce(&Scale) -> Result<Value, String>) -> ExitCode {
    let scale = Scale::from_args();
    match build(&scale).and_then(|value| emit(&results_dir(), name, &value)) {
        Ok(path) => {
            eprintln!("[{name}] wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("[{name}] error: {msg}");
            ExitCode::FAILURE
        }
    }
}
