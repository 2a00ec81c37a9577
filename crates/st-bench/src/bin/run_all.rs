//! Run the complete evaluation: every table and figure, sharing one
//! training run per city where possible. Writes all JSON results under
//! `results/` and prints each artifact.

use std::path::Path;
use std::process::ExitCode;

use st_bench::{results_dir, run_prediction_suite, City, Scale};
use st_eval::metrics::accuracy;
use st_eval::report::{format_bars, format_heatmap, format_table, write_json};
use st_eval::{build_examples, evaluate_methods, train_deepst, SuiteConfig};
use st_recovery::{DeepStSpatial, MarkovSpatial, Recovery, RecoveryConfig, TravelTimeModel};
use st_sim::downsample;

/// Write one result artifact, attaching the destination path to any error —
/// an unwritable results dir must name itself, not panic mid-sweep.
fn emit<T: serde::Serialize>(dir: &Path, name: &str, value: &T) -> Result<(), String> {
    let path = dir.join(name);
    write_json(&path, value).map_err(|e| format!("failed to write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("[run_all] error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let scale = Scale::from_args();
    eprintln!("[run_all] scale: {scale:?}");
    let dir = results_dir();
    // Record the whole sweep: spans/counters/events land in
    // `results/trace_run_all.jsonl` at the end (validated by CI).
    st_obs::start_recording();
    let mut t3 = serde_json::Map::new();
    let mut t4 = serde_json::Map::new();
    let mut t5 = serde_json::Map::new();
    let mut f5 = serde_json::Map::new();
    let mut f6 = serde_json::Map::new();
    let mut f7 = serde_json::Map::new();

    let city_filter = std::env::var("DEEPST_CITY").ok();
    for city in City::ALL {
        if let Some(f) = &city_filter {
            if !city.name().eq_ignore_ascii_case(f) {
                continue;
            }
        }
        eprintln!("[run_all] ===== {} =====", city.name());
        let out = run_prediction_suite(city, &scale).map_err(|e| e.to_string())?;
        let ds = &out.dataset;
        let split = &out.split;

        // ---- Table III ----
        let stats = ds.trip_stats();
        println!("\nTable III — {}: {} trips, {} segments, distance {:.1}/{:.1}/{:.1} km (min/mean/max), segments {}/{:.0}/{}",
            city.name(), stats.n_trips, ds.net.num_segments(),
            stats.min_km, stats.mean_km, stats.max_km,
            stats.min_segments, stats.mean_segments, stats.max_segments);
        t3.insert(
            city.name().into(),
            serde_json::to_value(&stats)
                .map_err(|e| format!("serializing Table III stats for {}: {e}", city.name()))?,
        );

        // ---- Fig. 5 ----
        let (w, h) = (ds.grid.width, ds.grid.height);
        let mut density = vec![0.0f64; w * h];
        for trip in &ds.trips {
            for gp in &trip.gps {
                if let Some(c) = ds.grid.cell_of(&gp.p) {
                    density[c] += 1.0;
                }
            }
        }
        println!("\nFig. 5 — GPS density, {}:", city.name());
        println!("{}", format_heatmap(&density, w, h));
        f5.insert(
            city.name().into(),
            serde_json::json!({"width": w, "height": h, "density": density}),
        );

        // ---- Fig. 6 ----
        let dists: Vec<f64> = ds
            .trips
            .iter()
            .map(|t| ds.net.route_length(&t.route) / 1000.0)
            .collect();
        let nsegs: Vec<f64> = ds.trips.iter().map(|t| t.route.len() as f64).collect();
        f6.insert(
            city.name().into(),
            serde_json::json!({"distance_km": dists, "segments": nsegs}),
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "Fig. 6 — {}: mean distance {:.1} km, mean segments {:.0}",
            city.name(),
            mean(&dists),
            mean(&nsegs)
        );

        // ---- Table IV ----
        let mut rows = Vec::new();
        for r in &out.results {
            rows.push(vec![
                r.name.clone(),
                format!("{:.3}", r.overall.recall()),
                format!("{:.3}", r.overall.accuracy()),
            ]);
        }
        println!("\nTable IV — {}:", city.name());
        println!(
            "{}",
            format_table(&["Method", "recall@n", "accuracy"], &rows)
        );
        t4.insert(
            city.name().into(),
            serde_json::to_value(&out.results)
                .map_err(|e| format!("serializing Table IV results for {}: {e}", city.name()))?,
        );

        // ---- Fig. 7 ----
        let mut headers: Vec<String> = vec!["bucket (km)".into()];
        headers.extend(out.results.iter().map(|r| r.name.clone()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows = Vec::new();
        for (b, &(lo, hi)) in out.buckets.iter().enumerate() {
            let mut row = vec![if hi.is_finite() {
                format!("[{lo:.1},{hi:.1})")
            } else {
                format!("[{lo:.1},∞)")
            }];
            for r in &out.results {
                row.push(format!("{:.3}", r.per_bucket[b].accuracy()));
            }
            rows.push(row);
        }
        println!("Fig. 7 — accuracy vs distance, {}:", city.name());
        println!("{}", format_table(&header_refs, &rows));
        println!(
            "Fig. 7 — {}: {} of {} evaluated trips fall outside every distance bucket (scored overall, absent above)",
            city.name(),
            out.bucket_dropped,
            out.evaluated
        );
        f7.insert(
            city.name().into(),
            serde_json::json!({
                "buckets": out.buckets,
                "results": out.results,
                "evaluated": out.evaluated,
                "bucket_dropped": out.bucket_dropped,
            }),
        );

        // ---- Table V (recovery) ----
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
        let rates: Vec<f64> = (1..=9).map(|m| m as f64).collect();
        let mut srow = Vec::new();
        let mut prow = Vec::new();
        for &rate in &rates {
            let mut a1 = 0.0;
            let mut a2 = 0.0;
            let mut n = 0usize;
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
        let mut headers: Vec<String> = vec!["Rate (mins)".into()];
        headers.extend(rates.iter().map(|r| format!("{r:.0}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows = vec![
            std::iter::once("STRS".to_string())
                .chain(srow.iter().map(|v| format!("{v:.2}")))
                .collect::<Vec<_>>(),
            std::iter::once("STRS+".to_string())
                .chain(prow.iter().map(|v| format!("{v:.2}")))
                .collect::<Vec<_>>(),
            std::iter::once("δ (%)".to_string())
                .chain(delta.iter().map(|v| format!("{v:.1}")))
                .collect::<Vec<_>>(),
        ];
        println!("Table V — route recovery, {}:", city.name());
        println!("{}", format_table(&header_refs, &rows));
        t5.insert(city.name().into(), serde_json::json!({"rates_min": rates, "strs": srow, "strs_plus": prow, "delta_pct": delta}));

        // ---- Table VI + Fig. 8 only on Northport (paper uses Harbin) ----
        if city == City::Northport {
            let val = build_examples(ds, &split.val);
            let buckets1 = st_eval::quantile_buckets(ds, &split.test, 1);
            let mut rows = Vec::new();
            let mut t6 = Vec::new();
            for k in [2usize, 8, 32, 64] {
                let cfg = SuiteConfig {
                    seed: scale.seed,
                    deepst_epochs: (scale.epochs / 2).max(2),
                    k_proxies: k,
                    ..SuiteConfig::default()
                };
                let m =
                    train_deepst(ds, &train, Some(&val), &cfg, true).map_err(|e| e.to_string())?;
                let methods: Vec<Box<dyn st_baselines::Predictor>> =
                    vec![Box::new(st_baselines::DeepStPredictor::new(m))];
                let summary =
                    evaluate_methods(ds, &methods, &split.test, &buckets1, scale.max_eval);
                let res = &summary.results[0];
                eprintln!("[run_all] table6 K={k}: acc {:.3}", res.overall.accuracy());
                rows.push(vec![
                    format!("{k}"),
                    format!("{:.3}", res.overall.recall()),
                    format!("{:.3}", res.overall.accuracy()),
                ]);
                t6.push(serde_json::json!({"k": k, "recall": res.overall.recall(), "accuracy": res.overall.accuracy()}));
            }
            println!("Table VI — K sensitivity, {}:", city.name());
            println!("{}", format_table(&["K", "recall@n", "accuracy"], &rows));
            emit(&dir, "table6.json", &t6)?;

            // Fig. 8
            let mut labels = Vec::new();
            let mut secs = Vec::new();
            for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
                let n = ((train.len() as f64) * frac) as usize;
                let cfg = SuiteConfig {
                    seed: scale.seed,
                    deepst_epochs: 2,
                    ..SuiteConfig::default()
                };
                let (_, elapsed) = st_obs::timed("bench/fig8_train", || {
                    train_deepst(ds, &train[..n], None, &cfg, true).expect("DeepST training failed")
                });
                labels.push(format!("{n} trips"));
                secs.push(elapsed / 2.0);
            }
            println!(
                "Fig. 8 — training time per epoch vs data size, {}:",
                city.name()
            );
            println!("{}", format_bars("", &labels, &secs, 40));
            emit(
                &dir,
                "fig8.json",
                &serde_json::json!({"labels": labels, "secs_per_epoch": secs}),
            )?;
        }
    }
    emit(&dir, "table3.json", &t3)?;
    emit(&dir, "table4.json", &t4)?;
    emit(&dir, "table5.json", &t5)?;
    emit(&dir, "fig5.json", &f5)?;
    emit(&dir, "fig6.json", &f6)?;
    emit(&dir, "fig7.json", &f7)?;

    // ---- Trace export ----
    st_obs::stop_recording();
    let trace = st_obs::drain();
    let trace_path = dir.join("trace_run_all.jsonl");
    let meta = serde_json::json!({
        "bin": "run_all",
        "trips": scale.trips as f64,
        "epochs": scale.epochs as f64,
        "seed": scale.seed as f64,
    });
    st_obs::write_jsonl(&trace_path, &meta, &trace)
        .map_err(|e| format!("failed to write {}: {e}", trace_path.display()))?;
    eprintln!(
        "[run_all] trace: {} spans, {} metrics, {} events -> {}",
        trace.spans.len(),
        trace.metrics.len(),
        trace.events.len(),
        trace_path.display()
    );
    eprintln!("[run_all] all results written to {}", dir.display());
    Ok(())
}
