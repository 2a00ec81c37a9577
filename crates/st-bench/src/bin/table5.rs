//! Table V: route recovery accuracy versus sampling rate (1–9 minutes),
//! STRS vs STRS+ (DeepST spatial module), with the δ improvement row.

use st_bench::{make_dataset, results_dir, City, Scale};
use st_eval::metrics::accuracy;
use st_eval::report::{format_table, write_json};
use st_eval::{build_examples, train_deepst, SuiteConfig};
use st_recovery::{DeepStSpatial, MarkovSpatial, Recovery, RecoveryConfig, TravelTimeModel};
use st_sim::downsample;

fn main() {
    let scale = Scale::from_args();
    let rates_min: Vec<f64> = (1..=9).map(|m| m as f64).collect();
    let mut json = serde_json::Map::new();
    for city in City::ALL {
        eprintln!("[table5] running {}", city.name());
        let ds = make_dataset(city, &scale);
        let split = ds.default_split();
        let train = build_examples(&ds, &split.train);
        let cfg = SuiteConfig {
            seed: scale.seed,
            deepst_epochs: scale.epochs,
            ..SuiteConfig::default()
        };
        let model = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training failed");
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

        let mut acc_strs = vec![0.0f64; rates_min.len()];
        let mut acc_strsp = vec![0.0f64; rates_min.len()];
        let mut counts = vec![0usize; rates_min.len()];
        let test_ids: Vec<usize> = split
            .test
            .iter()
            .copied()
            .take(scale.recovery_trajs)
            .collect();
        for (ri, &rate) in rates_min.iter().enumerate() {
            for &i in &test_ids {
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
                acc_strs[ri] += accuracy(&trip.route, &r1);
                acc_strsp[ri] += accuracy(&trip.route, &r2);
                counts[ri] += 1;
            }
            eprintln!(
                "[table5] {} rate {}min: STRS {:.3} STRS+ {:.3} ({} trajs)",
                city.name(),
                rate,
                acc_strs[ri] / counts[ri].max(1) as f64,
                acc_strsp[ri] / counts[ri].max(1) as f64,
                counts[ri]
            );
        }
        let strs_row: Vec<f64> = acc_strs
            .iter()
            .zip(&counts)
            .map(|(a, &c)| a / c.max(1) as f64)
            .collect();
        let strsp_row: Vec<f64> = acc_strsp
            .iter()
            .zip(&counts)
            .map(|(a, &c)| a / c.max(1) as f64)
            .collect();
        let delta: Vec<f64> = strs_row
            .iter()
            .zip(&strsp_row)
            .map(|(a, b)| if *a > 0.0 { (b - a) / a * 100.0 } else { 0.0 })
            .collect();
        let mut headers: Vec<String> = vec!["Rate (mins)".into()];
        headers.extend(rates_min.iter().map(|r| format!("{r:.0}")));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows = vec![
            std::iter::once("STRS".to_string())
                .chain(strs_row.iter().map(|v| format!("{v:.2}")))
                .collect::<Vec<_>>(),
            std::iter::once("STRS+".to_string())
                .chain(strsp_row.iter().map(|v| format!("{v:.2}")))
                .collect::<Vec<_>>(),
            std::iter::once("δ (%)".to_string())
                .chain(delta.iter().map(|v| format!("{v:.1}")))
                .collect::<Vec<_>>(),
        ];
        println!(
            "\nTable V — route recovery accuracy vs sampling rate, {}",
            city.name()
        );
        println!("{}", format_table(&header_refs, &rows));
        json.insert(
            city.name().into(),
            serde_json::json!({"rates_min": rates_min, "strs": strs_row, "strs_plus": strsp_row, "delta_pct": delta}),
        );
    }
    let path = results_dir().join("table5.json");
    write_json(&path, &json).expect("write results");
    eprintln!("[table5] wrote {}", path.display());
}
