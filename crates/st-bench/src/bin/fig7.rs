//! Fig. 7: route prediction accuracy of every method versus travel
//! distance (quantile buckets over the test trips).

use st_bench::{results_dir, run_prediction_suite, City, Scale};
use st_eval::report::{format_table, write_json};

fn main() {
    let scale = Scale::from_args();
    let mut json = serde_json::Map::new();
    for city in City::ALL {
        eprintln!("[fig7] running {}", city.name());
        let out = run_prediction_suite(city, &scale).expect("suite training failed");
        let mut headers: Vec<String> = vec!["bucket (km)".into()];
        headers.extend(out.results.iter().map(|r| r.name.clone()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows = Vec::new();
        for (b, &(lo, hi)) in out.buckets.iter().enumerate() {
            let mut row = vec![if hi.is_finite() {
                format!("[{lo:.1}, {hi:.1})")
            } else {
                format!("[{lo:.1}, ∞)")
            }];
            for r in &out.results {
                row.push(format!("{:.3}", r.per_bucket[b].accuracy()));
            }
            rows.push(row);
        }
        println!("\nFig. 7 — accuracy vs travel distance, {}", city.name());
        println!("{}", format_table(&header_refs, &rows));
        println!(
            "Fig. 7 — {}: {} of {} evaluated trips fall outside every distance bucket (scored overall, absent above)",
            city.name(),
            out.bucket_dropped,
            out.evaluated
        );
        json.insert(
            city.name().into(),
            serde_json::json!({
                "buckets": out.buckets,
                "results": out.results,
                "evaluated": out.evaluated,
                "bucket_dropped": out.bucket_dropped,
            }),
        );
    }
    let path = results_dir().join("fig7.json");
    write_json(&path, &json).expect("write results");
    eprintln!("[fig7] wrote {}", path.display());
}
