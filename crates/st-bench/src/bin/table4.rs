//! Table IV: overall performance — recall@n and accuracy of DeepST,
//! DeepST-C, CSSRNN, RNN, MMI and WSP on both cities.

use st_bench::{results_dir, run_prediction_suite, City, Scale};
use st_eval::report::{format_table, write_json};

fn main() {
    let scale = Scale::from_args();
    let mut json = serde_json::Map::new();
    for city in City::ALL {
        eprintln!(
            "[table4] running {} (trips={}, epochs={})",
            city.name(),
            scale.trips,
            scale.epochs
        );
        let out = run_prediction_suite(city, &scale).expect("suite training failed");
        let mut rows = Vec::new();
        for r in &out.results {
            rows.push(vec![
                r.name.clone(),
                format!("{:.3}", r.overall.recall()),
                format!("{:.3}", r.overall.accuracy()),
            ]);
        }
        println!(
            "\nTable IV — {} ({} test trips evaluated)",
            city.name(),
            out.results[0].overall.count
        );
        println!(
            "{}",
            format_table(&["Method", "recall@n", "accuracy"], &rows)
        );
        json.insert(
            city.name().to_string(),
            serde_json::to_value(&out.results).unwrap(),
        );
    }
    let path = results_dir().join("table4.json");
    write_json(&path, &json).expect("write results");
    eprintln!("[table4] wrote {}", path.display());
}
