//! Table VI: sensitivity to the number of destination proxies K.
//!
//! The paper sweeps K ∈ {500..3000} on Harbin and finds a rise-then-fall;
//! our Northport city has ~12 destination hotspots, so the sweep covers
//! K ∈ {2, 4, 8, 16, 32, 64} (DESIGN.md §1 documents the scaling).

use st_baselines::{DeepStPredictor, Predictor};
use st_bench::{make_dataset, results_dir, City, Scale};
use st_eval::report::{format_table, write_json};
use st_eval::{build_examples, evaluate_methods, train_deepst, SuiteConfig};

fn main() {
    let scale = Scale::from_args();
    let city = City::Northport;
    eprintln!("[table6] generating {}", city.name());
    let ds = make_dataset(city, &scale);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let val = build_examples(&ds, &split.val);
    let ks = [2usize, 4, 8, 16, 32, 64];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let buckets = st_eval::quantile_buckets(&ds, &split.test, 1);
    for &k in &ks {
        eprintln!("[table6] K = {k}");
        let cfg = SuiteConfig {
            seed: scale.seed,
            deepst_epochs: scale.epochs,
            k_proxies: k,
            ..SuiteConfig::default()
        };
        let model =
            train_deepst(&ds, &train, Some(&val), &cfg, true).expect("DeepST training failed");
        let methods: Vec<Box<dyn Predictor>> = vec![Box::new(DeepStPredictor::new(model))];
        let summary = evaluate_methods(&ds, &methods, &split.test, &buckets, scale.max_eval);
        let res = &summary.results[0];
        let (recall, acc) = (res.overall.recall(), res.overall.accuracy());
        eprintln!("[table6] K = {k}: recall {recall:.3}, accuracy {acc:.3}");
        rows.push(vec![
            format!("{k}"),
            format!("{recall:.3}"),
            format!("{acc:.3}"),
        ]);
        json.push(serde_json::json!({"k": k, "recall": recall, "accuracy": acc}));
    }
    println!("\nTable VI — K-sensitivity on {}", city.name());
    println!("{}", format_table(&["K", "recall@n", "accuracy"], &rows));
    let path = results_dir().join("table6.json");
    write_json(&path, &json).expect("write results");
    eprintln!("[table6] wrote {}", path.display());
}
