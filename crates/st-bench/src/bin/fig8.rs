//! Fig. 8: DeepST training time versus training-set size (the paper shows a
//! linear relationship). Trains on 20/40/60/80/100% of the train split and
//! reports wall-clock seconds per epoch.

use st_bench::{make_dataset, results_dir, City, Scale};
use st_eval::report::{format_bars, write_json};
use st_eval::{build_examples, train_deepst, SuiteConfig};

fn main() {
    let scale = Scale::from_args();
    // Fig. 8 uses the Harbin dataset; ours is Northport.
    let city = City::Northport;
    eprintln!("[fig8] generating {}", city.name());
    let ds = make_dataset(city, &scale);
    let split = ds.default_split();
    let all_train = build_examples(&ds, &split.train);
    let mut labels = Vec::new();
    let mut secs = Vec::new();
    for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
        let n = ((all_train.len() as f64) * frac) as usize;
        let cfg = SuiteConfig {
            seed: scale.seed,
            deepst_epochs: 2, // two epochs are enough to measure time/epoch
            batch_size: 64,
            ..SuiteConfig::default()
        };
        let (_, wall) = st_obs::timed("bench/fig8_train", || {
            train_deepst(&ds, &all_train[..n], None, &cfg, true).expect("DeepST training failed")
        });
        let elapsed = wall / 2.0;
        eprintln!("[fig8] {n} trips: {elapsed:.1}s/epoch");
        labels.push(format!("{n} trips"));
        secs.push(elapsed);
    }
    println!(
        "\nFig. 8 — training time per epoch vs training-set size ({})",
        city.name()
    );
    println!("{}", format_bars("", &labels, &secs, 40));
    // linearity check: R² of a least-squares fit through the points
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
    let path = results_dir().join("fig8.json");
    write_json(
        &path,
        &serde_json::json!({"labels": labels, "secs_per_epoch": secs, "r2": r2}),
    )
    .expect("write results");
    eprintln!("[fig8] wrote {}", path.display());
}
